(** Mount management: ext4/nfs/reiserfs mounts and umount.

    Injected bugs: [do_umount_null], [nfs23_parse_monolithic],
    [reiserfs_fill_super], [fs_reclaim_acquire] lives in {!Vfs}. *)

type mounts = {
  mutable mounted : (string * string) list;  (** (mountpoint, fstype). *)
  mutable last_umount : int;
}


val mount_busy : State.t -> bool
(** Is a umount still settling (within its data-race window)? Read by
    {!Vfs}'s open path with no lock held — the lock-free refcount
    check of Linux's [legitimize_mnt], and the read half of the
    [legitimize_mnt] fixture race (records a ["mounts"] effect read). *)

val sub : Subsystem.t
