type mounts = {
  mutable mounted : (string * string) list;
  mutable last_umount : int;
}


let blk = Coverage.region ~name:"mounts" ~size:192

(* namespace_sem: serializes the mount table. *)
let namespace_sem = Lock.register ~rank:40 ~guards:[ "mounts" ] "namespace_sem"
let c ctx o = Ctx.cover ctx (blk + o)

let s_mounts = Effect.slot "mounts"

(* The mount table is read lock-free by vfs's open path
   ([mount_busy] below) — the legitimize_mnt fixture race. *)
let () =
  Effect.register_race ~slot:"mounts"
    ~parties:[ "mount$ext4"; "mount$nfs"; "mount$reiserfs"; "umount"; "open" ]
    ~bug:"legitimize_mnt"

let mounts_slot =
  State.slot ~name:"mounts"
    ~create:(fun () -> { mounted = [ ("/mnt/ext4", "ext4") ]; last_umount = 0 })
    ~copy:(fun m -> { m with mounted = m.mounted })

let mounts_of st =
  State.record_read st s_mounts;
  State.get st mounts_slot

(* Is a mount transition (a umount) still settling? Linux's
   legitimize_mnt checks the mount's refcount lock-free on the open
   fast path; we model it as reading the table (through [mounts_of],
   which records the effect) with no lock held — the read half of the
   legitimize_mnt race. *)
let mount_busy st =
  let m = mounts_of st in
  m.last_umount > 0 && State.now st - m.last_umount <= 2

let valid_mountpoint = function "/mnt/a" | "/mnt/b" | "/mnt/ext4" -> true | _ -> false

let h_mount_ext4 ctx args =
  let dst = Arg.as_str (Arg.nth args 1) in
  let m = mounts_of ctx.Ctx.st in
  c ctx 0;
  if not (valid_mountpoint dst) then begin
    c ctx 1;
    Ctx.err Errno.ENOENT
  end
  else if List.mem_assoc dst m.mounted then begin
    c ctx 2;
    Ctx.err Errno.EBUSY
  end
  else begin
    c ctx 3;
    State.record_write ctx.Ctx.st s_mounts;
    m.mounted <- (dst, "ext4") :: m.mounted;
    Ctx.ok0
  end

let h_mount_nfs ctx args =
  let dst = Arg.as_str (Arg.nth args 1) in
  let m = mounts_of ctx.Ctx.st in
  c ctx 5;
  if not (valid_mountpoint dst) then begin
    c ctx 6;
    Ctx.err Errno.ENOENT
  end
  else begin
    let data = Arg.nth args 2 in
    let version = Arg.as_int (Arg.field data 0) in
    let namlen = Arg.as_int (Arg.field data 1) in
    if Int64.compare version 2L < 0 || Int64.compare version 4L > 0 then begin
      c ctx 7;
      Ctx.err Errno.EINVAL
    end
    else begin
      c ctx 8;
      (* v2/v3 monolithic mount data with an oversized name length:
         the parser bails after allocating the context (5.6+). *)
      if Int64.compare version 4L < 0 && Int64.compare namlen 255L > 0 then begin
        c ctx 9;
        Ctx.bug ctx "nfs23_parse_monolithic";
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 10;
        State.record_write ctx.Ctx.st s_mounts;
        m.mounted <- (dst, "nfs") :: m.mounted;
        Ctx.ok0
      end
    end
  end

let h_mount_reiserfs ctx args =
  let dst = Arg.as_str (Arg.nth args 1) in
  let m = mounts_of ctx.Ctx.st in
  c ctx 12;
  if not (valid_mountpoint dst) then begin
    c ctx 13;
    Ctx.err Errno.ENOENT
  end
  else begin
    let opts = Arg.nth args 2 in
    let n = Arg.buf_length opts in
    c ctx 14;
    (* A journal-device option pointing into the tiny superblock
       area crashes fill_super (4.19). *)
    if n >= 4 && Arg.buf_get opts 0 = 'j' && Arg.buf_get opts 1 = 'd'
    then begin
      c ctx 15;
      Ctx.bug ctx "reiserfs_fill_super";
      Ctx.err Errno.EINVAL
    end
    else if n > 64 then begin
      c ctx 16;
      Ctx.err Errno.EINVAL
    end
    else begin
      c ctx 17;
      State.record_write ctx.Ctx.st s_mounts;
      m.mounted <- (dst, "reiserfs") :: m.mounted;
      Ctx.ok0
    end
  end

let h_umount ctx args =
  let dst = Arg.as_str (Arg.nth args 0) in
  let m = mounts_of ctx.Ctx.st in
  c ctx 19;
  if List.mem_assoc dst m.mounted then begin
    c ctx 20;
    State.record_write ctx.Ctx.st s_mounts;
    m.mounted <- List.remove_assoc dst m.mounted;
    m.last_umount <- State.now ctx.Ctx.st;
    Ctx.ok0
  end
  else begin
    c ctx 21;
    (* Re-umounting a just-detached mountpoint follows the NULL
       mnt (known bug). *)
    if m.last_umount > 0 && State.now ctx.Ctx.st - m.last_umount <= 2 then begin
      c ctx 22;
      Ctx.bug ctx "do_umount_null"
    end;
    Ctx.err Errno.EINVAL
  end

let descriptions =
  {|
# Mounts: ext4, nfs, reiserfs.
struct nfs_mount_data { version int32, namlen int32, opts buffer[in] }
mount$ext4(src filename["/dev/loop0"], dst filename["/mnt/a", "/mnt/b", "/mnt/ext4"], fstype string["ext4"], mflags int32, data ptr[in, int64])
mount$nfs(src filename["10.0.0.1:/export"], dst filename["/mnt/a", "/mnt/b"], data ptr[in, nfs_mount_data])
mount$reiserfs(src filename["/dev/loop0"], dst filename["/mnt/a", "/mnt/b"], opts ptr[in, string["acl", "nolog", "jdev=/dev/loop1", "notail"]])
umount(dst filename["/mnt/a", "/mnt/b", "/mnt/ext4"])
|}

let sub =
  let l = Subsystem.locked [ namespace_sem ] in
  let w = Lock.scoped [ "namespace_sem" ] ~touches:[ "mounts" ] in
  Subsystem.make ~name:"mounts" ~descriptions
    ~handlers:
      [
        ("mount$ext4", l h_mount_ext4);
        ("mount$nfs", l h_mount_nfs);
        ("mount$reiserfs", l h_mount_reiserfs);
        ("umount", l h_umount);
      ]
    ~locks:
      [
        ("mount$ext4", w);
        ("mount$nfs", w);
        ("mount$reiserfs", w);
        ("umount", w);
      ]
    ~effects:
      (let e = Effect.spec ~writes:[ "mounts" ] () in
       [
         ("mount$ext4", e);
         ("mount$nfs", e);
         ("mount$reiserfs", e);
         ("umount", e);
       ])
    ()
