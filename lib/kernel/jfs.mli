(** Ext4-with-jbd2 journaling subsystem: journaled file descriptors on
    the simulated /mnt/ext4 mount, handle and commit paths, fast
    commits. Data-race windows are modeled deterministically via the
    kernel's operation counter (two phases racing when they occur
    within a few operations of each other).

    Injected bugs: [ext4_writepages_bug], [ext4_mark_iloc_dirty],
    [jbd2_journal_file_buffer], [ext4_handle_dirty_metadata],
    [ext4_fc_commit]. *)

type journal = {
  mutable committing_at : int;  (** Op tick of the last commit start. *)
  mutable fc_commit_at : int;  (** Op tick of the last fast commit. *)
  mutable dirty_handles : int;
}

type ext4_file = {
  mutable iloc_dirty_at : int;
  mutable data_dirty_at : int;
  mutable written : int64;
  mutable journalled : bool;  (** data=journal mode via SETFLAGS. *)
}

type State.fd_kind += Ext4 of ext4_file

val sub : Subsystem.t
