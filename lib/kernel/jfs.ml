type journal = {
  mutable committing_at : int;
  mutable fc_commit_at : int;
  mutable dirty_handles : int;
}

type ext4_file = {
  mutable iloc_dirty_at : int;
  mutable data_dirty_at : int;
  mutable written : int64;
  mutable journalled : bool;
}

type State.fd_kind += Ext4 of ext4_file

let blk = Coverage.region ~name:"jfs" ~size:256
let c ctx o = Ctx.cover ctx (blk + o)
let race_window = 2

let journal_slot =
  State.slot ~name:"journal"
    ~create:(fun () -> { committing_at = 0; fc_commit_at = 0; dirty_handles = 0 })
    ~copy:(fun j -> { j with dirty_handles = j.dirty_handles })

let journal_of st = State.get st journal_slot

let in_window st at = at > 0 && State.now st - at <= race_window

let h_open_ext4 ctx args =
  let path = Arg.as_str (Arg.nth args 0) in
  c ctx 0;
  if String.length path < 10 || String.sub path 0 10 <> "/mnt/ext4/" then begin
    c ctx 1;
    Ctx.err Errno.ENOENT
  end
  else begin
    c ctx 2;
    let f =
      { iloc_dirty_at = 0; data_dirty_at = 0; written = 0L; journalled = false }
    in
    let entry = State.alloc_fd ctx.Ctx.st (Ext4 f) in
    Ctx.ok (Int64.of_int entry.State.fd)
  end

let with_ext4 ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Ext4 f; _ } -> k f
  | Some _ -> (c ctx 4; Ctx.err Errno.EINVAL)
  | None -> (c ctx 5; Ctx.err Errno.EBADF)

let ext4_write ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Ext4 f ->
    let j = journal_of ctx.Ctx.st in
    let n = Arg.buf_length (Arg.nth args 1) in
    c ctx 7;
    f.written <- Int64.add f.written (Int64.of_int n);
    f.data_dirty_at <- State.now ctx.Ctx.st;
    j.dirty_handles <- j.dirty_handles + 1;
    (* Journaled-data write racing a commit: the buffer is refiled
       while the commit walks the list (5.11). *)
    if f.journalled && in_window ctx.Ctx.st j.committing_at then begin
      c ctx 8;
      Ctx.bug ctx "jbd2_journal_file_buffer"
    end;
    if n > 8192 then begin
      c ctx 9;
      (* Writeback of a huge delalloc extent hits a BUG_ON. *)
      if f.journalled then Ctx.bug ctx "ext4_writepages_bug"
    end;
    let combo =
      (if f.journalled then 1 else 0)
      lor (if in_window ctx.Ctx.st j.fc_commit_at then 2 else 0)
      lor if f.iloc_dirty_at > 0 then 4 else 0
    in
    c ctx (64 + combo);
    let size_class =
      if n = 0 then 0 else if n <= 512 then 1 else if n <= 4096 then 2 else 3
    in
    c ctx (96 + (combo * 4) + size_class);
    Ctx.ok (Int64.of_int n)
  | _ -> Ctx.err Errno.EINVAL

let h_fchmod ctx args =
  c ctx 11;
  with_ext4 ctx args (fun f ->
      let j = journal_of ctx.Ctx.st in
      c ctx 12;
      f.iloc_dirty_at <- State.now ctx.Ctx.st;
      (* Inode-location dirty racing the committing transaction
         (5.11). *)
      if in_window ctx.Ctx.st j.committing_at then begin
        c ctx 13;
        Ctx.bug ctx "ext4_mark_iloc_dirty"
      end;
      Ctx.ok0)

let h_setflags ctx args =
  c ctx 15;
  with_ext4 ctx args (fun f ->
      let j = journal_of ctx.Ctx.st in
      let flags = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
      c ctx 16;
      if Int64.logand flags 0x4000L <> 0L then begin
        c ctx 17;
        f.journalled <- true
      end;
      (* Metadata handle dirtied while the commit is live (5.11). *)
      if j.dirty_handles > 0 && in_window ctx.Ctx.st j.committing_at then begin
        c ctx 18;
        Ctx.bug ctx "ext4_handle_dirty_metadata"
      end;
      Ctx.ok0)

let h_fsync_ext4 ctx args =
  c ctx 20;
  with_ext4 ctx args (fun f ->
      let j = journal_of ctx.Ctx.st in
      c ctx 21;
      ignore f;
      j.committing_at <- State.now ctx.Ctx.st;
      j.dirty_handles <- 0;
      Ctx.ok0)

let h_fc_commit ctx args =
  c ctx 23;
  with_ext4 ctx args (fun f ->
      let j = journal_of ctx.Ctx.st in
      c ctx 24;
      (* Two overlapping fast commits race on the fc region (5.11). *)
      if in_window ctx.Ctx.st j.fc_commit_at then begin
        c ctx 25;
        Ctx.bug ctx "ext4_fc_commit"
      end;
      if Int64.compare f.written 0L > 0 then c ctx 26;
      j.fc_commit_at <- State.now ctx.Ctx.st;
      Ctx.ok0)

let descriptions =
  {|
# Ext4 with jbd2 journaling.
resource fd_ext4[fd]
struct ext4_flags_arg { fl int32 }
open$ext4(file filename["/mnt/ext4/f0", "/mnt/ext4/f1"], oflags flags[open_flags], mode const[0x1ff]) fd_ext4
fchmod$ext4(fd fd_ext4, mode int32[0:4095])
ioctl$EXT4_IOC_SETFLAGS(fd fd_ext4, cmd const[0x40086602], arg ptr[in, ext4_flags_arg])
fsync$ext4(fd fd_ext4)
ioctl$EXT4_IOC_FC_COMMIT(fd fd_ext4, cmd const[0x6615])
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Ext4 f -> Some (Ext4 { f with written = f.written })
  | _ -> None

let sub =
  Subsystem.make ~name:"jfs" ~descriptions ~copy_kind
    ~handlers:
      [
        ("open$ext4", h_open_ext4);
        ("fchmod$ext4", h_fchmod);
        ("ioctl$EXT4_IOC_SETFLAGS", h_setflags);
        ("fsync$ext4", h_fsync_ext4);
        ("ioctl$EXT4_IOC_FC_COMMIT", h_fc_commit);
      ]
    ~file_ops:
      [
        {
          Subsystem.op_name = "write";
          applies = (function Ext4 _ -> true | _ -> false);
          run = ext4_write;
        };
      ]
    ()
