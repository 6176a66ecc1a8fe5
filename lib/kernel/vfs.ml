type file = {
  path : string;
  mutable offset : int64;
  mutable oflags : int64;
  mutable mapped : bool;
}

type epoll = { mutable watched : int list; mutable last_wait : int }

type aio_ctx_state = {
  mutable inflight : int;
  mutable draining : bool;
  mutable live : bool;
  mutable last_destroy : int;
}

type chrdev = { mutable registered : bool; mutable opens : int; mutable active : bool }

type inode = {
  mutable size : int64;
  mutable nlink : int;
  mutable exists : bool;
  mutable last_stat : int;
  mutable open_fds : int;
  mutable is_dir : bool;
  mutable locked_ex : bool;  (* flock LOCK_EX held *)
}

type fs = {
  inodes : (string, inode) Hashtbl.t;
  aio : (int64, aio_ctx_state) Hashtbl.t;
  mutable next_aio : int64;
  chr : chrdev;
}

type State.fd_kind += File of file
type State.fd_kind += Epoll of epoll
type State.fd_kind += Chrfd of { mutable writes : int }

let o_creat = 0x40L
let o_trunc = 0x200L

let blk = Coverage.region ~name:"vfs" ~size:512

(* One class for the namespace/inode/aio/chr state and open-file
   payloads (i_rwsem writ large); epoll's per-instance state nests
   under its own class like ep->mtx. *)
let vfs_files =
  Lock.register ~rank:30 ~guards:[ "fs"; "fd:file"; "fd:chr" ] "vfs_files"

let ep_mutex = Lock.register ~rank:35 ~guards:[ "fd:epoll" ] "ep_mutex"
let c ctx o = Ctx.cover ctx (blk + o)

(* Effect slots. Fresh-payload allocation (a new File/Epoll/Chrfd
   record the caller has not yet received the fd for) is exempt from
   effect classification — the object is unreachable until the call
   returns, Eraser's initialization-phase rule. Payload accesses after
   publication are the [fd:*] slots. *)
let s_fs = Effect.slot "fs"
let s_fd_file = Effect.slot "fd:file"
let s_fd_chr = Effect.slot "fd:chr"
let s_fd_epoll = Effect.slot "fd:epoll"

let fs_slot =
  State.slot ~name:"fs"
    ~create:(fun () ->
      let fs =
        {
          inodes = Hashtbl.create 16;
          aio = Hashtbl.create 8;
          next_aio = 1L;
          chr = { registered = false; opens = 0; active = false };
        }
      in
      (* Files that exist at boot. *)
      Hashtbl.replace fs.inodes "/etc/passwd"
        { size = 2048L; nlink = 1; exists = true; last_stat = 0; open_fds = 0; is_dir = false; locked_ex = false };
      fs)
    ~copy:(fun fs ->
      {
        inodes = State.copy_tbl (fun (i : inode) -> { i with size = i.size }) fs.inodes;
        aio =
          State.copy_tbl
            (fun (a : aio_ctx_state) -> { a with inflight = a.inflight })
            fs.aio;
        next_aio = fs.next_aio;
        chr = { fs.chr with opens = fs.chr.opens };
      })

let fs_of st =
  State.record_read st s_fs;
  State.get st fs_slot

let inode fs path = Hashtbl.find_opt fs.inodes path

let inode_or_create fs path =
  match inode fs path with
  | Some i when i.exists -> i
  | Some i ->
    i.exists <- true;
    i.size <- 0L;
    i.nlink <- 1;
    i
  | None ->
    let i = { size = 0L; nlink = 1; exists = true; last_stat = 0; open_fds = 0; is_dir = false; locked_ex = false } in
    Hashtbl.replace fs.inodes path i;
    i

let inode_size st path =
  match inode (fs_of st) path with
  | Some i when i.exists -> Some i.size
  | Some _ | None -> None

let lookup_aio st id =
  match Hashtbl.find_opt (fs_of st).aio id with
  | Some a -> a.live
  | None -> false

(* ---- open family ---- *)

let do_open ?(check_mount = false) ctx path flags =
  let fs = fs_of ctx.Ctx.st in
  c ctx 0;
  if String.length path = 0 then begin
    c ctx 1;
    Ctx.err Errno.EFAULT
  end
  else begin
    (* Opening through a mount point checks the mount table lock-free
       (legitimize_mnt's refcount fast path): during a umount's settle
       window the mount can go away under us (5.4). Only [open] walks
       absolute mount points here — openat is modeled as relative and
       must stay off the mount table (its effect spec declares no
       "mounts" read). *)
    if check_mount && String.length path >= 4 && String.sub path 0 4 = "/mnt"
    then begin
      c ctx 9;
      if Mounts.mount_busy ctx.Ctx.st then begin
        c ctx 18;
        Ctx.bug ctx "legitimize_mnt"
      end
    end;
    let creating = Int64.logand flags o_creat <> 0L in
    match inode fs path with
    | Some i when i.exists ->
      c ctx 2;
      State.record_write ctx.Ctx.st s_fs;
      if Int64.logand flags o_trunc <> 0L then begin
        c ctx 3;
        i.size <- 0L
      end;
      i.open_fds <- i.open_fds + 1;
      let entry =
        State.alloc_fd ctx.Ctx.st (File { path; offset = 0L; oflags = flags; mapped = false })
      in
      c ctx 4;
      Ctx.ok (Int64.of_int entry.fd)
    | Some _ | None ->
      if creating then begin
        c ctx 5;
        State.record_write ctx.Ctx.st s_fs;
        let i = inode_or_create fs path in
        i.open_fds <- i.open_fds + 1;
        let entry =
          State.alloc_fd ctx.Ctx.st
            (File { path; offset = 0L; oflags = flags; mapped = false })
        in
        c ctx 6;
        Ctx.ok (Int64.of_int entry.fd)
      end
      else begin
        c ctx 7;
        Ctx.err Errno.ENOENT
      end
  end

let h_open ctx args =
  do_open ~check_mount:true ctx
    (Arg.as_str (Arg.nth args 0))
    (Arg.as_int (Arg.nth args 1))

let h_openat ctx args =
  c ctx 8;
  (* dirfd is accepted but only AT_FDCWD-style behaviour is modeled. *)
  do_open ctx (Arg.as_str (Arg.nth args 1)) (Arg.as_int (Arg.nth args 2))

let h_close ctx args =
  let fd = Arg.as_fd (Arg.nth args 0) in
  c ctx 10;
  match State.lookup_fd ctx.Ctx.st fd with
  | None ->
    c ctx 11;
    Ctx.err Errno.EBADF
  | Some entry ->
    (* Subsystems may observe the close (release hooks). *)
    ignore (Subsystem.dispatch_file_op ctx "close" entry args);
    (match entry.kind with
    | File f -> (
      c ctx 12;
      let fs = fs_of ctx.Ctx.st in
      match inode fs f.path with
      | Some i ->
        State.record_write ctx.Ctx.st s_fs;
        i.open_fds <- max 0 (i.open_fds - 1);
        (* __fput racing with ep_remove: closing a descriptor still
           watched by an epoll instance right after a wait cycle. The
           scan reads every epoll instance's interest list, so it must
           nest ep_mutex inside vfs_files (rank 30 -> 35) — a first
           draft read them under vfs_files alone, which the read-side
           lock-guard-coverage check flagged ("fd:epoll" is ep_mutex
           territory). *)
        let watched_by_epoll =
          Ctx.with_lock ctx ep_mutex (fun () ->
              State.record_read ctx.Ctx.st s_fd_epoll;
              State.exists_fd ctx.Ctx.st (fun e ->
                  match e.State.kind with
                  | Epoll ep ->
                    List.mem fd ep.watched
                    && State.now ctx.Ctx.st - ep.last_wait <= 3
                    && ep.last_wait > 0
                  | _ -> false))
        in
        if watched_by_epoll then begin
          c ctx 13;
          Ctx.bug ctx "fput_ep_remove"
        end
      | None -> ())
    | Chrfd _ ->
      c ctx 14;
      let fs = fs_of ctx.Ctx.st in
      State.record_write ctx.Ctx.st s_fs;
      fs.chr.opens <- max 0 (fs.chr.opens - 1);
      (* cdev_del: device node unlinked while descriptors remained
         open; the final close underflows the cdev refcount. *)
      if (not fs.chr.registered) && fs.chr.active && fs.chr.opens >= 1 then begin
        c ctx 15;
        Ctx.bug ctx "cdev_del"
      end
    | _ -> c ctx 16);
    ignore (State.close_fd ctx.Ctx.st fd);
    c ctx 17;
    Ctx.ok0

(* ---- generic read/write/lseek through the file_op chain ---- *)

let h_read ctx args =
  let fd = Arg.as_fd (Arg.nth args 0) in
  c ctx 20;
  match State.lookup_fd ctx.Ctx.st fd with
  | None ->
    c ctx 21;
    Ctx.err Errno.EBADF
  | Some entry -> (
    match Subsystem.dispatch_file_op ctx "read" entry args with
    | Some r -> r
    | None ->
      c ctx 22;
      Ctx.err Errno.EINVAL)

let h_write ctx args =
  let fd = Arg.as_fd (Arg.nth args 0) in
  c ctx 25;
  match State.lookup_fd ctx.Ctx.st fd with
  | None ->
    c ctx 26;
    Ctx.err Errno.EBADF
  | Some entry -> (
    match Subsystem.dispatch_file_op ctx "write" entry args with
    | Some r -> r
    | None ->
      c ctx 27;
      Ctx.err Errno.EINVAL)

let file_read ctx (entry : State.fd_entry) args =
  match entry.kind with
  | File f -> (
    let fs = fs_of ctx.Ctx.st in
    let count = Int64.to_int (Arg.as_int (Arg.nth args 2)) in
    c ctx 30;
    match inode fs f.path with
    | None ->
      c ctx 31;
      Ctx.err Errno.EIO
    | Some i ->
      if count < 0 then begin
        c ctx 32;
        Ctx.err Errno.EINVAL
      end
      else if count > 2 * Int64.to_int i.size && count > 4096 then begin
        (* Oversized read into an undersized slab buffer. *)
        c ctx 33;
        Ctx.bug ctx "vfs_read_oob";
        Ctx.ok 0L
      end
      else if Int64.compare f.offset i.size >= 0 then begin
        c ctx 34;
        Ctx.ok 0L (* EOF *)
      end
      else begin
        c ctx 35;
        let avail = Int64.sub i.size f.offset in
        let n = min (Int64.of_int count) avail in
        State.record_write ctx.Ctx.st s_fd_file;
        f.offset <- Int64.add f.offset n;
        if Int64.compare n 1024L > 0 then c ctx 36 else c ctx 37;
        let combo =
          (if f.mapped then 1 else 0)
          lor (if i.nlink > 1 then 2 else 0)
          lor if Int64.compare i.size 4096L > 0 then 4 else 0
        in
        c ctx (200 + combo);
        Ctx.ok n
      end)
  | _ -> Ctx.err Errno.EINVAL

let file_write ctx (entry : State.fd_entry) args =
  match entry.kind with
  | File f -> (
    let fs = fs_of ctx.Ctx.st in
    let count = Arg.buf_length (Arg.nth args 1) in
    c ctx 40;
    match inode fs f.path with
    | None ->
      c ctx 41;
      Ctx.err Errno.EIO
    | Some i ->
      if not i.exists then begin
        c ctx 42;
        Ctx.err Errno.ENOENT
      end
      else begin
        let end_pos = Int64.add f.offset (Int64.of_int count) in
        if Int64.compare end_pos i.size > 0 then begin
          c ctx 43;
          State.record_write ctx.Ctx.st s_fs;
          i.size <- end_pos
        end
        else c ctx 44;
        State.record_write ctx.Ctx.st s_fd_file;
        f.offset <- end_pos;
        if count = 0 then c ctx 45
        else if count > 4096 then c ctx 46
        else c ctx 47;
        Ctx.ok (Int64.of_int count)
      end)
  | _ -> Ctx.err Errno.EINVAL

let h_lseek ctx args =
  let fd = Arg.as_fd (Arg.nth args 0) in
  let offset = Arg.as_int (Arg.nth args 1) in
  let whence = Arg.as_int (Arg.nth args 2) in
  c ctx 50;
  match State.lookup_fd ctx.Ctx.st fd with
  | None ->
    c ctx 51;
    Ctx.err Errno.EBADF
  | Some { kind = File f; _ } ->
    let fs = fs_of ctx.Ctx.st in
    let size = match inode fs f.path with Some i -> i.size | None -> 0L in
    let base =
      match whence with 0L -> 0L | 1L -> f.offset | 2L -> size | _ -> -1L
    in
    if Int64.compare base 0L < 0 then begin
      c ctx 52;
      Ctx.err Errno.EINVAL
    end
    else begin
      let dest = Int64.add base offset in
      if Int64.compare dest 0L < 0 then begin
        c ctx 53;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 54;
        State.record_write ctx.Ctx.st s_fd_file;
        f.offset <- dest;
        if Int64.compare dest size > 0 then c ctx 55;
        Ctx.ok dest
      end
    end
  | Some entry -> (
    match Subsystem.dispatch_file_op ctx "lseek" entry args with
    | Some r -> r
    | None ->
      c ctx 56;
      Ctx.err Errno.EINVAL)

let h_dup ctx args =
  let fd = Arg.as_fd (Arg.nth args 0) in
  c ctx 58;
  match State.dup_fd ctx.Ctx.st fd with
  | None ->
    c ctx 59;
    Ctx.err Errno.EBADF
  | Some fd' ->
    c ctx 60;
    Ctx.ok (Int64.of_int fd')

let h_fsync ctx args =
  let fd = Arg.as_fd (Arg.nth args 0) in
  c ctx 62;
  match State.lookup_fd ctx.Ctx.st fd with
  | None ->
    c ctx 63;
    Ctx.err Errno.EBADF
  | Some _ ->
    c ctx 64;
    Ctx.ok0

let h_ftruncate ctx args =
  let fd = Arg.as_fd (Arg.nth args 0) in
  let len = Arg.as_int (Arg.nth args 1) in
  c ctx 66;
  match State.lookup_fd ctx.Ctx.st fd with
  | None ->
    c ctx 67;
    Ctx.err Errno.EBADF
  | Some entry -> (
    match Subsystem.dispatch_file_op ctx "ftruncate" entry args with
    | Some r -> r
    | None -> (
      match entry.kind with
      | File f -> (
        let fs = fs_of ctx.Ctx.st in
        if Int64.compare len 0L < 0 then begin
          c ctx 68;
          Ctx.err Errno.EINVAL
        end
        else
          match inode fs f.path with
          | None ->
            c ctx 69;
            Ctx.err Errno.EIO
          | Some i ->
            c ctx 70;
            if Int64.compare len i.size < 0 then c ctx 71 else c ctx 72;
            State.record_write ctx.Ctx.st s_fs;
            i.size <- len;
            Ctx.ok0)
      | _ ->
        c ctx 73;
        Ctx.err Errno.EINVAL))

let h_fallocate ctx args =
  let fd = Arg.as_fd (Arg.nth args 0) in
  let mode = Arg.as_int (Arg.nth args 1) in
  let len = Arg.as_int (Arg.nth args 3) in
  c ctx 75;
  match State.lookup_fd ctx.Ctx.st fd with
  | None ->
    c ctx 76;
    Ctx.err Errno.EBADF
  | Some { kind = File f; _ } -> (
    State.record_read ctx.Ctx.st s_fd_file;
    let fs = fs_of ctx.Ctx.st in
    match inode fs f.path with
    | None ->
      c ctx 77;
      Ctx.err Errno.EIO
    | Some i ->
      if Int64.compare len 0L <= 0 then begin
        c ctx 78;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 79;
        (* Punch-hole on a mapped file under memory pressure takes the
           reclaim path with a lock already held (4.19 lockdep splat). *)
        if
          Int64.logand mode 0x3L = 0x3L && f.mapped
          && Int64.compare len 0x100000L >= 0
        then begin
          c ctx 80;
          Ctx.bug ctx "fs_reclaim_acquire"
        end;
        if Int64.logand mode 0x1L <> 0L then c ctx 81
        else begin
          c ctx 82;
          if Int64.compare len i.size > 0 then begin
            State.record_write ctx.Ctx.st s_fs;
            i.size <- len
          end
        end;
        Ctx.ok0
      end)
  | Some _ ->
    c ctx 83;
    Ctx.err Errno.ENODEV

let h_fstat ctx args =
  let fd = Arg.as_fd (Arg.nth args 0) in
  c ctx 85;
  match State.lookup_fd ctx.Ctx.st fd with
  | None ->
    c ctx 86;
    Ctx.err Errno.EBADF
  | Some { kind = File f; _ } -> (
    State.record_read ctx.Ctx.st s_fd_file;
    let fs = fs_of ctx.Ctx.st in
    match inode fs f.path with
    | None ->
      c ctx 87;
      Ctx.err Errno.EIO
    | Some i ->
      c ctx 88;
      State.record_write ctx.Ctx.st s_fs;
      i.last_stat <- State.now ctx.Ctx.st;
      if i.nlink > 1 then c ctx 89;
      Ctx.ok0)
  | Some _ ->
    c ctx 90;
    Ctx.ok0

let h_link ctx args =
  let oldpath = Arg.as_str (Arg.nth args 0) in
  let newpath = Arg.as_str (Arg.nth args 1) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 92;
  match inode fs oldpath with
  | Some i when i.exists ->
    if oldpath = newpath then begin
      c ctx 93;
      Ctx.err Errno.EEXIST
    end
    else begin
      c ctx 94;
      State.record_write ctx.Ctx.st s_fs;
      i.nlink <- i.nlink + 1;
      Ctx.ok0
    end
  | Some _ | None ->
    c ctx 95;
    Ctx.err Errno.ENOENT

let h_unlink ctx args =
  let path = Arg.as_str (Arg.nth args 0) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 97;
  if path = "/dev/c0" then begin
    (* Unlinking the char-device node unregisters the cdev. *)
    c ctx 98;
    if fs.chr.registered then begin
      State.record_write ctx.Ctx.st s_fs;
      fs.chr.registered <- false;
      Ctx.ok0
    end
    else begin
      c ctx 99;
      Ctx.err Errno.ENOENT
    end
  end
  else
    match inode fs path with
    | Some i when i.exists ->
      c ctx 100;
      State.record_write ctx.Ctx.st s_fs;
      i.nlink <- i.nlink - 1;
      (* drop_nlink racing generic_fillattr: a stat within the race
         window on a multi-link inode that still has open descriptors. *)
      if
        i.nlink >= 1 && i.open_fds >= 1
        && State.now ctx.Ctx.st - i.last_stat <= 2
        && i.last_stat > 0
      then begin
        c ctx 101;
        Ctx.bug ctx "drop_nlink"
      end;
      if i.nlink <= 0 then begin
        c ctx 102;
        i.exists <- false
      end;
      Ctx.ok0
    | Some _ | None ->
      c ctx 103;
      Ctx.err Errno.ENOENT

(* ---- character device ---- *)

let h_mknod_chr ctx args =
  let path = Arg.as_str (Arg.nth args 0) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 105;
  if path <> "/dev/c0" then begin
    c ctx 106;
    Ctx.err Errno.EACCES
  end
  else if fs.chr.registered then begin
    c ctx 107;
    Ctx.err Errno.EEXIST
  end
  else begin
    c ctx 108;
    State.record_write ctx.Ctx.st s_fs;
    fs.chr.registered <- true;
    fs.chr.opens <- 0;
    fs.chr.active <- false;
    Ctx.ok0
  end

let h_open_chr ctx args =
  let path = Arg.as_str (Arg.nth args 0) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 110;
  if path <> "/dev/c0" || not fs.chr.registered then begin
    c ctx 111;
    Ctx.err Errno.ENOENT
  end
  else begin
    c ctx 112;
    State.record_write ctx.Ctx.st s_fs;
    fs.chr.opens <- fs.chr.opens + 1;
    if fs.chr.opens > 1 then c ctx 113;
    let entry = State.alloc_fd ctx.Ctx.st (Chrfd { writes = 0 }) in
    Ctx.ok (Int64.of_int entry.fd)
  end

let chr_write ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Chrfd cw ->
    let fs = fs_of ctx.Ctx.st in
    let n = Arg.buf_length (Arg.nth args 1) in
    c ctx 115;
    State.record_write ctx.Ctx.st s_fd_chr;
    cw.writes <- cw.writes + 1;
    State.record_write ctx.Ctx.st s_fs;
    fs.chr.active <- true;
    if n > 256 then c ctx 116 else c ctx 117;
    Ctx.ok (Int64.of_int n)
  | _ -> Ctx.err Errno.EINVAL

(* ---- mmap / munmap ---- *)

let h_mmap ctx args =
  let len = Arg.as_int (Arg.nth args 1) in
  let prot = Arg.as_int (Arg.nth args 2) in
  let fd = Arg.as_fd (Arg.nth args 4) in
  c ctx 120;
  if Int64.compare len 0L <= 0 then begin
    c ctx 121;
    Ctx.err Errno.EINVAL
  end
  else
    match State.lookup_fd ctx.Ctx.st fd with
    | None ->
      (* Anonymous-style mapping with a bad fd still fails. *)
      c ctx 122;
      Ctx.err Errno.EBADF
    | Some entry -> (
      match Subsystem.dispatch_file_op ctx "mmap" entry args with
      | Some r -> r
      | None -> (
        match entry.kind with
        | File f ->
          c ctx 123;
          State.record_write ctx.Ctx.st s_fd_file;
          f.mapped <- true;
          if Int64.logand prot 0x2L <> 0L then c ctx 124;
          Ctx.ok 0x7f0000000000L
        | Chrfd cw ->
          c ctx 125;
          State.record_read ctx.Ctx.st s_fd_chr;
          (* Mapping an active character device executable takes the
             ioremap path; 5.11 hits a BUG_ON in ioremap_page_range. *)
          if Int64.logand prot 0x4L <> 0L && cw.writes >= 1 then begin
            c ctx 126;
            Ctx.bug ctx "ioremap_page_range"
          end;
          Ctx.ok 0x7f0000400000L
        | _ ->
          c ctx 127;
          Ctx.err Errno.ENODEV))

let h_munmap ctx _args =
  c ctx 129;
  Ctx.ok0

(* ---- epoll ---- *)

let h_epoll_create ctx args =
  let size = Arg.as_int (Arg.nth args 0) in
  c ctx 131;
  if Int64.compare size 0L < 0 then begin
    c ctx 132;
    Ctx.err Errno.EINVAL
  end
  else begin
    c ctx 133;
    let entry = State.alloc_fd ctx.Ctx.st (Epoll { watched = []; last_wait = 0 }) in
    Ctx.ok (Int64.of_int entry.fd)
  end

let with_epoll ctx args k =
  let epfd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st epfd with
  | Some { kind = Epoll ep; _ } ->
    State.record_read ctx.Ctx.st s_fd_epoll;
    k ep
  | Some _ ->
    c ctx 135;
    Ctx.err Errno.EINVAL
  | None ->
    c ctx 136;
    Ctx.err Errno.EBADF

let h_epoll_ctl_add ctx args =
  c ctx 138;
  with_epoll ctx args (fun ep ->
      let fd = Arg.as_fd (Arg.nth args 2) in
      match State.lookup_fd ctx.Ctx.st fd with
      | None ->
        c ctx 139;
        Ctx.err Errno.EBADF
      | Some _ ->
        if List.mem fd ep.watched then begin
          c ctx 140;
          Ctx.err Errno.EEXIST
        end
        else begin
          c ctx 141;
          State.record_write ctx.Ctx.st s_fd_epoll;
          ep.watched <- fd :: ep.watched;
          Ctx.ok0
        end)

let h_epoll_ctl_del ctx args =
  c ctx 143;
  with_epoll ctx args (fun ep ->
      let fd = Arg.as_fd (Arg.nth args 2) in
      if List.mem fd ep.watched then begin
        c ctx 144;
        State.record_write ctx.Ctx.st s_fd_epoll;
        ep.watched <- List.filter (fun x -> x <> fd) ep.watched;
        Ctx.ok0
      end
      else begin
        c ctx 145;
        Ctx.err Errno.ENOENT
      end)

let h_epoll_wait ctx args =
  c ctx 147;
  with_epoll ctx args (fun ep ->
      State.record_write ctx.Ctx.st s_fd_epoll;
      ep.last_wait <- State.now ctx.Ctx.st;
      if ep.watched = [] then begin
        c ctx 148;
        Ctx.ok 0L
      end
      else begin
        c ctx 149;
        c ctx (220 + min 7 (List.length ep.watched));
        Ctx.ok (Int64.of_int (List.length ep.watched))
      end)

(* ---- AIO ---- *)

let h_io_setup ctx args =
  let nr = Arg.as_int (Arg.nth args 0) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 151;
  if Int64.compare nr 0L <= 0 then begin
    c ctx 152;
    Ctx.err Errno.EINVAL
  end
  else begin
    c ctx 153;
    State.record_write ctx.Ctx.st s_fs;
    let id = fs.next_aio in
    fs.next_aio <- Int64.add fs.next_aio 1L;
    Hashtbl.replace fs.aio id
      { inflight = 0; draining = false; live = true; last_destroy = 0 };
    Ctx.ok id
  end

let h_io_submit ctx args =
  let id = Arg.as_int (Arg.nth args 0) in
  let nr = Arg.as_int (Arg.nth args 1) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 155;
  match Hashtbl.find_opt fs.aio id with
  | None ->
    c ctx 156;
    Ctx.err Errno.EINVAL
  | Some a ->
    if a.draining then begin
      (* Submitting into a context mid-teardown self-deadlocks on the
         ctx lock (io_submit_one, 5.0). *)
      c ctx 157;
      Ctx.bug ctx "io_submit_one";
      Ctx.err Errno.EINVAL
    end
    else if not a.live then begin
      c ctx 158;
      Ctx.err Errno.EINVAL
    end
    else begin
      c ctx 159;
      State.record_write ctx.Ctx.st s_fs;
      let n = max 0 (min 64 (Int64.to_int nr)) in
      a.inflight <- a.inflight + n;
      if n = 0 then c ctx 160 else if n > 4 then c ctx 161 else c ctx 162;
      c ctx (230 + min 7 (a.inflight / 4));
      Ctx.ok (Int64.of_int n)
    end

let h_io_destroy ctx args =
  let id = Arg.as_int (Arg.nth args 0) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 164;
  match Hashtbl.find_opt fs.aio id with
  | None ->
    c ctx 165;
    Ctx.err Errno.EINVAL
  | Some a ->
    if a.draining && State.now ctx.Ctx.st - a.last_destroy <= 2 then begin
      (* Double destroy while requests are still in flight: percpu ref
         teardown waits on itself (free_ioctx_users, 5.0). *)
      c ctx 166;
      if a.inflight > 0 then Ctx.bug ctx "free_ioctx_users";
      Ctx.err Errno.EINVAL
    end
    else if not a.live then begin
      c ctx 167;
      Ctx.err Errno.EINVAL
    end
    else begin
      c ctx 168;
      State.record_write ctx.Ctx.st s_fs;
      if a.inflight > 0 then begin
        c ctx 169;
        a.draining <- true;
        a.last_destroy <- State.now ctx.Ctx.st
      end
      else begin
        c ctx 170;
        a.live <- false
      end;
      Ctx.ok0
    end

(* ---- positional IO, directories, rename, locks, fcntl ---- *)

let with_file ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = File f; _ } ->
    State.record_read ctx.Ctx.st s_fd_file;
    k f
  | Some _ ->
    c ctx 240;
    Ctx.err Errno.EINVAL
  | None ->
    c ctx 241;
    Ctx.err Errno.EBADF

(* pread/pwrite address the inode at an explicit offset without moving
   the descriptor's position. *)
let h_pread ctx args =
  c ctx 243;
  with_file ctx args (fun f ->
      let fs = fs_of ctx.Ctx.st in
      let count = Arg.as_int (Arg.nth args 2) in
      let offset = Arg.as_int (Arg.nth args 3) in
      match inode fs f.path with
      | None ->
        c ctx 244;
        Ctx.err Errno.EIO
      | Some i ->
        if Int64.compare offset 0L < 0 then begin
          c ctx 245;
          Ctx.err Errno.EINVAL
        end
        else if Int64.compare offset i.size >= 0 then begin
          c ctx 246;
          Ctx.ok 0L
        end
        else begin
          c ctx 247;
          Ctx.ok (min count (Int64.sub i.size offset))
        end)

let h_pwrite ctx args =
  c ctx 249;
  with_file ctx args (fun f ->
      let fs = fs_of ctx.Ctx.st in
      let n = Int64.of_int (Arg.buf_length (Arg.nth args 1)) in
      let offset = Arg.as_int (Arg.nth args 3) in
      match inode fs f.path with
      | None ->
        c ctx 250;
        Ctx.err Errno.EIO
      | Some i ->
        if Int64.compare offset 0L < 0 then begin
          c ctx 251;
          Ctx.err Errno.EINVAL
        end
        else begin
          c ctx 252;
          let end_pos = Int64.add offset n in
          if Int64.compare end_pos i.size > 0 then begin
            c ctx 253;
            State.record_write ctx.Ctx.st s_fs;
            i.size <- end_pos
          end;
          Ctx.ok n
        end)

let h_mkdir ctx args =
  let path = Arg.as_str (Arg.nth args 0) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 255;
  match inode fs path with
  | Some i when i.exists ->
    c ctx 256;
    Ctx.err Errno.EEXIST
  | Some _ | None ->
    c ctx 257;
    State.record_write ctx.Ctx.st s_fs;
    let i = inode_or_create fs path in
    i.is_dir <- true;
    i.nlink <- 2;
    Ctx.ok0

let h_rmdir ctx args =
  let path = Arg.as_str (Arg.nth args 0) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 259;
  match inode fs path with
  | Some i when i.exists && i.is_dir ->
    if i.open_fds > 0 then begin
      c ctx 260;
      Ctx.err Errno.EBUSY
    end
    else begin
      c ctx 261;
      State.record_write ctx.Ctx.st s_fs;
      i.exists <- false;
      Ctx.ok0
    end
  | Some i when i.exists ->
    c ctx 262;
    Ctx.err Errno.ENOTTY (* ENOTDIR is not modeled; closest errno *)
  | Some _ | None ->
    c ctx 263;
    Ctx.err Errno.ENOENT

let h_rename ctx args =
  let oldpath = Arg.as_str (Arg.nth args 0) in
  let newpath = Arg.as_str (Arg.nth args 1) in
  let fs = fs_of ctx.Ctx.st in
  c ctx 265;
  if oldpath = newpath then begin
    c ctx 266;
    Ctx.ok0
  end
  else
    match inode fs oldpath with
    | Some i when i.exists ->
      c ctx 267;
      State.record_write ctx.Ctx.st s_fs;
      (* The destination inode, if any, is replaced. *)
      (match inode fs newpath with
      | Some d when d.exists ->
        c ctx 268;
        d.exists <- false
      | Some _ | None -> ());
      Hashtbl.remove fs.inodes oldpath;
      Hashtbl.replace fs.inodes newpath i;
      Ctx.ok0
    | Some _ | None ->
      c ctx 269;
      Ctx.err Errno.ENOENT

let h_flock ctx args =
  c ctx 271;
  with_file ctx args (fun f ->
      let fs = fs_of ctx.Ctx.st in
      let op = Arg.as_int (Arg.nth args 1) in
      match inode fs f.path with
      | None ->
        c ctx 272;
        Ctx.err Errno.EIO
      | Some i -> (
        match op with
        | 2L (* LOCK_EX *) ->
          if i.locked_ex then begin
            c ctx 273;
            Ctx.err Errno.EAGAIN
          end
          else begin
            c ctx 274;
            State.record_write ctx.Ctx.st s_fs;
            i.locked_ex <- true;
            Ctx.ok0
          end
        | 8L (* LOCK_UN *) ->
          c ctx 275;
          State.record_write ctx.Ctx.st s_fs;
          i.locked_ex <- false;
          Ctx.ok0
        | 1L (* LOCK_SH *) ->
          if i.locked_ex then begin
            c ctx 276;
            Ctx.err Errno.EAGAIN
          end
          else begin
            c ctx 277;
            Ctx.ok0
          end
        | _ ->
          c ctx 278;
          Ctx.err Errno.EINVAL))

let h_fcntl_getfl ctx args =
  c ctx 280;
  with_file ctx args (fun f ->
      c ctx 281;
      Ctx.ok f.oflags)

let h_fcntl_setfl ctx args =
  c ctx 283;
  with_file ctx args (fun f ->
      let flags = Arg.as_int (Arg.nth args 2) in
      c ctx 284;
      State.record_write ctx.Ctx.st s_fd_file;
      (* Only the status flags may change; access mode bits are fixed. *)
      f.oflags <- Int64.logor (Int64.logand f.oflags 0x3L)
          (Int64.logand flags (Int64.lognot 0x3L));
      Ctx.ok0)

let descriptions =
  {|
# Core VFS: regular files, epoll, AIO, character devices.
resource fd[int32]: -1
resource fd_epoll[fd]
resource fd_chr[fd]
resource aio_ctx[int64]: 0
flags open_flags = 0x0 0x1 0x2 0x40 0x80 0x200 0x400 0x800 0x1000
flags seek_whence = 0 1 2
flags fallocate_mode = 0x0 0x1 0x2 0x3 0x8 0x10 0x20
flags mknod_mode = 0x2000 0x6000 0x1000
flags mmap_prot = 0x0 0x1 0x2 0x3 0x4 0x7
flags mmap_flags = 0x1 0x2 0x10 0x20
flags epoll_events = 0x1 0x2 0x4 0x8 0x10
struct epoll_event { events flags[epoll_events], data int64 }
struct stat_buf { size int64, nlink int32, mode int32 }
struct iocb { op int32[0:8], fd fd, buf buffer[in], nbytes int64 }
open(file filename["/tmp/f0", "/tmp/f1", "/etc/passwd", "/tmp/data", "/mnt/ext4"], flags flags[open_flags], mode const[0x1ff]) fd
openat(dirfd fd, file filename["/tmp/f0", "/tmp/f1"], flags flags[open_flags]) fd
close(fd fd)
read(fd fd, buf buffer[out], count len[buf])
write(fd fd, buf buffer[in], count len[buf])
lseek(fd fd, offset intptr, whence flags[seek_whence])
dup(oldfd fd) fd
fsync(fd fd)
ftruncate(fd fd, length intptr)
fallocate(fd fd, mode flags[fallocate_mode], offset intptr, length intptr)
fstat(fd fd, statbuf ptr[out, stat_buf])
link(oldpath filename["/tmp/f0", "/tmp/f1", "/tmp/data"], newpath filename["/tmp/l0", "/tmp/l1"])
unlink(file filename["/tmp/f0", "/tmp/f1", "/tmp/data", "/dev/c0"])
mknod$chr(file filename["/dev/c0"], mode flags[mknod_mode], dev intptr)
open$chr(file filename["/dev/c0"], flags flags[open_flags]) fd_chr
mmap(addr vma, length intptr, prot flags[mmap_prot], flags flags[mmap_flags], fd fd, offset intptr)
munmap(addr vma, length intptr)
epoll_create(size intptr) fd_epoll
epoll_ctl$EPOLL_CTL_ADD(epfd fd_epoll, op const[1], fd fd, event ptr[in, epoll_event])
epoll_ctl$EPOLL_CTL_DEL(epfd fd_epoll, op const[2], fd fd, event ptr[in, epoll_event])
epoll_wait(epfd fd_epoll, events ptr[out, epoll_event], maxevents intptr, timeout intptr)
pread(fd fd, buf buffer[out], count len[buf], offset intptr)
pwrite(fd fd, buf buffer[in], count len[buf], offset intptr)
mkdir(path filename["/tmp/d0", "/tmp/d1"], mode const[0x1ff])
rmdir(path filename["/tmp/d0", "/tmp/d1"])
rename(oldpath filename["/tmp/f0", "/tmp/f1", "/tmp/data"], newpath filename["/tmp/f1", "/tmp/data", "/tmp/r0"])
flock(fd fd, operation int32[0:8])
fcntl$GETFL(fd fd, cmd const[3])
fcntl$SETFL(fd fd, cmd const[4], fdflags flags[open_flags])
io_setup(nr_events intptr) aio_ctx
io_submit(ctx aio_ctx, nr intptr, iocbs ptr[in, array[iocb, 1:4]])
io_destroy(ctx aio_ctx)
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | File f -> Some (File { f with offset = f.offset })
  | Epoll e -> Some (Epoll { e with last_wait = e.last_wait })
  | Chrfd c -> Some (Chrfd { writes = c.writes })
  | _ -> None

let sub =
  let l = Subsystem.locked [ vfs_files ] in
  let ep = Subsystem.locked [ ep_mutex ] in
  let w touches = Lock.scoped [ "vfs_files" ] ~touches in
  let ep_spec = Lock.scoped [ "ep_mutex" ] ~touches:[ "fd:epoll" ] in
  Subsystem.make ~name:"vfs" ~descriptions ~copy_kind
    ~handlers:
      [
        ("open", l h_open);
        ("openat", l h_openat);
        ("close", l h_close);
        ("read", l h_read);
        ("write", l h_write);
        ("lseek", l h_lseek);
        ("dup", h_dup);
        ("fsync", l h_fsync);
        ("ftruncate", l h_ftruncate);
        ("fallocate", l h_fallocate);
        ("fstat", l h_fstat);
        ("link", l h_link);
        ("unlink", l h_unlink);
        ("mknod$chr", l h_mknod_chr);
        ("open$chr", l h_open_chr);
        ("mmap", l h_mmap);
        ("munmap", h_munmap);
        ("epoll_create", h_epoll_create);
        ("epoll_ctl$EPOLL_CTL_ADD", ep h_epoll_ctl_add);
        ("epoll_ctl$EPOLL_CTL_DEL", ep h_epoll_ctl_del);
        ("epoll_wait", ep h_epoll_wait);
        ("pread", l h_pread);
        ("pwrite", l h_pwrite);
        ("mkdir", l h_mkdir);
        ("rmdir", l h_rmdir);
        ("rename", l h_rename);
        ("flock", l h_flock);
        ("fcntl$GETFL", l h_fcntl_getfl);
        ("fcntl$SETFL", l h_fcntl_setfl);
        ("io_setup", l h_io_setup);
        ("io_submit", l h_io_submit);
        ("io_destroy", l h_io_destroy);
      ]
    ~locks:
      [
        (* open/openat/close allocate or retire fd payloads, but a
           fresh payload is unreachable until the call returns, so
           those allocations are not shared accesses and the lock
           specs only claim the shared slots ("fs"). *)
        ("open", w [ "fs" ]);
        ("openat", w [ "fs" ]);
        ("close", Lock.scoped [ "vfs_files"; "ep_mutex" ] ~touches:[ "fs" ]);
        ("read", w [ "fd:file" ]);
        ("write", w [ "fs"; "fd:file"; "fd:chr" ]);
        ("lseek", w [ "fd:file" ]);
        ("fsync", w []);
        ("ftruncate", w [ "fs" ]);
        ("fallocate", w [ "fs" ]);
        ("fstat", w [ "fs" ]);
        ("link", w [ "fs" ]);
        ("unlink", w [ "fs" ]);
        ("mknod$chr", w [ "fs" ]);
        ("open$chr", w [ "fs" ]);
        ("mmap", w [ "fd:file" ]);
        ("epoll_ctl$EPOLL_CTL_ADD", ep_spec);
        ("epoll_ctl$EPOLL_CTL_DEL", ep_spec);
        ("epoll_wait", ep_spec);
        ("pread", w []);
        ("pwrite", w [ "fs" ]);
        ("mkdir", w [ "fs" ]);
        ("rmdir", w [ "fs" ]);
        ("rename", w [ "fs" ]);
        ("flock", w [ "fs" ]);
        ("fcntl$GETFL", w []);
        ("fcntl$SETFL", w [ "fd:file" ]);
        ("io_setup", w [ "fs" ]);
        ("io_submit", w [ "fs" ]);
        ("io_destroy", w [ "fs" ]);
      ]
    ~file_ops:
      [
        {
          Subsystem.op_name = "read";
          applies = (function File _ -> true | _ -> false);
          run = file_read;
        };
        {
          Subsystem.op_name = "write";
          applies = (function File _ -> true | _ -> false);
          run = file_write;
        };
        {
          Subsystem.op_name = "write";
          applies = (function Chrfd _ -> true | _ -> false);
          run = chr_write;
        };
      ]
    ~effects:
      (* Generic fd handlers (read/write/mmap/close) dispatch to other
         subsystems' file ops, so their fd-payload effects are declared
         with the "fd:*" wildcard rather than one slot per fd kind.
         dup/fsync/munmap/epoll_create touch no shared slot and carry
         no spec. *)
      [
        ("open", Effect.spec ~reads:[ "mounts" ] ~writes:[ "fs" ] ());
        ("openat", Effect.spec ~writes:[ "fs" ] ());
        ("close", Effect.spec ~reads:[ "fd:epoll" ] ~writes:[ "fs"; "fd:*" ] ());
        ("read", Effect.spec ~reads:[ "fs" ] ~writes:[ "fd:*" ] ());
        ("write", Effect.spec ~writes:[ "fs"; "fd:*" ] ());
        ("lseek", Effect.spec ~reads:[ "fs" ] ~writes:[ "fd:*" ] ());
        ("ftruncate", Effect.spec ~writes:[ "fs"; "fd:*" ] ());
        ("fallocate", Effect.spec ~reads:[ "fd:file" ] ~writes:[ "fs" ] ());
        ("fstat", Effect.spec ~reads:[ "fd:file" ] ~writes:[ "fs" ] ());
        ("link", Effect.spec ~writes:[ "fs" ] ());
        ("unlink", Effect.spec ~writes:[ "fs" ] ());
        ("mknod$chr", Effect.spec ~writes:[ "fs" ] ());
        ("open$chr", Effect.spec ~writes:[ "fs" ] ());
        ("mmap", Effect.spec ~reads:[ "fd:chr" ] ~writes:[ "fd:*" ] ());
        ("epoll_ctl$EPOLL_CTL_ADD", Effect.spec ~writes:[ "fd:epoll" ] ());
        ("epoll_ctl$EPOLL_CTL_DEL", Effect.spec ~writes:[ "fd:epoll" ] ());
        ("epoll_wait", Effect.spec ~writes:[ "fd:epoll" ] ());
        ("pread", Effect.spec ~reads:[ "fs"; "fd:file" ] ());
        ("pwrite", Effect.spec ~reads:[ "fd:file" ] ~writes:[ "fs" ] ());
        ("mkdir", Effect.spec ~writes:[ "fs" ] ());
        ("rmdir", Effect.spec ~writes:[ "fs" ] ());
        ("rename", Effect.spec ~writes:[ "fs" ] ());
        ("flock", Effect.spec ~reads:[ "fd:file" ] ~writes:[ "fs" ] ());
        ("fcntl$GETFL", Effect.spec ~reads:[ "fd:file" ] ());
        ("fcntl$SETFL", Effect.spec ~writes:[ "fd:file" ] ());
        ("io_setup", Effect.spec ~writes:[ "fs" ] ());
        ("io_submit", Effect.spec ~writes:[ "fs" ] ());
        ("io_destroy", Effect.spec ~writes:[ "fs" ] ());
      ]
    ()
