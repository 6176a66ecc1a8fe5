type memfd = {
  mname : string;
  mutable msize : int64;
  mutable seals : int64;
}

type State.fd_kind += Memfd of memfd

let blk = Coverage.region ~name:"memfd" ~size:128

(* shmem_inode_info lock: seals and size of one memfd. *)
let memfd_seals = Lock.register ~rank:70 ~guards:[ "fd:memfd" ] "memfd_seals"
let c ctx o = Ctx.cover ctx (blk + o)

(* Effect slot for the per-memfd payload; memfd_create's allocation is
   exempt (fresh payload). *)
let s_fd_memfd = Effect.slot "fd:memfd"

let seal_seal = 0x1L
let seal_shrink = 0x2L
let seal_grow = 0x4L
let seal_write = 0x8L
let mfd_allow_sealing = 0x2L

let h_memfd_create ctx args =
  let name = Arg.as_str (Arg.field (Arg.nth args 0) 0) in
  let name = if name = "" then Arg.as_str (Arg.nth args 0) else name in
  let flags = Arg.as_int (Arg.nth args 1) in
  c ctx 0;
  if String.length name > 249 then begin
    (* Name-length check bypass: hits a WARN_ON in the allocation. *)
    c ctx 1;
    Ctx.bug ctx "memfd_create_warn";
    Ctx.err Errno.EINVAL
  end
  else if Int64.logand flags (Int64.lognot 0x7L) <> 0L then begin
    c ctx 2;
    Ctx.err Errno.EINVAL
  end
  else begin
    c ctx 3;
    let seals =
      if Int64.logand flags mfd_allow_sealing <> 0L then begin
        c ctx 4;
        0L
      end
      else begin
        c ctx 5;
        seal_seal
      end
    in
    let entry =
      State.alloc_fd ctx.Ctx.st (Memfd { mname = name; msize = 0L; seals })
    in
    Ctx.ok (Int64.of_int entry.fd)
  end

let with_memfd ctx args k =
  let fd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st fd with
  | Some { kind = Memfd m; _ } ->
    State.record_read ctx.Ctx.st s_fd_memfd;
    k m
  | Some _ ->
    c ctx 7;
    Ctx.err Errno.EINVAL
  | None ->
    c ctx 8;
    Ctx.err Errno.EBADF

let h_add_seals ctx args =
  c ctx 10;
  with_memfd ctx args (fun m ->
      let seals = Arg.as_int (Arg.nth args 2) in
      if Int64.logand m.seals seal_seal <> 0L then begin
        c ctx 11;
        Ctx.err Errno.EPERM
      end
      else begin
        c ctx 12;
        State.record_write ctx.Ctx.st s_fd_memfd;
        m.seals <- Int64.logor m.seals seals;
        if Int64.logand seals seal_write <> 0L then c ctx 13;
        if Int64.logand seals seal_grow <> 0L then c ctx 14;
        Ctx.ok0
      end)

let h_get_seals ctx args =
  c ctx 16;
  with_memfd ctx args (fun m ->
      c ctx 17;
      Ctx.ok m.seals)

let memfd_write ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Memfd m ->
    let count = Int64.of_int (Arg.buf_length (Arg.nth args 1)) in
    c ctx 20;
    State.record_read ctx.Ctx.st s_fd_memfd;
    if Int64.logand m.seals seal_write <> 0L then begin
      c ctx 21;
      Ctx.err Errno.EPERM
    end
    else begin
      let grow = Int64.compare count m.msize > 0 in
      if grow && Int64.logand m.seals seal_grow <> 0L then begin
        c ctx 22;
        Ctx.err Errno.EPERM
      end
      else begin
        c ctx 23;
        if grow then begin
          c ctx 24;
          State.record_write ctx.Ctx.st s_fd_memfd;
          m.msize <- count
        end;
        let seal_bits = Int64.to_int (Int64.logand m.seals 0xfL) in
        c ctx (64 + seal_bits);
        let size_class =
          if Int64.compare count 0L = 0 then 0
          else if Int64.compare count 4096L <= 0 then 1
          else if Int64.compare count 65536L <= 0 then 2
          else 3
        in
        c ctx (96 + (seal_bits * 2) + (size_class / 2));
        Ctx.ok count
      end
    end
  | _ -> Ctx.err Errno.EINVAL

let memfd_read ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Memfd m ->
    let count = Arg.as_int (Arg.nth args 2) in
    c ctx 26;
    State.record_read ctx.Ctx.st s_fd_memfd;
    let n = min count m.msize in
    if Int64.compare n 0L <= 0 then begin
      c ctx 27;
      Ctx.ok 0L
    end
    else begin
      c ctx 28;
      Ctx.ok n
    end
  | _ -> Ctx.err Errno.EINVAL

let memfd_ftruncate ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Memfd m ->
    let len = Arg.as_int (Arg.nth args 1) in
    c ctx 30;
    State.record_read ctx.Ctx.st s_fd_memfd;
    if Int64.compare len 0L < 0 then begin
      c ctx 31;
      Ctx.err Errno.EINVAL
    end
    else if
      Int64.compare len m.msize < 0 && Int64.logand m.seals seal_shrink <> 0L
    then begin
      c ctx 32;
      Ctx.err Errno.EPERM
    end
    else if
      Int64.compare len m.msize > 0 && Int64.logand m.seals seal_grow <> 0L
    then begin
      c ctx 33;
      Ctx.err Errno.EPERM
    end
    else begin
      c ctx 34;
      State.record_write ctx.Ctx.st s_fd_memfd;
      m.msize <- len;
      Ctx.ok0
    end
  | _ -> Ctx.err Errno.EINVAL

(* The Figure 2 path: mapping a sealed memfd takes a dedicated
   read-only-mapping branch that is unreachable without a prior
   fcntl$ADD_SEALS — the relation HEALER's dynamic learning finds. *)
let memfd_mmap ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Memfd m ->
    let prot = Arg.as_int (Arg.nth args 2) in
    c ctx 36;
    State.record_read ctx.Ctx.st s_fd_memfd;
    if Int64.logand m.seals seal_write <> 0L then
      if Int64.logand prot 0x2L <> 0L then begin
        c ctx 37;
        Ctx.err Errno.EPERM
      end
      else begin
        c ctx 38;
        Ctx.covern ctx blk [ 39; 40 ];
        Ctx.ok 0x7f0000800000L
      end
    else if Int64.compare m.msize 0L > 0 then begin
      c ctx 41;
      c ctx (80 + Int64.to_int (Int64.logand m.seals 0xfL));
      Ctx.ok 0x7f0000900000L
    end
    else begin
      c ctx 42;
      Ctx.err Errno.ENOMEM (* cannot map an empty object *)
    end
  | _ -> Ctx.err Errno.EINVAL

let descriptions =
  {|
# memfd and sealing.
resource fd_memfd[fd]
flags memfd_flags = 0x0 0x1 0x2 0x3
flags seal_flags = 0x1 0x2 0x4 0x8 0xc 0xe
memfd_create(name ptr[in, string["memfd", "healer-memfd"]], flags flags[memfd_flags]) fd_memfd
fcntl$ADD_SEALS(fd fd_memfd, cmd const[0x409], seals flags[seal_flags])
fcntl$GET_SEALS(fd fd_memfd, cmd const[0x40a])
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Memfd m -> Some (Memfd { m with msize = m.msize })
  | _ -> None

let sub =
  Subsystem.make ~name:"memfd" ~descriptions ~copy_kind
    ~handlers:
      [
        ("memfd_create", h_memfd_create);
        ("fcntl$ADD_SEALS", Subsystem.locked [ memfd_seals ] h_add_seals);
        ("fcntl$GET_SEALS", Subsystem.locked [ memfd_seals ] h_get_seals);
      ]
    ~locks:
      [
        ("fcntl$ADD_SEALS", Lock.scoped [ "memfd_seals" ] ~touches:[ "fd:memfd" ]);
        ("fcntl$GET_SEALS", Lock.scoped [ "memfd_seals" ]);
      ]
    ~effects:
      [
        ("fcntl$ADD_SEALS", Effect.spec ~writes:[ "fd:memfd" ] ());
        ("fcntl$GET_SEALS", Effect.spec ~reads:[ "fd:memfd" ] ());
      ]
    ~file_ops:
      [
        {
          Subsystem.op_name = "write";
          applies = (function Memfd _ -> true | _ -> false);
          run = memfd_write;
        };
        {
          Subsystem.op_name = "read";
          applies = (function Memfd _ -> true | _ -> false);
          run = memfd_read;
        };
        {
          Subsystem.op_name = "ftruncate";
          applies = (function Memfd _ -> true | _ -> false);
          run = memfd_ftruncate;
        };
        {
          Subsystem.op_name = "mmap";
          applies = (function Memfd _ -> true | _ -> false);
          run = memfd_mmap;
        };
      ]
    ()
