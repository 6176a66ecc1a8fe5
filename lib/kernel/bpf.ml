type bpf_map = {
  key_size : int64;
  value_size : int64;
  max_entries : int64;
  mutable entries : int;
  mutable frozen : bool;
}

type bpf_prog = {
  insn_count : int;
  mutable attached_to : int option;
  mutable test_runs : int;
}

type State.fd_kind += Bpf_map of bpf_map | Bpf_prog of bpf_prog

let blk = Coverage.region ~name:"bpf" ~size:512
let c ctx o = Ctx.cover ctx (blk + o)

let h_map_create ctx args =
  let r = Arg.nth args 1 in
  let key_size = Arg.as_int (Arg.field r 0) in
  let value_size = Arg.as_int (Arg.field r 1) in
  let max_entries = Arg.as_int (Arg.field r 2) in
  c ctx 0;
  if Int64.compare key_size 0L <= 0 || Int64.compare key_size 512L > 0 then begin
    c ctx 1;
    Ctx.err Errno.EINVAL
  end
  else if Int64.compare value_size 0L <= 0 || Int64.compare value_size 65536L > 0
  then begin
    c ctx 2;
    Ctx.err Errno.EINVAL
  end
  else if Int64.compare max_entries 0L <= 0 then begin
    c ctx 3;
    Ctx.err Errno.EINVAL
  end
  else begin
    c ctx 4;
    if Int64.compare max_entries 1024L > 0 then c ctx 5;
    let m =
      { key_size; value_size; max_entries; entries = 0; frozen = false }
    in
    let entry = State.alloc_fd ctx.Ctx.st (Bpf_map m) in
    Ctx.ok (Int64.of_int entry.State.fd)
  end

let with_map ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 1)) with
  | Some { kind = Bpf_map m; _ } -> k m
  | Some _ -> (c ctx 7; Ctx.err Errno.EINVAL)
  | None -> (c ctx 8; Ctx.err Errno.EBADF)

let with_prog ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 1)) with
  | Some { kind = Bpf_prog p; _ } -> k p
  | Some _ -> (c ctx 9; Ctx.err Errno.EINVAL)
  | None -> (c ctx 10; Ctx.err Errno.EBADF)

let h_map_update ctx args =
  c ctx 12;
  with_map ctx args (fun m ->
      let key_len = Arg.buf_length (Arg.nth args 2) in
      if m.frozen then begin
        c ctx 13;
        Ctx.err Errno.EPERM
      end
      else if Int64.compare (Int64.of_int key_len) m.key_size < 0
      then begin
        (* The kernel copies key_size bytes; a short buffer faults. *)
        c ctx 14;
        Ctx.err Errno.EFAULT
      end
      else if Int64.of_int m.entries >= m.max_entries then begin
        c ctx 15;
        Ctx.err Errno.ENOSPC
      end
      else begin
        c ctx 16;
        m.entries <- m.entries + 1;
        c ctx (32 + min 15 m.entries);
        Ctx.ok0
      end)

let h_map_lookup ctx args =
  c ctx 18;
  with_map ctx args (fun m ->
      if m.entries = 0 then begin
        c ctx 19;
        Ctx.err Errno.ENOENT
      end
      else begin
        c ctx 20;
        Ctx.ok0
      end)

let h_map_delete ctx args =
  c ctx 22;
  with_map ctx args (fun m ->
      if m.entries = 0 then begin
        c ctx 23;
        Ctx.err Errno.ENOENT
      end
      else begin
        c ctx 24;
        m.entries <- m.entries - 1;
        Ctx.ok0
      end)

let h_map_freeze ctx args =
  c ctx 26;
  with_map ctx args (fun m ->
      if m.frozen then begin
        c ctx 27;
        Ctx.err Errno.EBUSY
      end
      else begin
        c ctx 28;
        m.frozen <- true;
        Ctx.ok0
      end)

(* The verifier gate: programs must be non-empty, bounded, and end in
   an exit instruction (opcode byte 0x95). *)
let h_prog_load ctx args =
  let r = Arg.nth args 1 in
  let insns = Arg.as_rec (Arg.field r 0) in
  let n = List.length insns in
  c ctx 50;
  if n = 0 then begin
    c ctx 51;
    Ctx.err Errno.EINVAL
  end
  else if n > 16 then begin
    c ctx 52;
    Ctx.err Errno.EOVERFLOW
  end
  else begin
    let last = List.nth insns (n - 1) in
    let opcode = Int64.logand (Arg.as_int last) 0xffL in
    if Int64.compare opcode 0x95L <> 0 then begin
      (* Verifier rejection: fall-through off the end. *)
      c ctx 53;
      Ctx.err Errno.EACCES
    end
    else begin
      c ctx 54;
      c ctx (64 + min 15 n);
      let p = { insn_count = n; attached_to = None; test_runs = 0 } in
      let entry = State.alloc_fd ctx.Ctx.st (Bpf_prog p) in
      Ctx.ok (Int64.of_int entry.State.fd)
    end
  end

let h_prog_attach ctx args =
  c ctx 80;
  with_prog ctx args (fun p ->
      let target_fd = Arg.as_fd (Arg.nth args 2) in
      let is_socket_kind = function
        | Sock.Sock _ | Sock_misc.L2cap _ | Sock_misc.Llcp _
        | Sock_misc.Ieee802154 _ | Netdev.Packet_sock ->
          true
        | _ -> false
      in
      match State.lookup_fd ctx.Ctx.st target_fd with
      | Some { kind; _ } when is_socket_kind kind ->
        if p.attached_to <> None then begin
          c ctx 81;
          Ctx.err Errno.EBUSY
        end
        else begin
          c ctx 82;
          p.attached_to <- Some target_fd;
          Ctx.ok0
        end
      | Some _ ->
        c ctx 83;
        Ctx.err Errno.EINVAL
      | None ->
        c ctx 84;
        Ctx.err Errno.EBADF)

let h_prog_detach ctx args =
  c ctx 86;
  with_prog ctx args (fun p ->
      match p.attached_to with
      | None ->
        c ctx 87;
        Ctx.err Errno.ENOENT
      | Some _ ->
        c ctx 88;
        p.attached_to <- None;
        Ctx.ok0)

let h_prog_test_run ctx args =
  c ctx 90;
  with_prog ctx args (fun p ->
      let n = Arg.buf_length (Arg.nth args 2) in
      if n = 0 then begin
        c ctx 91;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 92;
        p.test_runs <- p.test_runs + 1;
        (* Execution specializes on program size x run count x whether
           the program is live on a socket. *)
        let combo =
          (min 3 (p.insn_count / 4) * 8)
          lor (min 3 p.test_runs * 2)
          lor if p.attached_to <> None then 1 else 0
        in
        c ctx (96 + combo);
        Ctx.ok (Int64.of_int n)
      end)

let descriptions =
  {|
# BPF: maps, program loading, attachment.
resource fd_bpf_map[fd]
resource fd_bpf_prog[fd]
struct bpf_map_create_arg { key_size int32[0:512], value_size int32, max_entries int32 }
struct bpf_prog_load_arg { insns array[int64, 1:16], license int64 }
bpf$MAP_CREATE(cmd const[0], attr ptr[in, bpf_map_create_arg]) fd_bpf_map
bpf$MAP_UPDATE_ELEM(cmd const[2], fd fd_bpf_map, key buffer[in], value buffer[in])
bpf$MAP_LOOKUP_ELEM(cmd const[1], fd fd_bpf_map, key buffer[in], value buffer[out])
bpf$MAP_DELETE_ELEM(cmd const[3], fd fd_bpf_map, key buffer[in])
bpf$MAP_FREEZE(cmd const[22], fd fd_bpf_map)
bpf$PROG_LOAD(cmd const[5], attr ptr[in, bpf_prog_load_arg]) fd_bpf_prog
bpf$PROG_ATTACH(cmd const[8], prog fd_bpf_prog, target sock, atype int32[0:10])
bpf$PROG_DETACH(cmd const[9], prog fd_bpf_prog)
bpf$PROG_TEST_RUN(cmd const[10], prog fd_bpf_prog, data buffer[in], dsize len[data])
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Bpf_map m -> Some (Bpf_map { m with entries = m.entries })
  | Bpf_prog p -> Some (Bpf_prog { p with test_runs = p.test_runs })
  | _ -> None

let sub =
  Subsystem.make ~name:"bpf" ~descriptions ~copy_kind
    ~handlers:
      [
        ("bpf$MAP_CREATE", h_map_create);
        ("bpf$MAP_UPDATE_ELEM", h_map_update);
        ("bpf$MAP_LOOKUP_ELEM", h_map_lookup);
        ("bpf$MAP_DELETE_ELEM", h_map_delete);
        ("bpf$MAP_FREEZE", h_map_freeze);
        ("bpf$PROG_LOAD", h_prog_load);
        ("bpf$PROG_ATTACH", h_prog_attach);
        ("bpf$PROG_DETACH", h_prog_detach);
        ("bpf$PROG_TEST_RUN", h_prog_test_run);
      ]
    ()
