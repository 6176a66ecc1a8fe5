type cm_id = {
  mutable bound : bool;
  mutable listening : bool;
  mutable resolving : bool;
  mutable destroyed : bool;
}

type State.fd_kind += Rdma_cm

let blk = Coverage.region ~name:"rdma" ~size:256
let c ctx o = Ctx.cover ctx (blk + o)

let ids_slot =
  State.slot ~name:"rdma"
    ~create:(fun () -> (Hashtbl.create 8, ref 1L))
    ~copy:(fun (tbl, next) ->
      (State.copy_tbl (fun (c : cm_id) -> { c with bound = c.bound }) tbl, ref !next))

let ids_of st = State.get st ids_slot

let h_open ctx args =
  let path = Arg.as_str (Arg.nth args 1) in
  c ctx 0;
  if path <> "/dev/infiniband/rdma_cm" then begin
    c ctx 1;
    Ctx.err Errno.ENOENT
  end
  else begin
    c ctx 2;
    let entry = State.alloc_fd ctx.Ctx.st Rdma_cm in
    Ctx.ok (Int64.of_int entry.State.fd)
  end

let with_cm ctx args k =
  let fd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st fd with
  | Some { kind = Rdma_cm; _ } -> k ()
  | Some _ ->
    c ctx 4;
    Ctx.err Errno.EINVAL
  | None ->
    c ctx 5;
    Ctx.err Errno.EBADF

(* Destroyed ids stay in the table (freed memory); touching one is the
   use-after-free family below. *)
let with_id ctx args ~arg k =
  let tbl, _ = ids_of ctx.Ctx.st in
  let id = Arg.as_int (Arg.nth args arg) in
  match Hashtbl.find_opt tbl id with
  | Some cm -> k cm
  | None ->
    c ctx 7;
    Ctx.err Errno.ENOENT

let h_create_id ctx args =
  c ctx 9;
  with_cm ctx args (fun () ->
      let tbl, next = ids_of ctx.Ctx.st in
      c ctx 10;
      let live =
        Hashtbl.fold (fun _ cm acc -> if cm.destroyed then acc else acc + 1) tbl 0
      in
      (* Creating ids past the per-file quota without destroying any
         leaks the overflow allocation (ucma_create_id). *)
      if live >= 3 then begin
        c ctx 11;
        Ctx.bug ctx "ucma_create_id_leak"
      end;
      let id = !next in
      next := Int64.add !next 1L;
      Hashtbl.replace tbl id
        { bound = false; listening = false; resolving = false; destroyed = false };
      Ctx.ok id)

let h_bind_addr ctx args =
  c ctx 13;
  with_cm ctx args (fun () ->
      with_id ctx args ~arg:2 (fun cm ->
          if cm.destroyed then begin
            c ctx 14;
            Ctx.err Errno.ENOENT
          end
          else begin
            c ctx 15;
            cm.bound <- true;
            Ctx.ok0
          end))

let h_resolve_addr ctx args =
  c ctx 17;
  with_cm ctx args (fun () ->
      with_id ctx args ~arg:2 (fun cm ->
          if cm.destroyed then begin
            c ctx 18;
            Ctx.err Errno.ENOENT
          end
          else begin
            c ctx 19;
            cm.resolving <- true;
            Ctx.ok0
          end))

let h_listen ctx args =
  c ctx 21;
  with_cm ctx args (fun () ->
      with_id ctx args ~arg:2 (fun cm ->
          if cm.destroyed then begin
            (* Listening on an id whose destroy raced the event handler
               re-arms the freed id (rdma_listen, 5.11). *)
            c ctx 22;
            Ctx.bug ctx "rdma_listen";
            Ctx.err Errno.ENOENT
          end
          else if not cm.bound then begin
            c ctx 23;
            Ctx.err Errno.EINVAL
          end
          else begin
            c ctx 24;
            cm.listening <- true;
            Ctx.ok0
          end))

let h_destroy_id ctx args =
  c ctx 26;
  with_cm ctx args (fun () ->
      with_id ctx args ~arg:2 (fun cm ->
          if cm.destroyed then begin
            c ctx 27;
            Ctx.err Errno.ENOENT
          end
          else begin
            c ctx 28;
            (* Destroying while an address resolve is in flight cancels
               the work item after the id is freed
               (cma_cancel_operation, 5.11). *)
            if cm.resolving && cm.listening then begin
              c ctx 29;
              Ctx.bug ctx "cma_cancel_operation"
            end;
            cm.destroyed <- true;
            Ctx.ok0
          end))

let h_connect ctx args =
  c ctx 31;
  with_cm ctx args (fun () ->
      with_id ctx args ~arg:2 (fun cm ->
          if cm.destroyed then begin
            c ctx 32;
            Ctx.err Errno.ENOENT
          end
          else if not cm.resolving then begin
            c ctx 33;
            Ctx.err Errno.EINVAL
          end
          else begin
            c ctx 34;
            Ctx.ok0
          end))

let descriptions =
  {|
# RDMA connection manager (ucma).
resource fd_rdma[fd]
resource rdma_id[int64]: 0
openat$rdma_cm(dirfd fd, file filename["/dev/infiniband/rdma_cm"], oflags flags[open_flags]) fd_rdma
ioctl$RDMA_CREATE_ID(fd fd_rdma, cmd const[0xc0184600], ps int32[0:4]) rdma_id
ioctl$RDMA_BIND_ADDR(fd fd_rdma, cmd const[0xc0184601], id rdma_id, addr ptr[in, sockaddr])
ioctl$RDMA_RESOLVE_ADDR(fd fd_rdma, cmd const[0xc0184602], id rdma_id, addr ptr[in, sockaddr])
ioctl$RDMA_LISTEN(fd fd_rdma, cmd const[0xc0184603], id rdma_id, backlog int32)
ioctl$RDMA_CONNECT(fd fd_rdma, cmd const[0xc0184604], id rdma_id)
ioctl$RDMA_DESTROY_ID(fd fd_rdma, cmd const[0xc0184605], id rdma_id)
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Rdma_cm -> Some Rdma_cm
  | _ -> None

let sub =
  Subsystem.make ~name:"rdma" ~descriptions ~copy_kind
    ~handlers:
      [
        ("openat$rdma_cm", h_open);
        ("ioctl$RDMA_CREATE_ID", h_create_id);
        ("ioctl$RDMA_BIND_ADDR", h_bind_addr);
        ("ioctl$RDMA_RESOLVE_ADDR", h_resolve_addr);
        ("ioctl$RDMA_LISTEN", h_listen);
        ("ioctl$RDMA_CONNECT", h_connect);
        ("ioctl$RDMA_DESTROY_ID", h_destroy_id);
      ]
    ()
