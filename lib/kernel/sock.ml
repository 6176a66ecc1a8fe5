type proto = Tcp | Udp | Unix | Netlink | Raw | Rxrpc | Rds

type sock = {
  proto : proto;
  mutable bound : bool;
  mutable bound_addr : int64;
  mutable listening : bool;
  mutable connected : bool;
  mutable backlog : int;
  mutable sndbuf : int;
  mutable shut : bool;
  mutable ib_transport : bool;
  mutable rcvbuf : int;
  mutable keepalive : bool;
  mutable pending_err : bool;
}

type State.fd_kind += Sock of sock

let blk = Coverage.region ~name:"sock" ~size:1024

(* lock_sock: per-socket payload state plus the rxrpc local-endpoint
   table its bind path manages. *)
let sk_lock = Lock.register ~rank:60 ~guards:[ "rxrpc"; "fd:sock" ] "sk_lock"
let c ctx o = Ctx.cover ctx (blk + o)

(* Effect slots: the rxrpc local-endpoint table and the per-socket
   payload. Socket/peer allocation is exempt (fresh payload). *)
let s_rxrpc = Effect.slot "rxrpc"
let s_fd_sock = Effect.slot "fd:sock"

let proto_index = function
  | Tcp -> 0
  | Udp -> 1
  | Unix -> 2
  | Netlink -> 3
  | Raw -> 4
  | Rxrpc -> 5
  | Rds -> 6

(* rxrpc local endpoints: addr -> refcount; a double bind leaks one. *)
let rxrpc_slot : (int64, int) Hashtbl.t State.slot =
  State.slot ~name:"rxrpc" ~create:(fun () -> Hashtbl.create 8) ~copy:Hashtbl.copy

let rxrpc_locals st =
  State.record_read st s_rxrpc;
  State.get st rxrpc_slot

let new_sock ctx proto =
  c ctx (proto_index proto);
  let s =
    {
      proto;
      bound = false;
      bound_addr = 0L;
      listening = false;
      connected = false;
      backlog = 0;
      sndbuf = 65536;
      shut = false;
      ib_transport = false;
      rcvbuf = 65536;
      keepalive = false;
      pending_err = false;
    }
  in
  let entry = State.alloc_fd ctx.Ctx.st (Sock s) in
  Ctx.ok (Int64.of_int entry.fd)

let h_socket proto ctx _args = new_sock ctx proto

let with_sock ctx args k =
  let fd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st fd with
  | Some { kind = Sock s; _ } ->
    State.record_read ctx.Ctx.st s_fd_sock;
    k s
  | Some _ ->
    c ctx 8;
    Ctx.err Errno.ENOTCONN
  | None ->
    c ctx 9;
    Ctx.err Errno.EBADF

let addr_of args i =
  (* sockaddr { family int16, port int16, addr int32 } *)
  let a = Arg.nth args i in
  Int64.add
    (Int64.mul 65536L (Arg.as_int (Arg.field a 1)))
    (Arg.as_int (Arg.field a 2))

let h_bind ctx args =
  c ctx 12;
  with_sock ctx args (fun s ->
      if s.bound then begin
        c ctx 13;
        Ctx.err Errno.EINVAL
      end
      else if Arg.is_null (Arg.nth args 1) then begin
        c ctx 14;
        Ctx.err Errno.EFAULT
      end
      else begin
        c ctx (16 + proto_index s.proto);
        State.record_write ctx.Ctx.st s_fd_sock;
        s.bound <- true;
        s.bound_addr <- addr_of args 1;
        Ctx.ok0
      end)

(* The motivating example: listen on an unbound socket exits early. *)
let h_listen ctx args =
  c ctx 24;
  with_sock ctx args (fun s ->
      if s.proto <> Tcp && s.proto <> Unix then begin
        c ctx 25;
        Ctx.err Errno.EOPNOTSUPP
      end
      else if not s.bound then begin
        c ctx 26;
        Ctx.err Errno.EDESTADDRREQ
      end
      else begin
        c ctx 27;
        let backlog = Int64.to_int (Arg.as_int (Arg.nth args 1)) in
        State.record_write ctx.Ctx.st s_fd_sock;
        s.listening <- true;
        s.backlog <- max 0 backlog;
        if backlog = 0 then c ctx 28 else if backlog > 128 then c ctx 29 else c ctx 30;
        Ctx.ok0
      end)

let h_accept ctx args =
  c ctx 32;
  with_sock ctx args (fun s ->
      if not s.listening then begin
        c ctx 33;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 34;
        let peer =
          {
            proto = s.proto;
            bound = true;
            bound_addr = s.bound_addr;
            listening = false;
            connected = true;
            backlog = 0;
            sndbuf = s.sndbuf;
            shut = false;
            ib_transport = false;
            rcvbuf = s.rcvbuf;
            keepalive = s.keepalive;
            pending_err = false;
          }
        in
        let entry = State.alloc_fd ctx.Ctx.st (Sock peer) in
        Ctx.ok (Int64.of_int entry.fd)
      end)

let h_connect ctx args =
  c ctx 36;
  with_sock ctx args (fun s ->
      if Arg.is_null (Arg.nth args 1) then begin
        c ctx 37;
        Ctx.err Errno.EFAULT
      end
      else
        match s.proto with
        | Rxrpc ->
          c ctx 38;
          if not s.bound then begin
            c ctx 39;
            Ctx.err Errno.EDESTADDRREQ
          end
          else begin
            (* A local endpoint leaked by a double bind is looked up
               again here (rxrpc_lookup_local, 5.6+). *)
            let locals = rxrpc_locals ctx.Ctx.st in
            (match Hashtbl.find_opt locals s.bound_addr with
            | Some refs when refs >= 2 ->
              c ctx 40;
              Ctx.bug ctx "rxrpc_lookup_local"
            | Some _ | None -> ());
            State.record_write ctx.Ctx.st s_fd_sock;
            s.connected <- true;
            Ctx.ok0
          end
        | Rds ->
          c ctx 42;
          if s.ib_transport && not s.bound then begin
            (* IB transport with no bound device: conn->c_path is NULL
               (rds_ib_add_conn, 5.6+). *)
            c ctx 43;
            Ctx.bug ctx "rds_ib_add_conn";
            Ctx.err Errno.EINVAL
          end
          else begin
            c ctx 44;
            State.record_write ctx.Ctx.st s_fd_sock;
            s.connected <- true;
            Ctx.ok0
          end
        | Tcp | Udp | Unix | Netlink | Raw ->
          if s.connected then begin
            c ctx 45;
            Ctx.err Errno.EISCONN
          end
          else begin
            c ctx (46 + proto_index s.proto);
            State.record_write ctx.Ctx.st s_fd_sock;
            s.connected <- true;
            Ctx.ok0
          end)

(* connect with AF_UNSPEC disconnects a TCP socket; the paper-era bug
   dereferences a stale request socket. *)
let h_connect_unspec ctx args =
  c ctx 54;
  with_sock ctx args (fun s ->
      if s.proto <> Tcp then begin
        c ctx 55;
        Ctx.err Errno.EOPNOTSUPP
      end
      else if s.connected then begin
        c ctx 56;
        State.record_write ctx.Ctx.st s_fd_sock;
        s.connected <- false;
        Ctx.bug ctx "tcp_disconnect";
        Ctx.ok0
      end
      else begin
        c ctx 57;
        Ctx.ok0
      end)

let h_sendto ctx args =
  c ctx 60;
  with_sock ctx args (fun s ->
      let n = Arg.buf_length (Arg.nth args 1) in
      if s.shut then begin
        c ctx 61;
        Ctx.err Errno.EPIPE
      end
      else
        match s.proto with
        | Raw ->
          c ctx 62;
          if n >= 1 && n < 8 then begin
            (* Header shorter than the header struct: the tail is read
               uninitialized (raw_sendmsg). *)
            c ctx 63;
            Ctx.bug ctx "raw_sendmsg_uninit"
          end;
          Ctx.ok (Int64.of_int n)
        | Tcp | Udp | Unix | Netlink | Rxrpc | Rds ->
          if (not s.connected) && s.proto = Tcp then begin
            c ctx 64;
            Ctx.err Errno.ENOTCONN
          end
          else begin
            c ctx (65 + proto_index s.proto);
            (* Oversized frame against a shrunken send buffer builds an
               skb from a misallocated page (__build_skb, 5.11). *)
            if s.connected && s.sndbuf < 1024 && n > 8192 then begin
              c ctx 72;
              Ctx.bug ctx "build_skb"
            end;
            if n > 65536 then begin
              c ctx 73;
              Ctx.err Errno.ENOMEM
            end
            else begin
              (* Transmit path specialization per protocol and socket
                 state: each combination is a distinct inlined path. *)
              let combo =
                (proto_index s.proto * 4)
                lor (if s.bound then 1 else 0)
                lor if s.connected then 2 else 0
              in
              c ctx (128 + combo);
              if s.listening then c ctx (128 + combo + 32);
              (* Segmentation paths specialize on payload size class. *)
              let size_class =
                if n = 0 then 0
                else if n <= 64 then 1
                else if n <= 512 then 2
                else if n <= 1024 then 3
                else if n <= 4096 then 4
                else if n <= 8192 then 5
                else if n <= 16384 then 6
                else 7
              in
              c ctx (256 + (combo * 8) + size_class);
              Ctx.ok (Int64.of_int n)
            end
          end)

let h_recvfrom ctx args =
  c ctx 76;
  with_sock ctx args (fun s ->
      if s.shut then begin
        c ctx 77;
        Ctx.ok 0L
      end
      else if (not s.connected) && s.proto = Tcp then begin
        c ctx 78;
        Ctx.err Errno.ENOTCONN
      end
      else begin
        c ctx (79 + proto_index s.proto);
        let combo =
          (proto_index s.proto * 4)
          lor (if s.bound then 1 else 0)
          lor if s.connected then 2 else 0
        in
        c ctx (192 + combo);
        c ctx (512 + (combo * 4) + (if s.listening then 2 else 0)
               + if s.shut then 1 else 0);
        Ctx.ok 0L
      end)

let h_setsockopt_sndbuf ctx args =
  c ctx 88;
  with_sock ctx args (fun s ->
      let v = Int64.to_int (Arg.as_int (Arg.field (Arg.nth args 3) 0)) in
      c ctx 89;
      State.record_write ctx.Ctx.st s_fd_sock;
      s.sndbuf <- max 256 (v * 2);
      if s.sndbuf < 1024 then c ctx 90;
      Ctx.ok0)

let h_setsockopt_linger ctx args =
  c ctx 92;
  with_sock ctx args (fun s ->
      ignore s;
      c ctx 93;
      Ctx.ok0)

let h_getsockname ctx args =
  c ctx 95;
  with_sock ctx args (fun s ->
      if s.bound then begin
        c ctx 96;
        Ctx.ok 0L
      end
      else begin
        c ctx 97;
        Ctx.ok 0L
      end)

let h_shutdown ctx args =
  c ctx 99;
  with_sock ctx args (fun s ->
      let how = Arg.as_int (Arg.nth args 1) in
      if Int64.compare how 2L > 0 || Int64.compare how 0L < 0 then begin
        c ctx 100;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 101;
        (* Unix socket shut down while connected to a bound peer drops
           one reference too many (unix_release_sock). *)
        if s.proto = Unix && s.connected && s.bound then begin
          c ctx 102;
          Ctx.bug ctx "unix_release_refcount"
        end;
        State.record_write ctx.Ctx.st s_fd_sock;
        s.shut <- true;
        Ctx.ok0
      end)

let h_bind_rxrpc ctx args =
  c ctx 104;
  with_sock ctx args (fun s ->
      if s.proto <> Rxrpc then begin
        c ctx 105;
        Ctx.err Errno.EOPNOTSUPP
      end
      else begin
        let addr = addr_of args 1 in
        let locals = rxrpc_locals ctx.Ctx.st in
        let refs =
          match Hashtbl.find_opt locals addr with Some r -> r | None -> 0
        in
        State.record_write ctx.Ctx.st s_rxrpc;
        Hashtbl.replace locals addr (refs + 1);
        State.record_write ctx.Ctx.st s_fd_sock;
        if s.bound then begin
          (* Second bind on the same socket: the old local endpoint is
             not released. *)
          c ctx 106;
          s.bound_addr <- addr;
          Ctx.ok0
        end
        else begin
          c ctx 107;
          s.bound <- true;
          s.bound_addr <- addr;
          Ctx.ok0
        end
      end)

let h_setsockopt_rds_ib ctx args =
  c ctx 110;
  with_sock ctx args (fun s ->
      if s.proto <> Rds then begin
        c ctx 111;
        Ctx.err Errno.EOPNOTSUPP
      end
      else begin
        c ctx 112;
        State.record_write ctx.Ctx.st s_fd_sock;
        s.ib_transport <- true;
        Ctx.ok0
      end)

let sock_write ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Sock s ->
    c ctx 114;
    State.record_read ctx.Ctx.st s_fd_sock;
    if s.shut then begin
      c ctx 115;
      Ctx.err Errno.EPIPE
    end
    else if (not s.connected) && (s.proto = Tcp || s.proto = Unix) then begin
      c ctx 116;
      Ctx.err Errno.ENOTCONN
    end
    else begin
      c ctx 117;
      Ctx.ok (Int64.of_int (Arg.buf_length (Arg.nth args 1)))
    end
  | _ -> Ctx.err Errno.EINVAL

let sock_read ctx (entry : State.fd_entry) _args =
  match entry.kind with
  | Sock s ->
    c ctx 119;
    State.record_read ctx.Ctx.st s_fd_sock;
    if s.shut then Ctx.ok 0L
    else if not s.connected then begin
      c ctx 120;
      Ctx.err Errno.EAGAIN
    end
    else begin
      c ctx 121;
      Ctx.ok 0L
    end
  | _ -> Ctx.err Errno.EINVAL

(* ---- additional socket options and control operations ---- *)

let h_setsockopt_rcvbuf ctx args =
  c ctx 640;
  with_sock ctx args (fun s ->
      let v = Int64.to_int (Arg.as_int (Arg.field (Arg.nth args 3) 0)) in
      c ctx 641;
      State.record_write ctx.Ctx.st s_fd_sock;
      s.rcvbuf <- max 256 (v * 2);
      if s.rcvbuf < 1024 then c ctx 642;
      Ctx.ok0)

let h_setsockopt_keepalive ctx args =
  c ctx 644;
  with_sock ctx args (fun s ->
      let v = Arg.as_int (Arg.field (Arg.nth args 3) 0) in
      if s.proto <> Tcp then begin
        c ctx 645;
        Ctx.err Errno.EOPNOTSUPP
      end
      else begin
        c ctx 646;
        State.record_write ctx.Ctx.st s_fd_sock;
        s.keepalive <- Int64.compare v 0L <> 0;
        if s.keepalive then c ctx 647;
        Ctx.ok0
      end)

let h_getsockopt_error ctx args =
  c ctx 649;
  with_sock ctx args (fun s ->
      c ctx 650;
      (* Reading SO_ERROR clears the pending error. *)
      let err = if s.pending_err then Int64.of_int (Errno.code Errno.EPIPE) else 0L in
      State.record_write ctx.Ctx.st s_fd_sock;
      s.pending_err <- false;
      Ctx.ok err)

let h_fionread ctx args =
  c ctx 652;
  with_sock ctx args (fun s ->
      if not s.connected then begin
        c ctx 653;
        Ctx.ok 0L
      end
      else begin
        c ctx 654;
        Ctx.ok 0L (* nothing queued in the simulator's quiet network *)
      end)

let h_accept4 ctx args =
  c ctx 656;
  with_sock ctx args (fun s ->
      let aflags = Arg.as_int (Arg.nth args 2) in
      if Int64.logand aflags (Int64.lognot 0x80800L) <> 0L then begin
        c ctx 657;
        Ctx.err Errno.EINVAL
      end
      else if not s.listening then begin
        c ctx 658;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 659;
        if Int64.logand aflags 0x800L <> 0L then c ctx 660 (* NONBLOCK *);
        let peer =
          {
            proto = s.proto;
            bound = true;
            bound_addr = s.bound_addr;
            listening = false;
            connected = true;
            backlog = 0;
            sndbuf = s.sndbuf;
            shut = false;
            ib_transport = false;
            rcvbuf = s.rcvbuf;
            keepalive = s.keepalive;
            pending_err = false;
          }
        in
        let entry = State.alloc_fd ctx.Ctx.st (Sock peer) in
        Ctx.ok (Int64.of_int entry.State.fd)
      end)

(* sendmsg: scatter-gather transmit; the iov count takes its own
   segmentation paths. *)
let h_sendmsg ctx args =
  c ctx 662;
  with_sock ctx args (fun s ->
      let msg = Arg.nth args 1 in
      if Arg.is_null msg then begin
        c ctx 663;
        Ctx.err Errno.EFAULT
      end
      else begin
        let iovs = Arg.as_rec (Arg.field msg 0) in
        let niov = List.length iovs in
        if niov = 0 then begin
          c ctx 664;
          Ctx.err Errno.EINVAL
        end
        else if s.shut then begin
          c ctx 665;
          State.record_write ctx.Ctx.st s_fd_sock;
          s.pending_err <- true;
          Ctx.err Errno.EPIPE
        end
        else if (not s.connected) && s.proto = Tcp then begin
          c ctx 666;
          Ctx.err Errno.ENOTCONN
        end
        else begin
          c ctx 667;
          c ctx (672 + min 7 niov);
          Ctx.ok (Int64.of_int (niov * 16))
        end
      end)

let descriptions =
  {|
# Core sockets: TCP, UDP, Unix, netlink, raw, RxRPC, RDS.
resource sock[fd]
resource sock_tcp[sock]
resource sock_udp[sock]
resource sock_unix[sock]
resource sock_netlink[sock]
resource sock_raw[sock]
resource sock_rxrpc[sock]
resource sock_rds[sock]
flags send_flags = 0x0 0x1 0x4 0x10 0x40 0x4000
struct sockaddr { family int16, port int16, addr int32 }
socket$tcp(domain const[2], type const[1], proto const[6]) sock_tcp
socket$udp(domain const[2], type const[2], proto const[17]) sock_udp
socket$unix(domain const[1], type const[1], proto const[0]) sock_unix
socket$netlink(domain const[16], type const[3], proto int32[0:22]) sock_netlink
socket$raw(domain const[2], type const[3], proto const[255]) sock_raw
socket$rxrpc(domain const[33], type const[2], proto const[0]) sock_rxrpc
socket$rds(domain const[21], type const[5], proto const[0]) sock_rds
bind(fd sock, addr ptr[in, sockaddr])
bind$rxrpc(fd sock_rxrpc, addr ptr[in, sockaddr])
listen(fd sock_tcp, backlog int32)
accept(fd sock_tcp, peer ptr[out, sockaddr]) sock_tcp
connect(fd sock, addr ptr[in, sockaddr])
connect$unspec(fd sock_tcp, family const[0])
sendto(fd sock, buf buffer[in], length len[buf], flags flags[send_flags], addr ptr[in, sockaddr])
recvfrom(fd sock, buf buffer[out], length len[buf], flags flags[send_flags])
setsockopt$SO_SNDBUF(fd sock, level const[1], optname const[7], val ptr[in, int32])
setsockopt$SO_RCVBUF(fd sock, level const[1], optname const[8], val ptr[in, int32])
setsockopt$SO_KEEPALIVE(fd sock_tcp, level const[1], optname const[9], val ptr[in, int32])
getsockopt$SO_ERROR(fd sock, level const[1], optname const[4], val ptr[out, int32])
ioctl$FIONREAD(fd sock, cmd const[0x541b], avail ptr[out, int32])
accept4(fd sock_tcp, peer ptr[out, sockaddr], aflags int32) sock_tcp
sendmsg(fd sock, msg ptr[in, msghdr_sim], sflags flags[send_flags])
struct iovec_sim { base vma, iov_len int64 }
struct msghdr_sim { iovs array[iovec_sim, 1:4], control int64 }
setsockopt$SO_LINGER(fd sock, level const[1], optname const[13], val ptr[in, int64])
setsockopt$rds_ib(fd sock_rds, level const[276], optname const[1], val ptr[in, int32])
getsockname(fd sock, addr ptr[out, sockaddr])
shutdown(fd sock, how int32[0:2])
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Sock s -> Some (Sock { s with bound = s.bound })
  | _ -> None

let sub =
  let l = Subsystem.locked [ sk_lock ] in
  let w touches = Lock.scoped [ "sk_lock" ] ~touches in
  let wsk = Lock.scoped [ "sk_lock" ] ~touches:[ "fd:sock" ] in
  Subsystem.make ~name:"sock" ~descriptions ~copy_kind
    ~handlers:
      [
        ("socket$tcp", h_socket Tcp);
        ("socket$udp", h_socket Udp);
        ("socket$unix", h_socket Unix);
        ("socket$netlink", h_socket Netlink);
        ("socket$raw", h_socket Raw);
        ("socket$rxrpc", h_socket Rxrpc);
        ("socket$rds", h_socket Rds);
        ("bind", l h_bind);
        ("bind$rxrpc", l h_bind_rxrpc);
        ("listen", l h_listen);
        ("accept", l h_accept);
        ("connect", l h_connect);
        ("connect$unspec", l h_connect_unspec);
        ("sendto", l h_sendto);
        ("recvfrom", l h_recvfrom);
        ("setsockopt$SO_SNDBUF", l h_setsockopt_sndbuf);
        ("setsockopt$SO_RCVBUF", l h_setsockopt_rcvbuf);
        ("setsockopt$SO_KEEPALIVE", l h_setsockopt_keepalive);
        ("getsockopt$SO_ERROR", l h_getsockopt_error);
        ("ioctl$FIONREAD", l h_fionread);
        ("accept4", l h_accept4);
        ("sendmsg", l h_sendmsg);
        ("setsockopt$SO_LINGER", l h_setsockopt_linger);
        ("setsockopt$rds_ib", l h_setsockopt_rds_ib);
        ("getsockname", l h_getsockname);
        ("shutdown", l h_shutdown);
      ]
    ~locks:
      [
        ("bind", wsk);
        ("bind$rxrpc", w [ "rxrpc"; "fd:sock" ]);
        ("listen", wsk);
        ("accept", wsk);
        ("connect", wsk);
        ("connect$unspec", wsk);
        ("sendto", wsk);
        ("recvfrom", wsk);
        ("setsockopt$SO_SNDBUF", wsk);
        ("setsockopt$SO_RCVBUF", wsk);
        ("setsockopt$SO_KEEPALIVE", wsk);
        ("getsockopt$SO_ERROR", wsk);
        ("ioctl$FIONREAD", w []);
        ("accept4", wsk);
        ("sendmsg", wsk);
        ("setsockopt$SO_LINGER", wsk);
        ("setsockopt$rds_ib", wsk);
        ("getsockname", w []);
        ("shutdown", wsk);
      ]
    ~effects:
      (let wr = Effect.spec ~writes:[ "fd:sock" ] () in
       let rd = Effect.spec ~reads:[ "fd:sock" ] () in
       [
         ("bind", wr);
         ("bind$rxrpc", Effect.spec ~writes:[ "rxrpc"; "fd:sock" ] ());
         ("listen", wr);
         ("accept", wr);
         ("connect", Effect.spec ~reads:[ "rxrpc" ] ~writes:[ "fd:sock" ] ());
         ("connect$unspec", wr);
         ("sendto", wr);
         ("recvfrom", wr);
         ("setsockopt$SO_SNDBUF", wr);
         ("setsockopt$SO_RCVBUF", wr);
         ("setsockopt$SO_KEEPALIVE", wr);
         ("getsockopt$SO_ERROR", wr);
         ("ioctl$FIONREAD", rd);
         ("accept4", wr);
         ("sendmsg", wr);
         ("setsockopt$SO_LINGER", wr);
         ("setsockopt$rds_ib", wr);
         ("getsockname", rd);
         ("shutdown", wr);
       ])
    ~file_ops:
      [
        {
          Subsystem.op_name = "write";
          applies = (function Sock _ -> true | _ -> false);
          run = sock_write;
        };
        {
          Subsystem.op_name = "read";
          applies = (function Sock _ -> true | _ -> false);
          run = sock_read;
        };
      ]
    ()
