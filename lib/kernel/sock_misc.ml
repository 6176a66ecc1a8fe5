type l2cap = {
  mutable connected : bool;
  mutable mode_set : bool;
  mutable chan_refs : int;
  mutable shut : bool;
}

type llcp = {
  mutable bound : bool;
  mutable listening : bool;
  mutable connect_failed : bool;
}

type ieee802154 = {
  mutable keys : int64 list;
  mutable security_on : bool;
  mutable closed_while_tx : bool;
}

type State.fd_kind +=
  | L2cap of l2cap
  | Llcp of llcp
  | Ieee802154 of ieee802154

let blk = Coverage.region ~name:"sock_misc" ~size:320
let c ctx o = Ctx.cover ctx (blk + o)

let h_socket_l2cap ctx _args =
  c ctx 0;
  let entry =
    State.alloc_fd ctx.Ctx.st
      (L2cap { connected = false; mode_set = false; chan_refs = 1; shut = false })
  in
  Ctx.ok (Int64.of_int entry.State.fd)

let h_socket_llcp ctx _args =
  c ctx 1;
  let entry =
    State.alloc_fd ctx.Ctx.st
      (Llcp { bound = false; listening = false; connect_failed = false })
  in
  Ctx.ok (Int64.of_int entry.State.fd)

let h_socket_154 ctx _args =
  c ctx 2;
  let entry =
    State.alloc_fd ctx.Ctx.st
      (Ieee802154 { keys = []; security_on = false; closed_while_tx = false })
  in
  Ctx.ok (Int64.of_int entry.State.fd)

let with_l2cap ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = L2cap s; _ } -> k s
  | Some _ -> (c ctx 4; Ctx.err Errno.EOPNOTSUPP)
  | None -> (c ctx 5; Ctx.err Errno.EBADF)

let with_llcp ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Llcp s; _ } -> k s
  | Some _ -> (c ctx 6; Ctx.err Errno.EOPNOTSUPP)
  | None -> (c ctx 7; Ctx.err Errno.EBADF)

let with_154 ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some ({ kind = Ieee802154 s; _ } as e) -> k e s
  | Some _ -> (c ctx 8; Ctx.err Errno.EOPNOTSUPP)
  | None -> (c ctx 9; Ctx.err Errno.EBADF)

(* ---- L2CAP ---- *)

let h_bind_l2cap ctx args =
  c ctx 12;
  with_l2cap ctx args (fun s ->
      c ctx 13;
      s.chan_refs <- s.chan_refs + 1;
      Ctx.ok0)

let h_connect_l2cap ctx args =
  c ctx 15;
  with_l2cap ctx args (fun s ->
      if s.connected then begin
        c ctx 16;
        Ctx.err Errno.EISCONN
      end
      else begin
        c ctx 17;
        s.connected <- true;
        s.chan_refs <- s.chan_refs + 1;
        Ctx.ok0
      end)

let h_setsockopt_l2cap_mode ctx args =
  c ctx 19;
  with_l2cap ctx args (fun s ->
      let mode = Arg.as_int (Arg.field (Arg.nth args 3) 0) in
      if Int64.compare mode 4L > 0 then begin
        c ctx 20;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 21;
        s.mode_set <- true;
        Ctx.ok0
      end)

let h_shutdown_l2cap ctx args =
  c ctx 23;
  with_l2cap ctx args (fun s ->
      c ctx 24;
      s.shut <- true;
      (* Mode switch mid-connection dropped an extra channel ref; the
         shutdown path now underflows it (l2cap_chan_put, 5.11). *)
      if s.connected && s.mode_set && s.chan_refs >= 3 then begin
        c ctx 25;
        Ctx.bug ctx "l2cap_chan_put"
      end;
      s.chan_refs <- max 0 (s.chan_refs - 1);
      Ctx.ok0)

(* ---- NFC LLCP ---- *)

let h_bind_llcp ctx args =
  c ctx 28;
  with_llcp ctx args (fun s ->
      let addr = Arg.nth args 1 in
      let svc_len = Arg.as_int (Arg.field addr 1) in
      c ctx 29;
      (* A short service-name length leaves the tail of the name
         buffer uninitialized (llcp_sock_bind). *)
      if Int64.compare svc_len 0L > 0 && Int64.compare svc_len 4L < 0 then begin
        c ctx 30;
        Ctx.bug ctx "llcp_sock_bind_uninit"
      end;
      s.bound <- true;
      Ctx.ok0)

let h_listen_llcp ctx args =
  c ctx 32;
  with_llcp ctx args (fun s ->
      if not s.bound then begin
        c ctx 33;
        Ctx.err Errno.EDESTADDRREQ
      end
      else begin
        c ctx 34;
        s.listening <- true;
        Ctx.ok0
      end)

let h_connect_llcp ctx args =
  c ctx 36;
  with_llcp ctx args (fun s ->
      (* No NFC adapter is present in the simulator: connect fails but
         leaves a half-set-up local. *)
      c ctx 37;
      s.connect_failed <- true;
      Ctx.err Errno.ENODEV)

let h_getsockname_llcp ctx args =
  c ctx 39;
  with_llcp ctx args (fun s ->
      if s.connect_failed && not s.bound then begin
        (* Socket has no local device after the failed connect;
           getname dereferences NULL (5.4). *)
        c ctx 40;
        Ctx.bug ctx "llcp_sock_getname";
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 41;
        Ctx.ok0
      end)

(* ---- IEEE 802.15.4 ---- *)

let h_set_key_154 ctx args =
  c ctx 44;
  with_154 ctx args (fun _ s ->
      let key = Arg.nth args 2 in
      let mode = Arg.as_int (Arg.field key 0) in
      let id = Arg.as_int (Arg.field key 1) in
      if Int64.compare mode 3L > 0 then begin
        c ctx 45;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 46;
        (* Implicit-mode key with a zero id: the key-id parser
           dereferences the absent device address (5.11). *)
        if Int64.compare mode 2L = 0 && Int64.compare id 0L = 0 then begin
          c ctx 47;
          Ctx.bug ctx "ieee802154_llsec_parse_key_id"
        end;
        s.keys <- id :: s.keys;
        s.security_on <- true;
        Ctx.ok0
      end)

let h_del_key_154 ctx args =
  c ctx 49;
  with_154 ctx args (fun _ s ->
      let id = Arg.as_int (Arg.field (Arg.nth args 2) 1) in
      if List.mem id s.keys then begin
        c ctx 50;
        s.keys <- List.filter (fun k -> k <> id) s.keys;
        Ctx.ok0
      end
      else if s.security_on then begin
        (* Deleting a non-existent key walks the llsec table off the
           end (5.4). *)
        c ctx 51;
        Ctx.bug ctx "nl802154_del_llsec_key";
        Ctx.err Errno.ENOENT
      end
      else begin
        c ctx 52;
        Ctx.err Errno.ENOENT
      end)

let h_sendto_154 ctx args =
  c ctx 54;
  with_154 ctx args (fun entry s ->
      c ctx 55;
      (* The entry aliased by a duplicate descriptor was closed while
         a frame was queued: the tx path uses the freed sock (5.11). *)
      if s.closed_while_tx then begin
        c ctx 56;
        Ctx.bug ctx "ieee802154_tx"
      end;
      if s.security_on then c ctx 57;
      let combo =
        (if s.security_on then 1 else 0)
        lor ((min 3 (List.length s.keys)) * 2)
      in
      c ctx (100 + combo);
      ignore entry;
      Ctx.ok (Int64.of_int (Arg.buf_length (Arg.nth args 1))))

let close_154 ctx (entry : State.fd_entry) _args =
  match entry.kind with
  | Ieee802154 s ->
    c ctx 59;
    (* Closing one alias while another remains: mark the queued-tx
       hazard. *)
    if entry.refs > 1 then s.closed_while_tx <- true;
    Ctx.ok0
  | _ -> Ctx.err Errno.EINVAL

let descriptions =
  {|
# Bluetooth L2CAP, NFC LLCP, IEEE 802.15.4.
resource sock_l2cap[sock]
resource sock_llcp[sock]
resource sock_154[sock]
struct llcp_addr { dev_idx int32, service_name_len int32, service_name buffer[in] }
struct llsec_key { mode int32[0:3], id int32, key buffer[in] }
socket$l2cap(domain const[31], type const[5], proto const[0]) sock_l2cap
bind$l2cap(fd sock_l2cap, addr ptr[in, sockaddr])
connect$l2cap(fd sock_l2cap, addr ptr[in, sockaddr])
setsockopt$l2cap_mode(fd sock_l2cap, level const[6], optname const[1], val ptr[in, int32])
shutdown$l2cap(fd sock_l2cap, how int32[0:2])
socket$llcp(domain const[39], type const[1], proto const[1]) sock_llcp
bind$llcp(fd sock_llcp, addr ptr[in, llcp_addr])
listen$llcp(fd sock_llcp, backlog int32)
connect$llcp(fd sock_llcp, addr ptr[in, llcp_addr])
getsockname$llcp(fd sock_llcp, addr ptr[out, llcp_addr])
socket$ieee802154(domain const[36], type const[2], proto const[0]) sock_154
ioctl$154_SET_KEY(fd sock_154, cmd const[0x8b01], key ptr[in, llsec_key])
ioctl$154_DEL_KEY(fd sock_154, cmd const[0x8b02], key ptr[in, llsec_key])
sendto$ieee802154(fd sock_154, buf buffer[in], length len[buf], sflags const[0], addr ptr[in, sockaddr])
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | L2cap l -> Some (L2cap { l with connected = l.connected })
  | Llcp l -> Some (Llcp { l with bound = l.bound })
  | Ieee802154 i -> Some (Ieee802154 { i with keys = i.keys })
  | _ -> None

let sub =
  Subsystem.make ~name:"sock_misc" ~descriptions ~copy_kind
    ~handlers:
      [
        ("socket$l2cap", h_socket_l2cap);
        ("bind$l2cap", h_bind_l2cap);
        ("connect$l2cap", h_connect_l2cap);
        ("setsockopt$l2cap_mode", h_setsockopt_l2cap_mode);
        ("shutdown$l2cap", h_shutdown_l2cap);
        ("socket$llcp", h_socket_llcp);
        ("bind$llcp", h_bind_llcp);
        ("listen$llcp", h_listen_llcp);
        ("connect$llcp", h_connect_llcp);
        ("getsockname$llcp", h_getsockname_llcp);
        ("socket$ieee802154", h_socket_154);
        ("ioctl$154_SET_KEY", h_set_key_154);
        ("ioctl$154_DEL_KEY", h_del_key_154);
        ("sendto$ieee802154", h_sendto_154);
      ]
    ~file_ops:
      [
        {
          Subsystem.op_name = "close";
          applies = (function Ieee802154 _ -> true | _ -> false);
          run = close_154;
        };
      ]
    ()
