type netdev = {
  dname : string;
  mutable up : bool;
  mutable qdisc_limit : int option;
  mutable last_xmit : int;
  mutable macvlan_dying : bool;
}

type State.fd_kind += Packet_sock

let blk = Coverage.region ~name:"netdev" ~size:256
let c ctx o = Ctx.cover ctx (blk + o)

(* Like Linux's rtnl_mutex: one class serializing the device table for
   both the ioctl paths here and the rtnetlink paths in [Netlink] (the
   shared-table coupling below); also covers the address table those
   rtnetlink handlers manage alongside the devices. *)
let rtnl = Lock.register ~rank:10 ~guards:[ "netdevs"; "nl_addrs" ] "rtnl"

(* Effect slots: the device table, and the packet-socket tx statistics
   that are deliberately NOT guarded by any class — the
   [packet_seq_show] fixture race below. *)
let s_netdevs = Effect.slot "netdevs"
let s_pkt_stats = Effect.slot "pkt_stats"

let () =
  Effect.register_race ~slot:"pkt_stats"
    ~parties:[ "sendto$packet"; "socket$packet" ]
    ~bug:"packet_seq_show"

let fresh name =
  { dname = name; up = false; qdisc_limit = None; last_xmit = 0; macvlan_dying = false }

let devs_slot =
  State.slot ~name:"netdevs"
    ~create:(fun () ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace tbl "eth0" (fresh "eth0");
      Hashtbl.replace tbl "lo" { (fresh "lo") with up = true };
      tbl)
    ~copy:(State.copy_tbl (fun (d : netdev) -> { d with up = d.up }))

let devs_of st = State.get st devs_slot

(* State accessors for sibling subsystems (rtnetlink mutates the same
   device table that the ioctl paths manage). *)

let lookup st name =
  State.record_read st s_netdevs;
  Hashtbl.find_opt (devs_of st) name

let sorted_names st =
  State.record_read st s_netdevs;
  Hashtbl.fold (fun name _ acc -> name :: acc) (devs_of st) []
  |> List.sort String.compare

let device_count st =
  State.record_read st s_netdevs;
  Hashtbl.length (devs_of st)

let install st dev =
  State.record_write st s_netdevs;
  Hashtbl.replace (devs_of st) dev.dname dev

let remove st name =
  let devs = devs_of st in
  if Hashtbl.mem devs name then begin
    State.record_write st s_netdevs;
    Hashtbl.remove devs name;
    true
  end
  else false

let h_socket_packet ctx _args =
  c ctx 0;
  let st = ctx.Ctx.st in
  (* /proc/net/packet-style walk: creating a second packet socket scans
     the existing socket list and reads the tx statistics another
     socket may be updating with no lock held at all — the
     packet_seq_show data race (5.6). *)
  if
    State.exists_fd st (fun e ->
        match e.State.kind with Packet_sock -> true | _ -> false)
  then begin
    c ctx 1;
    State.record_read st s_pkt_stats;
    let dirty = State.counter st "pkt.dirty_at" in
    if dirty > 0 && State.now st - dirty <= 2 then begin
      c ctx 4;
      Ctx.bug ctx "packet_seq_show"
    end
  end;
  let entry = State.alloc_fd st Packet_sock in
  Ctx.ok (Int64.of_int entry.State.fd)

let with_packet ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Packet_sock; _ } -> k ()
  | Some _ -> (c ctx 2; Ctx.err Errno.EOPNOTSUPP)
  | None -> (c ctx 3; Ctx.err Errno.EBADF)

let dev_arg ctx args i =
  let name = Arg.as_str (Arg.nth args i) in
  State.record_read ctx.Ctx.st s_netdevs;
  let devs = devs_of ctx.Ctx.st in
  (name, Hashtbl.find_opt devs name)

let h_ifup ctx args =
  c ctx 5;
  with_packet ctx args (fun () ->
      match dev_arg ctx args 2 with
      | _, Some dev ->
        c ctx 6;
        State.record_write ctx.Ctx.st s_netdevs;
        dev.up <- true;
        Ctx.ok0
      | name, None ->
        c ctx 7;
        (* Unknown interface name with a control character trips a
           WARN in dev_ioctl's name validation. *)
        if String.exists (fun ch -> Char.code ch < 32) name then begin
          c ctx 8;
          Ctx.bug ctx "dev_ioctl_warn"
        end;
        Ctx.err Errno.ENODEV)

let h_ifdown ctx args =
  c ctx 10;
  with_packet ctx args (fun () ->
      match dev_arg ctx args 2 with
      | _, Some dev ->
        c ctx 11;
        State.record_write ctx.Ctx.st s_netdevs;
        dev.up <- false;
        Ctx.ok0
      | _, None ->
        c ctx 12;
        Ctx.err Errno.ENODEV)

let h_macvlan_create ctx args =
  c ctx 14;
  with_packet ctx args (fun () ->
      match dev_arg ctx args 2 with
      | _, Some lower when lower.dname <> "lo" ->
        let devs = devs_of ctx.Ctx.st in
        if Hashtbl.mem devs "macvlan0" then begin
          c ctx 15;
          Ctx.err Errno.EEXIST
        end
        else begin
          c ctx 16;
          State.record_write ctx.Ctx.st s_netdevs;
          Hashtbl.replace devs "macvlan0" (fresh "macvlan0");
          Ctx.ok0
        end
      | _, Some _ ->
        c ctx 17;
        Ctx.err Errno.EINVAL
      | _, None ->
        c ctx 18;
        Ctx.err Errno.ENODEV)

let h_macvlan_del ctx args =
  c ctx 20;
  with_packet ctx args (fun () ->
      State.record_read ctx.Ctx.st s_netdevs;
      let devs = devs_of ctx.Ctx.st in
      match Hashtbl.find_opt devs "macvlan0" with
      | Some dev ->
        c ctx 21;
        (* Teardown is asynchronous: the device lingers briefly, still
           up, with its broadcast queue live. *)
        State.record_write ctx.Ctx.st s_netdevs;
        dev.macvlan_dying <- true;
        Ctx.ok0
      | None ->
        c ctx 22;
        Ctx.err Errno.ENODEV)

let h_qdisc_add ctx args =
  c ctx 24;
  with_packet ctx args (fun () ->
      match dev_arg ctx args 2 with
      | _, Some dev ->
        let limit = Int64.to_int (Arg.as_int (Arg.nth args 3)) in
        if limit < 0 then begin
          c ctx 25;
          Ctx.err Errno.EINVAL
        end
        else begin
          c ctx 26;
          State.record_write ctx.Ctx.st s_netdevs;
          dev.qdisc_limit <- Some limit;
          if limit = 0 then c ctx 27;
          Ctx.ok0
        end
      | _, None ->
        c ctx 28;
        Ctx.err Errno.ENODEV)

let h_qdisc_del ctx args =
  c ctx 30;
  with_packet ctx args (fun () ->
      match dev_arg ctx args 2 with
      | _, Some dev ->
        c ctx 31;
        State.record_write ctx.Ctx.st s_netdevs;
        dev.qdisc_limit <- None;
        Ctx.ok0
      | _, None ->
        c ctx 32;
        Ctx.err Errno.ENODEV)

let h_sendto_packet ctx args =
  c ctx 34;
  with_packet ctx args (fun () ->
      let n = Arg.buf_length (Arg.nth args 1) in
      match dev_arg ctx args 4 with
      | _, Some dev ->
        if not dev.up then begin
          c ctx 35;
          Ctx.err Errno.ENODEV
        end
        else begin
          c ctx 36;
          State.record_write ctx.Ctx.st s_netdevs;
          dev.last_xmit <- State.now ctx.Ctx.st;
          (* Per-socket tx statistics, bumped outside any lock — the
             write half of the packet_seq_show race. *)
          State.record_write ctx.Ctx.st s_pkt_stats;
          ignore (State.incr_counter ctx.Ctx.st "pkt.tx");
          State.set_counter ctx.Ctx.st "pkt.dirty_at" (State.now ctx.Ctx.st);
          (* Broadcast onto a macvlan whose teardown already started
             queues work against the freed port (5.11). *)
          if dev.macvlan_dying then begin
            c ctx 37;
            Ctx.bug ctx "macvlan_broadcast"
          end;
          (* A zero-limit qdisc with an oversized frame indexes the
             size table out of bounds (5.11). *)
          (match dev.qdisc_limit with
          | Some 0 when n > 2048 ->
            c ctx 38;
            Ctx.bug ctx "qdisc_calculate_pkt_len"
          | Some _ -> c ctx 39
          | None -> c ctx 40);
          let combo =
            (if dev.qdisc_limit <> None then 1 else 0)
            lor (if dev.dname = "macvlan0" then 2 else 0)
            lor if n > 1024 then 4 else 0
          in
          c ctx (64 + combo);
          let size_class =
            if n = 0 then 0 else if n <= 256 then 1
            else if n <= 2048 then 2 else 3
          in
          c ctx (96 + (combo * 4) + size_class);
          Ctx.ok (Int64.of_int n)
        end
      | _, None ->
        c ctx 41;
        Ctx.err Errno.ENODEV)

let h_recv_packet ctx args =
  c ctx 43;
  with_packet ctx args (fun () ->
      State.record_read ctx.Ctx.st s_netdevs;
      let devs = devs_of ctx.Ctx.st in
      match Hashtbl.find_opt devs "eth0" with
      | Some dev ->
        c ctx 44;
        (* RX clean path racing a transmit in the same window
           (e1000_clean vs e1000_xmit_frame, 5.11). *)
        if
          dev.up && dev.last_xmit > 0
          && State.now ctx.Ctx.st - dev.last_xmit <= 2
        then begin
          c ctx 45;
          Ctx.bug ctx "e1000_clean"
        end;
        Ctx.ok 0L
      | None ->
        c ctx 46;
        Ctx.err Errno.ENODEV)

let descriptions =
  {|
# Network devices: interfaces, macvlan, qdisc, packet sockets.
resource sock_packet[sock]
socket$packet(domain const[17], type const[3], proto const[768]) sock_packet
ioctl$ifup(fd sock_packet, cmd const[0x8914], dev ptr[in, string["eth0", "macvlan0", "lo"]])
ioctl$ifdown(fd sock_packet, cmd const[0x8915], dev ptr[in, string["eth0", "macvlan0"]])
ioctl$macvlan_create(fd sock_packet, cmd const[0x89f0], lower ptr[in, string["eth0"]])
ioctl$macvlan_del(fd sock_packet, cmd const[0x89f1], dev ptr[in, string["macvlan0"]])
ioctl$qdisc_add(fd sock_packet, cmd const[0x89f2], dev ptr[in, string["eth0", "macvlan0"]], limit int32[0:1024])
ioctl$qdisc_del(fd sock_packet, cmd const[0x89f3], dev ptr[in, string["eth0", "macvlan0"]])
sendto$packet(fd sock_packet, buf buffer[in], length len[buf], sflags const[0], dev ptr[in, string["eth0", "macvlan0", "lo"]])
recvfrom$packet(fd sock_packet, buf buffer[out], length len[buf])
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Packet_sock -> Some Packet_sock
  | _ -> None

let sub =
  let l = Subsystem.locked [ rtnl ] in
  let w = Lock.scoped [ "rtnl" ] ~touches:[ "netdevs" ] in
  let r = Lock.scoped [ "rtnl" ] in
  Subsystem.make ~name:"netdev" ~descriptions ~copy_kind
    ~handlers:
      [
        ("socket$packet", h_socket_packet);
        ("ioctl$ifup", l h_ifup);
        ("ioctl$ifdown", l h_ifdown);
        ("ioctl$macvlan_create", l h_macvlan_create);
        ("ioctl$macvlan_del", l h_macvlan_del);
        ("ioctl$qdisc_add", l h_qdisc_add);
        ("ioctl$qdisc_del", l h_qdisc_del);
        ("sendto$packet", l h_sendto_packet);
        ("recvfrom$packet", l h_recv_packet);
      ]
    ~locks:
      [
        ("ioctl$ifup", w);
        ("ioctl$ifdown", w);
        ("ioctl$macvlan_create", w);
        ("ioctl$macvlan_del", w);
        ("ioctl$qdisc_add", w);
        ("ioctl$qdisc_del", w);
        ("sendto$packet", w);
        ("recvfrom$packet", r);
      ]
    ~effects:
      (let wdev = Effect.spec ~writes:[ "netdevs" ] () in
       [
         ("socket$packet", Effect.spec ~reads:[ "pkt_stats" ] ());
         ("ioctl$ifup", wdev);
         ("ioctl$ifdown", wdev);
         ("ioctl$macvlan_create", wdev);
         ("ioctl$macvlan_del", wdev);
         ("ioctl$qdisc_add", wdev);
         ("ioctl$qdisc_del", wdev);
         ( "sendto$packet",
           Effect.spec ~writes:[ "netdevs"; "pkt_stats" ] () );
         ("recvfrom$packet", Effect.spec ~reads:[ "netdevs" ] ());
       ])
    ()
