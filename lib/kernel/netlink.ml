(* Netlink message layer: NETLINK_ROUTE (link / address / qdisc
   management) and generic netlink (runtime family-id resolution plus
   simulated nlctrl / devlink / ethtool families).

   The rtnetlink handlers mutate the same device table that the netdev
   ioctl paths manage (via the accessors netdev.mli exposes), so the
   relation learner can discover genuine cross-subsystem influence:
   RTM_NEWLINK creates the device a packet socket transmits on,
   RTM_SETLINK flips the [up] bit that gates [sendto$packet], and
   RTM_NEWQDISC installs the zero-limit qdisc that
   [qdisc_calculate_pkt_len] trips over. *)

type nl_proto = Route | Generic

type nl_sock = {
  nproto : nl_proto;
  mutable memberships : int;
  mutable bound_family : int option;  (** Generic: family id from bind. *)
  mutable dump_offset : int;  (** Links already emitted by the dump. *)
  mutable dump_total : int;  (** Link count when the dump started; -1 = idle. *)
  mutable queued : int;  (** Reply messages waiting for recvmsg. *)
}

type genl_family = {
  gname : string;
  mutable gid : int;  (** Runtime id; reassigned on reload. *)
  mutable registered : bool;
  mutable sends : int;
}

(* The family registry carries its own id counter, so installing it
   needs nothing from the rest of the state. *)
type families = {
  by_name : (string, genl_family) Hashtbl.t;
  mutable next_id : int;
}

type State.fd_kind += Nl_sock of nl_sock

let blk = Coverage.region ~name:"netlink" ~size:512
let c ctx o = Ctx.cover ctx (blk + o)

(* Effect slots. "netdevs" is the same slot netdev.ml interns — the
   rtnetlink handlers mutate that shared table directly. The
   per-socket receive state (queues, cursors, memberships) is the
   fd:nl_sock payload; socket creation itself is exempt
   (fresh-payload allocation). *)
let s_genl = Effect.slot "genl_families"
let s_nl_addrs = Effect.slot "nl_addrs"
let s_nl_sock = Effect.slot "fd:nl_sock"
let s_netdevs = Effect.slot "netdevs"

let nlmsg_hdrlen = 16
let nla_hdrlen = 4
let nlm_f_dump = 0x300
let nlm_f_create = 0x400
let nlm_f_excl = 0x800
let dump_batch = 2
let genl_base_id = 0x10

let fresh_sock nproto =
  {
    nproto;
    memberships = 0;
    bound_family = None;
    dump_offset = 0;
    dump_total = -1;
    queued = 0;
  }

let next_family_id fams =
  let id = fams.next_id in
  fams.next_id <- id + 1;
  id

let register_family fams name =
  Hashtbl.replace fams.by_name name
    { gname = name; gid = next_family_id fams; registered = true; sends = 0 }

let families_slot =
  State.slot ~name:"genl_families"
    ~create:(fun () ->
      let fams = { by_name = Hashtbl.create 4; next_id = genl_base_id } in
      List.iter (register_family fams) [ "nlctrl"; "devlink"; "ethtool" ];
      fams)
    ~copy:(fun fams ->
      {
        by_name =
          State.copy_tbl (fun (f : genl_family) -> { f with gid = f.gid }) fams.by_name;
        next_id = fams.next_id;
      })

let addrs_slot : (string, int64 list) Hashtbl.t State.slot =
  State.slot ~name:"nl_addrs" ~create:(fun () -> Hashtbl.create 4) ~copy:Hashtbl.copy

let families_of st =
  State.record_read st s_genl;
  (State.get st families_slot).by_name

let addrs_of st =
  State.record_read st s_nl_addrs;
  State.get st addrs_slot

(* Queue a reply on the socket: fd:nl_sock payload write. *)
let enqueue st s n =
  State.record_write st s_nl_sock;
  s.queued <- s.queued + n

let family st name = Hashtbl.find_opt (families_of st) name

let family_by_id st id =
  Hashtbl.fold
    (fun _ f acc -> if f.gid = id && f.registered then Some f else acc)
    (families_of st) None

(* {2 Socket plumbing} *)

let h_socket_route ctx _args =
  c ctx 0;
  let entry = State.alloc_fd ctx.Ctx.st (Nl_sock (fresh_sock Route)) in
  Ctx.ok (Int64.of_int entry.State.fd)

let h_socket_generic ctx _args =
  c ctx 1;
  let entry = State.alloc_fd ctx.Ctx.st (Nl_sock (fresh_sock Generic)) in
  Ctx.ok (Int64.of_int entry.State.fd)

let with_nl ctx ~proto args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Nl_sock s; _ } when s.nproto = proto ->
    State.record_read ctx.Ctx.st s_nl_sock;
    k s
  | Some { kind = Nl_sock _; _ } ->
    c ctx 2;
    Ctx.err Errno.EOPNOTSUPP
  | Some _ ->
    c ctx 3;
    Ctx.err Errno.EOPNOTSUPP
  | None ->
    c ctx 4;
    Ctx.err Errno.EBADF

(* Validate the nlmsghdr prefix common to every rtnetlink message:
   pointer present, length covers the header, type matches the handler.
   Passes the dereferenced message and its flags word on success. *)
let with_msg ctx ~at ~mtype args k =
  let msg = Arg.nth args at in
  if Arg.is_null msg then begin
    c ctx 10;
    Ctx.err Errno.EFAULT
  end
  else begin
    let nlen = Int64.to_int (Arg.as_int (Arg.field msg 0)) in
    let ntype = Int64.to_int (Arg.as_int (Arg.field msg 1)) in
    let nflags = Int64.to_int (Arg.as_int (Arg.field msg 2)) in
    if nlen < nlmsg_hdrlen then begin
      c ctx 11;
      Ctx.err Errno.EINVAL
    end
    else if ntype <> mtype then begin
      c ctx 12;
      Ctx.err Errno.EOPNOTSUPP
    end
    else begin
      c ctx 13;
      k msg nflags
    end
  end

(* {2 Attribute TLV walk} *)

type attrs = {
  mutable a_ifname : string option;
  mutable a_kind : string option;
  mutable a_mtu : int option;
  mutable a_addr : int64 option;
  mutable a_qlimit : int option;
  mutable a_count : int;
  mutable a_truncated : bool;
}

let rec arg_size = function
  | Arg.Int _ | Arg.Slot _ -> 8
  | Arg.Str s -> String.length s
  | Arg.Buf b -> Healer_util.Blob.length b
  | Arg.Rec fs -> List.fold_left (fun acc f -> acc + arg_size f) 0 fs
  | Arg.Nothing -> 0

(* An array of unions arrives as [Rec [Rec [Rec fields]; ...]]: the
   extra layer is the union wrapper. Plain struct elements have no
   wrapper, so unwrap only single-element records. *)
let attr_fields = function
  | Arg.Rec [ (Arg.Rec _ as inner) ] -> inner
  | other -> other

(* Walk an rtattr TLV list. Each attribute claims [alen] bytes; a claim
   exceeding the actual payload means the kernel-side parser would read
   past the end of the message (the KMSAN bug below). *)
let parse_attrs ctx msg ~at =
  let acc =
    {
      a_ifname = None;
      a_kind = None;
      a_mtu = None;
      a_addr = None;
      a_qlimit = None;
      a_count = 0;
      a_truncated = false;
    }
  in
  List.iter
    (fun elem ->
      let fields = attr_fields elem in
      let alen = Int64.to_int (Arg.as_int (Arg.field fields 0)) in
      let atype = Int64.to_int (Arg.as_int (Arg.field fields 1)) in
      let payload = Arg.field fields 2 in
      acc.a_count <- acc.a_count + 1;
      let truncated = alen > arg_size payload + nla_hdrlen in
      if truncated then begin
        acc.a_truncated <- true;
        c ctx 290
      end
      else c ctx 291;
      match atype with
      | 1 ->
        c ctx 292;
        let kind = Arg.as_str payload in
        acc.a_kind <- Some kind;
        (* Nested IFLA_INFO_DATA parsing trusts the claimed length:
           the vlan module's nested policy walk reads the bytes the
           truncated attribute pretends to carry (5.4). *)
        if truncated && kind = "vlan" then begin
          c ctx 293;
          Ctx.bug ctx "nla_parse_nested"
        end
      | 2 ->
        c ctx 294;
        acc.a_qlimit <- Some (Int64.to_int (Arg.as_int payload))
      | 3 ->
        c ctx 295;
        acc.a_ifname <- Some (Arg.as_str payload)
      | 4 ->
        c ctx 296;
        acc.a_mtu <- Some (Int64.to_int (Arg.as_int payload))
      | 6 ->
        c ctx 297;
        acc.a_addr <- Some (Arg.as_int payload)
      | _ -> c ctx 298)
    (Arg.as_rec (Arg.field msg at));
  acc

(* Resolve the device a message targets: IFLA_IFNAME attribute first,
   else the ifindex-like field of the per-family header interpreted as
   an index into the sorted device list. *)
let resolve_dev st at msg ~idx_field =
  match at.a_ifname with
  | Some name -> Netdev.lookup st name
  | None ->
    let body = Arg.field msg 4 in
    let idx = Int64.to_int (Arg.as_int (Arg.field body idx_field)) in
    let names = Netdev.sorted_names st in
    if idx >= 0 && idx < List.length names then
      Netdev.lookup st (List.nth names idx)
    else None

(* {2 Combination coverage}

   320..383: rtnetlink op (0..7) x target/dump state.
   384..447: genl cmd (low 3 bits) x socket/family state.
   448..511: rtnetlink op x attribute-count class. *)

let rtm_combo ctx ~op ~dev ~up ~dumping ~nattrs =
  let bits =
    (if dev then 1 else 0) lor (if up then 2 else 0)
    lor if dumping then 4 else 0
  in
  c ctx (320 + (op * 8) + bits);
  c ctx (448 + (op * 8) + min 7 nattrs)

let genl_combo ctx ~cmd ~bound ~registered ~nattrs =
  let bits =
    (if bound then 1 else 0)
    lor (if registered then 2 else 0)
    lor if nattrs > 0 then 4 else 0
  in
  c ctx (384 + (cmd land 7 * 8) + bits)

(* {2 NETLINK_ROUTE handlers} *)

let h_newlink ctx args =
  c ctx 30;
  with_nl ctx ~proto:Route args (fun s ->
      with_msg ctx ~at:1 ~mtype:16 args (fun msg nflags ->
          let st = ctx.Ctx.st in
          let at = parse_attrs ctx msg ~at:5 in
          match at.a_ifname with
          | None ->
            c ctx 31;
            rtm_combo ctx ~op:0 ~dev:false ~up:false
              ~dumping:(s.dump_total >= 0) ~nattrs:at.a_count;
            Ctx.err Errno.EINVAL
          | Some name -> (
            let existing = Netdev.lookup st name in
            rtm_combo ctx ~op:0 ~dev:(existing <> None)
              ~up:(match existing with Some d -> d.Netdev.up | None -> false)
              ~dumping:(s.dump_total >= 0) ~nattrs:at.a_count;
            let create = nflags land nlm_f_create <> 0 in
            match (existing, create) with
            | Some _, true when nflags land nlm_f_excl <> 0 ->
              c ctx 32;
              Ctx.err Errno.EEXIST
            | Some dev, _ ->
              (* Modify-in-place form: only device attributes change. *)
              c ctx 33;
              (match at.a_mtu with Some _ -> c ctx 34 | None -> ());
              ignore dev;
              enqueue st s 1;
              Ctx.ok0
            | None, false ->
              c ctx 35;
              Ctx.err Errno.ENODEV
            | None, true ->
              (match at.a_kind with
              | Some "vlan" -> c ctx 36
              | Some "bridge" -> c ctx 37
              | Some "dummy" | None -> c ctx 38
              | Some _ ->
                (* No module registered for the requested link kind. *)
                c ctx 39);
              if
                match at.a_kind with
                | Some ("vlan" | "bridge" | "dummy") | None -> false
                | Some _ -> true
              then Ctx.err Errno.EOPNOTSUPP
              else begin
                c ctx 40;
                Netdev.install st (Netdev.fresh name);
                (match at.a_mtu with Some _ -> c ctx 41 | None -> ());
                enqueue st s 1;
                Ctx.ok0
              end)))

let h_dellink ctx args =
  c ctx 60;
  with_nl ctx ~proto:Route args (fun s ->
      with_msg ctx ~at:1 ~mtype:17 args (fun msg _nflags ->
          let st = ctx.Ctx.st in
          let at = parse_attrs ctx msg ~at:5 in
          let dev = resolve_dev st at msg ~idx_field:2 in
          rtm_combo ctx ~op:1 ~dev:(dev <> None)
            ~up:(match dev with Some d -> d.Netdev.up | None -> false)
            ~dumping:(s.dump_total >= 0) ~nattrs:at.a_count;
          match dev with
          | None ->
            c ctx 61;
            Ctx.err Errno.ENODEV
          | Some d when d.Netdev.dname = "lo" ->
            c ctx 62;
            Ctx.err Errno.EPERM
          | Some d ->
            c ctx 63;
            (* Unregister immediately. A dump that is mid-flight on
               this socket keeps its recorded offset (see GETLINK). *)
            ignore (Netdev.remove st d.Netdev.dname);
            State.record_write st s_nl_addrs;
            Hashtbl.remove (addrs_of st) d.Netdev.dname;
            enqueue st s 1;
            Ctx.ok0))

let h_setlink ctx args =
  c ctx 80;
  with_nl ctx ~proto:Route args (fun s ->
      with_msg ctx ~at:1 ~mtype:19 args (fun msg _nflags ->
          let st = ctx.Ctx.st in
          let at = parse_attrs ctx msg ~at:5 in
          let dev = resolve_dev st at msg ~idx_field:2 in
          rtm_combo ctx ~op:2 ~dev:(dev <> None)
            ~up:(match dev with Some d -> d.Netdev.up | None -> false)
            ~dumping:(s.dump_total >= 0) ~nattrs:at.a_count;
          match dev with
          | None ->
            c ctx 81;
            Ctx.err Errno.ENODEV
          | Some dev ->
            let ifi = Arg.field msg 4 in
            let flags = Int64.to_int (Arg.as_int (Arg.field ifi 3)) in
            let change = Int64.to_int (Arg.as_int (Arg.field ifi 4)) in
            if change land 1 <> 0 then begin
              let want_up = flags land 1 <> 0 in
              if want_up && dev.Netdev.macvlan_dying then begin
                (* Bringing a device back up mid-teardown. *)
                c ctx 82;
                Ctx.err Errno.EBUSY
              end
              else begin
                if want_up <> dev.Netdev.up then
                  c ctx (if want_up then 83 else 84)
                else c ctx 85;
                State.record_write st s_netdevs;
                dev.Netdev.up <- want_up;
                (match at.a_mtu with Some _ -> c ctx 86 | None -> ());
                enqueue st s 1;
                Ctx.ok0
              end
            end
            else begin
              (* change mask clear: attribute-only update. *)
              c ctx 87;
              (match at.a_mtu with Some _ -> c ctx 86 | None -> ());
              enqueue st s 1;
              Ctx.ok0
            end))

let h_getlink ctx args =
  c ctx 100;
  with_nl ctx ~proto:Route args (fun s ->
      with_msg ctx ~at:1 ~mtype:18 args (fun msg nflags ->
          let st = ctx.Ctx.st in
          let at = parse_attrs ctx msg ~at:5 in
          let dumping = s.dump_total >= 0 in
          if nflags land nlm_f_dump = nlm_f_dump then begin
            c ctx 101;
            rtm_combo ctx ~op:3 ~dev:false ~up:false ~dumping
              ~nattrs:at.a_count;
            let count = Netdev.device_count st in
            if not dumping then begin
              (* Start a fresh dump: emit the first batch and record
                 where to resume. *)
              c ctx 102;
              State.record_write st s_nl_sock;
              s.dump_total <- count;
              let batch = min dump_batch count in
              s.dump_offset <- batch;
              s.queued <- s.queued + batch;
              if s.dump_offset >= s.dump_total then begin
                c ctx 103;
                s.dump_total <- -1;
                s.dump_offset <- 0
              end;
              Ctx.ok (Int64.of_int batch)
            end
            else begin
              c ctx 104;
              (* Resuming with an offset recorded before deletions
                 shrank the link table indexes past the end of the
                 per-family dump array (5.6). *)
              if s.dump_offset >= count && s.dump_offset < s.dump_total
              then begin
                c ctx 105;
                Ctx.bug ctx "rtnl_dump_ifinfo"
              end;
              let upper = min count s.dump_total in
              let batch = min dump_batch (max 0 (upper - s.dump_offset)) in
              State.record_write st s_nl_sock;
              s.dump_offset <- s.dump_offset + batch;
              s.queued <- s.queued + batch;
              if s.dump_offset >= upper then begin
                c ctx 106;
                s.dump_total <- -1;
                s.dump_offset <- 0
              end;
              Ctx.ok (Int64.of_int batch)
            end
          end
          else begin
            let dev = resolve_dev st at msg ~idx_field:2 in
            rtm_combo ctx ~op:3 ~dev:(dev <> None)
              ~up:(match dev with Some d -> d.Netdev.up | None -> false)
              ~dumping ~nattrs:at.a_count;
            match dev with
            | Some dev ->
              c ctx 107;
              enqueue st s 1;
              Ctx.ok (if dev.Netdev.up then 1L else 0L)
            | None ->
              c ctx 108;
              Ctx.err Errno.ENODEV
          end))

let h_newaddr ctx args =
  c ctx 130;
  with_nl ctx ~proto:Route args (fun s ->
      with_msg ctx ~at:1 ~mtype:20 args (fun msg _nflags ->
          let st = ctx.Ctx.st in
          let at = parse_attrs ctx msg ~at:5 in
          let dev = resolve_dev st at msg ~idx_field:4 in
          rtm_combo ctx ~op:4 ~dev:(dev <> None)
            ~up:(match dev with Some d -> d.Netdev.up | None -> false)
            ~dumping:(s.dump_total >= 0) ~nattrs:at.a_count;
          match dev with
          | None ->
            c ctx 131;
            Ctx.err Errno.ENODEV
          | Some dev -> (
            match at.a_addr with
            | None ->
              c ctx 132;
              Ctx.err Errno.EINVAL
            | Some addr ->
              let tbl = addrs_of st in
              let cur =
                Option.value ~default:[]
                  (Hashtbl.find_opt tbl dev.Netdev.dname)
              in
              if List.mem addr cur then begin
                c ctx 133;
                Ctx.err Errno.EEXIST
              end
              else begin
                c ctx 134;
                let ifa = Arg.field msg 4 in
                let plen = Int64.to_int (Arg.as_int (Arg.field ifa 1)) in
                if plen = 0 then c ctx 135;
                State.record_write st s_nl_addrs;
                Hashtbl.replace tbl dev.Netdev.dname (addr :: cur);
                enqueue st s 1;
                Ctx.ok0
              end)))

let h_getaddr ctx args =
  c ctx 150;
  with_nl ctx ~proto:Route args (fun s ->
      with_msg ctx ~at:1 ~mtype:22 args (fun msg _nflags ->
          let st = ctx.Ctx.st in
          let at = parse_attrs ctx msg ~at:5 in
          let dev = resolve_dev st at msg ~idx_field:4 in
          rtm_combo ctx ~op:5 ~dev:(dev <> None)
            ~up:(match dev with Some d -> d.Netdev.up | None -> false)
            ~dumping:(s.dump_total >= 0) ~nattrs:at.a_count;
          match dev with
          | None ->
            c ctx 151;
            Ctx.err Errno.ENODEV
          | Some dev ->
            let n =
              List.length
                (Option.value ~default:[]
                   (Hashtbl.find_opt (addrs_of st) dev.Netdev.dname))
            in
            if n = 0 then c ctx 152 else c ctx 153;
            enqueue st s n;
            Ctx.ok (Int64.of_int n)))

let h_newqdisc ctx args =
  c ctx 170;
  with_nl ctx ~proto:Route args (fun s ->
      with_msg ctx ~at:1 ~mtype:36 args (fun msg _nflags ->
          let st = ctx.Ctx.st in
          let at = parse_attrs ctx msg ~at:5 in
          let dev = resolve_dev st at msg ~idx_field:1 in
          rtm_combo ctx ~op:6 ~dev:(dev <> None)
            ~up:(match dev with Some d -> d.Netdev.up | None -> false)
            ~dumping:(s.dump_total >= 0) ~nattrs:at.a_count;
          match dev with
          | None ->
            c ctx 171;
            Ctx.err Errno.ENODEV
          | Some dev -> (
            match at.a_qlimit with
            | None ->
              c ctx 172;
              Ctx.err Errno.EINVAL
            | Some limit ->
              c ctx 173;
              (* Same field the ioctl path manages: a zero limit arms
                 netdev's qdisc_calculate_pkt_len out-of-bounds. *)
              State.record_write st s_netdevs;
              dev.Netdev.qdisc_limit <- Some limit;
              if limit = 0 then c ctx 174;
              let tcm = Arg.field msg 4 in
              let parent = Int64.to_int (Arg.as_int (Arg.field tcm 3)) in
              if parent <> 0 then c ctx 175;
              enqueue st s 1;
              Ctx.ok0)))

let h_recvmsg ctx args =
  c ctx 190;
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Nl_sock s; _ } ->
    State.record_read ctx.Ctx.st s_nl_sock;
    if s.queued = 0 then begin
      c ctx 191;
      Ctx.ok 0L
    end
    else begin
      c ctx 192;
      (* Mid-dump replies carry NLM_F_MULTI. *)
      if s.dump_total >= 0 then c ctx 193;
      let n = s.queued in
      State.record_write ctx.Ctx.st s_nl_sock;
      s.queued <- 0;
      Ctx.ok (Int64.of_int (n * 20))
    end
  | Some { kind = Sock.Sock sk; _ } when sk.Sock.proto = Sock.Netlink ->
    (* Plain sock.ml netlink socket: no message layer, empty queue. *)
    c ctx 194;
    Ctx.ok 0L
  | Some _ ->
    c ctx 195;
    Ctx.err Errno.EOPNOTSUPP
  | None ->
    c ctx 196;
    Ctx.err Errno.EBADF

(* {2 Generic netlink handlers} *)

let h_getfamily ctx args =
  c ctx 200;
  with_nl ctx ~proto:Generic args (fun s ->
      let msg = Arg.nth args 1 in
      if Arg.is_null msg then begin
        c ctx 201;
        Ctx.err Errno.EFAULT
      end
      else begin
        let nlen = Int64.to_int (Arg.as_int (Arg.field msg 0)) in
        if nlen < nlmsg_hdrlen then begin
          c ctx 202;
          Ctx.err Errno.EINVAL
        end
        else begin
          let name = Arg.as_str (Arg.field msg 3) in
          match family ctx.Ctx.st name with
          | Some f when f.registered ->
            c ctx 203;
            genl_combo ctx ~cmd:3 ~bound:(s.bound_family <> None)
              ~registered:true ~nattrs:0;
            enqueue ctx.Ctx.st s 1;
            Ctx.ok (Int64.of_int f.gid)
          | Some _ ->
            (* Known name whose family was unloaded. *)
            c ctx 204;
            Ctx.err Errno.ENOENT
          | None ->
            c ctx 205;
            Ctx.err Errno.ENOENT
        end
      end)

let h_bind_genl ctx args =
  c ctx 220;
  with_nl ctx ~proto:Generic args (fun s ->
      let id = Int64.to_int (Arg.as_int (Arg.nth args 1)) in
      match family_by_id ctx.Ctx.st id with
      | Some f ->
        c ctx 221;
        if f.gname = "nlctrl" then c ctx 222;
        State.record_write ctx.Ctx.st s_nl_sock;
        s.bound_family <- Some id;
        Ctx.ok0
      | None ->
        c ctx 223;
        Ctx.err Errno.EINVAL)

(* Count and cover a generic-netlink attribute list. *)
let genl_attrs ctx msg ~at =
  let n = ref 0 in
  List.iter
    (fun elem ->
      let fields = attr_fields elem in
      let alen = Int64.to_int (Arg.as_int (Arg.field fields 0)) in
      let atype = Int64.to_int (Arg.as_int (Arg.field fields 1)) in
      let payload = Arg.field fields 2 in
      incr n;
      if alen > arg_size payload + nla_hdrlen then c ctx 316;
      c ctx (300 + min 15 atype))
    (Arg.as_rec (Arg.field msg at));
  !n

let h_genl_send ctx args =
  c ctx 230;
  with_nl ctx ~proto:Generic args (fun s ->
      let st = ctx.Ctx.st in
      (match s.bound_family with
      | Some b when family_by_id st b = None ->
        (* The socket still points at a genl_family freed by
           unregister (or replaced by a reload): the receive path
           dispatches through the stale ops table (5.11). *)
        c ctx 231;
        Ctx.bug ctx "genl_rcv_msg"
      | Some _ -> c ctx 232
      | None -> ());
      let id = Int64.to_int (Arg.as_int (Arg.nth args 1)) in
      match family_by_id st id with
      | None ->
        c ctx 233;
        Ctx.err Errno.ENOENT
      | Some f ->
        let msg = Arg.nth args 2 in
        if Arg.is_null msg then begin
          c ctx 234;
          Ctx.err Errno.EFAULT
        end
        else begin
          let nlen = Int64.to_int (Arg.as_int (Arg.field msg 0)) in
          if nlen < nlmsg_hdrlen then begin
            c ctx 235;
            Ctx.err Errno.EINVAL
          end
          else begin
            let cmd = Int64.to_int (Arg.as_int (Arg.field msg 1)) in
            let nattrs = genl_attrs ctx msg ~at:3 in
            genl_combo ctx ~cmd ~bound:(s.bound_family <> None)
              ~registered:f.registered ~nattrs;
            State.record_write st s_genl;
            f.sends <- f.sends + 1;
            if cmd = 0 then begin
              (* CTRL_CMD_UNSPEC: no family accepts it. *)
              c ctx 236;
              Ctx.err Errno.EOPNOTSUPP
            end
            else begin
              (match f.gname with
              | "devlink" -> c ctx 237
              | "ethtool" -> c ctx 238
              | "nlctrl" -> c ctx 239
              | _ -> c ctx 240);
              enqueue st s 1;
              Ctx.ok 0L
            end
          end
        end)

let h_devlink_reload ctx args =
  c ctx 260;
  with_nl ctx ~proto:Generic args (fun s ->
      let st = ctx.Ctx.st in
      let id = Int64.to_int (Arg.as_int (Arg.nth args 1)) in
      match family_by_id st id with
      | None ->
        c ctx 261;
        Ctx.err Errno.ENOENT
      | Some f when f.gname <> "devlink" ->
        c ctx 262;
        Ctx.err Errno.EOPNOTSUPP
      | Some f ->
        c ctx 263;
        let msg = Arg.nth args 2 in
        if not (Arg.is_null msg) then
          ignore (genl_attrs ctx msg ~at:3);
        (* Reload unregisters and re-registers the family under a
           fresh runtime id; ids saved before the reload now dangle. *)
        State.record_write st s_genl;
        f.gid <- next_family_id (State.get st families_slot);
        genl_combo ctx ~cmd:1 ~bound:(s.bound_family <> None)
          ~registered:true ~nattrs:0;
        enqueue st s 1;
        Ctx.ok (Int64.of_int f.gid))

let h_nlctrl_unregister ctx args =
  c ctx 270;
  with_nl ctx ~proto:Generic args (fun _s ->
      match family_by_id ctx.Ctx.st (Int64.to_int (Arg.as_int (Arg.nth args 1))) with
      | None ->
        c ctx 271;
        Ctx.err Errno.ENOENT
      | Some f when f.gname = "nlctrl" ->
        (* The control family itself cannot be unloaded. *)
        c ctx 272;
        Ctx.err Errno.EPERM
      | Some f ->
        c ctx 273;
        State.record_write ctx.Ctx.st s_genl;
        f.registered <- false;
        Ctx.ok0)

let h_add_membership ctx args =
  c ctx 280;
  let group =
    match Arg.nth args 3 with
    | Arg.Rec [ g ] -> Int64.to_int (Arg.as_int g)
    | g -> Int64.to_int (Arg.as_int g)
  in
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Nl_sock s; _ } ->
    State.record_read ctx.Ctx.st s_nl_sock;
    if group <= 0 then begin
      c ctx 281;
      Ctx.err Errno.EINVAL
    end
    else if s.memberships >= 8 then begin
      c ctx 282;
      Ctx.err Errno.ENOSPC
    end
    else begin
      c ctx 283;
      State.record_write ctx.Ctx.st s_nl_sock;
      s.memberships <- s.memberships + 1;
      Ctx.ok0
    end
  | Some { kind = Sock.Sock sk; _ } when sk.Sock.proto = Sock.Netlink ->
    c ctx 284;
    Ctx.ok0
  | Some _ ->
    c ctx 285;
    Ctx.err Errno.EOPNOTSUPP
  | None ->
    c ctx 286;
    Ctx.err Errno.EBADF

let descriptions =
  {|
# Netlink message layer: rtnetlink link/addr/qdisc management over
# NETLINK_ROUTE, and generic netlink with runtime-resolved family ids.
resource sock_nl_route[sock_netlink]
resource sock_nl_generic[sock_netlink]
resource genl_family_id[int16]: -1
flags nlm_flags = 0x1 0x4 0x100 0x200 0x300 0x400 0x800
flags iff_flags = 0x0 0x1 0x2 0x40 0x1000
flags ifa_flags = 0x0 0x1 0x2 0x80
struct ifinfomsg_sim { ifam int8, ifitype int16, ifindex int32[0:8], ifflags flags[iff_flags], change int32[0:1] }
struct ifaddrmsg_sim { afam int8, prefixlen int8[0:32], aflags flags[ifa_flags], ascope int8, aindex int32[0:8] }
struct tcmsg_sim { tfam int8, tcmindex int32[0:8], tcmhandle int32, tcmparent int32[0:2] }
struct nlattr_kind { klen int16[0:64], ktype const[1], kind string["dummy", "vlan", "bridge"] }
struct nlattr_qlimit { qlen int16[0:64], qtype const[2], limit int32[0:1024] }
struct nlattr_ifname { alen int16[0:64], atype const[3], ifname string["dummy0", "vlan0", "bridge0", "eth0", "lo", "macvlan0"] }
struct nlattr_mtu { mlen int16[0:64], mtype const[4], mtu int32[0:9000] }
struct nlattr_addr { adlen int16[0:64], adtype const[6], addr int64 }
union rt_attr { aname nlattr_ifname, amtu nlattr_mtu, akind nlattr_kind, aaddr nlattr_addr, aqlimit nlattr_qlimit }
struct nlmsg_newlink { nlen int16[0:256], ntype const[16], nflags flags[nlm_flags], seq int32, ifi ifinfomsg_sim, attrs array[rt_attr, 0:3] }
struct nlmsg_dellink { dlen int16[0:256], dtype const[17], dflags flags[nlm_flags], dseq int32, difi ifinfomsg_sim, dattrs array[rt_attr, 0:3] }
struct nlmsg_getlink { glen int16[0:256], gtype const[18], gflags flags[nlm_flags], gseq int32, gifi ifinfomsg_sim, gattrs array[rt_attr, 0:3] }
struct nlmsg_setlink { slen int16[0:256], stype const[19], sflags flags[nlm_flags], sseq int32, sifi ifinfomsg_sim, sattrs array[rt_attr, 0:3] }
struct nlmsg_newaddr { nalen int16[0:256], natype const[20], nafl flags[nlm_flags], naseq int32, ifa ifaddrmsg_sim, naattrs array[rt_attr, 0:3] }
struct nlmsg_getaddr { galen int16[0:256], gatype const[22], gafl flags[nlm_flags], gaseq int32, gifa ifaddrmsg_sim, gaattrs array[rt_attr, 0:3] }
struct nlmsg_newqdisc { qdlen int16[0:256], qdtype const[36], qdfl flags[nlm_flags], qdseq int32, tcm tcmsg_sim, qdattrs array[rt_attr, 0:3] }
struct genl_getfamily { fglen int16[0:256], fgcmd const[3], fgver const[2], fname string["nlctrl", "devlink", "ethtool", "nl80211", "batadv"] }
struct nlattr_genl { gnlen int16[0:64], gntype int16[0:10], gndata int64 }
struct nlattr_genl_str { gslen int16[0:64], gstype const[7], gsdata string["eth0", "dummy0", "netdevsim0"] }
union genl_attr { gnum nlattr_genl, gstr nlattr_genl_str }
struct genl_msg { gmlen int16[0:256], gmcmd int8[0:8], gmver int8[1:2], gmattrs array[genl_attr, 0:3] }
socket$nl_route(domain const[16], type const[3], proto const[0]) sock_nl_route
socket$nl_generic(domain const[16], type const[3], proto const[16]) sock_nl_generic
sendmsg$RTM_NEWLINK(fd sock_nl_route, msg ptr[in, nlmsg_newlink], mflags const[0])
sendmsg$RTM_DELLINK(fd sock_nl_route, msg ptr[in, nlmsg_dellink], mflags const[0])
sendmsg$RTM_SETLINK(fd sock_nl_route, msg ptr[in, nlmsg_setlink], mflags const[0])
sendmsg$RTM_GETLINK(fd sock_nl_route, msg ptr[in, nlmsg_getlink], mflags const[0])
sendmsg$RTM_NEWADDR(fd sock_nl_route, msg ptr[in, nlmsg_newaddr], mflags const[0])
sendmsg$RTM_GETADDR(fd sock_nl_route, msg ptr[in, nlmsg_getaddr], mflags const[0])
sendmsg$RTM_NEWQDISC(fd sock_nl_route, msg ptr[in, nlmsg_newqdisc], mflags const[0])
recvmsg$netlink(fd sock_netlink, buf buffer[out], length len[buf], mflags const[0])
sendmsg$GETFAMILY(fd sock_nl_generic, msg ptr[in, genl_getfamily], mflags const[0]) genl_family_id
bind$nl_generic(fd sock_nl_generic, fam genl_family_id)
sendmsg$genl(fd sock_nl_generic, fam genl_family_id, msg ptr[in, genl_msg], mflags const[0])
sendmsg$devlink_reload(fd sock_nl_generic, fam genl_family_id, msg ptr[in, genl_msg], mflags const[0]) genl_family_id
sendmsg$nlctrl_unregister(fd sock_nl_generic, fam genl_family_id, mflags const[0])
setsockopt$NETLINK_ADD_MEMBERSHIP(fd sock_netlink, level const[270], optname const[1], group ptr[in, int32[1:32]])
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Nl_sock s -> Some (Nl_sock { s with memberships = s.memberships })
  | _ -> None

(* Lock classes. The rtnetlink handlers take [Netdev.rtnl] — the same
   class as the netdev ioctl paths — because they mutate the same
   device table; guard-coverage flagged exactly this cross-subsystem
   sharing when they were first annotated with a netlink-local class.
   The per-socket receive state (queues, memberships, dump cursors)
   nests inside under its own class, like lock_sock inside rtnl. *)
let genl_mutex = Lock.register ~rank:20 ~guards:[ "genl_families" ] "genl_mutex"
let nl_sock_lock = Lock.register ~rank:90 ~guards:[ "fd:nl_sock" ] "nl_sock"

let sub =
  let rt = Subsystem.locked [ Netdev.rtnl; nl_sock_lock ] in
  let ge = Subsystem.locked [ genl_mutex; nl_sock_lock ] in
  let sk = Subsystem.locked [ nl_sock_lock ] in
  let rt_spec touches = Lock.scoped [ "rtnl"; "nl_sock" ] ~touches in
  let ge_spec touches = Lock.scoped [ "genl_mutex"; "nl_sock" ] ~touches in
  let sk_spec touches = Lock.scoped [ "nl_sock" ] ~touches in
  Subsystem.make ~name:"netlink" ~descriptions ~copy_kind
    ~handlers:
      [
        ("socket$nl_route", h_socket_route);
        ("socket$nl_generic", h_socket_generic);
        ("sendmsg$RTM_NEWLINK", rt h_newlink);
        ("sendmsg$RTM_DELLINK", rt h_dellink);
        ("sendmsg$RTM_SETLINK", rt h_setlink);
        ("sendmsg$RTM_GETLINK", rt h_getlink);
        ("sendmsg$RTM_NEWADDR", rt h_newaddr);
        ("sendmsg$RTM_GETADDR", rt h_getaddr);
        ("sendmsg$RTM_NEWQDISC", rt h_newqdisc);
        ("recvmsg$netlink", sk h_recvmsg);
        ("sendmsg$GETFAMILY", ge h_getfamily);
        ("bind$nl_generic", ge h_bind_genl);
        ("sendmsg$genl", ge h_genl_send);
        ("sendmsg$devlink_reload", ge h_devlink_reload);
        (* Unregister resolves the sender's socket like every other
           genl op, so it must hold the socket lock too — the first
           draft took genl_mutex alone, and the runtime effect
           validator flagged the unlocked fd:nl_sock read. *)
        ("sendmsg$nlctrl_unregister", ge h_nlctrl_unregister);
        ("setsockopt$NETLINK_ADD_MEMBERSHIP", sk h_add_membership);
      ]
    ~locks:
      [
        ("sendmsg$RTM_NEWLINK", rt_spec [ "netdevs"; "fd:nl_sock" ]);
        ("sendmsg$RTM_DELLINK", rt_spec [ "netdevs"; "nl_addrs"; "fd:nl_sock" ]);
        ("sendmsg$RTM_SETLINK", rt_spec [ "netdevs"; "fd:nl_sock" ]);
        ("sendmsg$RTM_GETLINK", rt_spec [ "fd:nl_sock" ]);
        ("sendmsg$RTM_NEWADDR", rt_spec [ "nl_addrs"; "fd:nl_sock" ]);
        ("sendmsg$RTM_GETADDR", rt_spec [ "fd:nl_sock" ]);
        ("sendmsg$RTM_NEWQDISC", rt_spec [ "netdevs"; "fd:nl_sock" ]);
        ("recvmsg$netlink", sk_spec [ "fd:nl_sock" ]);
        ("sendmsg$GETFAMILY", ge_spec [ "fd:nl_sock" ]);
        ("bind$nl_generic", ge_spec [ "fd:nl_sock" ]);
        ("sendmsg$genl", ge_spec [ "genl_families"; "fd:nl_sock" ]);
        ("sendmsg$devlink_reload", ge_spec [ "genl_families"; "fd:nl_sock" ]);
        ("sendmsg$nlctrl_unregister", ge_spec [ "genl_families" ]);
        ("setsockopt$NETLINK_ADD_MEMBERSHIP", sk_spec [ "fd:nl_sock" ]);
      ]
    ~effects:
      [
        ( "sendmsg$RTM_NEWLINK",
          Effect.spec ~writes:[ "netdevs"; "fd:nl_sock" ] () );
        ( "sendmsg$RTM_DELLINK",
          Effect.spec ~writes:[ "netdevs"; "nl_addrs"; "fd:nl_sock" ] () );
        ( "sendmsg$RTM_SETLINK",
          Effect.spec ~writes:[ "netdevs"; "fd:nl_sock" ] () );
        ( "sendmsg$RTM_GETLINK",
          Effect.spec ~reads:[ "netdevs" ] ~writes:[ "fd:nl_sock" ] () );
        ( "sendmsg$RTM_NEWADDR",
          Effect.spec ~reads:[ "netdevs" ] ~writes:[ "nl_addrs"; "fd:nl_sock" ] () );
        ( "sendmsg$RTM_GETADDR",
          Effect.spec ~reads:[ "netdevs"; "nl_addrs" ] ~writes:[ "fd:nl_sock" ] () );
        ( "sendmsg$RTM_NEWQDISC",
          Effect.spec ~writes:[ "netdevs"; "fd:nl_sock" ] () );
        ("recvmsg$netlink", Effect.spec ~writes:[ "fd:nl_sock" ] ());
        ( "sendmsg$GETFAMILY",
          Effect.spec ~reads:[ "genl_families" ] ~writes:[ "fd:nl_sock" ] () );
        ( "bind$nl_generic",
          Effect.spec ~reads:[ "genl_families" ] ~writes:[ "fd:nl_sock" ] () );
        ( "sendmsg$genl",
          Effect.spec ~writes:[ "genl_families"; "fd:nl_sock" ] () );
        ( "sendmsg$devlink_reload",
          Effect.spec ~writes:[ "genl_families"; "fd:nl_sock" ] () );
        ( "sendmsg$nlctrl_unregister",
          Effect.spec ~reads:[ "fd:nl_sock" ] ~writes:[ "genl_families" ] () );
        ( "setsockopt$NETLINK_ADD_MEMBERSHIP",
          Effect.spec ~writes:[ "fd:nl_sock" ] () );
      ]
    ()
