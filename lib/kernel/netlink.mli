(** Netlink message layer: rtnetlink (RTM_NEWLINK / DELLINK / SETLINK /
    GETLINK with dump, RTM_NEWADDR / GETADDR, RTM_NEWQDISC) and generic
    netlink (CTRL_CMD_GETFAMILY runtime family-id resolution, simulated
    nlctrl / devlink / ethtool families).

    The rtnetlink handlers operate on {!Netdev}'s device table, so
    netlink calls genuinely unlock netdev branches (the paper's
    cross-subsystem influence relations).

    Injected bugs: [nla_parse_nested] (KMSAN, 5.4+, truncated
    IFLA_INFO_KIND "vlan"), [rtnl_dump_ifinfo] (KASAN, 5.6+,
    dump-resume with a stale offset after deletions),
    [genl_rcv_msg] (KASAN UAF, 5.11+, send on a socket bound to an
    unregistered family). *)

type nl_proto = Route | Generic

type nl_sock = {
  nproto : nl_proto;
  mutable memberships : int;
  mutable bound_family : int option;
  mutable dump_offset : int;
  mutable dump_total : int;  (** -1 = no dump in progress. *)
  mutable queued : int;
}

type genl_family = {
  gname : string;
  mutable gid : int;
  mutable registered : bool;
  mutable sends : int;
}

type State.fd_kind += Nl_sock of nl_sock

val family : State.t -> string -> genl_family option
(** Look up a generic-netlink family by name (registered or not). *)

val family_by_id : State.t -> int -> genl_family option
(** Look up a {e registered} family by its current runtime id. *)

val sub : Subsystem.t
