(** Network device subsystem: interface management, macvlan upper
    devices, qdisc configuration, packet TX/RX (the e1000 model).

    Injected bugs: [dev_ioctl_warn], [e1000_clean],
    [macvlan_broadcast], [qdisc_calculate_pkt_len]. *)

type netdev = {
  dname : string;
  mutable up : bool;
  mutable qdisc_limit : int option;  (** None = default pfifo. *)
  mutable last_xmit : int;  (** Op tick of the last transmit. *)
  mutable macvlan_dying : bool;
}

type State.fd_kind += Packet_sock

(** {2 Device-table accessors}

    The rtnetlink subsystem ({!Netlink}) manages the same device table
    through RTM_NEWLINK / RTM_DELLINK / RTM_SETLINK / RTM_NEWQDISC, so
    the two subsystems share genuine cross-subsystem influence
    relations (a netlink call unlocks packet-socket transmit paths). *)

val rtnl : Lock.cls
(** The rtnl_mutex analogue guarding the device table (["netdevs"])
    and the rtnetlink address table (["nl_addrs"]); shared with
    {!Netlink}'s RTM handlers, which mutate the same tables. *)

val devs_of : State.t -> (string, netdev) Hashtbl.t
(** The live device table, installed on first access. *)

val fresh : string -> netdev
(** A new down device with default qdisc. *)

val lookup : State.t -> string -> netdev option
val sorted_names : State.t -> string list
(** Device names in lexicographic order (the dump iteration order). *)

val device_count : State.t -> int

val install : State.t -> netdev -> unit
(** Insert (or replace) a device under its own name. *)

val remove : State.t -> string -> bool
(** Unregister a device; false when absent. *)

val sub : Subsystem.t
