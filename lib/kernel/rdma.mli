(** RDMA connection manager (ucma) subsystem.

    Injected bugs: [ucma_create_id_leak], [cma_cancel_operation],
    [rdma_listen]. *)

type cm_id = {
  mutable bound : bool;
  mutable listening : bool;
  mutable resolving : bool;
  mutable destroyed : bool;
}

type State.fd_kind += Rdma_cm  (** The /dev/infiniband/rdma_cm fd. *)

val sub : Subsystem.t
