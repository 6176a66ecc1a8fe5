(** The coordinator's lag-2 schedule as a pure state machine.

    Front [F_k] is the join of the campaign's initial state with every
    shard's deltas through epoch [k]. Epoch [e] of {e every} shard is
    seeded with exactly [F_(e-2)] (fronts below the start are the
    initial state) — one epoch staler than a lockstep barrier would
    use, and that slack is what removes the barrier: a shard may start
    slice [e] the moment [F_(e-2)] closes, while slower shards are
    still finishing epoch [e-1]. Because the seed is a function of
    (config, shard, epoch) and never of arrival timing, each delta is
    the same under every delivery order, and the CRDT fold makes every
    front — hence the final digest — order-independent.

    The schedule does no I/O. A driver reports [Delta] payloads
    ({!deliver}) and worker deaths ({!died}), and asks for the [Epoch]
    frames due now ({!due}), the fronts just closed ({!closed}) and
    whether the run is over ({!finished}). {!Coordinator} drives it
    with forked workers; the test suite with a seeded in-memory
    transport. Each frame carries the {!Shard_state.diff} from the
    front the worker holds to the one it is due, encoded once per
    front transition, so traffic is O(new work) in steady state.

    Open epochs are at most two ([completed] and [completed + 1]), so
    it keeps two fronts (its checkpoint's [prev] and [state]), two
    rounds of deltas, and the diffs a live shard can still be owed —
    nothing sized by the epoch count. *)

type mode =
  | Barrier
      (** Lockstep: dispatch epoch [e] once front [e-1] closes. Same
          deltas and digests, but stragglers stall every shard. *)
  | Async  (** Pipelined: dispatch epoch [e] once front [e-2] closes. *)

type t

val create : mode:mode -> Checkpoint.t -> until:int -> t
(** Schedule epochs [ck.completed] to [until - 1] of [ck], every shard
    starting with a fresh worker. *)

type frame = { shard : int; epoch : int; version : int; diff : string }
(** An [Epoch] frame, sent as [Shard_state.put_epoch ~epoch ~version
    diff]; [diff] is encoded by {!Shard_state.to_string}. *)

val due : t -> frame list
(** The frames to send now. Each returned frame counts as sent: if the
    send fails, report the shard with {!died}, and the next call
    re-issues its epoch for the fresh worker. *)

val deliver : t -> shard:int -> string -> bool
(** Fold a [Delta] payload from [shard]. [false] when it is not the
    delta the shard owes (corrupt, unsolicited, another epoch's): the
    caller must then replace the worker and report {!died}. *)

val died : t -> shard:int -> unit
(** The shard's worker is gone; its next frame seeds a fresh worker
    with a full diff. Raises [Failure] when one shard dies more than 8
    times in one epoch (a worker that crashes deterministically). *)

val closed : t -> Checkpoint.t list
(** The fronts closed since the last call, oldest first, each as the
    checkpoint to persist. *)

val checkpoint : t -> Checkpoint.t
(** The newest closed front. *)

val finished : t -> bool
