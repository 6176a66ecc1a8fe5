(** One shard of a sharded campaign, as pure functions.

    A worker is {e restartable per slice}: each epoch it builds a
    fresh {!Healer_core.Fuzzer} from (config, shard, epoch, base
    view), fuzzes for one time slice, and ships what it found back as
    an incremental {!Shard_state.delta}. The base view is the merged
    global state as of the schedule's front for that epoch,
    reconstructed purely from the coordinator's versioned diffs —
    so the only worker state that survives a slice is a deterministic
    function of what the coordinator sent, which is what makes
    checkpoint/resume and death/respawn exact: a respawned worker
    (re-seeded with a full diff against the empty state) re-running an
    epoch produces byte-identical output.

    A worker handles an [Epoch] payload with {!absorb}, {!run_epoch}
    on the grown base, then {!reply}: the forked child loop and the
    test suite's in-memory transport both run these three steps. *)

val seed_for : Checkpoint.config -> shard:int -> epoch:int -> int
(** Deterministic per-(shard, epoch) RNG seed. *)

val run_epoch :
  Checkpoint.config -> shard:int -> epoch:int -> Shard_state.t ->
  Shard_state.delta
(** Pure with respect to its arguments: seeds a fresh fuzzer with the
    base view's relations and corpus, runs one slice, harvests the
    {e full} outcome ({!reply} diffs it against the base for the
    wire). *)

type view = { base : Shard_state.t; version : int (** Payloads absorbed. *) }

val fresh : unit -> view
(** A new worker's view: the empty state at version 0. *)

exception Desync
(** A payload's version is not the view's: a frame was lost or
    repeated, and the worker must die rather than diverge. *)

val absorb : view -> string -> int * view
(** Decode an [Epoch] payload and merge its diff into the view: the
    epoch to run and the grown view. Raises {!Desync}, or
    {!Healer_util.Codec.Malformed} on a corrupt payload. *)

val reply : view -> Shard_state.delta -> Shard_state.delta
(** The outcome diffed against the view's base: O(what this slice
    discovered) bytes, not O(total state). *)
