(** The campaign coordinator: the production driver of {!Schedule}
    (one forked process per shard, {!Wire} frames over pipes,
    [select], respawn), plus the in-process sequential oracle.

    Worker death (EOF, [EPIPE], a frame that fails to decode, a
    version desync) buries the corpse and respawns it from an empty
    base (full diff on the next dispatch); the pure
    {!Worker.run_epoch} reproduces the lost delta exactly, so crashes
    never perturb campaign results. *)

val initial : Checkpoint.config -> Checkpoint.t
(** A fresh zero-epoch checkpoint for the booted kernel target. *)

type mode = Schedule.mode =
  | Barrier  (** Lockstep: dispatch epoch [e] once front [e-1] closes. *)
  | Async  (** Pipelined (default): once front [e-2] closes. *)

type progress = {
  epoch : int;  (** Index of the front that just closed. *)
  epochs : int;
  state : Shard_state.t;  (** The closed front. *)
  respawns : int;
  bytes_sent : int;  (** Cumulative coordinator→worker wire bytes. *)
  bytes_recv : int;  (** Cumulative worker→coordinator wire bytes. *)
}

type outcome = {
  final : Checkpoint.t;
  respawns : int;  (** Worker deaths recovered from. *)
  bytes_sent : int;
  bytes_recv : int;
  frames_sent : int;
  frames_recv : int;
}

val run :
  ?forked:bool ->
  ?mode:mode ->
  ?checkpoint_dir:string ->
  ?stop_after:int ->
  ?on_epoch:(progress -> unit) ->
  ?chaos:(epoch:int -> (int * int) list -> unit) ->
  Checkpoint.t ->
  outcome
(** Run the campaign from [ck.completed] up to [ck.config.epochs]
    (or [stop_after], for simulating an interrupted daemon — workers
    are still shut down cleanly; a fast shard's work past the last
    closed front is discarded and deterministically recomputed on
    resume).

    [forked] (default true) forks one OS process per shard talking the
    {!Wire} protocol over pipes; when false every shard's epoch is
    computed in-process under the same lag-2 schedule, producing
    bit-identical results — the test suite's oracle. [mode] picks
    pipelined vs lockstep dispatch (forked only; final digests are
    equal either way).

    [checkpoint_dir] persists the checkpoint atomically at start and
    at every front close. [on_epoch] observes each closed front in
    order. [chaos] (tests only) is called once per epoch round with
    the live [(shard, pid)] list so tests can [kill] workers mid-slice
    and exercise the respawn path. *)
