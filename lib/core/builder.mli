(** Program assembly: creating calls with resource arguments wired to
    earlier producers, and inserting the producer chain a call needs
    when none exists yet in the sequence.

    Every lookup reads the target's generation plan: a call's consumed
    kinds are {!Healer_syzlang.Target.consumed_resources}, a producer
    scan reads the kind's [mask] once per earlier call, and a missing
    producer is drawn from the kind's [producers] array. *)

val producers_for :
  Healer_executor.Prog.t ->
  upto:int ->
  Healer_syzlang.Target.resource ->
  int array
(** Ascending indices [< upto] of calls producing a kind compatible
    with the resource (one that is it or inherits from it). *)

val make_call :
  Healer_util.Rng.t ->
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.t ->
  at:int ->
  Healer_syzlang.Syscall.t ->
  Healer_executor.Prog.call
(** Synthesize arguments for the call as if inserted at position [at]
    (resource refs drawn from calls [0 .. at-1]). *)

val insert_call :
  Healer_util.Rng.t ->
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.t ->
  at:int ->
  Healer_syzlang.Syscall.t ->
  Healer_executor.Prog.t
(** Insert the call at [at], first inserting producers (recursively, up
    to depth 3) for any consumed resource kind that has no compatible
    producer earlier in the sequence. *)

val append_call :
  Healer_util.Rng.t ->
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.t ->
  Healer_syzlang.Syscall.t ->
  Healer_executor.Prog.t

(** {2 Builder-backed assembly}

    The same operations over a mutable {!Healer_executor.Prog.Builder},
    for callers that chain many insertions (generation, guided
    mutation): amortized one array slot per inserted call instead of a
    whole-program copy. Draw-for-draw identical Rng usage with the
    immutable forms above. *)

val producers_for_b :
  Healer_executor.Prog.Builder.t ->
  upto:int ->
  Healer_syzlang.Target.resource ->
  int array

val make_call_b :
  Healer_util.Rng.t ->
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.Builder.t ->
  at:int ->
  Healer_syzlang.Syscall.t ->
  Healer_executor.Prog.call

val insert_call_b :
  Healer_util.Rng.t ->
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.Builder.t ->
  at:int ->
  Healer_syzlang.Syscall.t ->
  unit

val append_call_b :
  Healer_util.Rng.t ->
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.Builder.t ->
  Healer_syzlang.Syscall.t ->
  unit

val max_prog_len : int
(** Hard cap on generated program length (the paper's sequences range
    up to ~32 calls). *)
