(** A virtual-machine instance: the QEMU analogue.

    Holds a boot config (version, sanitizers, features) and the
    lifecycle around it: every run boots a fresh kernel (the executor
    forks a pristine process per test case), and a crashing test case
    leaves the VM in a crashed state that must be reset before the
    next execution — the campaign engine charges boot time for that,
    as a real fuzzer pays for QEMU restarts. *)

type stats = {
  mutable execs : int;
  mutable crashes : int;
  mutable resets : int;
}

type t

val create :
  ?san:Healer_kernel.Sanitizer.config ->
  ?features:string list ->
  version:Healer_kernel.Version.t ->
  id:int ->
  unit ->
  t

val id : t -> int
val crashed : t -> bool

val reset : t -> unit
(** Restart after a crash: clears the crashed state and counts one
    reset (no-op on a healthy VM). No kernel boots here — the next run
    boots its own. *)

val run : t -> ?fault_call:int -> Prog.t -> Exec.run_result
(** Execute a program. Automatically {!reset}s first when the previous
    run crashed. *)

val run_probe : t -> ?cache:Exec_cache.t -> Prog.t -> Exec.run_result
(** Like {!run} without fault injection, but served through the
    prefix-execution cache when one is given (identical results —
    execution is deterministic — and identical stats bookkeeping).
    Falls back to {!run} when [cache] is absent. *)

val stats : t -> stats
val version : t -> Healer_kernel.Version.t
