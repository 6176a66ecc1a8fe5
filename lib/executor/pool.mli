(** A pool of virtual machines, dispatched round-robin.

    The paper's experiments give each fuzzer several QEMU instances;
    the pool abstracts picking the next available one and aggregating
    their statistics. The pool also owns the opt-in prefix execution
    cache shared by probe runs: all its VMs boot the same config, so
    one cache serves them all regardless of round-robin order. *)

type t

val create :
  ?san:Healer_kernel.Sanitizer.config ->
  ?features:string list ->
  ?exec_cache:bool ->
  version:Healer_kernel.Version.t ->
  size:int ->
  unit ->
  t
(** The prefix cache is off unless [exec_cache] is [true]; with it
    off, a probe is a plain run. *)

val size : t -> int
val next : t -> Vm.t
(** Round-robin choice. *)

val run : t -> ?fault_call:int -> Prog.t -> Exec.run_result
(** Run on the next VM — the main fuzzing loop and fault-injection
    path; never touches the cache. *)

val run_probe : t -> Prog.t -> Exec.run_result
(** Run on the next VM: a plain {!run} by default, through the shared
    prefix cache when it is enabled. Bit-identical results to {!run}
    without [fault_call] either way; used by minimization, dynamic
    relation learning and triage reproducer probes. *)

val cache_stats : t -> Exec_cache.stats option
(** Live counters of the shared cache; [None] when disabled. *)

val cache : t -> Exec_cache.t option

val total_execs : t -> int
val total_crashes : t -> int
val total_resets : t -> int
val iter : (Vm.t -> unit) -> t -> unit
