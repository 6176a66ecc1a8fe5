(** Campaign engine: runs the paper's experiments on the virtual clock
    and computes the statistics reported in Section 6 — coverage
    improvement (min/max/avg across rounds), time-to-coverage speedups,
    learned-relation counts, corpus length distributions, and
    vulnerability sets. *)

type run = {
  tool : Fuzzer.tool;
  version : Healer_kernel.Version.t;
  seed : int;
  hours : float;
  final_cov : int;
  samples : (float * int) list;  (** Per virtual minute. *)
  corpus_size : int;
  corpus_lengths : int list;
  relations : int;
  crashes : Triage.record list;
  relation_snapshots : (float * (int * int) list) list;
  execs : int;
  cache_hits : int;
      (** Probe-cache counters (all 0 when the cache is disabled).
          Wall-clock bookkeeping only: every other field is
          bit-identical with the cache on or off. *)
  cache_misses : int;
  cache_evictions : int;
  cache_resumed_calls : int;
}

val run_one :
  ?hours:float ->
  ?seed:int ->
  ?exec_cache:bool ->
  tool:Fuzzer.tool ->
  version:Healer_kernel.Version.t ->
  unit ->
  run
(** One campaign (default 24 virtual hours). [exec_cache] forwards to
    {!Fuzzer.config} (off unless [true]); the four [cache_*] fields
    stay 0 with the cache off. *)

val default_jobs : unit -> int
(** Worker-domain count for {!run_matrix}: the [HEALER_BENCH_JOBS]
    environment variable when set (must be a positive integer), else
    [Domain.recommended_domain_count ()]. *)

val run_matrix :
  ?jobs:int ->
  (Fuzzer.tool * Healer_kernel.Version.t * int * float) list ->
  run list
(** [run_matrix specs] runs one campaign per [(tool, version, seed,
    hours)] spec. Campaigns are independent (the paper's evaluation
    matrix, Section 6), so they are fanned out across [jobs] worker
    domains (default {!default_jobs}); results come back in input
    order and are identical to a sequential run — each campaign is a
    deterministic function of its spec. Calls
    {!Healer_kernel.Kernel.force_init} before spawning. *)

val improvement_pct : base:run -> run -> float
(** Final-coverage improvement of the subject over [base], percent. *)

val time_to_coverage : run -> int -> float option
(** Virtual time at which the run first reached the coverage level,
    from its samples. [None] if never. *)

val speedup : base:run -> run -> float option
(** How much faster the subject reached [base]'s final coverage:
    [base.hours * 3600 / t]. [None] when the subject never got there. *)

type comparison = {
  version : Healer_kernel.Version.t;
  rounds : int;
  min_impr : float;
  max_impr : float;
  avg_impr : float;
  avg_speedup : float option;
}

val compare_tools :
  ?jobs:int ->
  ?hours:float ->
  rounds:int ->
  subject:Fuzzer.tool ->
  base:Fuzzer.tool ->
  Healer_kernel.Version.t ->
  comparison
(** Paired rounds (same seed per round for both tools), as in Table 1 /
    Table 2. The [2 * rounds] campaigns run through {!run_matrix}. *)

val average_series : run list -> (float * float) list
(** Point-wise average of the runs' coverage samples (Figure 4). *)

val merge_crashes : run list -> Triage.record list
(** Union by bug key via {!Triage.merge_records_by}: earliest
    first_found wins, with deterministic tie-breaks, so the result is
    independent of the order runs are listed in. *)
