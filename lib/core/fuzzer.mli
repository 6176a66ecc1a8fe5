(** The fuzzing loop, configurable as any of the paper's four
    experiment subjects:

    - [Healer]: relation table (static init + Algorithm 2 dynamic
      learning), Algorithm 3 guided selection with adaptive alpha,
      HEALER's lightweight shared-state architecture (low per-exec
      overhead), fault injection support.
    - [Healer_minus]: identical architecture, uniform random call
      selection, no relation learning — the paper's ablation subject.
    - [Syzkaller]: choice-table guided selection (static common-type
      weights refreshed with corpus adjacency counts), RPC-architecture
      overhead, USB emulation support.
    - [Moonshine]: Syzkaller bootstrapped with distilled initial seeds.

    All subjects share the same executor, feedback, corpus
    minimization and crash triage, so the only differences are the
    ones the paper isolates. *)

type tool = Healer | Healer_minus | Syzkaller | Moonshine

val tool_name : tool -> string
val all_tools : tool list

type costs = {
  exec_overhead : float;  (** Virtual seconds per program execution. *)
  per_call : float;  (** Additional virtual seconds per call. *)
  crash_reboot : float;  (** VM reboot cost after a crash. *)
}

val default_costs : tool -> costs
(** HEALER's architecture (Section 5) avoids Syzkaller's RPC and
    in-guest fuzzer overheads, hence a lower per-exec cost. *)

type config = {
  tool : tool;
  version : Healer_kernel.Version.t;
  seed : int;
  vms : int;
  costs : costs option;  (** Override {!default_costs}. *)
  gen_ratio : float;  (** Probability of generation vs mutation. *)
  fault_rate : float;  (** Probability of fault-injected execution. *)
  use_static_learning : bool;  (** Ablation hook (HEALER only). *)
  use_dynamic_learning : bool;  (** Ablation hook (HEALER only). *)
  fixed_alpha : float option;  (** Ablation hook: disable adaptation. *)
  exec_cache : bool option;
      (** [Some true] routes probes through the prefix-execution cache;
          [None] and [Some false] leave it off (see
          {!Healer_executor.Pool.create}). Results are bit-identical
          either way — the cache only changes simulator wall-clock and
          memory. *)
}

val config :
  ?seed:int ->
  ?vms:int ->
  ?costs:costs ->
  ?gen_ratio:float ->
  ?fault_rate:float ->
  ?use_static_learning:bool ->
  ?use_dynamic_learning:bool ->
  ?fixed_alpha:float ->
  ?exec_cache:bool ->
  tool:tool ->
  version:Healer_kernel.Version.t ->
  unit ->
  config

type t

val create :
  ?initial_relations:Relation_table.t ->
  ?initial_seeds:Healer_executor.Prog.t list ->
  config ->
  t
(** Builds the tool-specific machinery and, for [Moonshine], executes
    and ingests the distilled seed corpus. [initial_relations] (HEALER
    only) merges a previously saved relation table into the fresh one
    (the original tool's [-r] flag); [initial_seeds] are executed and
    ingested before fuzzing starts for any tool. *)

val ingest : t -> ?key:string -> Healer_executor.Prog.t -> unit
(** Execute one seed program and add it to the corpus if it covers new
    branches without crashing: the step [create] runs on each of its
    seeds, so [create ~initial_seeds:ps] equals [create] followed by
    [ingest] on each of [ps] in order. [key], when the caller holds
    it, is the program's {!Corpus.key} and spares re-encoding it. *)

val step : t -> unit
(** One fuzzing iteration: build a test case, execute it, process
    feedback, minimize / learn / triage as applicable. *)

val run_until : t -> float -> unit
(** Step until the virtual clock reaches the given time (seconds). *)

(** {2 Observations} *)

val now : t -> float
val coverage : t -> int

val coverage_set : t -> Healer_util.Bitset.t
(** The live global-coverage bitmap (covered branch ids). Callers
    must treat it as read-only; shard workers copy it into their
    outgoing deltas. *)

val execs : t -> int
val corpus : t -> Corpus.t
val triage : t -> Triage.t
val relations : t -> Relation_table.t option
val relation_count : t -> int
val cache_stats : t -> Healer_executor.Exec_cache.stats option
(** Live hit/miss/eviction/resume-depth counters of the probe
    execution cache; [None] when the cache is disabled. *)

val alpha_value : t -> float
val samples : t -> (float * int) list
(** (virtual time, branch coverage) per virtual minute, ascending. *)

val relation_snapshots : t -> (float * (int * int) list) list
(** Relation-table edge lists captured at 1h/2h/3h (HEALER only). *)

val crash_log : t -> (float * string) list
(** (virtual time, bug key) for each unique crash, ascending. *)

val target : t -> Healer_syzlang.Target.t

val coverage_by_region : t -> (string * int) list
(** Covered-branch counts grouped by kernel subsystem region, sorted by
    region name. For reports and calibration. *)
