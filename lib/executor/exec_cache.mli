(** Prefix-caching execution engine for probe workloads.

    HEALER's minimization (Algorithm 1) and dynamic relation learning
    (Algorithm 2) replay O(n²) candidate programs per interesting
    input, and consecutive candidates share almost their entire call
    prefix. This cache memoizes [(boot config, encoded call prefix) →
    (kernel snapshot, per-call results)] in a bounded trie: a probe
    resumes from the deepest cached snapshot on its path (via
    {!Healer_kernel.Kernel.copy}) instead of re-executing from call 0,
    and a fully-cached program executes nothing at all.

    Opt-in ([Pool.create ~exec_cache:true]): a plain run boots on first
    touch and dispatches through a table, so serving a probe through
    the trie (key encoding, walk, snapshot copies) costs more than
    running it, and the retained snapshots dominate peak memory
    (DESIGN §11).

    Correctness rules:
    - Execution is deterministic given the boot config and call
      sequence, so cached results are bit-identical to live ones —
      campaign curves must not change with the cache on or off.
    - Only calls that complete without crashing create trie nodes; a
      crashed kernel is never retained, so crash-reaching probes
      re-crash live (and triage sees real reports). Fault-injected
      runs bypass the cache entirely (fault sites change semantics).
    - Snapshots are promoted onto a prefix the second time it is
      executed (first visits only record results), and the final state
      of a crash-free run is retained for free; an LRU bound caps
      retained snapshots and the trie flushes wholesale at
      [node_capacity].

    The cache only ever models simulator wall-clock: virtual-clock
    charging in the fuzzer is unchanged.

    Trie nodes additionally carry the call's {!Compiled.ccall}: a
    probe assembles
    its compiled program from the trie for the shared prefix and
    compiles only the new suffix, so a mutate→execute step never
    re-lowers calls it shares with previous probes.

    A small per-physical-program memo additionally caches each
    program's serialized key and, once known, its crash-free result
    array: a verbatim warm re-probe (the same [Prog.t] value run
    again) returns without serializing or hashing anything. Programs
    are immutable and execution deterministic, so the memo is pure
    content and needs no invalidation. *)

type t

type stats = {
  mutable hits : int;  (** Runs resumed from a snapshot (depth > 0). *)
  mutable full_hits : int;  (** Runs served with zero execution. *)
  mutable misses : int;  (** Runs executed from a fresh boot. *)
  mutable evictions : int;  (** Snapshots dropped (LRU + flushes). *)
  mutable flushes : int;  (** Whole-trie drops at [node_capacity]. *)
  mutable resumed_calls : int;  (** Calls skipped via cached prefixes. *)
  mutable executed_calls : int;  (** Calls run live through the cache. *)
  mutable compiled_calls : int;  (** Calls lowered by the compiled engine. *)
  mutable reused_ccalls : int;  (** Compiled forms reused from the trie. *)
}

val create :
  ?capacity:int ->
  ?node_capacity:int ->
  ?san:Healer_kernel.Sanitizer.config ->
  ?features:string list ->
  version:Healer_kernel.Version.t ->
  unit ->
  t
(** A cache for one boot configuration (the key's first component is
    fixed per instance; the pool shares one cache across its VMs,
    which all boot identically). [capacity] bounds retained snapshots
    (LRU), [node_capacity] bounds trie nodes. *)

val run : t -> ?cov:Healer_kernel.Coverage.t -> Prog.t -> Exec.run_result
(** Execute [p] from a fresh logical boot, resuming from the longest
    cached prefix. Result is bit-identical to
    [snd (Exec.run kernel p)] on a kernel with this cache's boot
    config. *)

val stats : t -> stats
val hit_rate : t -> float
(** hits / (hits + misses); 0 before any run. *)

val snapshot_count : t -> int
val node_count : t -> int

val clear : t -> unit
(** Drop every cached prefix (counts as a flush; stats survive). *)
