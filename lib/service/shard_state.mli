(** The coordinator's merged campaign state — a CRDT.

    Every component is a join-semilattice, so {!merge} is commutative,
    associative and idempotent with {!empty} as identity, and the
    coordinator can fold worker deltas in any order (or twice) and
    reach the same state:

    - learned relations: grow-only edge set ({!Relation_table.merge});
    - coverage: grow-only branch-id set (bitset union);
    - corpus: grow-only program set, deduplicated by encoding digest;
    - crashes: per-signature register resolved by
      {!Healer_core.Triage.merge_records} (earliest discovery wins,
      deterministic tie-breaks);
    - per-shard execution counters: pointwise max (a G-counter).

    Serialization is canonical — equal states produce identical bytes
    regardless of the merge order that built them — so checkpoint
    files diff cleanly and state equality is a string compare.

    States also support {e incremental} exchange: {!diff} computes the
    sparse state a peer at [since] is missing, and merging that diff
    into the peer's state reconstructs the full join — the service's
    wire traffic is O(new work) instead of O(total state). *)

type t = {
  n_syscalls : int;
  relations : Healer_core.Relation_table.t;
  coverage : Healer_util.Bitset.t;
  corpus : (string * Healer_executor.Prog.t) list;
      (** [(key, program)] pairs keyed by {!Healer_core.Corpus.key},
          sorted by key, no duplicates. The full encoding is recomputed
          only when a state crosses the wire, never retained per
          entry. *)
  crashes : Healer_core.Triage.record list;  (** Sorted by signature. *)
  execs : (int * int) list;  (** [(shard, execs)] counters, sorted. *)
}
(** Treat values as immutable: [merge] never mutates its inputs. *)

val empty : n_syscalls:int -> t
val of_target : Healer_syzlang.Target.t -> t

val merge : t -> t -> t
(** CRDT join. Raises [Invalid_argument] on [n_syscalls] mismatch. *)

val equal : t -> t -> bool
val digest : t -> string
(** Short stable hex digest of the canonical serialization. *)

val total_execs : t -> int

(** {2 Incremental diffs}

    Per-component watermarks and set differences, so shard state can
    be exchanged as what-the-peer-is-missing instead of
    everything-from-scratch. *)

type watermark = {
  w_relations : int;
  w_coverage : int;
  w_corpus : int;
  w_crashes : int;
  w_execs : int;
}
(** Per-component progress counters — each is monotone under {!merge},
    so comparing watermarks is a cheap dirty check. *)

val watermark : t -> watermark

val diff : since:t -> t -> t
(** [diff ~since:base t] is the sparse state holding exactly what
    [base] lacks from [t]: relation edges and coverage ids of [t] not
    in [base], corpus entries with unseen keys, crash records that
    strictly beat [base]'s for their signature
    ({!Healer_core.Triage.preferred}), and counters that increased.
    The defining law, pinned by qcheck in the service suite:

    [merge base (diff ~since:base t) == merge base t]

    and [diff ~since:t t] {!is_empty}. Raises [Invalid_argument] on
    [n_syscalls] mismatch. *)

val is_empty : t -> bool
(** True when every component is empty — e.g. a {!diff} against a
    state that already dominates [t]. *)

(** {2 Serialization}

    The decoders raise {!Healer_util.Codec.Malformed} on truncated or
    corrupt input (a checkpoint cut off mid-write, a garbled frame).
    Beyond the codec's caps they check [n_syscalls] against the
    target, relation endpoints against [n_syscalls], and coverage ids
    against the allocated branch range
    ({!Healer_kernel.Coverage.total_allocated}). *)

val to_string : t -> string
val put_state : Buffer.t -> t -> unit
(** [to_string] through a caller-supplied (reusable) buffer. *)

val of_string : Healer_syzlang.Target.t -> string -> t
(** Format ["shard state"]. *)

val read : Healer_syzlang.Target.t -> Healer_util.Codec.reader -> t
(** {!of_string} as a schema, for formats that embed a state. *)

(** {2 Worker deltas} *)

type delta = {
  shard : int;
  epoch : int;
  d_execs : int;  (** Executions spent by this shard this epoch. *)
  outcome : t;
      (** What the shard found: its end-of-epoch state in sequential
          mode, or the {!diff} of it against the shard's base view in
          forked mode — {!apply} folds both to the same result, since
          the base is always part of the coordinator's state already
          ([execs] empty either way). *)
}

val apply : t -> delta -> t
(** Fold one worker delta: merge the outcome and credit the shard's
    execution counter. The coordinator guards against folding the same
    [(shard, epoch)] twice, which keeps the counters exact; the
    set-valued components would be idempotent anyway. *)

val delta_to_string : delta -> string
val put_delta : Buffer.t -> delta -> unit
val delta_of_string : Healer_syzlang.Target.t -> string -> delta
(** Format ["shard delta"]: shard, epoch and [d_execs] as uvarints,
    then the outcome as a state whose counters are dropped. *)

(** {2 Epoch frames}

    The coordinator's [Epoch] payload: the epoch index, the worker's
    base version, then a state diff to fold into the worker's base. *)

val put_epoch : Buffer.t -> epoch:int -> version:int -> string -> unit
(** The last argument is the diff already encoded by {!to_string}:
    the coordinator encodes each front's diff once for all shards. *)

val epoch_of_string : Healer_syzlang.Target.t -> string -> int * int * t
(** [(epoch, version, diff)]; format ["epoch"]. *)
