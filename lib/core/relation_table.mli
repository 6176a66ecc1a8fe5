(** HEALER's relation table (paper Section 4.1).

    A two-dimensional boolean table over the n syscalls of the target:
    [get t i j] is true when call [i] is known to influence call [j]'s
    execution path. Entries start unknown (false) and are set by static
    and dynamic relation learning; they are never cleared during a
    campaign.

    The table maintains per-row adjacency lists so that Algorithm 3 can
    enumerate the candidates influenced by a call in O(out-degree). *)

type t

val create : int -> t
(** [create n] for a target with [n] syscalls. *)

val size : t -> int
val get : t -> int -> int -> bool

val set : t -> int -> int -> bool
(** [set t i j] records that [i] influences [j]; returns true when the
    entry was previously unknown (a newly learned relation).
    Self-relations [i = j] are ignored (returns false). *)

val count : t -> int
(** Number of learned relations (set entries). *)

val influenced_by : t -> int -> int list
(** [influenced_by t i] = all [j] with [get t i j], unordered. *)

val influencers_of : t -> int -> int list
(** [influencers_of t j] = all [i] with [get t i j], unordered. *)

val edges : t -> (int * int) list
(** All learned (i, j) pairs, lexicographic. *)

val copy : t -> t

val merge_into : dst:t -> t -> int
(** Union [src] into [dst]; returns how many entries were new. *)

val merge : t -> t -> t
(** Pure union into a fresh table (neither input is mutated). The
    relation table is a grow-only set of edges, so this is a CRDT
    join: commutative, associative, idempotent, with the empty table
    as identity. Raises [Invalid_argument] on size mismatch. *)

val iter_new : base:t -> (int -> int -> unit) -> t -> unit
(** [iter_new ~base f t] calls [f i j] for every edge of [t] absent
    from [base] — the edge difference [t \ base], the unit shipped by
    incremental shard-state diffs. Unordered. Raises
    [Invalid_argument] on size mismatch. *)

val out_degree : t -> int -> int

val pp_stats : Format.formatter -> t -> unit

(** {2 Persistence}

    HEALER can reuse relations learned by an earlier campaign (the
    original tool's [-r] flag). The format is a plain text header line
    [healer-relations <n>] followed by one [i j] pair per line. *)

val serialize : t -> string

val deserialize : string -> t
(** Raises {!Healer_util.Codec.Malformed} (format ["relations"], at
    the offset of the offending line) on a bad header, an unparsable
    or out-of-range pair, or a table size above 4 096. *)
