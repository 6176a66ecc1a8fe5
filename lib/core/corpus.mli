(** The corpus of interesting (minimized) test cases.

    Entries are deduplicated by their serialized form, through a
    digest ({!key}) each entry keeps; seed picking is weighted toward
    entries that contributed more new coverage. The length histogram
    feeds the paper's Figure 6. *)

type t

val create : Healer_syzlang.Target.t -> t

val key : Healer_executor.Prog.t -> string
(** The dedup key: a 16-byte digest of the program's canonical
    encoding. *)

val add : ?key:string -> t -> Healer_executor.Prog.t -> new_blocks:int -> bool
(** False if the program was already present. Empty programs are
    rejected. [key], when the caller already holds it, must be
    {!key} of the program; it saves re-encoding the program, and under
    [HEALER_DEBUG_VALIDATE] a wrong one raises [Invalid_argument]. *)

val size : t -> int

val is_empty : t -> bool

val merge_into : dst:t -> t -> int
(** Union [src]'s entries into [dst], deduplicating by their stored
    keys and preserving each entry's seed-selection weight; returns
    how many programs were new. As a set of programs the corpus is
    grow-only, so this is a CRDT join (commutative, associative,
    idempotent, empty-corpus identity) — shard corpora can merge in
    any order. *)

val pick : Healer_util.Rng.t -> t -> Healer_executor.Prog.t option
val lengths : t -> int list

val length_histogram : t -> (string * int) list
(** Buckets "1".."4" and "5+", as in Figure 6. *)

val frac_len_at_least : t -> int -> float
(** Fraction of corpus programs with at least that many calls. *)

val iter : (Healer_executor.Prog.t -> unit) -> t -> unit
(** In insertion order. *)

val iter_keyed : (string -> Healer_executor.Prog.t -> unit) -> t -> unit
(** {!iter} with each entry's {!key}, as stored when it was added. *)
