(** Syzkaller's choice table — the baseline HEALER is compared against
    (paper Section 3).

    Each entry [P(i,j) = P0(i,j) * P1(i,j) / 1000] records the
    probability weight that call [i] should be invoked before call [j].
    [P0] comes from a static analysis assigning hard-coded weights to
    the types two calls have in common (10 per shared resource kind, 5
    for vma, 2 per shared flag set, 1 for buffers); [P1] counts
    adjacent pairs in the corpus. Both are normalized into
    [10, 1000]. As the paper argues, neither component actually
    captures influence relations — which is the point of the
    comparison. *)

type t

val create : Healer_syzlang.Target.t -> t
(** Computes the static [P0] part. *)

val note_corpus_program : t -> Healer_executor.Prog.t -> unit
(** Count the adjacent pairs of a corpus program into [P1]'s raw
    counters. [P1] stays normalized incrementally: the maximum count is
    tracked per increment, and only the affected cumulative select rows
    (or all of them, when the maximum grows) are rebuilt on next use. *)

val select :
  Healer_util.Rng.t -> t -> bias:int option -> int
(** Choose a call to insert after the call [bias] (the last call of
    the preceding sub-sequence), weighted by [P(bias, j)]; uniform when
    [bias] is [None]. *)

val weight : t -> int -> int -> int
(** Current [P(i,j)] (for tests and the ablation bench). *)
