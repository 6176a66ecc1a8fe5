(** Guided call selection — the paper's Algorithm 3.

    Given the sub-sequence S preceding an insertion point, with
    probability [1 - alpha] pick a uniformly random call; otherwise
    build the candidate map M — every call [c_j] with [R(c_i, c_j) = 1]
    for some [c_i] in S, weighted by how many calls of S influence it —
    and make a weighted random choice. Falls back to a random call when
    M is empty. *)

type outcome = { id : int; used_table : bool }

val select :
  Healer_util.Rng.t ->
  Relation_table.t ->
  alpha:float ->
  sub:int list ->
  outcome
(** [sub] is the list of syscall ids preceding the insertion point.
    [used_table] is true only when the candidate map actually decided
    the choice (feeds {!Alpha.record}).

    M is counted into a per-domain scratch array indexed by syscall id.
    The pick walks, and then clears, only the id range \[lo, hi\] that
    [sub]'s rows touched, in ascending id order, so it consumes the
    same single draw as a walk over every id. *)

val scratch_is_clear : unit -> bool
(** The calling domain's scratch counts are all zero, as every
    {!select} must leave them. For tests. *)
