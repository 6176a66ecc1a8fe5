(** Type-directed argument synthesis and mutation (paper Section 4.2,
    "parameter synthesis").

    Generation strategies follow the type: magic-number-biased integers,
    flag subsets, length fields computed from their sibling argument,
    resource arguments wired to a compatible earlier producer when one
    exists (falling back to a special value), literal pools for
    strings/filenames, recursive struct/union/array payloads.

    Mutation applies type-specific operators: bit flips and arithmetic
    deltas on integers, flag toggles, buffer resizing, producer
    re-wiring, payload regeneration. *)

type ctx = {
  target : Healer_syzlang.Target.t;
  producers : Healer_syzlang.Target.resource -> int array;
      (** [producers r] = ascending indices of earlier calls whose
          result is a resource compatible with consumer kind [r]. *)
}

(** Generation and mutation walk the target's plan
    ({!Healer_syzlang.Target.arg_nodes}), never a name: flags carry
    their values, a [len] its sibling's index, strings and filenames
    their literal arrays, a resource its record (special values, and
    the key [producers] is called with). Each draw is the one the
    name-keyed walk over {!Healer_syzlang.Ty.t} made, so a seed gives
    the same programs. *)

val gen_args :
  Healer_util.Rng.t -> ctx -> Healer_syzlang.Syscall.t -> Healer_executor.Value.t list
(** Fresh arguments for a call, length fields resolved. *)

val gen_value :
  Healer_util.Rng.t -> ctx -> Healer_syzlang.Target.node -> Healer_executor.Value.t
(** Single value for a plan node ([Len] becomes a placeholder
    integer). *)

val mutate_args :
  Healer_util.Rng.t ->
  ctx ->
  Healer_syzlang.Syscall.t ->
  Healer_executor.Value.t list ->
  Healer_executor.Value.t list
(** Mutate one (occasionally several) of the arguments. *)

val size_of_value : Healer_executor.Value.t -> int
(** Byte-size estimate used to resolve [len\[...\]] arguments. *)
