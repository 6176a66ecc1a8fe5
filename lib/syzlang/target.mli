(** A compiled description set: the fuzzing target's interface model.

    Compilation resolves bare-name type references (resource vs struct vs
    union), validates flag-set / length-field / resource references,
    checks resource inheritance for cycles, assigns dense syscall ids and
    precomputes producer/consumer indices used by static relation
    learning and by sequence generation.

    It also compiles the generation plan: one {!resource} record per
    resource kind and one {!node} per syscall argument, with every name
    already resolved. Generation ({!Healer_core.Value_gen}, [Builder],
    [Gen], [Mutate]) reads only the plan; the name-keyed lookups below
    serve the analysis passes. The plan is immutable once {!compile}
    returns, so parallel campaigns share one target. *)

type t

(** {2 Generation plan} *)

type resource = private {
  kind : string;
  parent : string option;
      (** Parent kind, or [None] if the parent is a builtin integer. *)
  special : int64 array;  (** {!resource_special_values}. *)
  mask : bool array;
      (** Indexed by syscall id: the call produces [kind] or a kind
          inheriting from it ({!producer_mask}). Do not mutate it. *)
  producers : Syscall.t array;
      (** The calls [mask] selects, in id order ({!producers_of}). *)
  consumers : Syscall.t array;
      (** The calls consuming [kind] or one of its ancestors, in id
          order ({!consumers_of}). *)
}
(** One record per resource kind, built once by {!compile}. *)

type node = private
  | Int of { bits : int; range : (int64 * int64) option }
  | Const of int64
  | Flags of int64 array  (** The flag set's values. *)
  | Len of int
      (** Index of the first sibling the length names, among the
          fields of the enclosing call, struct or union; [-1] when no
          sibling has that name, or when the length is nested below a
          field (such a length is never resolved). *)
  | Proc of { start : int64; step : int64 }
  | Res of resource
  | Ptr of node
  | Buffer
  | Str of string array  (** Candidate literals. *)
  | Filename of string array
  | Array of { elem : node; min_len : int; max_len : int }
  | Struct of node array
  | Union of node array
  | Vma
(** A {!Ty.t} with its names resolved. All references to one struct or
    union share that layout's field array, so a layout that reaches
    itself through a pointer is a cycle in the plan, not an unbounded
    tree: walk it only as deep as the generated value goes. *)

val arg_nodes : t -> Syscall.t -> node array
(** The plan of the call's arguments, in order (an array read by id). *)

val consumed_resources : t -> Syscall.t -> resource array
(** The records of {!consumes}, in the same (name) order. *)

val resources : t -> resource array
(** Every resource record, sorted by kind name ({!resource_kinds}'
    order). *)

val resource : t -> string -> resource
(** The record of a kind. Raises {!Compile_error} for an unknown
    kind. *)

(** {2 Compilation and lookup} *)

exception Compile_error of string

val compile : ?name:string -> Parser.decl list -> t
(** Raises {!Compile_error} on invalid declarations. *)

val compile_located : ?name:string -> (Parser.decl * int) list -> t
(** Like {!compile}, recording each declaration's source line for
    {!decl_line}. Lines [<= 0] mean "unknown" and are not recorded. *)

val of_string : ?name:string -> string -> t
(** Lex + parse + {!compile_located}. Raises {!Compile_error},
    {!Parser.Error} or {!Lexer.Error}. *)

type decl_kind = [ `Call | `Struct | `Union | `Flags | `Resource ]

val decl_line : t -> decl_kind -> string -> int option
(** Source line the named declaration starts on, when the target was
    compiled from located declarations (e.g. via {!of_string}). *)

val name : t -> string
val n_syscalls : t -> int
val syscalls : t -> Syscall.t array

val syscall : t -> int -> Syscall.t
(** Raises [Invalid_argument] if the id is out of range. *)

val find : t -> string -> Syscall.t option
(** Lookup by full name, e.g. ["ioctl$KVM_RUN"]. *)

val find_exn : t -> string -> Syscall.t
(** Raises [Not_found]. *)

val flag_values : t -> string -> int64 array
val struct_fields : t -> string -> Field.t list
val union_fields : t -> string -> Field.t list

val resource_kinds : t -> string list
(** All declared resource kind names, sorted (once, at compile
    time). *)

val struct_names : t -> string list
val union_names : t -> string list
val flagset_names : t -> string list

val resource_parent : t -> string -> string option
(** Parent resource kind, or [None] if the parent is a builtin integer. *)

val resource_special_values : t -> string -> int64 array
(** Special values (e.g. [-1] for fds) usable in place of a real
    instance; empty if none were declared. *)

val is_subtype : t -> sub:string -> sup:string -> bool
(** Reflexive-transitive resource inheritance: [is_subtype ~sub ~sup]
    holds if [sub] equals [sup] or inherits from it. *)

val compatible : t -> consumer:string -> producer:string -> bool
(** A produced resource of kind [producer] may be passed where kind
    [consumer] is expected iff [producer] is a subtype of [consumer]. *)

val produces : t -> Syscall.t -> string list
(** Resource kinds the call can produce, with struct/union members
    expanded. *)

val consumes : t -> Syscall.t -> string list

val producers_of : t -> string -> Syscall.t list
(** Calls producing a kind compatible with the given consumer kind. *)

val producer_mask : t -> string -> bool array
(** [producer_mask t kind] is indexed by syscall id: entry [id] holds
    when that call produces a kind compatible with consumer [kind]
    (the predicate {!producers_of} filters by). Computed at compile
    time; do not mutate it. Raises {!Compile_error} for an unknown
    kind. *)

val consumers_of : t -> string -> Syscall.t list
(** Calls consuming a kind compatible with the given producer kind. *)

val iter_ty : t -> (Ty.t -> unit) -> Ty.t -> unit
(** Apply a function to every type node reachable from a type,
    expanding struct/union references. *)

val pp_summary : Format.formatter -> t -> unit

val lint : t -> string list
  [@@ocaml.deprecated "use the Healer_analysis passes instead"]
(** Description-quality diagnostics, addressing the paper's Section 8
    concern that hand-written descriptions are neither complete nor
    correct. Reported (as human-readable warnings):
    - resource kinds nothing produces (their consumers can only ever
      receive special values);
    - resource kinds nothing consumes (producing them is pointless);
    - flag sets no call references;
    - structs/unions no call reaches;
    - calls consuming a kind that has no producer.

    @deprecated Superseded by the [Healer_analysis] pass framework
    (the [lint-*] checks), which adds severities, stable check IDs and
    source positions. *)
