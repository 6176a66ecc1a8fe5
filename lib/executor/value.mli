(** Symbolic argument values of a test-case program.

    Values are symbolic because resource arguments refer to the result
    of an earlier call by index ([Res_ref]); the executor resolves them
    at run time. *)

type t =
  | Int of int64  (** Scalars: ints, consts, flags, lens, procs. *)
  | Res_ref of int  (** The resource produced by the call at index. *)
  | Res_special of int64  (** A special value (e.g. [-1]) in a resource slot. *)
  | Str of string
  | Buf of Healer_util.Blob.t
      (** Buffer payload. Generated buffers are seeded ranges of the
          Rng stream whose bytes are computed only when read. *)
  | Group of t list  (** Struct or array payload. *)
  | Ptr of t  (** Pointer to a payload. *)
  | Null  (** Null pointer. *)
  | Vma of int64  (** Address of a mapped region. *)

val refs : t -> int list
(** All call indices referenced (recursively). *)

val mem_ref : int -> t -> bool
(** [mem_ref i v] — does [v] contain [Res_ref i]? Early-exiting,
    allocation-free form of [List.mem i (refs v)]. *)

val refs_below : int -> t -> bool
(** [refs_below k v] — does every [Res_ref i] in [v] satisfy
    [0 <= i < k]? The per-call well-formedness predicate. *)

val map_refs : (int -> t option) -> t -> t
(** [map_refs f v] replaces each [Res_ref i] by [f i] when it returns
    [Some], recursively. Used to fix up references when calls move.
    Allocates only along a changed reference: an unchanged value is
    returned as is ([==]), and a group keeps its unchanged tail. *)

val map_shared : ('a -> 'a) -> 'a list -> 'a list
(** [map_shared g l] equals [List.map g l], but returns [l] itself when
    [g] returns every element unchanged ([==]), and otherwise shares
    the tail after the last changed element. *)

val equal : t -> t -> bool
(** Structural equality, with buffers compared by content
    ({!Healer_util.Blob.equal}): a program equals its decoded copy.
    Polymorphic [=], [compare] and [Hashtbl.hash] see a buffer's
    representation, so they must not be used on values. *)

val byte_size : t -> int
(** Byte-size model used to resolve and validate [len\[...\]]
    arguments: scalars count 8 bytes, strings/buffers their payload,
    groups the sum of their members; pointers are transparent and
    [Null] is 0. *)

val pp : Format.formatter -> t -> unit
