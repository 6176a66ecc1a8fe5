(** Runtime argument values as seen by a syscall handler.

    The executor resolves a call's symbolic values (resource
    references, pointers) into this flat representation right before
    it enters the kernel with that call: integers and resources become
    [Int] (a resource reference reads the producing call's result),
    pointer payloads are dereferenced into [Rec] groups, null pointers
    become [Nothing]. *)

type t =
  | Int of int64
  | Str of string
  | Buf of Healer_util.Blob.t
      (** A buffer payload; generated ones are seeded ranges whose
          bytes exist only when read (see {!buf_get}). *)
  | Rec of t list  (** Dereferenced pointer payload (struct/array). *)
  | Nothing  (** Null pointer / absent argument. *)

val as_int : t -> int64
(** [Int v -> v]; anything else is 0 (like reading a bad register). *)

val as_fd : t -> int
(** [as_int] truncated to [int]. *)

val buf_length : t -> int
(** Length of the byte payload: a [Buf]'s or a [Str]'s length,
    otherwise 0. Handlers that only need a buffer's size read it here,
    which fills no bytes. *)

val buf_get : t -> int -> char
(** [buf_get a i] is byte [i] of the payload of a [Buf] or [Str], in
    O(1) without filling the buffer. Raises
    [Invalid_argument "index out of bounds"] unless
    [0 <= i < buf_length a]. *)

val as_str : t -> string
(** [Str s -> s]; a [Buf]'s content as a string, which fills every
    byte of a generated buffer; otherwise [""]. *)

val as_rec : t -> t list
(** [Rec fs -> fs]; otherwise []. *)

val is_null : t -> bool
val nth : t list -> int -> t
(** [nth args i] is [Nothing] when out of range. *)

val field : t -> int -> t
(** [field arg i] is the [i]-th member of a [Rec], else [Nothing]. *)

val pp : Format.formatter -> t -> unit
