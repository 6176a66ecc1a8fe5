(** The one binary codec behind every persisted or piped byte format:
    programs, shard states and deltas, epoch payloads, checkpoints and
    corpus archives (DESIGN §18).

    Writers append to a [Buffer.t]. Integers are LEB128 varints,
    signed ones zigzag-encoded; strings, byte blobs and lists carry a
    varint length or count in front. A {!reader} is a cursor over a
    bounded window of one string. Every reader failure raises
    {!Malformed}, and the reader enforces two caps for every schema
    built on it:

    - a count or length never exceeds the bytes that remain, so no
      length field can make a decode allocate more than the input
      justifies;
    - {!uint} rejects values above [max_int] instead of wrapping.

    Nested blobs are read through {!sub}: a window of the same string,
    so {!Malformed}'s [offset] is always the byte offset in the whole
    file or frame, and the nested bytes are never copied. *)

exception Malformed of { format : string; offset : int; reason : string }
(** The one decoding error. [format] names the outermost format being
    decoded (["program"], ["corpus"], ["checkpoint"], ...), [offset]
    is the byte offset in that file or frame where decoding failed,
    and [reason] says why. *)

(** {2 Writers} *)

val put_uint : Buffer.t -> int -> unit
(** LEB128 of a non-negative native int, without boxing. Raises
    [Invalid_argument] on a negative int. *)

val put_uvarint : Buffer.t -> int64 -> unit
(** LEB128 of an int64 read as unsigned (up to 10 bytes). Same bytes
    as {!put_uint} on the non-negative native range. *)

val put_svarint : Buffer.t -> int64 -> unit
(** Zigzag, then {!put_uvarint}: small magnitudes of either sign stay
    short. *)

val put_string : Buffer.t -> string -> unit
(** Length-prefixed bytes. *)

val put_bytes : Buffer.t -> Bytes.t -> unit

val put_float : Buffer.t -> float -> unit
(** The IEEE bits as a uvarint. *)

val put_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** Element count, then each element. *)

(** {2 Reader} *)

type reader

val reader : format:string -> string -> reader
(** A reader over the whole string. *)

val decode : format:string -> (reader -> 'a) -> string -> 'a
(** [decode ~format read s] runs [read] over [s] and rejects trailing
    bytes. *)

val offset : reader -> int
val remaining : reader -> int
val at_end : reader -> bool

val fail : ?at:int -> reader -> string -> 'a
(** Raise {!Malformed} for this reader's format at offset [at]
    (default: the current offset). Schemas use it for their semantic
    checks. *)

val magic : reader -> string -> unit
(** Consume exactly these bytes, or fail with "bad magic". *)

val byte : reader -> int
val uint : reader -> int
val uvarint : reader -> int64
val svarint : reader -> int64
val float : reader -> float
val string : reader -> string
val bytes : reader -> Bytes.t

val named : reader -> string -> (string -> 'a option) -> 'a
(** [named r what of_name] reads a string and maps it through
    [of_name], failing with "unknown [what]" when that gives [None]. *)

val count : ?max:int -> reader -> int
(** A list count: at most {!remaining} (every element takes at least
    one byte) and at most [max] when given. *)

val list : ?max:int -> reader -> (reader -> 'a) -> 'a list
(** {!count}, then that many elements in order. *)

val sub : reader -> (reader -> 'a) -> 'a
(** A length-prefixed nested blob: [read] sees a window of exactly
    that many bytes and must consume all of them. *)
