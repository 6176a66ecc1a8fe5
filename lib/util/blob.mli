(** Immutable byte payloads that need not exist as bytes.

    A blob is either plain bytes or a seeded range of the {!Rng} byte
    stream: [n] byte draws from a generator in state [s] are a pure
    function of [s] and [n] (byte [i] is the low byte of
    [mix64 (s + (i+1)·γ)], see {!Rng.stream_byte}), so a generated
    buffer is stored as that start state and its length. Generation
    costs one multiply whatever the length, reading one byte is O(1),
    and the bytes are filled only by the few consumers that need them
    all ({!to_bytes}, {!to_string}, {!blit}, {!add_to_buffer}).

    The two forms are indistinguishable through this interface:
    {!equal} compares content, and every reader sees the same bytes.
    Compare blobs with {!equal}, never with polymorphic [=], [compare]
    or [Hashtbl.hash], which see the form. *)

type t

val of_bytes : bytes -> t
(** [of_bytes b] is a blob with the content of [b]. It takes [b] as is:
    the caller must not mutate [b] afterwards. *)

val generate : Rng.t -> int -> t
(** [generate rng n] is the blob of the [n] bytes that [n] successive
    [Char.chr (Rng.int rng 256)] draws would give, and leaves [rng] in
    the state those draws would ([state + n·γ], one multiply). It
    allocates O(1) words whatever [n] is. Raises [Invalid_argument] if
    [n < 0]. *)

val length : t -> int

val get : t -> int -> char
(** [get t i] is byte [i], in O(1) without allocating. Raises
    [Invalid_argument "index out of bounds"] outside [0, length t),
    like [Bytes.get]. *)

val prefix : t -> int -> t
(** [prefix t n] is the first [n] bytes of [t]. A prefix of a seeded
    blob stays seeded. Raises [Invalid_argument] unless
    [0 <= n <= length t]. *)

val equal : t -> t -> bool
(** Content equality, across the two forms. *)

val blit : t -> bytes -> int -> unit
(** [blit t dst off] writes the content of [t] into [dst] at [off].
    Raises [Invalid_argument] if it does not fit. *)

val to_bytes : t -> bytes
(** A fresh copy of the content. *)

val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the content, without an intermediate copy. *)
