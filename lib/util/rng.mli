(** Deterministic splittable pseudo-random number generator.

    Every stochastic decision in the fuzzer flows through a value of type
    {!t} so that campaigns are reproducible from a single integer seed.
    The implementation is SplitMix64, which is fast, has a 64-bit state,
    and supports cheap splitting for independent sub-streams. The state
    lives in 8 bytes read and written as an unboxed [int64], so a draw
    allocates nothing: {!bits64} boxes only its result, and {!int},
    {!chance} and {!pick_arr} allocate 0 words. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. Two generators created from the same seed produce the same
    stream. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent from the remainder of [t]'s stream. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the
    same stream. Used by tests only. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\]. Requires [lo <= hi]. *)

val int64 : t -> int64 -> int64
(** [int64 t bound] is uniform in \[0, bound). Requires [bound > 0L]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool

val skip : t -> int -> int64
(** [skip t n] leaves [t] in the state [n] draws would, with one
    multiply ([state + n·γ]), and returns the state [t] had before
    them: the start of those draws' byte stream ({!stream_byte}).
    Raises [Invalid_argument] if [n < 0]. *)

val stream_byte : int64 -> int -> char
(** [stream_byte s i] is the byte [Char.chr (int t 256)] yields on the
    [(i+1)]-th draw from a generator in state [s]: the low byte of
    [mix64 (s + (i+1)·γ)]. So [n] byte draws from [t] are
    [stream_byte (skip t n) 0 .. n-1], computed in O(1) each without
    allocating. *)

val blit_stream : int64 -> int -> Bytes.t -> int -> int -> unit
(** [blit_stream s i dst off n] writes stream bytes [i .. i+n-1] of
    start state [s] (as {!stream_byte}) into [dst] at [off], in one
    loop that does not allocate. Raises [Invalid_argument] if the range
    does not fit [dst] or [i < 0]. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to \[0,1\]). *)

val pick : t -> 'a list -> 'a
(** Uniform choice. Raises [Invalid_argument] on the empty list. *)

val pick_arr : t -> 'a array -> 'a
(** Uniform choice. Raises [Invalid_argument] on the empty array.
    Makes the same draw as {!pick} on the equivalent list. *)

val weighted : t -> ('a * int) list -> 'a
(** [weighted t choices] picks proportionally to the (positive) weights.
    Raises [Invalid_argument] if the list is empty or total weight is 0. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] returns at most [k] distinct elements of [xs], in a
    random order. *)
