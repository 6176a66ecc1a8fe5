(* The state is 8 bytes, read and written as an unboxed int64: a
   mutable [int64] field would box every new state, one allocation and
   one write barrier per draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: Stafford's mix13 variant. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (bits64 t)
let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.logand (bits64 t) (Int64.of_int max_int)) mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let int64 t bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Rng.int64: bound must be positive";
  let v = Int64.logand (bits64 t) Int64.max_int in
  Int64.rem v bound

(* A uniform float in [0, 1): the top 53 bits over 2^53. *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) /. 9007199254740992.0

let float t bound = bound *. unit_float t

let bool t = Int64.logand (bits64 t) 1L = 1L

(* [int t 256] keeps the low 8 bits of the next output (the 62-bit
   mask and the modulus both preserve them), so the byte of the
   (i+1)-th draw from state [s] is the low byte of
   [mix64 (s + (i+1)*gamma)]: a pure function of [s] and [i]. *)
let skip t n =
  if n < 0 then invalid_arg "Rng.skip: negative count";
  let s = get_state t 0 in
  set_state t 0 (Int64.add s (Int64.mul (Int64.of_int n) golden_gamma));
  s

let stream_byte s i =
  Char.unsafe_chr
    (Int64.to_int (mix64 (Int64.add s (Int64.mul (Int64.of_int (i + 1)) golden_gamma)))
    land 0xff)

(* The running state lives in a local, so the int64s stay unboxed: the
   loop neither allocates nor multiplies per byte. *)
let blit_stream s i dst off n =
  if i < 0 || n < 0 || off < 0 || off > Bytes.length dst - n then
    invalid_arg "Rng.blit_stream";
  let st = ref (Int64.add s (Int64.mul (Int64.of_int i) golden_gamma)) in
  for k = off to off + n - 1 do
    st := Int64.add !st golden_gamma;
    Bytes.unsafe_set dst k (Char.unsafe_chr (Int64.to_int (mix64 !st) land 0xff))
  done

(* [unit_float] is [float t 1.0] exactly (a product by 1.0 is exact),
   compared without boxing it. *)
let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let pick_arr t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_arr: empty array";
  a.(int t (Array.length a))

let weighted t choices =
  let total = List.fold_left (fun acc (_, w) -> acc + max 0 w) 0 choices in
  if total <= 0 then invalid_arg "Rng.weighted: no positive weight";
  let target = int t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.weighted: internal"
    | (x, w) :: rest ->
      let acc = acc + max 0 w in
      if target < acc then x else go acc rest
  in
  go 0 choices

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k xs =
  let a = Array.of_list xs in
  shuffle t a;
  let n = min k (Array.length a) in
  Array.to_list (Array.sub a 0 n)
