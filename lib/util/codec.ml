exception Malformed of { format : string; offset : int; reason : string }

(* ---- writers ---- *)

(* Unboxed fast path: encoding sits on the probe-cache hot path (one
   key per call per probe), where the boxed Int64 loop of
   [put_uvarint] would cost several allocations per byte. *)
let put_uint buf i =
  if i < 0 then invalid_arg "Codec.put_uint: negative";
  let x = ref i in
  while !x >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr ((!x land 0x7f) lor 0x80));
    x := !x lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !x)

(* Past max_int a value has at least 63 bits, so its first byte
   continues, and after it the rest fits the unboxed path. *)
let rec put_uvarint buf v =
  if Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int max_int) <= 0 then
    put_uint buf (Int64.to_int v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr ((Int64.to_int v land 0x7f) lor 0x80));
    put_uvarint buf (Int64.shift_right_logical v 7)
  end

(* For |v| < 2^61 the zigzag fits the native int, so the whole encode
   stays unboxed. *)
let put_svarint buf v =
  if
    Int64.compare v (-0x1000000000000000L) >= 0
    && Int64.compare v 0x1000000000000000L < 0
  then begin
    let x = Int64.to_int v in
    put_uint buf ((x lsl 1) lxor (x asr 62))
  end
  else put_uvarint buf (Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63))

let put_string buf s =
  put_uint buf (String.length s);
  Buffer.add_string buf s

let put_bytes buf b =
  put_uint buf (Bytes.length b);
  Buffer.add_bytes buf b

let put_float buf f = put_uvarint buf (Int64.bits_of_float f)

let put_list put buf l =
  put_uint buf (List.length l);
  List.iter (put buf) l

(* ---- reader ---- *)

(* A window [pos, limit) of [s]; sub-readers share [s], so offsets
   stay absolute. *)
type reader = { format : string; s : string; mutable pos : int; limit : int }

let reader ~format s = { format; s; pos = 0; limit = String.length s }
let offset r = r.pos
let remaining r = r.limit - r.pos
let at_end r = r.pos >= r.limit

let fail ?at r reason =
  let offset = match at with Some o -> o | None -> r.pos in
  raise (Malformed { format = r.format; offset; reason })

let finish r =
  if r.pos < r.limit then fail r (Printf.sprintf "%d trailing bytes" (r.limit - r.pos))

let decode ~format read s =
  let r = reader ~format s in
  let v = read r in
  finish r;
  v

let magic r m =
  let n = String.length m in
  if n > remaining r || String.sub r.s r.pos n <> m then fail r "bad magic";
  r.pos <- r.pos + n

let byte r =
  if r.pos >= r.limit then fail r "truncated input";
  let b = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  b

let uint r =
  let start = r.pos and acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    let b = byte r in
    (* The ninth byte carries bits 56..62; bit 62 and up is past max_int. *)
    if !shift = 56 && b > 0x3f then fail ~at:start r "varint exceeds max_int";
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b >= 0x80
  done;
  !acc

let uvarint r =
  let start = r.pos and acc = ref 0L and shift = ref 0 and more = ref true in
  while !more do
    let b = byte r in
    if !shift = 63 && b > 1 then fail ~at:start r "varint exceeds 64 bits";
    acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
    shift := !shift + 7;
    more := b >= 0x80
  done;
  !acc

let svarint r =
  let v = uvarint r in
  Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))

let float r = Int64.float_of_bits (uvarint r)

(* Compare against what remains, never [pos + n > limit]: a hostile
   length near max_int would overflow the addition. *)
let length r what =
  let start = r.pos in
  let n = uint r in
  if n > remaining r then
    fail ~at:start r
      (Printf.sprintf "%s %d exceeds the %d bytes that remain" what n (remaining r));
  n

let string r =
  let n = length r "length" in
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

(* [string] returns a fresh copy, so nothing else can see it mutate. *)
let bytes r = Bytes.unsafe_of_string (string r)

let named r what of_name =
  let at = r.pos in
  let name = string r in
  match of_name name with
  | Some v -> v
  | None -> fail ~at r (Printf.sprintf "unknown %s %S" what name)

let count ?(max = max_int) r =
  let start = r.pos in
  let n = length r "count" in
  if n > max then
    fail ~at:start r (Printf.sprintf "count %d exceeds the cap of %d" n max);
  n

let list ?max r read = List.init (count ?max r) (fun _ -> read r)

let sub r read =
  let n = length r "length" in
  let w = { r with limit = r.pos + n } in
  let v = read w in
  finish w;
  r.pos <- w.limit;
  v
