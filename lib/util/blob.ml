type t =
  | Bytes of bytes
  | Seeded of { start : int64; len : int }

let of_bytes b = Bytes b

(* One multiply: the bytes themselves are computed only when read. *)
let generate rng n = Seeded { start = Rng.skip rng n; len = n }

let length = function Bytes b -> Bytes.length b | Seeded s -> s.len

let get t i =
  match t with
  | Bytes b -> Bytes.get b i
  | Seeded { start; len } ->
    if i < 0 || i >= len then invalid_arg "index out of bounds";
    Rng.stream_byte start i

(* A prefix of a seeded range is the same stream, cut shorter. *)
let prefix t n =
  match t with
  | Bytes b -> Bytes (Bytes.sub b 0 n)
  | Seeded s ->
    if n < 0 || n > s.len then invalid_arg "Blob.prefix";
    Seeded { s with len = n }

let blit t dst off =
  match t with
  | Bytes b -> Bytes.blit b 0 dst off (Bytes.length b)
  | Seeded { start; len } -> Rng.blit_stream start 0 dst off len

let to_bytes t =
  let b = Bytes.create (length t) in
  blit t b 0;
  b

let to_string t = Bytes.unsafe_to_string (to_bytes t)

(* Through a small chunk: a whole copy of a 4 KiB or larger buffer
   would be allocated straight on the major heap. *)
let chunk = 1024

let add_to_buffer buf = function
  | Bytes b -> Buffer.add_bytes buf b
  | Seeded { start; len } ->
    let c = Bytes.create (min len chunk) in
    let rec go i =
      if i < len then begin
        let n = min chunk (len - i) in
        Rng.blit_stream start i c 0 n;
        Buffer.add_subbytes buf c 0 n;
        go (i + n)
      end
    in
    go 0

let equal a b =
  match (a, b) with
  | Bytes x, Bytes y -> Bytes.equal x y
  | Seeded x, Seeded y when x.len = y.len && Int64.equal x.start y.start -> true
  | _ ->
    let n = length a in
    let rec same i = i = n || (Char.equal (get a i) (get b i) && same (i + 1)) in
    n = length b && same 0
