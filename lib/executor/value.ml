module Blob = Healer_util.Blob

type t =
  | Int of int64
  | Res_ref of int
  | Res_special of int64
  | Str of string
  | Buf of Blob.t
  | Group of t list
  | Ptr of t
  | Null
  | Vma of int64

let rec refs = function
  | Res_ref i -> [ i ]
  | Group vs -> List.concat_map refs vs
  | Ptr v -> refs v
  | Int _ | Res_special _ | Str _ | Buf _ | Null | Vma _ -> []

(* Allocation-free, early-exiting forms of the two questions the hot
   paths ask of [refs]: does this value mention call [i], and do all
   its references land strictly below [k]? *)
let rec mem_ref i = function
  | Res_ref j -> j = i
  | Group vs -> List.exists (mem_ref i) vs
  | Ptr v -> mem_ref i v
  | Int _ | Res_special _ | Str _ | Buf _ | Null | Vma _ -> false

let rec refs_below k = function
  | Res_ref i -> i >= 0 && i < k
  | Group vs -> List.for_all (refs_below k) vs
  | Ptr v -> refs_below k v
  | Int _ | Res_special _ | Str _ | Buf _ | Null | Vma _ -> true

(* [map_shared g l] is [List.map g l], except that it returns [l]
   itself when [g] returns every element unchanged ([==]) and keeps the
   unchanged tail after the last changed element: it allocates only
   cells in front of a change. *)
let rec map_shared g l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = g x in
    let rest' = map_shared g rest in
    if x' == x && rest' == rest then l else x' :: rest'

(* Untouched subtrees keep their physical identity, so rewrites that
   change nothing (e.g. removing a later call) return [v] itself —
   downstream consumers can then memoize per-value work by [==]. *)
let rec map_refs f v =
  match v with
  | Res_ref i -> ( match f i with Some v' -> v' | None -> v)
  | Group vs ->
    let vs' = map_shared (map_refs f) vs in
    if vs' == vs then v else Group vs'
  | Ptr inner ->
    let inner' = map_refs f inner in
    if inner' == inner then v else Ptr inner'
  | Int _ | Res_special _ | Str _ | Buf _ | Null | Vma _ -> v

(* Structural, except that buffers compare by content: a decoded
   buffer (plain bytes) equals the generated one it was encoded from
   (a seeded range). *)
let rec equal a b =
  match (a, b) with
  | Int x, Int y | Res_special x, Res_special y | Vma x, Vma y -> Int64.equal x y
  | Res_ref i, Res_ref j -> Int.equal i j
  | Str x, Str y -> String.equal x y
  | Buf x, Buf y -> Blob.equal x y
  | Group xs, Group ys -> List.equal equal xs ys
  | Ptr x, Ptr y -> equal x y
  | Null, Null -> true
  | (Int _ | Res_ref _ | Res_special _ | Str _ | Buf _ | Group _ | Ptr _ | Null | Vma _), _ ->
    false

(* The byte-size model shared by len[] resolution (Value_gen) and the
   len-consistency check (Progcheck): scalars are 8 bytes, pointers are
   transparent (a len names the pointee's payload), null is empty. *)
let rec byte_size = function
  | Int _ | Res_ref _ | Res_special _ | Vma _ -> 8
  | Str s -> String.length s
  | Buf b -> Blob.length b
  | Group vs -> List.fold_left (fun acc v -> acc + byte_size v) 0 vs
  | Ptr v -> byte_size v
  | Null -> 0

let rec pp ppf = function
  | Int v -> Fmt.pf ppf "0x%Lx" v
  | Res_ref i -> Fmt.pf ppf "r%d" i
  | Res_special v -> Fmt.pf ppf "%Ld" v
  | Str s -> Fmt.pf ppf "%S" s
  | Buf b -> Fmt.pf ppf "\"%d bytes\"" (Blob.length b)
  | Group vs -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp) vs
  | Ptr v -> Fmt.pf ppf "&%a" pp v
  | Null -> Fmt.string ppf "nil"
  | Vma a -> Fmt.pf ppf "vma(0x%Lx)" a
