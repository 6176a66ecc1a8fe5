module Blob = Healer_util.Blob

type t =
  | Int of int64
  | Str of string
  | Buf of Blob.t
  | Rec of t list
  | Nothing

let as_int = function
  | Int v -> v
  | Str _ | Buf _ | Rec _ | Nothing -> 0L

let as_fd a = Int64.to_int (as_int a)

let buf_length = function
  | Buf b -> Blob.length b
  | Str s -> String.length s
  | Int _ | Rec _ | Nothing -> 0

let buf_get a i =
  match a with
  | Buf b -> Blob.get b i
  | Str s -> String.get s i
  | Int _ | Rec _ | Nothing -> invalid_arg "index out of bounds"

let as_str = function
  | Str s -> s
  | Buf b -> Blob.to_string b
  | Int _ | Rec _ | Nothing -> ""

let as_rec = function Rec fs -> fs | Int _ | Str _ | Buf _ | Nothing -> []

let is_null = function
  | Nothing -> true
  | Int _ | Str _ | Buf _ | Rec _ -> false

let nth args i = match List.nth_opt args i with Some a -> a | None -> Nothing

let field arg i =
  match arg with
  | Rec fs -> nth fs i
  | Int _ | Str _ | Buf _ | Nothing -> Nothing

let rec pp ppf = function
  | Int v -> Fmt.pf ppf "0x%Lx" v
  | Str s -> Fmt.pf ppf "%S" s
  | Buf b -> Fmt.pf ppf "buf[%d]" (Blob.length b)
  | Rec fs -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp) fs
  | Nothing -> Fmt.string ppf "nil"
