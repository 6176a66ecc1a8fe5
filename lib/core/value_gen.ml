module Value = Healer_executor.Value
module Rng = Healer_util.Rng
module Blob = Healer_util.Blob
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall

type ctx = {
  target : Target.t;
  producers : Target.resource -> int array;
}

let magic_ints =
  [| 0L; 1L; -1L; 2L; 3L; 7L; 8L; 16L; 64L; 127L; 128L; 255L; 256L; 511L;
     1024L; 4096L; 8192L; 65536L; 0x100000L; 0x7fffffffL |]

let buf_sizes = [| 0; 1; 8; 16; 64; 256; 1024; 4096; 8200; 16384 |]
let vma_addrs = [| 0x20000000L; 0x20001000L; 0x7f0000000000L; 0x1000L |]

let truncate_bits bits v =
  if bits >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)

let gen_int rng bits range =
  match range with
  | Some (lo, hi) ->
    if Rng.chance rng 0.2 then if Rng.bool rng then lo else hi
    else
      let span = Int64.add (Int64.sub hi lo) 1L in
      if Int64.compare span 0L <= 0 then lo else Int64.add lo (Rng.int64 rng span)
  | None ->
    if Rng.chance rng 0.6 then truncate_bits bits (Rng.pick_arr rng magic_ints)
    else truncate_bits bits (Rng.bits64 rng)

let gen_flags rng values =
  if Array.length values = 0 then 0L
  else if Rng.chance rng 0.75 then Rng.pick_arr rng values
  else begin
    (* OR a small subset, as Syzlang flag sets permit. *)
    let acc = ref 0L in
    let n = 1 + Rng.int rng 3 in
    for _ = 1 to n do
      acc := Int64.logor !acc (Rng.pick_arr rng values)
    done;
    !acc
  end

let gen_resource rng ctx (r : Target.resource) =
  match ctx.producers r with
  | [||] ->
    if Array.length r.special > 0 && Rng.chance rng 0.7 then
      Value.Res_special (Rng.pick_arr rng r.special)
    else if Rng.chance rng 0.5 then Value.Res_special (-1L)
    else Value.Int (Int64.of_int (Rng.int rng 16))
  | idxs ->
    if Rng.chance rng 0.92 then Value.Res_ref (Rng.pick_arr rng idxs)
    else Value.Res_special (-1L)

(* A seeded range of the stream: the same bytes, and the same
   draws, as [n] per-byte [Rng.int rng 256], none of them filled. *)
let gen_buffer rng = Value.Buf (Blob.generate rng (Rng.pick_arr rng buf_sizes))

let long_string rng =
  String.make (250 + Rng.int rng 64) (Char.chr (Char.code 'a' + Rng.int rng 26))

(* One byte-size model shared with the validator's len-consistency
   check (Progcheck): the two must never disagree. *)
let size_of_value = Value.byte_size

let rec gen_value rng ctx (node : Target.node) =
  match node with
  | Target.Int { bits; range } -> Value.Int (gen_int rng bits range)
  | Target.Const v -> Value.Int v
  | Target.Flags values -> Value.Int (gen_flags rng values)
  | Target.Len _ -> Value.Int 0L (* resolved by the caller's second pass *)
  | Target.Proc { start; step } ->
    Value.Int (Int64.add start (Int64.mul step (Int64.of_int (Rng.int rng 4))))
  | Target.Res r -> gen_resource rng ctx r
  | Target.Ptr elem ->
    if Rng.chance rng 0.05 then Value.Null else Value.Ptr (gen_value rng ctx elem)
  | Target.Buffer -> gen_buffer rng
  | Target.Str lits ->
    if Array.length lits > 0 && Rng.chance rng 0.9 then Value.Str (Rng.pick_arr rng lits)
    else Value.Str (long_string rng)
  | Target.Filename lits ->
    if Array.length lits > 0 && Rng.chance rng 0.95 then Value.Str (Rng.pick_arr rng lits)
    else Value.Str "/nonexistent"
  | Target.Array { elem; min_len; max_len } ->
    Value.Group (gen_list rng ctx elem (Rng.int_in rng min_len max_len))
  | Target.Struct fields -> Value.Group (gen_fields rng ctx fields)
  | Target.Union fields ->
    Value.Group [ gen_value rng ctx fields.(Rng.int rng (Array.length fields)) ]
  | Target.Vma -> Value.Vma (Rng.pick_arr rng vma_addrs)

(* [n] values of one node, drawn first to last. *)
and gen_list rng ctx node n =
  if n <= 0 then []
  else
    let v = gen_value rng ctx node in
    v :: gen_list rng ctx node (n - 1)

(* Generate all fields in order, then resolve Len references against
   siblings. *)
and gen_fields rng ctx fields = resolve_lens fields (gen_from rng ctx fields 0)

and gen_from rng ctx fields i =
  if i = Array.length fields then []
  else
    let v = gen_value rng ctx fields.(i) in
    v :: gen_from rng ctx fields (i + 1)

(* Each direct [Len j] field takes the byte size of sibling [j]'s value
   before resolution. A group with no such field is returned as is. *)
and resolve_lens fields values =
  if not (Array.exists (function Target.Len j -> j >= 0 | _ -> false) fields) then values
  else
    List.mapi
      (fun i v ->
        match fields.(i) with
        | Target.Len j when j >= 0 ->
          Value.Int (Int64.of_int (size_of_value (List.nth values j)))
        | _ -> v)
      values

let gen_args rng ctx (call : Syscall.t) =
  gen_fields rng ctx (Target.arg_nodes ctx.target call)

(* ---- mutation ---- *)

let mutate_int rng v =
  match Rng.int rng 4 with
  | 0 -> Int64.logxor v (Int64.shift_left 1L (Rng.int rng 64)) (* bit flip *)
  | 1 -> Int64.add v (Int64.of_int (Rng.int_in rng (-8) 8))
  | 2 -> Rng.pick_arr rng magic_ints
  | _ -> Rng.bits64 rng

(* Only the shrink keeps a generated buffer seeded; growing or
   flipping a byte fills it. *)
let mutate_buf rng b =
  let n = Blob.length b in
  match Rng.int rng 3 with
  | 0 -> Blob.prefix b (Rng.int rng (n + 1)) (* shrink *)
  | 1 ->
    let extra = Rng.pick_arr rng buf_sizes in
    let grown = Bytes.make (n + extra) '\x41' in
    Blob.blit b grown 0;
    Blob.of_bytes grown (* grow *)
  | _ ->
    if n = 0 then Blob.of_bytes (Bytes.make (Rng.pick_arr rng buf_sizes) '\x00')
    else begin
      let b = Blob.to_bytes b in
      Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
      Blob.of_bytes b
    end

(* [l] with element [k] replaced by [f] of it; the tail after [k] is
   shared. *)
let rec replace_nth k f = function
  | [] -> []
  | v :: rest -> if k = 0 then f v :: rest else v :: replace_nth (k - 1) f rest

let rec mutate_value rng ctx (node : Target.node) v =
  match (node, v) with
  | Target.Const _, _ -> v (* constants stay fixed; the kernel checks them *)
  | Target.Int { bits; range }, Value.Int x -> (
    match range with
    | None -> Value.Int (truncate_bits bits (mutate_int rng x))
    | Some _ ->
      (* Ranged ints must stay in range: the kernel rejects the call
         before reaching interesting code otherwise, and the validator
         (prog-int-width) treats escapes as generator bugs. *)
      Value.Int (gen_int rng bits range))
  | Target.Flags values, Value.Int _ -> Value.Int (gen_flags rng values)
  | Target.Len _, (Value.Int x : Value.t) ->
    if Rng.chance rng 0.3 then Value.Int (mutate_int rng x) else v
  | Target.Res r, _ -> gen_resource rng ctx r
  | Target.Ptr elem, Value.Ptr inner ->
    if Rng.chance rng 0.08 then Value.Null
    else Value.Ptr (mutate_value rng ctx elem inner)
  | Target.Ptr elem, Value.Null -> Value.Ptr (gen_value rng ctx elem)
  | Target.Buffer, Value.Buf b -> Value.Buf (mutate_buf rng b)
  | (Target.Str _ | Target.Filename _), _ -> gen_value rng ctx node
  | Target.Array { elem; min_len; max_len }, Value.Group vs ->
    let n = List.length vs in
    let vs =
      if Rng.chance rng 0.3 && n < max_len then gen_value rng ctx elem :: vs
      else if Rng.chance rng 0.3 && n > min_len then List.tl vs
      else
        List.map
          (fun v -> if Rng.chance rng 0.4 then mutate_value rng ctx elem v else v)
          vs
    in
    Value.Group vs
  | Target.Struct fields, Value.Group vs ->
    if Array.length fields = List.length vs then begin
      let k = Rng.int rng (Array.length fields) in
      let vs = replace_nth k (mutate_value rng ctx fields.(k)) vs in
      Value.Group (resolve_lens fields vs)
    end
    else gen_value rng ctx node
  | Target.Vma, _ -> Value.Vma (Rng.pick_arr rng vma_addrs)
  (* Unions, procs and values of another shape are drawn afresh. *)
  | _, _ -> gen_value rng ctx node

(* Argument [k], and each other one with probability 0.1, mutated
   first to last, as the draws must be. *)
let rec mutate_from rng ctx fields k i = function
  | [] -> []
  | v :: rest ->
    let v = if i = k || Rng.chance rng 0.1 then mutate_value rng ctx fields.(i) v else v in
    v :: mutate_from rng ctx fields k (i + 1) rest

let mutate_args rng ctx (call : Syscall.t) args =
  let fields = Target.arg_nodes ctx.target call in
  let n = Array.length fields in
  if n = 0 || List.length args <> n then gen_args rng ctx call
  else resolve_lens fields (mutate_from rng ctx fields (Rng.int rng n) 0 args)
