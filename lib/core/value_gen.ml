module Value = Healer_executor.Value
module Rng = Healer_util.Rng
module Blob = Healer_util.Blob
module Ty = Healer_syzlang.Ty
module Field = Healer_syzlang.Field
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall

type ctx = {
  target : Target.t;
  producers : string -> int list;
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

let gen_flags rng ctx name =
  let values = Target.flag_values ctx.target name in
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

let gen_resource rng ctx kind =
  match ctx.producers kind with
  | [] ->
    let specials = Target.resource_special_values ctx.target kind in
    if Array.length specials > 0 && Rng.chance rng 0.7 then
      Value.Res_special (Rng.pick_arr rng specials)
    else if Rng.chance rng 0.5 then Value.Res_special (-1L)
    else Value.Int (Int64.of_int (Rng.int rng 16))
  | idxs ->
    if Rng.chance rng 0.92 then Value.Res_ref (Rng.pick rng idxs)
    else Value.Res_special (-1L)

(* A seeded range of the stream: the same bytes, and the same
   draws, as [n] per-byte [Rng.int rng 256], none of them filled. *)
let gen_buffer rng = Value.Buf (Blob.generate rng (Rng.pick_arr rng buf_sizes))

let long_string rng =
  String.make (250 + Rng.int rng 64) (Char.chr (Char.code 'a' + Rng.int rng 26))

(* One byte-size model shared with the validator's len-consistency
   check (Progcheck): the two must never disagree. *)
let size_of_value = Value.byte_size

let rec gen_value rng ctx (ty : Ty.t) =
  match ty with
  | Ty.Int { bits; range } -> Value.Int (gen_int rng bits range)
  | Ty.Const v -> Value.Int v
  | Ty.Flags name -> Value.Int (gen_flags rng ctx name)
  | Ty.Len _ -> Value.Int 0L (* resolved by the caller's second pass *)
  | Ty.Proc { start; step } ->
    Value.Int (Int64.add start (Int64.mul step (Int64.of_int (Rng.int rng 4))))
  | Ty.Res { kind; dir = _ } -> gen_resource rng ctx kind
  | Ty.Ptr { elem; dir = _ } ->
    if Rng.chance rng 0.05 then Value.Null else Value.Ptr (gen_value rng ctx elem)
  | Ty.Buffer _ -> gen_buffer rng
  | Ty.Str lits ->
    if lits <> [] && Rng.chance rng 0.9 then Value.Str (Rng.pick rng lits)
    else Value.Str (long_string rng)
  | Ty.Filename lits ->
    if lits <> [] && Rng.chance rng 0.95 then Value.Str (Rng.pick rng lits)
    else Value.Str "/nonexistent"
  | Ty.Array { elem; min_len; max_len } ->
    let n = Rng.int_in rng min_len max_len in
    Value.Group (List.init n (fun _ -> gen_value rng ctx elem))
  | Ty.Struct_ref name ->
    Value.Group (gen_fields rng ctx (Target.struct_fields ctx.target name))
  | Ty.Union_ref name ->
    let fields = Target.union_fields ctx.target name in
    let f = List.nth fields (Rng.int rng (List.length fields)) in
    Value.Group [ gen_value rng ctx f.Field.fty ]
  | Ty.Vma -> Value.Vma (Rng.pick_arr rng vma_addrs)

(* Generate all fields, then resolve Len references against siblings. *)
and gen_fields rng ctx (fields : Field.t list) =
  let values = List.map (fun (f : Field.t) -> gen_value rng ctx f.Field.fty) fields in
  resolve_lens fields values

and resolve_lens fields values =
  List.map2
    (fun (f : Field.t) v ->
      match f.Field.fty with
      | Ty.Len name -> (
        let sibling =
          List.find_opt
            (fun ((g : Field.t), _) -> String.equal g.Field.fname name)
            (List.combine fields values)
        in
        match sibling with
        | Some (_, sv) -> Value.Int (Int64.of_int (size_of_value sv))
        | None -> v)
      | _ -> v)
    fields values

let gen_args rng ctx (call : Syscall.t) = gen_fields rng ctx call.Syscall.args

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

let rec mutate_value rng ctx (ty : Ty.t) v =
  match (ty, v) with
  | Ty.Const _, _ -> v (* constants stay fixed; the kernel checks them *)
  | Ty.Int { bits; range }, Value.Int x -> (
    match range with
    | None -> Value.Int (truncate_bits bits (mutate_int rng x))
    | Some _ ->
      (* Ranged ints must stay in range: the kernel rejects the call
         before reaching interesting code otherwise, and the validator
         (prog-int-width) treats escapes as generator bugs. *)
      Value.Int (gen_int rng bits range))
  | Ty.Flags name, Value.Int _ -> Value.Int (gen_flags rng ctx name)
  | Ty.Len _, (Value.Int x : Value.t) ->
    if Rng.chance rng 0.3 then Value.Int (mutate_int rng x) else v
  | Ty.Res { kind; _ }, _ -> gen_resource rng ctx kind
  | Ty.Ptr { elem; _ }, Value.Ptr inner ->
    if Rng.chance rng 0.08 then Value.Null
    else Value.Ptr (mutate_value rng ctx elem inner)
  | Ty.Ptr { elem; _ }, Value.Null ->
    Value.Ptr (gen_value rng ctx elem)
  | Ty.Buffer _, Value.Buf b -> Value.Buf (mutate_buf rng b)
  | Ty.Str _, _ | Ty.Filename _, _ -> gen_value rng ctx ty
  | Ty.Array { elem; min_len; max_len }, Value.Group vs ->
    let vs =
      if Rng.chance rng 0.3 && List.length vs < max_len then
        gen_value rng ctx elem :: vs
      else if Rng.chance rng 0.3 && List.length vs > min_len then List.tl vs
      else
        List.map
          (fun v -> if Rng.chance rng 0.4 then mutate_value rng ctx elem v else v)
          vs
    in
    Value.Group vs
  | Ty.Struct_ref name, Value.Group vs ->
    let fields = Target.struct_fields ctx.target name in
    if List.length fields = List.length vs then begin
      let k = Rng.int rng (List.length fields) in
      let vs =
        List.mapi
          (fun i v ->
            if i = k then
              mutate_value rng ctx (List.nth fields i).Field.fty v
            else v)
          vs
      in
      Value.Group (resolve_lens fields vs)
    end
    else gen_value rng ctx ty
  | Ty.Union_ref _, _ -> gen_value rng ctx ty
  | Ty.Vma, _ -> Value.Vma (Rng.pick_arr rng vma_addrs)
  | Ty.Proc _, _ -> gen_value rng ctx ty
  | _, _ -> gen_value rng ctx ty

let mutate_args rng ctx (call : Syscall.t) args =
  let fields = call.Syscall.args in
  if fields = [] || List.length args <> List.length fields then
    gen_args rng ctx call
  else begin
    let k = Rng.int rng (List.length args) in
    let args =
      List.mapi
        (fun i v ->
          if i = k || Rng.chance rng 0.1 then
            mutate_value rng ctx (List.nth fields i).Field.fty v
          else v)
        args
    in
    resolve_lens fields args
  end
