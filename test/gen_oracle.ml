(* Reference model of program generation: the name-keyed generator the
   compiled plan replaced, kept in the test suite as the differential
   oracle for Healer_core's Value_gen, Builder, Gen, Mutate and Select.
   It walks Ty.t, looks every struct, union, flag set and resource up
   by name, resolves [len] fields by sibling name, picks from lists,
   and computes its own producer and consumer tables from the
   inheritance predicate ([Target.compatible]) rather than reading the
   target's records. Selection walks every syscall id. test_genplan.ml
   drives it and the real generator from equal Rng states and requires
   equal programs and equal final states. *)

module Rng = Healer_util.Rng
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Ty = Healer_syzlang.Ty
module Field = Healer_syzlang.Field
module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Blob = Healer_util.Blob
module Relation_table = Healer_core.Relation_table

(* Name-keyed producer/consumer tables of one target. *)
type t = {
  target : Target.t;
  kinds : string list;
  masks : (string, bool array) Hashtbl.t;
  producers : (string, Syscall.t list) Hashtbl.t;
  consumers : (string, Syscall.t list) Hashtbl.t;
}

let create target =
  let calls = Array.to_list (Target.syscalls target) in
  let kinds = Target.resource_kinds target in
  let masks = Hashtbl.create 64
  and producers = Hashtbl.create 64
  and consumers = Hashtbl.create 64 in
  List.iter
    (fun kind ->
      let produces (c : Syscall.t) =
        List.exists (fun p -> Target.compatible target ~consumer:kind ~producer:p)
          (Target.produces target c)
      in
      let consumes (c : Syscall.t) =
        List.exists (fun cns -> Target.compatible target ~consumer:cns ~producer:kind)
          (Target.consumes target c)
      in
      let mask = Array.make (Target.n_syscalls target) false in
      List.iter (fun (c : Syscall.t) -> if produces c then mask.(c.id) <- true) calls;
      Hashtbl.add masks kind mask;
      Hashtbl.add producers kind (List.filter produces calls);
      Hashtbl.add consumers kind (List.filter consumes calls))
    kinds;
  { target; kinds; masks; producers; consumers }

(* ---- values (the former Value_gen) ---- *)

type ctx = { oracle : t; producers : string -> int list }

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
  let values = Target.flag_values ctx.oracle.target name in
  if Array.length values = 0 then 0L
  else if Rng.chance rng 0.75 then Rng.pick_arr rng values
  else begin
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
    let specials = Target.resource_special_values ctx.oracle.target kind in
    if Array.length specials > 0 && Rng.chance rng 0.7 then
      Value.Res_special (Rng.pick_arr rng specials)
    else if Rng.chance rng 0.5 then Value.Res_special (-1L)
    else Value.Int (Int64.of_int (Rng.int rng 16))
  | idxs ->
    if Rng.chance rng 0.92 then Value.Res_ref (Rng.pick rng idxs)
    else Value.Res_special (-1L)

let gen_buffer rng = Value.Buf (Blob.generate rng (Rng.pick_arr rng buf_sizes))

let long_string rng =
  String.make (250 + Rng.int rng 64) (Char.chr (Char.code 'a' + Rng.int rng 26))

let rec gen_value rng ctx (ty : Ty.t) =
  match ty with
  | Ty.Int { bits; range } -> Value.Int (gen_int rng bits range)
  | Ty.Const v -> Value.Int v
  | Ty.Flags name -> Value.Int (gen_flags rng ctx name)
  | Ty.Len _ -> Value.Int 0L
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
    Value.Group (gen_fields rng ctx (Target.struct_fields ctx.oracle.target name))
  | Ty.Union_ref name ->
    let fields = Target.union_fields ctx.oracle.target name in
    let f = List.nth fields (Rng.int rng (List.length fields)) in
    Value.Group [ gen_value rng ctx f.Field.fty ]
  | Ty.Vma -> Value.Vma (Rng.pick_arr rng vma_addrs)

and gen_fields rng ctx (fields : Field.t list) =
  let values = List.map (fun (f : Field.t) -> gen_value rng ctx f.Field.fty) fields in
  resolve_lens fields values

(* A [len] takes the size of the first sibling of that name, before
   resolution; with no such sibling it keeps its value. *)
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
        | Some (_, sv) -> Value.Int (Int64.of_int (Value.byte_size sv))
        | None -> v)
      | _ -> v)
    fields values

let gen_args rng ctx (call : Syscall.t) = gen_fields rng ctx call.Syscall.args

let mutate_int rng v =
  match Rng.int rng 4 with
  | 0 -> Int64.logxor v (Int64.shift_left 1L (Rng.int rng 64))
  | 1 -> Int64.add v (Int64.of_int (Rng.int_in rng (-8) 8))
  | 2 -> Rng.pick_arr rng magic_ints
  | _ -> Rng.bits64 rng

let mutate_buf rng b =
  let n = Blob.length b in
  match Rng.int rng 3 with
  | 0 -> Blob.prefix b (Rng.int rng (n + 1))
  | 1 ->
    let extra = Rng.pick_arr rng buf_sizes in
    let grown = Bytes.make (n + extra) '\x41' in
    Blob.blit b grown 0;
    Blob.of_bytes grown
  | _ ->
    if n = 0 then Blob.of_bytes (Bytes.make (Rng.pick_arr rng buf_sizes) '\x00')
    else begin
      let b = Blob.to_bytes b in
      Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
      Blob.of_bytes b
    end

let rec mutate_value rng ctx (ty : Ty.t) v =
  match (ty, v) with
  | Ty.Const _, _ -> v
  | Ty.Int { bits; range }, Value.Int x -> (
    match range with
    | None -> Value.Int (truncate_bits bits (mutate_int rng x))
    | Some _ -> Value.Int (gen_int rng bits range))
  | Ty.Flags name, Value.Int _ -> Value.Int (gen_flags rng ctx name)
  | Ty.Len _, (Value.Int x : Value.t) ->
    if Rng.chance rng 0.3 then Value.Int (mutate_int rng x) else v
  | Ty.Res { kind; _ }, _ -> gen_resource rng ctx kind
  | Ty.Ptr { elem; _ }, Value.Ptr inner ->
    if Rng.chance rng 0.08 then Value.Null
    else Value.Ptr (mutate_value rng ctx elem inner)
  | Ty.Ptr { elem; _ }, Value.Null -> Value.Ptr (gen_value rng ctx elem)
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
    let fields = Target.struct_fields ctx.oracle.target name in
    if List.length fields = List.length vs then begin
      let k = Rng.int rng (List.length fields) in
      let vs =
        List.mapi
          (fun i v ->
            if i = k then mutate_value rng ctx (List.nth fields i).Field.fty v else v)
          vs
      in
      Value.Group (resolve_lens fields vs)
    end
    else gen_value rng ctx ty
  | Ty.Union_ref _, _ -> gen_value rng ctx ty
  | Ty.Vma, _ -> Value.Vma (Rng.pick_arr rng vma_addrs)
  | Ty.Proc _, _ -> gen_value rng ctx ty
  | _, _ -> gen_value rng ctx ty

let mutate_args_of rng ctx (call : Syscall.t) args =
  let fields = call.Syscall.args in
  if fields = [] || List.length args <> List.length fields then gen_args rng ctx call
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

(* ---- assembly (the former string-keyed Builder) ---- *)

let max_prog_len = 32

let producers_in o ~call ~n kind =
  let mask = Hashtbl.find o.masks kind in
  let acc = ref [] in
  for k = n - 1 downto 0 do
    if mask.((call k).Prog.syscall.Syscall.id) then acc := k :: !acc
  done;
  !acc

let producers_for o p ~upto kind =
  producers_in o ~call:(Prog.call p) ~n:(min upto (Prog.length p)) kind

let producers_for_b o b ~upto kind =
  producers_in o ~call:(Prog.Builder.call b) ~n:(min upto (Prog.Builder.length b)) kind

let make_call_b rng o b ~at (call : Syscall.t) =
  let ctx = { oracle = o; producers = (fun kind -> producers_for_b o b ~upto:at kind) } in
  { Prog.syscall = call; args = gen_args rng ctx call }

let rec ensure_producers_b rng o b ~at ~depth (call : Syscall.t) =
  if depth <= 0 || Prog.Builder.length b >= max_prog_len then at
  else
    List.fold_left
      (fun at kind ->
        if Prog.Builder.length b >= max_prog_len then at
        else if producers_for_b o b ~upto:at kind <> [] then at
        else
          match Hashtbl.find o.producers kind with
          | [] -> at
          | cands ->
            let producer = Rng.pick rng cands in
            if producer.Syscall.id = call.Syscall.id then at
            else begin
              let at' = ensure_producers_b rng o b ~at ~depth:(depth - 1) producer in
              if Prog.Builder.length b >= max_prog_len then at'
              else begin
                let pc = make_call_b rng o b ~at:at' producer in
                Prog.Builder.insert b at' pc;
                at' + 1
              end
            end)
      at (Target.consumes o.target call)

let insert_call_b rng o b ~at (call : Syscall.t) =
  let at = min at (Prog.Builder.length b) in
  let at = ensure_producers_b rng o b ~at ~depth:3 call in
  if Prog.Builder.length b < max_prog_len then
    Prog.Builder.insert b at (make_call_b rng o b ~at call)

let append_call_b rng o b call = insert_call_b rng o b ~at:(Prog.Builder.length b) call

(* ---- generation and mutation (the former Gen and Mutate) ---- *)

let syscall_ids_b b ~upto =
  List.init (min upto (Prog.Builder.length b)) (fun k ->
      (Prog.Builder.call b k).Prog.syscall.Syscall.id)

let seed_pair_b rng o b =
  match o.kinds with
  | [] -> ()
  | kinds -> (
    let kind = Rng.pick rng kinds in
    match (Hashtbl.find o.producers kind, Hashtbl.find o.consumers kind) with
    | [], _ | _, [] -> ()
    | producers, consumers ->
      let producer = Rng.pick rng producers in
      let consumer = Rng.pick rng consumers in
      append_call_b rng o b producer;
      append_call_b rng o b consumer)

let insert_one_b rng o ~select b =
  if Prog.Builder.length b < max_prog_len then begin
    let at = Rng.int rng (Prog.Builder.length b + 1) in
    let id = select ~sub:(syscall_ids_b b ~upto:at) in
    insert_call_b rng o b ~at (Target.syscall o.target id)
  end

let generate rng o ~select () =
  let b = Prog.Builder.create () in
  seed_pair_b rng o b;
  (if Prog.Builder.length b = 0 then
     let calls = Target.syscalls o.target in
     append_call_b rng o b calls.(Rng.int rng (Array.length calls)));
  let rounds = Rng.int_in rng 2 6 in
  for _ = 1 to rounds do
    insert_one_b rng o ~select b
  done;
  Prog.Builder.to_prog b

let mutate_args rng o (p : Prog.t) =
  let k = Rng.int rng (Prog.length p) in
  let c = Prog.call p k in
  let ctx = { oracle = o; producers = (fun kind -> producers_for o p ~upto:k kind) } in
  let args = mutate_args_of rng ctx c.Prog.syscall c.Prog.args in
  let calls = Array.copy p.Prog.calls in
  calls.(k) <- { c with Prog.args };
  { Prog.calls }

let mutate rng o ~select p =
  if Prog.length p = 0 then p
  else
    match Rng.weighted rng [ (`Insert, 60); (`Args, 30); (`Remove, 10) ] with
    | `Insert ->
      if Prog.length p >= max_prog_len then mutate_args rng o p
      else begin
        let n = if Rng.chance rng 0.4 then 2 else 1 in
        let b = Prog.Builder.of_prog p in
        for _ = 1 to n do
          insert_one_b rng o ~select b
        done;
        Prog.Builder.to_prog b
      end
    | `Args -> mutate_args rng o p
    | `Remove ->
      if Prog.length p <= 1 then p else Prog.remove p (Rng.int rng (Prog.length p))

(* ---- selection (Algorithm 3, walking every id) ---- *)

let select rng table ~alpha ~sub =
  let n = Relation_table.size table in
  if Rng.float rng 1.0 > alpha then (Rng.int rng n, false)
  else begin
    let counts = Array.make n 0 in
    List.iter
      (fun ci ->
        List.iter (fun cj -> counts.(cj) <- counts.(cj) + 1) (Relation_table.influenced_by table ci))
      sub;
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then (Rng.int rng n, false)
    else begin
      let target = Rng.int rng total in
      let rec walk j acc =
        let acc = acc + counts.(j) in
        if counts.(j) > 0 && target < acc then j else walk (j + 1) acc
      in
      (walk 0 0, true)
    end
  end
