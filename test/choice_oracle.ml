(* Reference model of Healer_core.Choice_table: the straightforward
   implementation that renormalizes the whole P1 matrix on the first
   read after any corpus add and rebuilds every cumulative row from
   scratch. The real table keeps P1 normalized incrementally; the
   differential property in test_baselines.ml drives both through the
   same operations and requires equal weights and picks. *)

module Rng = Healer_util.Rng
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Ty = Healer_syzlang.Ty
module Field = Healer_syzlang.Field
module Prog = Healer_executor.Prog

type signature = {
  resources : string list;
  flagsets : string list;
  has_vma : bool;
  has_buffer : bool;
}

type t = {
  n : int;
  p0 : int array array;
  p1_raw : int array array;
  mutable p1 : int array array;
  mutable dirty : bool;
  cum : int array option array;
}

let rec collect_sig target acc (ty : Ty.t) =
  match ty with
  | Ty.Res { kind; _ } -> { acc with resources = kind :: acc.resources }
  | Ty.Flags name -> { acc with flagsets = name :: acc.flagsets }
  | Ty.Vma -> { acc with has_vma = true }
  | Ty.Buffer _ -> { acc with has_buffer = true }
  | Ty.Ptr { elem; _ } -> collect_sig target acc elem
  | Ty.Array { elem; _ } -> collect_sig target acc elem
  | Ty.Struct_ref name ->
    List.fold_left
      (fun acc (f : Field.t) -> collect_sig target acc f.Field.fty)
      acc
      (Target.struct_fields target name)
  | Ty.Union_ref name ->
    List.fold_left
      (fun acc (f : Field.t) -> collect_sig target acc f.Field.fty)
      acc
      (Target.union_fields target name)
  | Ty.Int _ | Ty.Const _ | Ty.Len _ | Ty.Proc _ | Ty.Str _ | Ty.Filename _ ->
    acc

let signature_of target (c : Syscall.t) =
  let base =
    { resources = (match c.Syscall.ret with Some r -> [ r ] | None -> []);
      flagsets = []; has_vma = false; has_buffer = false }
  in
  let s =
    List.fold_left
      (fun acc (f : Field.t) -> collect_sig target acc f.Field.fty)
      base c.Syscall.args
  in
  {
    s with
    resources = List.sort_uniq String.compare s.resources;
    flagsets = List.sort_uniq String.compare s.flagsets;
  }

let common_count xs ys = List.length (List.filter (fun x -> List.mem x ys) xs)

let raw_p0 si sj =
  (10 * if si.resources <> [] && sj.resources <> [] then 1 else 0)
  + (5 * if si.has_vma && sj.has_vma then 1 else 0)
  + (2 * if common_count si.flagsets sj.flagsets > 0 then 1 else 0)
  + (1 * if si.has_buffer && sj.has_buffer then 1 else 0)

let normalize raw =
  let n = Array.length raw in
  let vmax = Array.fold_left (fun m row -> Array.fold_left max m row) 0 raw in
  let out = Array.make_matrix n n 10 in
  if vmax > 0 then
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        out.(i).(j) <- 10 + (raw.(i).(j) * 990 / vmax)
      done
    done;
  out

let create target =
  let calls = Target.syscalls target in
  let n = Array.length calls in
  let sigs = Array.map (signature_of target) calls in
  let raw = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then raw.(i).(j) <- raw_p0 sigs.(i) sigs.(j)
    done
  done;
  {
    n;
    p0 = normalize raw;
    p1_raw = Array.make_matrix n n 0;
    p1 = Array.make_matrix n n 10;
    dirty = false;
    cum = Array.make n None;
  }

let note_corpus_program t (p : Prog.t) =
  for k = 0 to Prog.length p - 2 do
    let i = (Prog.call p k).Prog.syscall.Syscall.id in
    let j = (Prog.call p (k + 1)).Prog.syscall.Syscall.id in
    if i < t.n && j < t.n then t.p1_raw.(i).(j) <- t.p1_raw.(i).(j) + 1
  done;
  t.dirty <- true

let refresh t =
  if t.dirty then begin
    t.p1 <- normalize t.p1_raw;
    Array.fill t.cum 0 t.n None;
    t.dirty <- false
  end

let weight t i j =
  refresh t;
  t.p0.(i).(j) * t.p1.(i).(j) / 1000

let cum_row t b =
  match t.cum.(b) with
  | Some row -> row
  | None ->
    let row = Array.make t.n 0 in
    let p0b = t.p0.(b) and p1b = t.p1.(b) in
    let acc = ref 0 in
    for j = 0 to t.n - 1 do
      acc := !acc + max 1 (p0b.(j) * p1b.(j) / 1000);
      row.(j) <- !acc
    done;
    t.cum.(b) <- Some row;
    row

let select rng t ~bias =
  match bias with
  | None -> Rng.int rng t.n
  | Some b when b < 0 || b >= t.n -> Rng.int rng t.n
  | Some b ->
    refresh t;
    let row = cum_row t b in
    let target = Rng.int rng row.(t.n - 1) in
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if row.(mid) > target then hi := mid else lo := mid + 1
    done;
    !lo
