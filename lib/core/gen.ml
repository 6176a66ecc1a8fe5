module Rng = Healer_util.Rng
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Prog = Healer_executor.Prog

let syscall_ids p ~upto =
  List.init (min upto (Prog.length p)) (fun k ->
      (Prog.call p k).Prog.syscall.Syscall.id)

let syscall_ids_b b ~upto =
  List.init (min upto (Prog.Builder.length b)) (fun k ->
      (Prog.Builder.call b k).Prog.syscall.Syscall.id)

let seed_pair_b rng target b =
  let resources = Target.resources target in
  if Array.length resources > 0 then begin
    let r = Rng.pick_arr rng resources in
    if Array.length r.producers > 0 && Array.length r.consumers > 0 then begin
      let producer = Rng.pick_arr rng r.producers in
      let consumer = Rng.pick_arr rng r.consumers in
      Builder.append_call_b rng target b producer;
      Builder.append_call_b rng target b consumer
    end
  end

(* The whole generation runs on one builder: the seed pair, its
   producer chains and every refinement insertion cost amortized
   slots; a program is materialized once at the end. *)
let generate rng target ~select () =
  let b = Prog.Builder.create () in
  seed_pair_b rng target b;
  (if Prog.Builder.length b = 0 then
     (* Degenerate target with no usable resource pair: start from a
        single random call. *)
     let calls = Target.syscalls target in
     let c = calls.(Rng.int rng (Array.length calls)) in
     Builder.append_call_b rng target b c);
  (* Refinement: a few rounds of guided insertion. *)
  let rounds = Rng.int_in rng 2 6 in
  for _ = 1 to rounds do
    if Prog.Builder.length b < Builder.max_prog_len then begin
      let at = Rng.int rng (Prog.Builder.length b + 1) in
      let sub = syscall_ids_b b ~upto:at in
      let id = select ~sub in
      let call = Target.syscall target id in
      Builder.insert_call_b rng target b ~at call
    end
  done;
  let p = Prog.Builder.to_prog b in
  Healer_executor.Progcheck.debug_check ~what:"Gen.generate" target p;
  p
