module Rng = Healer_util.Rng
module Target = Healer_syzlang.Target
module Prog = Healer_executor.Prog

let mutate_args rng target (p : Prog.t) =
  if Prog.length p = 0 then p
  else begin
    let k = Rng.int rng (Prog.length p) in
    let c = Prog.call p k in
    let ctx = { Value_gen.target; producers = Builder.producers_for p ~upto:k } in
    let args = Value_gen.mutate_args rng ctx c.Prog.syscall c.Prog.args in
    let calls = Array.copy p.Prog.calls in
    calls.(k) <- { c with Prog.args };
    { Prog.calls }
  end

let insert_one_b rng target ~select b =
  if Prog.Builder.length b < Builder.max_prog_len then begin
    let at = Rng.int rng (Prog.Builder.length b + 1) in
    let sub = Gen.syscall_ids_b b ~upto:at in
    let id = select ~sub in
    Builder.insert_call_b rng target b ~at (Target.syscall target id)
  end

let insert_guided rng target ~select p =
  if Prog.length p >= Builder.max_prog_len then mutate_args rng target p
  else begin
    (* One builder serves both insertions (and their producer chains):
       a single copy in, a single program out. *)
    let n = if Rng.chance rng 0.4 then 2 else 1 in
    let b = Prog.Builder.of_prog p in
    for _ = 1 to n do
      insert_one_b rng target ~select b
    done;
    Prog.Builder.to_prog b
  end

let remove_random rng (p : Prog.t) =
  if Prog.length p <= 1 then p else Prog.remove p (Rng.int rng (Prog.length p))

let mutate rng target ~select p =
  if Prog.length p = 0 then p
  else begin
    let p' =
      match Rng.weighted rng [ (`Insert, 60); (`Args, 30); (`Remove, 10) ] with
      | `Insert -> insert_guided rng target ~select p
      | `Args -> mutate_args rng target p
      | `Remove -> remove_random rng p
    in
    Healer_executor.Progcheck.debug_check ~what:"Mutate.mutate" target p';
    p'
  end
