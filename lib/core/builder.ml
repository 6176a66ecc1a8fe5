module Rng = Healer_util.Rng
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Prog = Healer_executor.Prog

let max_prog_len = 32

(* All assembly runs on a {!Prog.Builder.t}: producer-chain insertion
   adds one call at a time, which on the immutable program costs a
   full copy per call. The [Prog.t] entry points below wrap a builder
   around the same logic (identical Rng draw sequence, so guided
   generation is reproducible across both forms). *)

(* The one producer scan, over calls [0 .. n-1] of either program
   form: one compile-time mask read per call. *)
let producers_in target ~call ~n kind =
  let mask = Target.producer_mask target kind in
  let acc = ref [] in
  for k = n - 1 downto 0 do
    if mask.((call k).Prog.syscall.Syscall.id) then acc := k :: !acc
  done;
  !acc

let producers_for target p ~upto kind =
  producers_in target ~call:(Prog.call p) ~n:(min upto (Prog.length p)) kind

let producers_for_b target b ~upto kind =
  producers_in target ~call:(Prog.Builder.call b)
    ~n:(min upto (Prog.Builder.length b)) kind

let make_call_b rng target b ~at (call : Syscall.t) =
  let ctx =
    { Value_gen.target; producers = (fun kind -> producers_for_b target b ~upto:at kind) }
  in
  { Prog.syscall = call; args = Value_gen.gen_args rng ctx call }

let make_call rng target p ~at (call : Syscall.t) =
  let ctx =
    { Value_gen.target; producers = (fun kind -> producers_for target p ~upto:at kind) }
  in
  { Prog.syscall = call; args = Value_gen.gen_args rng ctx call }

(* Insert producers for the consumed kinds of [call] that have no
   compatible producer before [at]; returns the position where [call]
   itself should now go. *)
let rec ensure_producers_b rng target b ~at ~depth (call : Syscall.t) =
  if depth <= 0 || Prog.Builder.length b >= max_prog_len then at
  else
    List.fold_left
      (fun at kind ->
        if Prog.Builder.length b >= max_prog_len then at
        else if producers_for_b target b ~upto:at kind <> [] then at
        else
          match Target.producers_of target kind with
          | [] -> at
          | cands ->
            let producer = Rng.pick rng cands in
            if producer.Syscall.id = call.Syscall.id then at
            else begin
              let at' =
                ensure_producers_b rng target b ~at ~depth:(depth - 1) producer
              in
              if Prog.Builder.length b >= max_prog_len then at'
              else begin
                let pc = make_call_b rng target b ~at:at' producer in
                Prog.Builder.insert b at' pc;
                at' + 1
              end
            end)
      at (Target.consumes target call)

let insert_call_b rng target b ~at (call : Syscall.t) =
  let at = min at (Prog.Builder.length b) in
  let at = ensure_producers_b rng target b ~at ~depth:3 call in
  if Prog.Builder.length b < max_prog_len then
    let c = make_call_b rng target b ~at call in
    Prog.Builder.insert b at c

let append_call_b rng target b call =
  insert_call_b rng target b ~at:(Prog.Builder.length b) call

let insert_call rng target p ~at (call : Syscall.t) =
  let b = Prog.Builder.of_prog p in
  insert_call_b rng target b ~at call;
  Prog.Builder.to_prog b

let append_call rng target p call = insert_call rng target p ~at:(Prog.length p) call
