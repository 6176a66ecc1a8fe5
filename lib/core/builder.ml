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
   form: one read of the kind's compile-time mask per call, counted
   first so the result is allocated once at its size. *)
let producers_in ~call ~n (r : Target.resource) =
  let mask = r.mask in
  let count = ref 0 in
  for k = 0 to n - 1 do
    if mask.((call k).Prog.syscall.Syscall.id) then incr count
  done;
  if !count = 0 then [||]
  else begin
    let idxs = Array.make !count 0 in
    let j = ref 0 in
    for k = 0 to n - 1 do
      if mask.((call k).Prog.syscall.Syscall.id) then begin
        idxs.(!j) <- k;
        incr j
      end
    done;
    idxs
  end

let producers_for p ~upto r =
  producers_in ~call:(Prog.call p) ~n:(min upto (Prog.length p)) r

let producers_for_b b ~upto r =
  producers_in ~call:(Prog.Builder.call b) ~n:(min upto (Prog.Builder.length b)) r

let has_producer_b b ~upto (r : Target.resource) =
  let rec scan k =
    k >= 0 && (r.mask.((Prog.Builder.call b k).Prog.syscall.Syscall.id) || scan (k - 1))
  in
  scan (min upto (Prog.Builder.length b) - 1)

let make_call_b rng target b ~at (call : Syscall.t) =
  let ctx = { Value_gen.target; producers = producers_for_b b ~upto:at } in
  { Prog.syscall = call; args = Value_gen.gen_args rng ctx call }

let make_call rng target p ~at (call : Syscall.t) =
  let ctx = { Value_gen.target; producers = producers_for p ~upto:at } in
  { Prog.syscall = call; args = Value_gen.gen_args rng ctx call }

(* Insert producers for the consumed kinds of [call] that have no
   compatible producer before [at]; returns the position where [call]
   itself should now go. *)
let rec ensure_producers_b rng target b ~at ~depth (call : Syscall.t) =
  if depth <= 0 || Prog.Builder.length b >= max_prog_len then at
  else
    Array.fold_left
      (fun at (r : Target.resource) ->
        if Prog.Builder.length b >= max_prog_len then at
        else if has_producer_b b ~upto:at r then at
        else if Array.length r.producers = 0 then at
        else begin
          let producer = Rng.pick_arr rng r.producers in
          if producer.Syscall.id = call.Syscall.id then at
          else begin
            let at' = ensure_producers_b rng target b ~at ~depth:(depth - 1) producer in
            if Prog.Builder.length b >= max_prog_len then at'
            else begin
              let pc = make_call_b rng target b ~at:at' producer in
              Prog.Builder.insert b at' pc;
              at' + 1
            end
          end
        end)
      at (Target.consumed_resources target call)

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
