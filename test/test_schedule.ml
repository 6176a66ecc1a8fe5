(* The coordinator's schedule, driven by a seeded in-memory transport.

   Each seed picks a mode, 2-3 shards and 3-4 epochs, then plays one
   schedule: deliveries interleave across shards in a random order,
   workers are killed before and after they answer, frames are cut
   short in either direction, a worker is handed a stale frame, and
   the campaign may stop at a closed front and resume from its
   checkpoint's bytes with fresh workers. Every front must equal the
   in-process oracle's ([Coordinator.run ~forked:false]). Workers run
   the same three steps as the forked child ([Worker.absorb],
   [run_epoch], [reply]); [run_epoch] is memoized per (shard, epoch),
   and the memo fails if a shard's epoch is ever seeded from two
   different bases.

   Frames are never bit-flipped: the frame format has no checksum and
   pipes do not flip bits, so a flip that still decodes would be
   folded as data.

   Fault-free schedules also run in virtual time, where a shard's
   slice takes a fixed number of ticks: pipelined dispatch is never
   slower or idler than lockstep, and is strictly better when one
   shard per epoch straggles. *)

module S = Healer_service
module Sched = S.Schedule
open Helpers

let max_epochs = 4

let config ~jobs ~epochs =
  {
    S.Checkpoint.tool = Healer_core.Fuzzer.Healer;
    version = K.Version.V5_11;
    jobs;
    base_seed = 7;
    epochs;
    slice = 10.0;
  }

(* The oracle's front digests F(0) .. F(max_epochs - 1), per width.
   Fronts do not depend on the planned epoch count. *)
let oracle_fronts =
  let memo = Hashtbl.create 2 in
  fun ~jobs ->
    match Hashtbl.find_opt memo jobs with
    | Some f -> f
    | None ->
      let acc = ref [] in
      ignore
        (S.Coordinator.run ~forked:false
           ~on_epoch:(fun p ->
             acc := S.Shard_state.digest p.S.Coordinator.state :: !acc)
           (S.Coordinator.initial (config ~jobs ~epochs:max_epochs)));
      let f = Array.of_list (List.rev !acc) in
      Hashtbl.add memo jobs f;
      f

let check_front ~what ~jobs (ck : S.Checkpoint.t) =
  let k = ck.S.Checkpoint.completed - 1 in
  Alcotest.(check string)
    (Printf.sprintf "%s: front %d" what k)
    (oracle_fronts ~jobs).(k)
    (S.Shard_state.digest ck.S.Checkpoint.state)

let run_epoch =
  let memo = Hashtbl.create 32 in
  fun (cfg : S.Checkpoint.config) ~shard ~epoch base ->
    let key = (cfg.S.Checkpoint.jobs, shard, epoch) in
    let b = S.Shard_state.to_string base in
    match Hashtbl.find_opt memo key with
    | Some (b', d) ->
      if not (String.equal b b') then
        Alcotest.failf "shard %d of %d, epoch %d: seeded from two bases" shard
          cfg.S.Checkpoint.jobs epoch;
      d
    | None ->
      let d = S.Worker.run_epoch cfg ~shard ~epoch base in
      Hashtbl.add memo key (b, d);
      d

let payload (f : Sched.frame) =
  let buf = Buffer.create 256 in
  S.Shard_state.put_epoch buf ~epoch:f.Sched.epoch ~version:f.Sched.version
    f.Sched.diff;
  Buffer.contents buf

(* One worker step on an [Epoch] payload: the grown view and the
   encoded [Delta], or [None] when the worker dies on the payload
   (as the forked child exits). *)
let answer cfg ~shard view p =
  match S.Worker.absorb view p with
  | epoch, view ->
    let d = run_epoch cfg ~shard ~epoch view.S.Worker.base in
    Some (view, S.Shard_state.delta_to_string (S.Worker.reply view d))
  | exception (S.Worker.Desync | Healer_util.Codec.Malformed _) -> None

(* ---- random schedules ---- *)

type worker = {
  mutable view : S.Worker.view;
  mutable inbox : string option;  (* an Epoch payload not yet absorbed *)
  mutable outbox : string option;  (* a Delta payload not yet delivered *)
}

type stats = {
  mutable kills_busy : int;  (* before the worker answered *)
  mutable kills_answered : int;  (* its delta in flight or delivered *)
  mutable cut_epoch : int;
  mutable cut_delta : int;
  mutable stale : int;
  mutable resumed : int;
}

let stats () =
  {
    kills_busy = 0;
    kills_answered = 0;
    cut_epoch = 0;
    cut_delta = 0;
    stale = 0;
    resumed = 0;
  }

(* Play [ck] to [until] (or to the front [stop]) under [rng]'s
   choices, with at most [faults] injected faults. Returns the last
   closed front. *)
let drive ~rng ~mode ~faults ~st ~stop ~until (ck : S.Checkpoint.t) =
  let cfg = ck.S.Checkpoint.config in
  let jobs = cfg.S.Checkpoint.jobs in
  let int n = Random.State.int rng n in
  let fault () = !faults > 0 && int 6 = 0 && (decr faults; true) in
  let cut p = String.sub p 0 (int (String.length p)) in
  let sched = Sched.create ~mode ck ~until in
  let fresh () = { view = S.Worker.fresh (); inbox = None; outbox = None } in
  let ws = Array.init jobs (fun _ -> fresh ()) in
  let sent = Array.make jobs [] in
  let replace shard =
    Sched.died sched ~shard;
    ws.(shard) <- fresh ()
  in
  let send (f : Sched.frame) =
    let shard = f.Sched.shard in
    let p = payload f in
    let stale = List.filter (fun q -> not (String.equal q p)) sent.(shard) in
    sent.(shard) <- p :: sent.(shard);
    let p =
      if not (fault ()) then p
      else if stale <> [] && Random.State.bool rng then (
        st.stale <- st.stale + 1;
        List.nth stale (int (List.length stale)))
      else (
        st.cut_epoch <- st.cut_epoch + 1;
        cut p)
    in
    ws.(shard).inbox <- Some p
  in
  let act () =
    let moves =
      List.concat
        (List.init jobs (fun shard ->
             let w = ws.(shard) in
             (if w.inbox <> None then [ `Answer shard ] else [])
             @ if w.outbox <> None then [ `Deliver shard ] else []))
    in
    if moves = [] then Alcotest.fail "no worker holds a frame: stalled";
    if fault () then begin
      let shard = int jobs in
      if ws.(shard).inbox <> None then st.kills_busy <- st.kills_busy + 1
      else st.kills_answered <- st.kills_answered + 1;
      replace shard
    end
    else
      match List.nth moves (int (List.length moves)) with
      | `Answer shard -> (
        let w = ws.(shard) in
        match answer cfg ~shard w.view (Option.get w.inbox) with
        | Some (view, reply) ->
          w.view <- view;
          w.inbox <- None;
          w.outbox <- Some reply
        | None -> replace shard)
      | `Deliver shard ->
        let reply = Option.get ws.(shard).outbox in
        ws.(shard).outbox <- None;
        let reply =
          if fault () then (
            st.cut_delta <- st.cut_delta + 1;
            cut reply)
          else reply
        in
        if not (Sched.deliver sched ~shard reply) then replace shard
  in
  let result = ref None in
  while !result = None do
    List.iter send (Sched.due sched);
    act ();
    List.iter
      (fun (ck : S.Checkpoint.t) ->
        check_front ~what:"closed" ~jobs ck;
        if Some ck.S.Checkpoint.completed = stop then result := Some ck)
      (Sched.closed sched);
    if Sched.finished sched then result := Some (Sched.checkpoint sched)
  done;
  Option.get !result

let schedule ~st seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let jobs = 2 + int 2 and epochs = 3 + int 2 in
  let mode = if Random.State.bool rng then Sched.Async else Sched.Barrier in
  let faults = ref (int 4) in
  let stop =
    if Random.State.bool rng then Some (1 + int (epochs - 1)) else None
  in
  let drive = drive ~rng ~mode ~faults ~st ~until:epochs in
  let ck = drive ~stop (S.Coordinator.initial (config ~jobs ~epochs)) in
  let ck =
    if ck.S.Checkpoint.completed = epochs then ck
    else begin
      st.resumed <- st.resumed + 1;
      let ck = S.Checkpoint.of_string (tgt ()) (S.Checkpoint.to_string ck) in
      drive ~stop:None ck
    end
  in
  Alcotest.(check int) (Printf.sprintf "seed %d: completed" seed) epochs
    ck.S.Checkpoint.completed

let n_schedules = 300

let test_schedules () =
  let st = stats () in
  for seed = 1 to n_schedules do
    schedule ~st seed
  done;
  (* The seeds must actually reach every fault this suite claims. *)
  List.iter
    (fun (what, n) ->
      if n < 10 then Alcotest.failf "%s happened only %d times" what n)
    [
      ("a kill before the answer", st.kills_busy);
      ("a kill after the answer", st.kills_answered);
      ("a cut epoch frame", st.cut_epoch);
      ("a cut delta frame", st.cut_delta);
      ("a stale epoch frame", st.stale);
      ("a resume", st.resumed);
    ]

(* A checkpoint that plans 2^40 epochs: the schedule holds two fronts
   and two rounds whatever the plan, so it resumes and closes fronts. *)
let test_resume_huge_plan () =
  let jobs = 2 in
  let ck =
    (S.Coordinator.run ~forked:false ~stop_after:1
       (S.Coordinator.initial (config ~jobs ~epochs:max_epochs)))
      .S.Coordinator.final
  in
  let ck =
    {
      ck with
      S.Checkpoint.config = { ck.S.Checkpoint.config with epochs = 1 lsl 40 };
    }
  in
  let ck = S.Checkpoint.of_string (tgt ()) (S.Checkpoint.to_string ck) in
  let ck =
    drive ~rng:(Random.State.make [| 40 |]) ~mode:Sched.Async ~faults:(ref 2)
      ~st:(stats ()) ~stop:(Some max_epochs) ~until:(1 lsl 40) ck
  in
  Alcotest.(check int) "fronts closed" max_epochs ck.S.Checkpoint.completed

(* ---- virtual time ---- *)

(* Fault-free, one shard's slice of epoch [e] takes [ticks shard e];
   each delta is delivered when its slice ends (ties to the lower
   shard). Makespan is when the last front closes; idle time sums, per
   dispatch, how long the shard had waited for it since its previous
   delta. *)
let timed ~mode ~jobs ~epochs ~ticks =
  let ck = S.Coordinator.initial (config ~jobs ~epochs) in
  let cfg = ck.S.Checkpoint.config in
  let sched = Sched.create ~mode ck ~until:epochs in
  let views = Array.init jobs (fun _ -> S.Worker.fresh ()) in
  let free_at = Array.make jobs 0 in
  let inflight = ref [] and now = ref 0 and idle = ref 0 in
  while not (Sched.finished sched) do
    List.iter
      (fun (f : Sched.frame) ->
        let shard = f.Sched.shard in
        idle := !idle + (!now - free_at.(shard));
        let view, reply =
          Option.get (answer cfg ~shard views.(shard) (payload f))
        in
        views.(shard) <- view;
        let t = !now + ticks shard f.Sched.epoch in
        inflight := (t, shard, reply) :: !inflight)
      (Sched.due sched);
    match List.sort compare !inflight with
    | [] -> Alcotest.fail "stalled"
    | (t, shard, reply) :: rest ->
      inflight := rest;
      now := t;
      free_at.(shard) <- t;
      if not (Sched.deliver sched ~shard reply) then
        Alcotest.fail "a fault-free delta was rejected";
      List.iter (check_front ~what:"timed" ~jobs) (Sched.closed sched)
  done;
  (!now, !idle)

(* (makespan, idle) of async, then of barrier. *)
let both ~jobs ~epochs ~ticks =
  let t mode = timed ~mode ~jobs ~epochs ~ticks in
  (t Sched.Async, t Sched.Barrier)

let test_async_never_slower () =
  for seed = 1 to 20 do
    let rng = Random.State.make [| seed |] in
    let int n = Random.State.int rng n in
    let jobs = 2 + int 2 and epochs = 3 + int 2 in
    let table = Array.init (jobs * epochs) (fun _ -> 1 + int 9) in
    let ticks s e = table.((s * epochs) + e) in
    let (am, ai), (bm, bi) = both ~jobs ~epochs ~ticks in
    if am > bm || ai > bi then
      Alcotest.failf "seed %d: async %d ticks, %d idle; barrier %d, %d" seed am
        ai bm bi
  done

(* One shard per epoch takes 4 ticks instead of 1, rotating: lockstep
   waits for it every epoch, the pipeline overlaps it. *)
let test_rotating_straggler () =
  let row jobs =
    let ticks s e = if (e + s) mod jobs = 0 then 4 else 1 in
    let (am, ai), (bm, bi) = both ~jobs ~epochs:4 ~ticks in
    [ am; ai; bm; bi ]
  in
  let what = "async makespan, idle; barrier makespan, idle" in
  Alcotest.(check (list int)) ("2 shards: " ^ what) [ 10; 0; 16; 9 ] (row 2);
  Alcotest.(check (list int)) ("3 shards: " ^ what) [ 10; 2; 16; 18 ] (row 3)

let suite =
  [
    case "seeded schedules == sequential oracle" test_schedules;
    case "resume a 2^40-epoch plan" test_resume_huge_plan;
    case "virtual time: async never slower" test_async_never_slower;
    case "virtual time: rotating straggler" test_rotating_straggler;
  ]
