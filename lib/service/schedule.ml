type mode = Barrier | Async

(* A worker that dies deterministically would otherwise respawn
   forever; cap recoveries per shard per epoch and give up loudly. *)
let max_respawns_per_epoch = 8

(* What the schedule knows of one shard and of the worker serving it. *)
type worker = {
  mutable next : int;  (* the epoch this shard runs next *)
  mutable busy : bool;  (* the frame for [next] is out, no delta yet *)
  mutable holds : int option;  (* the front its worker holds; None: empty *)
  mutable base : Shard_state.t;  (* that front *)
  mutable sent : int;  (* frames sent to this worker: its view's version *)
  mutable budget : int;  (* deaths left before giving up on this epoch *)
}

type frame = { shard : int; epoch : int; version : int; diff : string }

type t = {
  target : Healer_syzlang.Target.t;
  lag : int;  (* epoch [e] waits for front [e - lag] *)
  until : int;
  workers : worker array;
  mutable ck : Checkpoint.t;
      (* [state] is front [completed - 1] and [prev] front
         [completed - 2]: the only two any dispatch can target. *)
  mutable round : Shard_state.delta list;  (* deltas of epoch [completed] *)
  mutable ahead : Shard_state.delta list;  (* deltas of epoch [completed + 1] *)
  mutable diffs : ((int option * int) * string) list;
      (* encoded diffs keyed by (front held, front due) *)
  mutable closed : Checkpoint.t list;  (* newest first *)
}

let create ~mode (ck : Checkpoint.t) ~until =
  let target = Healer_kernel.Kernel.target () in
  let fresh _ =
    {
      next = ck.completed;
      busy = false;
      holds = None;
      base = Shard_state.of_target target;
      sent = 0;
      budget = max_respawns_per_epoch;
    }
  in
  {
    target;
    lag = (match mode with Async -> 2 | Barrier -> 1);
    until;
    workers = Array.init ck.config.jobs fresh;
    ck;
    round = [];
    ahead = [];
    diffs = [];
    closed = [];
  }

let front t k =
  if k = t.ck.completed - 1 then t.ck.state
  else if k = t.ck.completed - 2 then t.ck.prev
  else invalid_arg "Schedule: front not retained"

let finished t = t.ck.completed >= t.until
let checkpoint t = t.ck

let closed t =
  let l = List.rev t.closed in
  t.closed <- [];
  l

(* In steady state every shard holds the same previous front, so the
   diff between consecutive fronts is encoded once, not once per
   shard. A respawned worker holds the empty state and gets a wider
   diff under its own key. *)
let diff_for t w k =
  let key = (w.holds, k) in
  match List.assoc_opt key t.diffs with
  | Some d -> d
  | None ->
    let d =
      Shard_state.to_string (Shard_state.diff ~since:w.base (front t k))
    in
    t.diffs <- (key, d) :: t.diffs;
    d

let due t =
  let frames = ref [] in
  Array.iteri
    (fun shard w ->
      let e = w.next in
      if (not w.busy) && e < t.until && e - t.lag < t.ck.completed then begin
        let diff = diff_for t w (e - 2) in
        frames := { shard; epoch = e; version = w.sent; diff } :: !frames;
        w.sent <- w.sent + 1;
        w.holds <- Some (e - 2);
        w.base <- front t (e - 2);
        w.busy <- true
      end)
    t.workers;
  if (not (finished t)) && not (Array.exists (fun w -> w.busy) t.workers) then
    failwith "Schedule: stalled";
  List.rev !frames

(* Fold round [completed] the moment its last delta lands. A shard
   that delivered epoch [completed + 1] delivered [completed] first,
   so the next round is never already full: [ahead] becomes it. *)
let close_front t =
  if List.length t.round = Array.length t.workers then begin
    let k = t.ck.completed in
    let state =
      List.fold_left Shard_state.apply t.ck.state (List.rev t.round)
    in
    t.ck <- { t.ck with completed = k + 1; state; prev = t.ck.state };
    t.closed <- t.ck :: t.closed;
    t.round <- t.ahead;
    t.ahead <- [];
    t.diffs <- List.filter (fun ((_, due), _) -> due >= k - 1) t.diffs
  end

let deliver t ~shard payload =
  let w = t.workers.(shard) in
  match Shard_state.delta_of_string t.target payload with
  | (d : Shard_state.delta)
    when w.busy && d.shard = shard && d.epoch = w.next ->
    if d.epoch = t.ck.completed then t.round <- d :: t.round
    else t.ahead <- d :: t.ahead;
    w.next <- w.next + 1;
    w.busy <- false;
    w.budget <- max_respawns_per_epoch;
    close_front t;
    true
  | _ -> false
  | exception Healer_util.Codec.Malformed _ -> false

let died t ~shard =
  let w = t.workers.(shard) in
  w.budget <- w.budget - 1;
  if w.budget < 0 then
    failwith
      (Printf.sprintf "shard %d died %d times in one epoch; giving up" shard
         max_respawns_per_epoch);
  w.busy <- false;
  w.holds <- None;
  w.base <- Shard_state.of_target t.target;
  w.sent <- 0
