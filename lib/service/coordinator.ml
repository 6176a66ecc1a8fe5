module Kernel = Healer_kernel.Kernel

let initial (config : Checkpoint.config) =
  let state = Shard_state.of_target (Kernel.target ()) in
  { Checkpoint.config; completed = 0; state; prev = state }

type mode = Barrier | Async

type progress = {
  epoch : int;
  epochs : int;
  state : Shard_state.t;
  respawns : int;
  bytes_sent : int;
  bytes_recv : int;
  bytes_full : int;
}

type outcome = {
  final : Checkpoint.t;
  respawns : int;
  bytes_sent : int;
  bytes_recv : int;
  frames_sent : int;
  frames_recv : int;
  bytes_full : int;
}

(* A worker connection: both pipe ends (with their reusable wire
   endpoints) plus the child pid. *)
type handle = {
  pid : int;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;
  ep_out : Wire.endpoint;
  ep_in : Wire.endpoint;
}

(* A worker that dies deterministically would otherwise respawn
   forever; cap recoveries per shard per epoch and give up loudly. *)
let max_respawns_per_epoch = 8

let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let spawn cfg handles ~shard =
  let to_w_r, to_w_w = Unix.pipe ~cloexec:false () in
  let from_w_r, from_w_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
    (* EOF-based death detection only works if no other process holds
       a duplicate of a worker's pipe ends, so the child drops every
       fd inherited from previously spawned siblings. *)
    Array.iter
      (fun h ->
        match h with
        | Some { to_w; from_w; _ } ->
          (try Unix.close to_w with Unix.Unix_error _ -> ());
          (try Unix.close from_w with Unix.Unix_error _ -> ())
        | None -> ())
      handles;
    Unix.close to_w_w;
    Unix.close from_w_r;
    (try Worker.serve cfg ~shard ~input:to_w_r ~output:from_w_w
     with _ -> Unix._exit 3)
  | pid ->
    Unix.close to_w_r;
    Unix.close from_w_w;
    {
      pid;
      to_w = to_w_w;
      from_w = from_w_r;
      ep_out = Wire.endpoint to_w_w;
      ep_in = Wire.endpoint from_w_r;
    }

let bury h =
  (try Unix.close h.to_w with Unix.Unix_error _ -> ());
  (try Unix.close h.from_w with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] h.pid) with Unix.Unix_error _ -> ()

let save_opt checkpoint_dir ck =
  match checkpoint_dir with
  | Some dir -> Checkpoint.save ~dir ck
  | None -> ()

(* The schedule every mode implements: epoch [e] of every shard is
   seeded with front [e-2] — the join of all shards' deltas through
   epoch [e-2] (plus the campaign's initial state). The lag of one
   extra epoch is what makes the schedule {e pipelined}: a shard can
   start slice [e] as soon as the [e-2] front closes, without waiting
   for the other shards' [e-1] deltas. Because the seeding inputs are
   a deterministic function of (config, shard, epoch) — never of
   arrival timing — barrier (lockstep) and async (overlapped)
   execution produce byte-identical deltas, and the CRDT fold makes
   every front, and therefore the final digest, mode-independent. *)
let run_forked ?checkpoint_dir ?on_epoch ?chaos ~mode ~measure_full
    (ck0 : Checkpoint.t) ~until =
  Lazy.force ignore_sigpipe;
  (* Initialize every lazy kernel registry before forking: children
     must never race to build shared tables they'd then diverge on. *)
  Kernel.force_init ();
  let target = Kernel.target () in
  let cfg = ck0.config in
  let jobs = cfg.jobs in
  let c0 = ck0.completed in
  let handles : handle option array = Array.make jobs None in
  let respawns = ref 0 in
  (* Wire counters, accumulated across respawned connections. *)
  let bytes_sent = ref 0 and bytes_recv = ref 0 in
  let frames_sent = ref 0 and frames_recv = ref 0 in
  let bytes_full = ref 0 in
  let retire h =
    bytes_sent := !bytes_sent + Wire.bytes_out h.ep_out;
    bytes_recv := !bytes_recv + Wire.bytes_in h.ep_in;
    frames_sent := !frames_sent + Wire.frames_out h.ep_out;
    frames_recv := !frames_recv + Wire.frames_in h.ep_in
  in
  let live_bytes () =
    Array.fold_left
      (fun (s, r) h ->
        match h with
        | Some h -> (s + Wire.bytes_out h.ep_out, r + Wire.bytes_in h.ep_in)
        | None -> (s, r))
      (!bytes_sent, !bytes_recv) handles
  in
  (* Completed fronts. [get_front k] is defined for k >= -2: epochs
     before the resume point come from the checkpoint's two stored
     fronts (both equal the initial state on a fresh campaign). *)
  let fronts : Shard_state.t option array = Array.make (max until 1) None in
  let front_hi = ref (c0 - 1) in
  let get_front k =
    if k <= c0 - 2 then ck0.prev
    else if k = c0 - 1 then ck0.state
    else
      match fronts.(k) with
      | Some s -> s
      | None -> invalid_arg "Coordinator: front not yet complete"
  in
  (* Per-epoch collection of worker deltas. *)
  let round : Shard_state.delta list array = Array.make (max until 1) [] in
  let arrived = Array.make (max until 1) 0 in
  (* Per-shard scheduling state. *)
  let next = Array.make jobs c0 in
  let dispatched = Array.make jobs false in
  let held = Array.make jobs (Shard_state.of_target target) in
  let held_tag = Array.make jobs (-1) in
  (* -1 = fresh worker, holds the empty state *)
  let ver = Array.make jobs 0 in
  let budget = Array.make jobs max_respawns_per_epoch in
  (* In steady state every shard holds the same previous front, so the
     diff between consecutive fronts is serialized once per front, not
     once per shard. *)
  let diff_cache : (int * int, string) Hashtbl.t = Hashtbl.create 64 in
  let diff_blob ~held_tag:tag ~base_state e =
    match Hashtbl.find_opt diff_cache (tag, e) with
    | Some blob -> blob
    | None ->
      let blob =
        Shard_state.to_string
          (Shard_state.diff ~since:base_state (get_front (e - 2)))
      in
      Hashtbl.replace diff_cache (tag, e) blob;
      blob
  in
  let full_bcast_cache : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let full_bcast_len e =
    match Hashtbl.find_opt full_bcast_cache e with
    | Some n -> n
    | None ->
      let n = String.length (Shard_state.to_string (get_front (e - 2))) + 8 in
      Hashtbl.replace full_bcast_cache e n;
      n
  in
  let get_handle shard =
    match handles.(shard) with Some h -> h | None -> assert false
  in
  let respawn ~shard =
    (match handles.(shard) with
    | Some h ->
      retire h;
      bury h
    | None -> ());
    handles.(shard) <- None;
    incr respawns;
    budget.(shard) <- budget.(shard) - 1;
    if budget.(shard) < 0 then
      failwith
        (Printf.sprintf "shard %d died %d times in one epoch; giving up" shard
           max_respawns_per_epoch);
    handles.(shard) <- Some (spawn cfg handles ~shard);
    held.(shard) <- Shard_state.of_target target;
    held_tag.(shard) <- -1;
    ver.(shard) <- 0;
    dispatched.(shard) <- false
  in
  let dependency_ready e =
    let dep = match mode with Async -> e - 2 | Barrier -> e - 1 in
    dep <= !front_hi
  in
  let rec dispatch shard =
    let e = next.(shard) in
    (* Computed per attempt: a respawned worker holds the empty state,
       so its diff is wider than the one the dead worker was owed. *)
    let blob = diff_blob ~held_tag:held_tag.(shard) ~base_state:held.(shard) e in
    let h = get_handle shard in
    match
      Wire.send h.ep_out Wire.Epoch (fun buf ->
          Shard_state.put_epoch buf ~epoch:e ~version:ver.(shard) blob)
    with
    | () ->
      ver.(shard) <- ver.(shard) + 1;
      held.(shard) <- get_front (e - 2);
      held_tag.(shard) <- e - 2;
      dispatched.(shard) <- true;
      if measure_full then bytes_full := !bytes_full + full_bcast_len e
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
      respawn ~shard;
      dispatch shard
  in
  let dispatch_wave () =
    for shard = 0 to jobs - 1 do
      if
        (not dispatched.(shard))
        && next.(shard) < until
        && dependency_ready next.(shard)
      then dispatch shard
    done
  in
  let ck = ref ck0 in
  let fire_progress k =
    match on_epoch with
    | Some f ->
      let s, r = live_bytes () in
      f
        {
          epoch = k;
          epochs = cfg.epochs;
          state = get_front k;
          respawns = !respawns;
          bytes_sent = s;
          bytes_recv = r;
          bytes_full = !bytes_full;
        }
    | None -> ()
  in
  (* Fold round [k] the moment it closes (all shards' deltas for epoch
     [k] arrived and front [k-1] exists): this is the merge cadence
     that advances the checkpoint. *)
  let advance_fronts () =
    while
      !front_hi + 1 < until
      && arrived.(!front_hi + 1) = jobs
      && !front_hi >= c0 - 1
    do
      let k = !front_hi + 1 in
      let f =
        List.fold_left Shard_state.apply (get_front (k - 1))
          (List.rev round.(k))
      in
      round.(k) <- [];
      fronts.(k) <- Some f;
      front_hi := k;
      ck :=
        {
          !ck with
          completed = k + 1;
          state = f;
          prev = get_front (k - 1);
        };
      save_opt checkpoint_dir !ck;
      fire_progress k
    done
  in
  let chaos_next = ref c0 in
  let fire_chaos () =
    match chaos with
    | Some f ->
      while !chaos_next <= !front_hi + 1 && !chaos_next < until do
        f ~epoch:!chaos_next
          (List.init jobs (fun shard -> (shard, (get_handle shard).pid)));
        incr chaos_next
      done
    | None -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (function
          | Some h ->
            (try Wire.send_frame h.to_w Wire.Quit ""
             with Unix.Unix_error _ | Sys_error _ -> ());
            retire h;
            bury h
          | None -> ())
        handles)
    (fun () ->
      for shard = 0 to jobs - 1 do
        handles.(shard) <- Some (spawn cfg handles ~shard)
      done;
      save_opt checkpoint_dir !ck;
      while !front_hi < until - 1 do
        dispatch_wave ();
        fire_chaos ();
        let fds =
          List.filter_map
            (fun shard ->
              if dispatched.(shard) then Some (get_handle shard).from_w
              else None)
            (List.init jobs Fun.id)
        in
        if fds = [] then failwith "Coordinator: scheduler stalled";
        let readable, _, _ =
          try Unix.select fds [] [] (-1.0)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun fd ->
            let shard =
              let found = ref (-1) in
              Array.iteri
                (fun i h ->
                  match h with
                  | Some h when h.from_w = fd -> found := i
                  | _ -> ())
                handles;
              !found
            in
            if shard >= 0 && dispatched.(shard) then
              let h = get_handle shard in
              match Wire.recv h.ep_in with
              | Wire.Delta, payload -> (
                match Shard_state.delta_of_string target payload with
                | d
                  when d.Shard_state.epoch = next.(shard)
                       && d.Shard_state.shard = shard ->
                  let e = d.Shard_state.epoch in
                  if measure_full then
                    bytes_full :=
                      !bytes_full
                      + String.length
                          (Shard_state.delta_to_string
                             {
                               d with
                               Shard_state.outcome =
                                 Shard_state.merge (get_front (e - 2))
                                   d.Shard_state.outcome;
                             });
                  round.(e) <- d :: round.(e);
                  arrived.(e) <- arrived.(e) + 1;
                  next.(shard) <- e + 1;
                  budget.(shard) <- max_respawns_per_epoch;
                  dispatched.(shard) <- false
                | _ -> respawn ~shard (* protocol desync *)
                | exception Healer_util.Codec.Malformed _ -> respawn ~shard)
              | (Wire.Epoch | Wire.Quit), _ -> respawn ~shard
              | exception (End_of_file | Healer_util.Codec.Malformed _) ->
                respawn ~shard)
          readable;
        advance_fronts ()
      done;
      let s, r = live_bytes () in
      bytes_sent := s;
      bytes_recv := r;
      {
        final = !ck;
        respawns = !respawns;
        bytes_sent = !bytes_sent;
        bytes_recv = !bytes_recv;
        frames_sent =
          Array.fold_left
            (fun acc h ->
              match h with
              | Some h -> acc + Wire.frames_out h.ep_out
              | None -> acc)
            !frames_sent handles;
        frames_recv =
          Array.fold_left
            (fun acc h ->
              match h with
              | Some h -> acc + Wire.frames_in h.ep_in
              | None -> acc)
            !frames_recv handles;
        bytes_full = !bytes_full;
      })

let run_sequential ?checkpoint_dir ?on_epoch (ck : Checkpoint.t) ~until =
  Kernel.force_init ();
  let cfg = ck.config in
  let ck = ref ck in
  save_opt checkpoint_dir !ck;
  while !ck.completed < until do
    let epoch = !ck.completed in
    (* Same schedule as the forked modes: every shard's slice is
       seeded with front [epoch - 2] (the checkpoint's [prev]), then
       the full outcomes fold into front [epoch - 1]. Folding a full
       outcome or its diff against [prev] is equivalent, because
       [prev] is contained in the fold base. *)
    let base = !ck.prev in
    let deltas =
      List.init cfg.jobs (fun shard ->
          Worker.run_epoch cfg ~shard ~epoch base)
    in
    let state = List.fold_left Shard_state.apply !ck.state deltas in
    ck := { !ck with completed = epoch + 1; state; prev = !ck.state };
    save_opt checkpoint_dir !ck;
    match on_epoch with
    | Some f ->
      f
        {
          epoch;
          epochs = cfg.epochs;
          state;
          respawns = 0;
          bytes_sent = 0;
          bytes_recv = 0;
          bytes_full = 0;
        }
    | None -> ()
  done;
  {
    final = !ck;
    respawns = 0;
    bytes_sent = 0;
    bytes_recv = 0;
    frames_sent = 0;
    frames_recv = 0;
    bytes_full = 0;
  }

let run ?(forked = true) ?(mode = Async) ?(measure_full = false)
    ?checkpoint_dir ?stop_after ?on_epoch ?chaos (ck : Checkpoint.t) =
  let until =
    match stop_after with
    | Some n -> min n ck.config.epochs
    | None -> ck.config.epochs
  in
  if forked then
    run_forked ?checkpoint_dir ?on_epoch ?chaos ~mode ~measure_full ck ~until
  else run_sequential ?checkpoint_dir ?on_epoch ck ~until
