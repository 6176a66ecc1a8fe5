module Kernel = Healer_kernel.Kernel

let initial (config : Checkpoint.config) =
  let state = Shard_state.of_target (Kernel.target ()) in
  { Checkpoint.config; completed = 0; state; prev = state }

type mode = Schedule.mode = Barrier | Async

type progress = {
  epoch : int;
  epochs : int;
  state : Shard_state.t;
  respawns : int;
  bytes_sent : int;
  bytes_recv : int;
}

type outcome = {
  final : Checkpoint.t;
  respawns : int;
  bytes_sent : int;
  bytes_recv : int;
  frames_sent : int;
  frames_recv : int;
}

let progress (ck : Checkpoint.t) ~respawns ~bytes_sent ~bytes_recv =
  {
    epoch = ck.completed - 1;
    epochs = ck.config.epochs;
    state = ck.state;
    respawns;
    bytes_sent;
    bytes_recv;
  }

let save_opt checkpoint_dir ck =
  match checkpoint_dir with
  | Some dir -> Checkpoint.save ~dir ck
  | None -> ()

(* ---- the forked driver: processes and pipes around Schedule ---- *)

type handle = {
  pid : int;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;
  ep_out : Wire.endpoint;
  ep_in : Wire.endpoint;
}

(* The child process. It exits on anything it cannot absorb, and the
   coordinator sees EOF; [_exit] skips the parent's [at_exit]. *)
let serve cfg ~shard ~input ~output =
  let inp = Wire.endpoint input and out = Wire.endpoint output in
  let rec loop view =
    match Wire.recv inp with
    | Wire.Quit, _ -> Unix._exit 0
    | Wire.Delta, _ -> Unix._exit 3
    | Wire.Epoch, payload ->
      let epoch, view = Worker.absorb view payload in
      let d =
        Worker.reply view (Worker.run_epoch cfg ~shard ~epoch view.Worker.base)
      in
      Wire.send out Wire.Delta (fun buf -> Shard_state.put_delta buf d);
      loop view
  in
  try loop (Worker.fresh ()) with
  | End_of_file -> Unix._exit 0
  | _ -> Unix._exit 3

let spawn cfg handles ~shard =
  let to_w_r, to_w_w = Unix.pipe ~cloexec:false () in
  let from_w_r, from_w_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
    (* EOF-based death detection only works if no other process holds
       a duplicate of a worker's pipe ends, so the child drops every
       fd inherited from previously spawned siblings. *)
    Array.iter
      (function
        | Some { to_w; from_w; _ } ->
          (try Unix.close to_w with Unix.Unix_error _ -> ());
          (try Unix.close from_w with Unix.Unix_error _ -> ())
        | None -> ())
      handles;
    Unix.close to_w_w;
    Unix.close from_w_r;
    serve cfg ~shard ~input:to_w_r ~output:from_w_w
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

let run_forked ?checkpoint_dir ?on_epoch ?chaos ~mode (ck0 : Checkpoint.t)
    ~until =
  (* Initialize every lazy kernel registry before forking: children
     must never race to build shared tables they'd then diverge on. *)
  Kernel.force_init ();
  let jobs = ck0.config.jobs in
  let sched = Schedule.create ~mode ck0 ~until in
  let handles : handle option array = Array.make jobs None in
  let get shard = Option.get handles.(shard) in
  let respawns = ref 0 in
  (* Wire counters of closed connections; [totals] adds the live ones. *)
  let retired = ref (0, 0, 0, 0) in
  let count (bs, br, fs, fr) h =
    ( bs + Wire.bytes_out h.ep_out,
      br + Wire.bytes_in h.ep_in,
      fs + Wire.frames_out h.ep_out,
      fr + Wire.frames_in h.ep_in )
  in
  let totals () =
    Array.fold_left
      (fun acc h -> match h with Some h -> count acc h | None -> acc)
      !retired handles
  in
  let retire shard =
    let h = get shard in
    retired := count !retired h;
    (try Unix.close h.to_w with Unix.Unix_error _ -> ());
    (try Unix.close h.from_w with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] h.pid) with Unix.Unix_error _ -> ());
    handles.(shard) <- None
  in
  let replace shard =
    Schedule.died sched ~shard;
    incr respawns;
    retire shard;
    handles.(shard) <- Some (spawn ck0.config handles ~shard)
  in
  (* A failed send replaces the worker, and the next [due] re-issues
     its epoch with a full diff. *)
  let rec dispatch () =
    match Schedule.due sched with
    | [] -> ()
    | frames ->
      List.iter
        (fun (f : Schedule.frame) ->
          try
            Wire.send (get f.shard).ep_out Wire.Epoch (fun buf ->
                Shard_state.put_epoch buf ~epoch:f.epoch ~version:f.version
                  f.diff)
          with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
            replace f.shard)
        frames;
      dispatch ()
  in
  let receive shard =
    match Wire.recv (get shard).ep_in with
    | Wire.Delta, payload ->
      if not (Schedule.deliver sched ~shard payload) then replace shard
    | (Wire.Epoch | Wire.Quit), _ -> replace shard
    | exception (End_of_file | Healer_util.Codec.Malformed _) -> replace shard
  in
  let chaos_next = ref ck0.completed in
  let fire_chaos f =
    while
      !chaos_next <= (Schedule.checkpoint sched).completed
      && !chaos_next < until
    do
      f ~epoch:!chaos_next
        (List.init jobs (fun shard -> (shard, (get shard).pid)));
      incr chaos_next
    done
  in
  let on_closed ck =
    save_opt checkpoint_dir ck;
    Option.iter
      (fun f ->
        let bytes_sent, bytes_recv, _, _ = totals () in
        f (progress ck ~respawns:!respawns ~bytes_sent ~bytes_recv))
      on_epoch
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iteri
        (fun shard h ->
          Option.iter
            (fun h ->
              (try Wire.send_frame h.to_w Wire.Quit ""
               with Unix.Unix_error _ | Sys_error _ -> ());
              retire shard)
            h)
        handles)
    (fun () ->
      for shard = 0 to jobs - 1 do
        handles.(shard) <- Some (spawn ck0.config handles ~shard)
      done;
      save_opt checkpoint_dir ck0;
      while not (Schedule.finished sched) do
        dispatch ();
        Option.iter fire_chaos chaos;
        (* Idle workers are watched too: a death shows as EOF. *)
        let fds = List.init jobs (fun shard -> (get shard).from_w) in
        let readable, _, _ =
          try Unix.select fds [] [] (-1.0)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter receive
          (List.filter
             (fun shard -> List.mem (get shard).from_w readable)
             (List.init jobs Fun.id));
        List.iter on_closed (Schedule.closed sched)
      done;
      let bytes_sent, bytes_recv, frames_sent, frames_recv = totals () in
      {
        final = Schedule.checkpoint sched;
        respawns = !respawns;
        bytes_sent;
        bytes_recv;
        frames_sent;
        frames_recv;
      })

(* The independent oracle: every shard's slice of epoch [e] is computed
   in-process from front [e-2] (the checkpoint's [prev]), then the full
   outcomes fold into front [e-1]. Folding a full outcome or its diff
   against [prev] is equivalent, because [prev] is contained in the
   fold base. *)
let run_sequential ?checkpoint_dir ?on_epoch (ck : Checkpoint.t) ~until =
  Kernel.force_init ();
  let cfg = ck.config in
  let ck = ref ck in
  save_opt checkpoint_dir !ck;
  while !ck.completed < until do
    let epoch = !ck.completed in
    let base = !ck.prev in
    let deltas =
      List.init cfg.jobs (fun shard -> Worker.run_epoch cfg ~shard ~epoch base)
    in
    let state = List.fold_left Shard_state.apply !ck.state deltas in
    ck := { !ck with completed = epoch + 1; state; prev = !ck.state };
    save_opt checkpoint_dir !ck;
    Option.iter
      (fun f -> f (progress !ck ~respawns:0 ~bytes_sent:0 ~bytes_recv:0))
      on_epoch
  done;
  {
    final = !ck;
    respawns = 0;
    bytes_sent = 0;
    bytes_recv = 0;
    frames_sent = 0;
    frames_recv = 0;
  }

let run ?(forked = true) ?(mode = Async) ?checkpoint_dir ?stop_after ?on_epoch
    ?chaos (ck : Checkpoint.t) =
  let until =
    match stop_after with
    | Some n -> min n ck.config.epochs
    | None -> ck.config.epochs
  in
  if forked then begin
    (* A dead worker's pipe must raise EPIPE, not kill the coordinator.
       The caller's disposition comes back when the run ends, however
       it ends, so the caller's own writes to a closed pipe behave as
       they did before the run. *)
    let previous =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter (Sys.set_signal Sys.sigpipe) previous)
      (fun () -> run_forked ?checkpoint_dir ?on_epoch ?chaos ~mode ck ~until)
  end
  else run_sequential ?checkpoint_dir ?on_epoch ck ~until
