type t = {
  st : State.t;
  cov : Coverage.t;
  san : Sanitizer.config;
  features : string list;
  proc : int;
  mutable fault_pending : bool;
  mutable lock_held : Lock.cls list;
  mutable lock_trace : Lock.op list;
}

type result = { ret : int64; err : Errno.t option }

let make ?(features = []) ?(proc = 0) ~st ~san cov =
  {
    st;
    cov;
    san;
    features;
    proc;
    fault_pending = false;
    lock_held = [];
    lock_trace = [];
  }

(* Reset the per-call mutable fields so one context can serve every
   call of a run — the executor's steady-state path, which must not
   allocate a context per call. Equivalent to a fresh [make] with the
   same immutable fields. *)
let recycle ctx =
  ctx.fault_pending <- false;
  ctx.lock_held <- [];
  ctx.lock_trace <- []

let ok ret = { ret; err = None }
let ok0 = { ret = 0L; err = None }
let err e = { ret = Int64.of_int (-Errno.code e); err = Some e }

let cover ctx id = Coverage.hit ctx.cov id
let covern ctx base offs = List.iter (fun o -> Coverage.hit ctx.cov (base + o)) offs
let version ctx = State.version ctx.st
let has_feature ctx f = List.mem f ctx.features

let take_fault ctx =
  if ctx.fault_pending then begin
    ctx.fault_pending <- false;
    true
  end
  else false

let bug_fires ctx key =
  match Bug.find key with
  | None -> invalid_arg ("Ctx.bug: unknown bug key " ^ key)
  | Some b -> Bug.exists_in b (version ctx) && Sanitizer.detects ctx.san b.risk

let bug ctx key =
  if bug_fires ctx key then
    let b = Bug.find_exn key in
    raise (Crash.Crash { bug_key = key; risk = b.risk })

(* Top-level so the hot path allocates no closure per acquire. *)
let rec bump_pairs st held (c : Lock.cls) =
  match held with
  | [] -> ()
  | h :: rest ->
    State.bump_lock st (Lock.pair_counter h c);
    bump_pairs st rest c

let acquire ctx (c : Lock.cls) =
  if Lock.hooks_enabled () then begin
    bump_pairs ctx.st ctx.lock_held c;
    State.bump_lock ctx.st (Lock.acq_counter c);
    ctx.lock_held <- c :: ctx.lock_held;
    if Lock.validate_enabled () then
      ctx.lock_trace <- Lock.Acquire c.Lock.cname :: ctx.lock_trace
  end

let release ctx (c : Lock.cls) =
  if Lock.hooks_enabled () then begin
    (match ctx.lock_held with
    | h :: rest when h.Lock.id = c.Lock.id -> ctx.lock_held <- rest
    | held -> ctx.lock_held <- List.filter (fun h -> h.Lock.id <> c.Lock.id) held);
    if Lock.validate_enabled () then
      ctx.lock_trace <- Lock.Release c.Lock.cname :: ctx.lock_trace
  end

let with_lock ctx c f =
  acquire ctx c;
  Fun.protect ~finally:(fun () -> release ctx c) f

let lock_trace ctx = List.rev ctx.lock_trace
