module Rng = Healer_util.Rng
module Vclock = Healer_util.Vclock
module Target = Healer_syzlang.Target
module Prog = Healer_executor.Prog
module Exec = Healer_executor.Exec
module Pool = Healer_executor.Pool
module Kernel = Healer_kernel.Kernel

type tool = Healer | Healer_minus | Syzkaller | Moonshine

let tool_name = function
  | Healer -> "healer"
  | Healer_minus -> "healer-"
  | Syzkaller -> "syzkaller"
  | Moonshine -> "moonshine"

let all_tools = [ Healer; Healer_minus; Syzkaller; Moonshine ]

type costs = {
  exec_overhead : float;
  per_call : float;
  crash_reboot : float;
}

(* Calibrated so that HEALER's shared-state architecture (Section 5)
   executes programs ~1.5x faster than Syzkaller's RPC architecture
   (in-guest fuzzer, corpus synchronization over RPC, manager round
   trips). Together with relation-guided selection this reproduces the
   paper's coverage improvements and time-to-coverage speedups; HEALER-
   shares the cheap architecture but not the guidance, which is why it
   still loses to Syzkaller, as in Table 2. *)
let default_costs = function
  | Healer | Healer_minus ->
    { exec_overhead = 1.00; per_call = 0.05; crash_reboot = 60.0 }
  | Syzkaller | Moonshine ->
    { exec_overhead = 1.50; per_call = 0.05; crash_reboot = 60.0 }

type config = {
  tool : tool;
  version : Healer_kernel.Version.t;
  seed : int;
  vms : int;
  costs : costs option;
  gen_ratio : float;
  fault_rate : float;
  use_static_learning : bool;
  use_dynamic_learning : bool;
  fixed_alpha : float option;
  exec_cache : bool option;
}

let config ?(seed = 1) ?(vms = 2) ?costs ?(gen_ratio = 0.15) ?(fault_rate = 0.01)
    ?(use_static_learning = true) ?(use_dynamic_learning = true) ?fixed_alpha
    ?exec_cache ~tool ~version () =
  {
    tool;
    version;
    seed;
    vms;
    costs;
    gen_ratio;
    fault_rate;
    use_static_learning;
    use_dynamic_learning;
    fixed_alpha;
    exec_cache;
  }

(* Executor features per tool (Section 6.3: three bugs need USB
   emulation, which HEALER does not support; HEALER's executor supports
   fault injection). *)
let features_of = function
  | Healer | Healer_minus -> [ "fault_injection" ]
  | Syzkaller | Moonshine -> [ "usb" ]

type t = {
  cfg : config;
  tgt : Target.t;
  rng : Rng.t;
  clock : Vclock.t;
  pool : Pool.t;
  costs : costs;
  feedback : Feedback.t;
  corp : Corpus.t;
  mutable tri : Triage.t;
  rel : Relation_table.t option;
  choice : Choice_table.t option;
  alpha : Alpha.t;
  mutable n_execs : int;
  mutable used_table : bool;  (* any table-guided selection this test case *)
  mutable sample_acc : (float * int) list;
  mutable next_sample : float;
  mutable snapshots : (float * (int * int) list) list;
  mutable snapshot_due : float list;
  mutable crashes_found : (float * string) list;
  (* Adaptive generation: "when the gain from mutation decreases,
     HEALER will try to generate new system call sequences" (Section
     4.2). A decaying average of mutation success scales the
     generation probability between gen_ratio and 4 * gen_ratio. *)
  mutable mutation_gain : float;
}

let sample_period = 60.0

let rec take_samples t =
  if Vclock.now t.clock >= t.next_sample then begin
    t.sample_acc <- (t.next_sample, Feedback.coverage t.feedback) :: t.sample_acc;
    t.next_sample <- t.next_sample +. sample_period;
    take_samples t
  end

(* The virtual clock always charges full execution cost from the
   program shape alone — the prefix cache saves simulator wall-clock,
   never simulated kernel time, so campaign curves are identical with
   the cache on or off. *)
let charge t prog r =
  let dt =
    t.costs.exec_overhead
    +. (t.costs.per_call *. float_of_int (Prog.length prog))
    +. (match r.Exec.crash with Some _ -> t.costs.crash_reboot | None -> 0.0)
  in
  Vclock.advance t.clock dt;
  t.n_execs <- t.n_execs + 1;
  take_samples t;
  r

let exec_prog t ?fault_call prog = charge t prog (Pool.run t.pool ?fault_call prog)
let exec_plain t prog = exec_prog t prog

(* Probe executions (minimization, dynamic learning, triage
   reproducers) go through the pool's prefix cache. *)
let exec_probe t prog = charge t prog (Pool.run_probe t.pool prog)

let ingest t ?key seed =
  let r = exec_plain t seed in
  let new_cov = Feedback.process t.feedback r in
  if r.Exec.crash = None && Feedback.is_interesting new_cov then begin
    let total_new = Array.fold_left (fun a l -> a + List.length l) 0 new_cov in
    if Corpus.add ?key t.corp seed ~new_blocks:total_new then
      Option.iter (fun ct -> Choice_table.note_corpus_program ct seed) t.choice
  end

let create ?initial_relations ?(initial_seeds = []) cfg =
  let tgt = Kernel.target () in
  let rng = Rng.create cfg.seed in
  let clock = Vclock.create () in
  let pool =
    Pool.create ~features:(features_of cfg.tool) ?exec_cache:cfg.exec_cache
      ~version:cfg.version ~size:cfg.vms ()
  in
  let costs = match cfg.costs with Some c -> c | None -> default_costs cfg.tool in
  let rel =
    match cfg.tool with
    | Healer ->
      Some
        (if cfg.use_static_learning then Static_learning.initial_table tgt
         else Relation_table.create (Target.n_syscalls tgt))
    | Healer_minus | Syzkaller | Moonshine -> None
  in
  let choice =
    match cfg.tool with
    | Syzkaller | Moonshine -> Some (Choice_table.create tgt)
    | Healer | Healer_minus -> None
  in
  let t =
    {
      cfg;
      tgt;
      rng;
      clock;
      pool;
      costs;
      feedback = Feedback.create ();
      corp = Corpus.create tgt;
      tri = Triage.create ~exec:(fun _ -> assert false);
      rel;
      choice;
      alpha =
        Alpha.create
          ?init:cfg.fixed_alpha
          ~window:(if cfg.fixed_alpha = None then 1024 else max_int)
          ();
      n_execs = 0;
      used_table = false;
      sample_acc = [];
      next_sample = 0.0;
      snapshots = [];
      snapshot_due = [ 3600.0; 7200.0; 10800.0 ];
      crashes_found = [];
      mutation_gain = 0.5;
    }
  in
  t.tri <- Triage.create ~exec:(exec_probe t);
  (match (t.rel, initial_relations) with
  | Some table, Some saved -> ignore (Relation_table.merge_into ~dst:table saved)
  | _ -> ());
  (* Seed ingestion: Moonshine's distilled corpus, plus any caller
     provided programs (e.g. a corpus archive from a prior campaign). *)
  if cfg.tool = Moonshine then List.iter (ingest t) (Seeds.distilled tgt);
  List.iter (ingest t) initial_seeds;
  t

let rec last_opt = function
  | [] -> None
  | [ x ] -> Some x
  | _ :: tl -> last_opt tl

let select_fn t ~sub =
  match t.cfg.tool with
  | Healer -> (
    match t.rel with
    | Some table ->
      let o = Select.select t.rng table ~alpha:(Alpha.value t.alpha) ~sub in
      if o.Select.used_table then t.used_table <- true;
      o.Select.id
    | None -> Rng.int t.rng (Target.n_syscalls t.tgt))
  | Healer_minus -> Rng.int t.rng (Target.n_syscalls t.tgt)
  | Syzkaller | Moonshine -> (
    match t.choice with
    | Some ct -> Choice_table.select t.rng ct ~bias:(last_opt sub)
    | None -> Rng.int t.rng (Target.n_syscalls t.tgt))

let gen_probability t =
  (* Starved mutation (gain -> 0) quadruples the generation share;
     productive mutation keeps it near the configured base. *)
  min 0.9 (t.cfg.gen_ratio *. (1.0 +. (3.0 *. (1.0 -. t.mutation_gain))))

let build_test_case t =
  let select = select_fn t in
  if Corpus.is_empty t.corp || Rng.chance t.rng (gen_probability t) then
    (`Generated, Gen.generate t.rng t.tgt ~select ())
  else
    match Corpus.pick t.rng t.corp with
    | Some seed -> (`Mutated, Mutate.mutate t.rng t.tgt ~select seed)
    | None -> (`Generated, Gen.generate t.rng t.tgt ~select ())

let take_snapshots t =
  match (t.rel, t.snapshot_due) with
  | Some table, due :: rest when Vclock.now t.clock >= due ->
    t.snapshots <- (due, Relation_table.edges table) :: t.snapshots;
    t.snapshot_due <- rest
  | _ -> ()

let decay = 0.995

let note_mutation_outcome t origin ~interesting =
  match origin with
  | `Mutated ->
    let hit = if interesting then 1.0 else 0.0 in
    t.mutation_gain <- (decay *. t.mutation_gain) +. ((1.0 -. decay) *. hit)
  | `Generated -> ()

let step t =
  t.used_table <- false;
  let origin, prog = build_test_case t in
  if Prog.length prog > 0 then begin
    let fault_call =
      if
        t.cfg.fault_rate > 0.0
        && List.mem "fault_injection" (features_of t.cfg.tool)
        && Rng.chance t.rng t.cfg.fault_rate
      then Some (Rng.int t.rng (Prog.length prog))
      else None
    in
    let r = exec_prog t ?fault_call prog in
    (match r.Exec.crash with
    | Some report ->
      let vtime = Vclock.now t.clock in
      if Triage.on_crash t.tri ~vtime prog report then
        t.crashes_found <- (vtime, report.Healer_kernel.Crash.bug_key) :: t.crashes_found;
      ignore (Feedback.process t.feedback r)
    | None ->
      let new_cov = Feedback.process t.feedback r in
      let interesting = Feedback.is_interesting new_cov in
      if interesting then begin
        let pc = Prog_cov.of_run prog r ~new_cov in
        let minimized = Minimize.minimize ~target:t.tgt ~exec:(exec_probe t) pc in
        (match (t.cfg.tool, t.rel) with
        | Healer, Some table when t.cfg.use_dynamic_learning ->
          ignore (Dynamic_learning.learn ~exec:(exec_probe t) ~table minimized)
        | _ -> ());
        let total_new = Array.fold_left (fun a l -> a + List.length l) 0 new_cov in
        List.iter
          (fun (m : Prog_cov.t) ->
            (* A subsequence whose re-observation crashed (its final
               call never produced coverage) belongs to triage, not the
               corpus: mutating it would pay the reboot cost forever. *)
            let n = Prog_cov.length m in
            let completed = n > 0 && Prog_cov.call_cov m (n - 1) <> [] in
            if completed then
              if Corpus.add t.corp m.Prog_cov.prog ~new_blocks:total_new then
                Option.iter
                  (fun ct -> Choice_table.note_corpus_program ct m.Prog_cov.prog)
                  t.choice)
          minimized
      end;
      note_mutation_outcome t origin ~interesting;
      if t.cfg.tool = Healer then
        Alpha.record t.alpha ~used_table:t.used_table ~new_cov:interesting);
    take_snapshots t
  end

let run_until t until =
  while Vclock.now t.clock < until do
    step t
  done

let now t = Vclock.now t.clock
let coverage t = Feedback.coverage t.feedback
let coverage_set t = Feedback.seen t.feedback
let execs t = t.n_execs
let corpus t = t.corp
let triage t = t.tri
let relations t = t.rel

let relation_count t =
  match t.rel with Some r -> Relation_table.count r | None -> 0

let cache_stats t = Pool.cache_stats t.pool
let alpha_value t = Alpha.value t.alpha
let samples t = List.rev t.sample_acc
let relation_snapshots t = List.rev t.snapshots
let crash_log t = List.rev t.crashes_found
let target t = t.tgt

let coverage_by_region t =
  let counts = Hashtbl.create 32 in
  Healer_util.Bitset.iter
    (fun id ->
      let region = Healer_kernel.Coverage.region_name id in
      let cur = match Hashtbl.find_opt counts region with Some v -> v | None -> 0 in
      Hashtbl.replace counts region (cur + 1))
    (Feedback.seen t.feedback);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
