(* Reproduction harness for every table and figure in the paper's
   evaluation (Section 6), plus micro-benchmarks and design ablations.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe fig4 table1     # selected sections
     dune exec bench/main.exe -- --json       # also write BENCH_results.json

   Environment:
     HEALER_BENCH_ROUNDS  rounds per experiment (default 5; paper: 10)
     HEALER_BENCH_HOURS   virtual hours per campaign (default 24)
     HEALER_BENCH_EXT     virtual hours of the extended per-version
                          campaign behind Table 5 (default 96)
     HEALER_BENCH_JOBS    worker domains for the campaign matrix
                          (default: Domain.recommended_domain_count)

   Each must be a positive number when set; anything else stops the
   bench with Invalid_argument before any section runs.

   The campaign matrix behind the requested sections is prefetched
   through a domain pool (Campaign.run_matrix); each campaign is a
   deterministic function of (tool, version, seed, hours), so stdout
   is byte-identical whatever HEALER_BENCH_JOBS is — prefetch progress
   goes to stderr.

   Absolute numbers differ from the paper (the kernel is a simulator on
   a virtual clock); the comparisons are the reproduction target. *)

module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module K = Healer_kernel
module Blob = Healer_util.Blob
open Healer_core

(* A positive number from the environment, or [default] when unset;
   anything else is rejected up front, like HEALER_BENCH_JOBS
   (Campaign.default_jobs). *)
let env_positive name ~what parse default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match parse (String.trim s) with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "%s must be a positive %s" name what))

let positive_int s =
  match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None

let positive_float s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x && x > 0.0 -> Some x
  | _ -> None

let rounds = env_positive "HEALER_BENCH_ROUNDS" ~what:"integer" positive_int 5
let hours = env_positive "HEALER_BENCH_HOURS" ~what:"number" positive_float 24.0
let ext_hours = env_positive "HEALER_BENCH_EXT" ~what:"number" positive_float 96.0

let versions = K.Version.evaluated
let tools = Fuzzer.all_tools

let section name =
  Fmt.pr "@.=====================================================@.";
  Fmt.pr "  %s@." name;
  Fmt.pr "=====================================================@."

(* ---- memoized campaign matrix ---- *)

let cache : (string, Campaign.run) Hashtbl.t = Hashtbl.create 64

let key tool version seed h =
  Printf.sprintf "%s/%s/%d/%.1f" (Fuzzer.tool_name tool)
    (K.Version.to_string version) seed h

let campaign ?(h = hours) tool version seed =
  let k = key tool version seed h in
  match Hashtbl.find_opt cache k with
  | Some r -> r
  | None ->
    let r = Campaign.run_one ~hours:h ~seed ~tool ~version () in
    Hashtbl.replace cache k r;
    r

let runs_of ?(h = hours) tool version =
  List.init rounds (fun i -> campaign ~h tool version (i + 1))

(* ---- parallel prefetch of the matrix ---- *)

(* Which tools each section's tables draw on; the version axis is
   always [versions] and the seed axis 1..rounds at [hours]. *)
let section_tools =
  [
    ("fig4", [ Fuzzer.Healer; Fuzzer.Syzkaller; Fuzzer.Moonshine ]);
    ("table1", [ Fuzzer.Healer; Fuzzer.Syzkaller; Fuzzer.Moonshine ]);
    ("table2", [ Fuzzer.Healer; Fuzzer.Healer_minus ]);
    ("table3", [ Fuzzer.Healer ]);
    ("fig5", [ Fuzzer.Healer ]);
    ("fig6", tools);
    ("table4", tools);
  ]

(* Stats for the JSON report. *)
let prefetch_stats : (int * int * float) option ref = ref None

let prefetch requested =
  let wanted =
    List.concat_map
      (fun name ->
        match List.assoc_opt name section_tools with
        | Some ts ->
          List.concat_map
            (fun tool ->
              List.concat_map
                (fun version ->
                  List.init rounds (fun i -> (tool, version, i + 1, hours)))
                versions)
            ts
        | None ->
          if name = "table5" then
            let ext_rounds = max 1 (rounds / 2) in
            List.concat_map
              (fun version ->
                List.init ext_rounds (fun i ->
                    (Fuzzer.Healer, version, i + 1, ext_hours)))
              K.Version.all
          else [])
      requested
  in
  let specs =
    List.filter
      (fun (t, v, s, h) -> not (Hashtbl.mem cache (key t v s h)))
      (List.sort_uniq compare wanted)
  in
  if specs <> [] then begin
    let jobs = Campaign.default_jobs () in
    Fmt.epr "prefetching %d campaigns on %d domains...@." (List.length specs) jobs;
    let t0 = Unix.gettimeofday () in
    let runs = Campaign.run_matrix ~jobs specs in
    let dt = Unix.gettimeofday () -. t0 in
    List.iter2
      (fun (t, v, s, h) r -> Hashtbl.replace cache (key t v s h) r)
      specs runs;
    Fmt.epr "prefetched in %.1fs@." dt;
    prefetch_stats := Some (List.length specs, jobs, dt)
  end

(* ---- Figure 4: coverage growth over 24 hours ---- *)

let fig4 () =
  section "Figure 4: branch coverage growth over the campaign";
  List.iter
    (fun version ->
      Fmt.pr "@.Linux %s (avg of %d rounds)@." (K.Version.to_string version) rounds;
      Fmt.pr "  %6s %10s %10s %10s@." "hour" "healer" "syzkaller" "moonshine";
      let series tool = Campaign.average_series (runs_of tool version) in
      let h_series = series Fuzzer.Healer in
      let s_series = series Fuzzer.Syzkaller in
      let m_series = series Fuzzer.Moonshine in
      let steps = int_of_float (hours /. 2.0) in
      let step_times =
        Array.init steps (fun i -> float_of_int (i + 1) *. 2.0 *. 3600.0)
      in
      (* One synchronized pass per series instead of a full rescan per
         row: both the series and the query times ascend. *)
      let sampled series =
        let out = Array.make steps 0.0 in
        let rec go i last series =
          if i < steps then
            match series with
            | (t', v) :: rest when t' <= step_times.(i) -> go i v rest
            | _ ->
              out.(i) <- last;
              go (i + 1) last series
        in
        go 0 0.0 series;
        out
      in
      let h_at = sampled h_series in
      let s_at = sampled s_series in
      let m_at = sampled m_series in
      for step = 1 to steps do
        let t = step_times.(step - 1) in
        Fmt.pr "  %6.0f %10.0f %10.0f %10.0f@." (t /. 3600.0)
          h_at.(step - 1) s_at.(step - 1) m_at.(step - 1)
      done;
      let arr series = Array.of_list (List.map snd series) in
      Fmt.pr "@.%s@."
        (Healer_util.Asciichart.render
           ~series:
             [ ("healer", arr h_series); ("syzkaller", arr s_series);
               ("moonshine", arr m_series) ]
           ()))
    versions

(* ---- Tables 1 and 2: improvement + speedup ---- *)

let comparison_row version ~subject ~base =
  let pairs =
    List.init rounds (fun i ->
        let seed = i + 1 in
        (campaign base version seed, campaign subject version seed))
  in
  let imprs = List.map (fun (b, s) -> Campaign.improvement_pct ~base:b s) pairs in
  let speedups = List.filter_map (fun (b, s) -> Campaign.speedup ~base:b s) pairs in
  (imprs, speedups)

let print_comparison title ~subject ~base =
  Fmt.pr "@.%s@." title;
  Fmt.pr "  %-8s %9s %9s %9s %9s@." "Version" "min-impr" "max-impr" "Average"
    "Speed-up";
  let all_imprs = ref [] and all_speedups = ref [] in
  List.iter
    (fun version ->
      let imprs, speedups = comparison_row version ~subject ~base in
      all_imprs := imprs @ !all_imprs;
      all_speedups := speedups @ !all_speedups;
      Fmt.pr "  %-8s %+8.0f%% %+8.0f%% %+8.0f%% %8s@."
        (K.Version.to_string version)
        (Healer_util.Statx.minimum imprs)
        (Healer_util.Statx.maximum imprs)
        (Healer_util.Statx.mean imprs)
        (if speedups = [] then "n/a"
         else Printf.sprintf "+%.1fx" (Healer_util.Statx.mean speedups)))
    versions;
  Fmt.pr "  %-8s %+8.0f%% %+8.0f%% %+8.0f%% %8s@." "Overall"
    (Healer_util.Statx.minimum !all_imprs)
    (Healer_util.Statx.maximum !all_imprs)
    (Healer_util.Statx.mean !all_imprs)
    (if !all_speedups = [] then "n/a"
     else Printf.sprintf "+%.1fx" (Healer_util.Statx.mean !all_speedups))

let table1 () =
  section "Table 1: branch coverage of HEALER vs Syzkaller / Moonshine";
  print_comparison "(a) HEALER vs. Syzkaller" ~subject:Fuzzer.Healer
    ~base:Fuzzer.Syzkaller;
  print_comparison "(b) HEALER vs. Moonshine" ~subject:Fuzzer.Healer
    ~base:Fuzzer.Moonshine

let table2 () =
  section "Table 2: HEALER vs HEALER- (relation learning ablation)";
  print_comparison "HEALER vs. HEALER-" ~subject:Fuzzer.Healer
    ~base:Fuzzer.Healer_minus

(* ---- Table 3: learned relation counts ---- *)

let table3 () =
  section "Table 3: HEALER's learned relations count";
  Fmt.pr "  %-8s %8s %8s %8s@." "Version" "Min" "Max" "Average";
  let overall = ref [] in
  List.iter
    (fun version ->
      let counts =
        List.map
          (fun (r : Campaign.run) -> float_of_int r.Campaign.relations)
          (runs_of Fuzzer.Healer version)
      in
      overall := counts @ !overall;
      Fmt.pr "  %-8s %8.0f %8.0f %8.0f@." (K.Version.to_string version)
        (Healer_util.Statx.minimum counts)
        (Healer_util.Statx.maximum counts)
        (Healer_util.Statx.mean counts))
    versions;
  Fmt.pr "  %-8s %8.0f %8.0f %8.0f@." "Overall"
    (Healer_util.Statx.minimum !overall)
    (Healer_util.Statx.maximum !overall)
    (Healer_util.Statx.mean !overall)

(* ---- Figure 5: relation graph evolution over the first 3 hours ---- *)

let fig5 () =
  section "Figure 5: evolution of the learned relations (first 3 hours)";
  let run = campaign Fuzzer.Healer K.Version.V5_11 1 in
  let target = K.Kernel.target () in
  let static = Static_learning.initial_table target in
  List.iter
    (fun (t, edges) ->
      let nodes =
        List.sort_uniq Int.compare (List.concat_map (fun (a, b) -> [ a; b ]) edges)
      in
      let dynamic =
        List.filter (fun (a, b) -> not (Relation_table.get static a b)) edges
      in
      let kvm_edges =
        List.filter
          (fun (a, b) ->
            K.Kernel.subsystem_of (Target.syscall target a).Syscall.name = "kvm"
            && K.Kernel.subsystem_of (Target.syscall target b).Syscall.name = "kvm")
          edges
      in
      Fmt.pr "@.t = %.0fh: %d relations, %d calls involved, %d learned dynamically@."
        (t /. 3600.0) (List.length edges) (List.length nodes) (List.length dynamic);
      Fmt.pr "  KVM subgraph (%d edges):@." (List.length kvm_edges);
      List.iter
        (fun (a, b) ->
          Fmt.pr "    %-34s -> %s@."
            (Target.syscall target a).Syscall.name
            (Target.syscall target b).Syscall.name)
        kvm_edges)
    run.Campaign.relation_snapshots

(* ---- Figure 6: minimized sequence length distribution ---- *)

let fig6 () =
  section "Figure 6: distribution of minimized sequence lengths in the corpus";
  let hist lengths =
    let total = max 1 (List.length lengths) in
    let bucket pred = float_of_int (List.length (List.filter pred lengths))
                      /. float_of_int total in
    [ bucket (fun l -> l = 1); bucket (fun l -> l = 2); bucket (fun l -> l = 3);
      bucket (fun l -> l = 4); bucket (fun l -> l >= 5) ]
  in
  Fmt.pr "  %-10s %8s | %6s %6s %6s %6s %6s | %7s %7s@." "tool" "corpus" "len1"
    "len2" "len3" "len4" "len5+" ">=3" ">=5";
  List.iter
    (fun tool ->
      let runs = List.concat_map (fun v -> runs_of tool v) versions in
      let lengths = List.concat_map (fun (r : Campaign.run) -> r.Campaign.corpus_lengths) runs in
      let sizes =
        Healer_util.Statx.mean
          (List.map (fun (r : Campaign.run) -> float_of_int r.Campaign.corpus_size) runs)
      in
      let h = hist lengths in
      let frac pred =
        float_of_int (List.length (List.filter pred lengths))
        /. float_of_int (max 1 (List.length lengths))
      in
      Fmt.pr "  %-10s %8.0f | %6.2f %6.2f %6.2f %6.2f %6.2f | %6.0f%% %6.0f%%@."
        (Fuzzer.tool_name tool) sizes (List.nth h 0) (List.nth h 1) (List.nth h 2)
        (List.nth h 3) (List.nth h 4)
        (100.0 *. frac (fun l -> l >= 3))
        (100.0 *. frac (fun l -> l >= 5)))
    tools

(* ---- Table 4 + Section 6.3: 24h bug detection ---- *)

let found_keys tool =
  List.concat_map
    (fun version ->
      List.concat_map
        (fun (r : Campaign.run) ->
          List.map (fun (c : Triage.record) -> c.Triage.bug_key) r.Campaign.crashes)
        (runs_of tool version))
    versions
  |> List.sort_uniq String.compare

let known_only keys =
  List.filter
    (fun k -> match K.Bug.find k with Some b -> b.K.Bug.known | None -> false)
    keys

let table4 () =
  section "Table 4 / Section 6.3: vulnerabilities in the 24h experiments";
  let per_tool = List.map (fun tool -> (tool, found_keys tool)) tools in
  Fmt.pr "@.Previously-known vulnerabilities found (paper: HEALER 32, Moonshine 20, Syzkaller 17, HEALER- 10):@.";
  List.iter
    (fun (tool, keys) ->
      Fmt.pr "  %-10s %d known (+%d previously unknown)@." (Fuzzer.tool_name tool)
        (List.length (known_only keys))
        (List.length keys - List.length (known_only keys)))
    per_tool;
  let healer_keys = List.assoc Fuzzer.Healer per_tool in
  let others =
    List.concat_map
      (fun tool -> if tool = Fuzzer.Healer then [] else List.assoc tool per_tool)
      tools
    |> List.sort_uniq String.compare
  in
  let missed_by_healer = List.filter (fun k -> not (List.mem k healer_keys)) others in
  Fmt.pr "@.Bugs found by baselines but not HEALER (paper: 3, all needing USB emulation):@.";
  List.iter
    (fun k ->
      let req =
        match K.Bug.find k with
        | Some { K.Bug.requires = Some f; _ } -> " [requires executor feature: " ^ f ^ "]"
        | _ -> ""
      in
      Fmt.pr "  %s%s@." k req)
    missed_by_healer;
  (* The Table 4 body: previously-known bugs only HEALER found, with
     the measured reproducer length. *)
  let healer_only =
    List.filter (fun k -> not (List.mem k others)) (known_only healer_keys)
  in
  Fmt.pr "@.Previously-known bugs found only by HEALER (paper's Table 4):@.";
  Fmt.pr "  %-48s %-8s %s@." "Vulnerability" "Version" "Length";
  List.iter
    (fun k ->
      let b = K.Bug.find_exn k in
      let lengths =
        List.concat_map
          (fun version ->
            List.filter_map
              (fun (r : Campaign.run) ->
                List.find_map
                  (fun (c : Triage.record) ->
                    if c.Triage.bug_key = k then Some c.Triage.repro_len else None)
                  r.Campaign.crashes)
              (runs_of Fuzzer.Healer version))
          versions
      in
      let length = match lengths with [] -> 0 | l -> List.fold_left min 99 l in
      Fmt.pr "  %-48s %-8s %d@." b.K.Bug.title
        (K.Version.to_string b.K.Bug.since)
        length)
    healer_only

(* ---- Table 5: the extended multi-version campaign ---- *)

let table5 () =
  section "Table 5: previously unknown vulnerabilities (extended campaign)";
  Fmt.pr "  (HEALER on every kernel version, %.0f virtual hours each)@.@."
    ext_hours;
  let ext_rounds = max 1 (rounds / 2) in
  let found =
    List.concat_map
      (fun version ->
        List.concat_map
          (fun seed ->
            let run = campaign ~h:ext_hours Fuzzer.Healer version seed in
            List.map (fun (c : Triage.record) -> c.Triage.bug_key) run.Campaign.crashes)
          (List.init ext_rounds (fun i -> i + 1)))
      K.Version.all
    |> List.sort_uniq String.compare
  in
  let unknown = K.Bug.unknown_bugs () in
  let hit = List.filter (fun (b : K.Bug.t) -> List.mem b.K.Bug.key found) unknown in
  Fmt.pr "  found %d of the %d previously-unknown vulnerabilities:@.@."
    (List.length hit) (List.length unknown);
  Fmt.pr "  %-10s %-58s %-26s %s@." "Subsystem" "Operations" "Risk" "Version";
  List.iter
    (fun (b : K.Bug.t) ->
      let mark = if List.mem b.K.Bug.key found then " " else "*" in
      Fmt.pr "  %-10s %-58s %-26s %-5s %s@." b.K.Bug.subsystem b.K.Bug.operations
        (K.Risk.to_string b.K.Bug.risk)
        (K.Version.to_string b.K.Bug.since)
        mark)
    unknown;
  Fmt.pr "@.  (* = not reproduced in this run)@.";
  (* Risk-class profile, Section 6.3. *)
  let risks = List.map (fun (b : K.Bug.t) -> b.K.Bug.risk) hit in
  let frac pred =
    100.0
    *. float_of_int (List.length (List.filter pred risks))
    /. float_of_int (max 1 (List.length risks))
  in
  Fmt.pr "@.  risk profile of found bugs: %.1f%% memory errors, %.1f%% concurrency, %.1f%% other@."
    (frac K.Risk.is_memory_error)
    (frac K.Risk.is_concurrency)
    (frac (fun r -> not (K.Risk.is_memory_error r || K.Risk.is_concurrency r)))

(* ---- ablations over the design decisions (DESIGN.md section 4) ---- *)

let ablation () =
  section "Ablations: alpha policy, static/dynamic learning";
  let run name cfg =
    let f = Fuzzer.create cfg in
    Fuzzer.run_until f (hours *. 3600.0);
    Fmt.pr "  %-34s coverage=%5d relations=%4d alpha=%.2f@." name
      (Fuzzer.coverage f) (Fuzzer.relation_count f) (Fuzzer.alpha_value f)
  in
  let base ?fixed_alpha ?(static = true) ?(dynamic = true) () =
    Fuzzer.config ~seed:1 ?fixed_alpha ~use_static_learning:static
      ~use_dynamic_learning:dynamic ~tool:Fuzzer.Healer ~version:K.Version.V5_11
      ()
  in
  run "adaptive alpha (paper)" (base ());
  List.iter
    (fun a -> run (Printf.sprintf "fixed alpha = %.1f" a) (base ~fixed_alpha:a ()))
    [ 0.0; 0.2; 0.5; 0.8; 1.0 ];
  run "no static learning" (base ~static:false ());
  run "no dynamic learning" (base ~dynamic:false ());
  run "no learning at all" (base ~static:false ~dynamic:false ())

(* ---- micro-benchmarks (bechamel) ---- *)

(* name -> ns/run, for the JSON report. *)
let micro_results : (string * float) list ref = ref []

(* Counters of the probe cache exercised by the cache-on rows (and the
   [cache] smoke section), for the JSON report. *)
let probe_cache_stats : (Healer_executor.Exec_cache.stats * float) option ref =
  ref None

let report_cache_stats cache =
  let s = Healer_executor.Exec_cache.stats cache in
  let rate = Healer_executor.Exec_cache.hit_rate cache in
  Fmt.pr "  %-26s %d hits / %d misses (%.0f%% hit rate), %d resumed, %d evictions@."
    "probe cache" s.Healer_executor.Exec_cache.hits
    s.Healer_executor.Exec_cache.misses (100.0 *. rate)
    s.Healer_executor.Exec_cache.resumed_calls
    s.Healer_executor.Exec_cache.evictions;
  probe_cache_stats := Some (s, rate)

let micro () =
  section "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let target = K.Kernel.target () in
  let kernel = K.Kernel.boot ~version:K.Version.V5_11 () in
  let rng = Healer_util.Rng.create 1 in
  let table = Static_learning.initial_table target in
  let sample_prog =
    Gen.generate rng target
      ~select:(fun ~sub:_ -> Healer_util.Rng.int rng (Target.n_syscalls target))
      ()
  in
  let encoded = Healer_executor.Serializer.encode sample_prog in
  let choice = Choice_table.create target in
  (* Steady-state fixtures for the hot-path benches: a long-lived
     collector, a run result already merged into the feedback bitmap,
     and its coverage traces. *)
  let bench_cov = K.Coverage.create () in
  let sample_run = snd (Healer_executor.Exec.run ~cov:bench_cov kernel sample_prog) in
  let feedback = Feedback.create () in
  ignore (Feedback.process feedback sample_run);
  let trace = Healer_executor.Exec.total_cov sample_run in
  let trace_shuffled = List.rev trace in
  let sample_pc =
    Prog_cov.of_run sample_prog sample_run
      ~new_cov:(Array.map (fun (c : Healer_executor.Exec.call_result) -> c.Healer_executor.Exec.cov) sample_run.Healer_executor.Exec.calls)
  in
  let min_exec p = snd (Healer_executor.Exec.run ~cov:bench_cov kernel p) in
  (* One long-lived cache, like the fuzzer's pool: successive probe
     sweeps over the same test case hit warm prefixes. *)
  let probe_cache = Healer_executor.Exec_cache.create ~version:K.Version.V5_11 () in
  let cached_exec p = Healer_executor.Exec_cache.run probe_cache ~cov:bench_cov p in
  let dlearn exec () =
    let t = Relation_table.create (Target.n_syscalls target) in
    ignore (Dynamic_learning.learn ~exec ~table:t [ sample_pc ])
  in
  (* A deterministic netlink round-trip — rtnetlink link bring-up, a
     generic-netlink family resolution and a queue drain — isolating
     the nlmsghdr/TLV parsing hot path. *)
  let netlink_prog =
    let module V = Healer_executor.Value in
    let nlcall name args =
      { Healer_executor.Prog.syscall = Target.find_exn target name; args }
    in
    let iv n = V.Int (Int64.of_int n) in
    let ifname = V.Group [ V.Group [ V.Group [ iv 8; iv 3; V.Str "eth0" ] ] ] in
    Healer_executor.Prog.of_list
      [
        nlcall "socket$nl_route" [ iv 16; iv 3; iv 0 ];
        nlcall "sendmsg$RTM_SETLINK"
          [
            V.Res_ref 0;
            V.Ptr
              (V.Group
                 [ iv 32; iv 19; iv 0; iv 0;
                   V.Group [ iv 0; iv 0; iv 0; iv 1; iv 1 ]; ifname ]);
            iv 0;
          ];
        nlcall "socket$nl_generic" [ iv 16; iv 3; iv 16 ];
        nlcall "sendmsg$GETFAMILY"
          [
            V.Res_ref 2;
            V.Ptr (V.Group [ iv 32; iv 3; iv 2; V.Str "devlink" ]);
            iv 0;
          ];
        nlcall "recvmsg$netlink" [ V.Res_ref 0; V.Buf (Blob.of_bytes (Bytes.make 64 'x')); iv 64; iv 0 ];
      ]
  in
  let tests =
    [
      Test.make ~name:"exec program"
        (Staged.stage (fun () ->
             ignore (Healer_executor.Exec.run ~cov:bench_cov kernel sample_prog)));
      Test.make ~name:"netlink exec"
        (Staged.stage (fun () ->
             ignore (Healer_executor.Exec.run ~cov:bench_cov kernel netlink_prog)));
      Test.make ~name:"feedback process"
        (Staged.stage (fun () -> ignore (Feedback.process feedback sample_run)));
      Test.make ~name:"bitset new_of"
        (Staged.stage (fun () ->
             ignore (Healer_util.Bitset.new_of (Feedback.seen feedback) trace)));
      Test.make ~name:"cov_equal"
        (Staged.stage (fun () ->
             ignore (Healer_executor.Exec.cov_equal trace trace_shuffled)));
      Test.make ~name:"minimize probe (cache off)"
        (Staged.stage (fun () ->
             ignore (Minimize.minimize ~exec:min_exec sample_pc)));
      Test.make ~name:"minimize probe (cache on)"
        (Staged.stage (fun () ->
             ignore (Minimize.minimize ~exec:cached_exec sample_pc)));
      Test.make ~name:"dlearn probe (cache off)" (Staged.stage (dlearn min_exec));
      Test.make ~name:"dlearn probe (cache on)" (Staged.stage (dlearn cached_exec));
      Test.make ~name:"serializer encode"
        (Staged.stage (fun () -> ignore (Healer_executor.Serializer.encode sample_prog)));
      Test.make ~name:"serializer decode"
        (Staged.stage (fun () ->
             ignore (Healer_executor.Serializer.decode target encoded)));
      Test.make ~name:"algorithm3 select"
        (Staged.stage (fun () ->
             ignore (Select.select rng table ~alpha:0.8 ~sub:[ 1; 2; 3; 4 ])));
      Test.make ~name:"choice table select"
        (Staged.stage (fun () ->
             ignore (Choice_table.select rng choice ~bias:(Some 3))));
      (* Validator overhead: identical generation workload with debug
         validation off (production) vs on (the dune-runtest mode). *)
      Test.make ~name:"generate (validate off)"
        (Staged.stage (fun () ->
             ignore
               (Gen.generate rng target
                  ~select:(fun ~sub:_ -> Healer_util.Rng.int rng (Target.n_syscalls target))
                  ())));
      Test.make ~name:"generate (validate on)"
        (Staged.stage (fun () ->
             Healer_executor.Progcheck.set_debug true;
             Fun.protect
               ~finally:(fun () -> Healer_executor.Progcheck.set_debug false)
               (fun () ->
                 ignore
                   (Gen.generate rng target
                      ~select:(fun ~sub:_ ->
                        Healer_util.Rng.int rng (Target.n_syscalls target))
                      ()))));
      Test.make ~name:"relation table set/get"
        (Staged.stage (fun () ->
             let t = Relation_table.create 64 in
             for i = 0 to 63 do
               ignore (Relation_table.set t i ((i + 7) mod 64))
             done));
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Fmt.pr "  %-26s %14s@." "benchmark" "ns/run";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            micro_results := (Test.Elt.name elt, est) :: !micro_results;
            Fmt.pr "  %-26s %14.0f@." (Test.Elt.name elt) est
          | _ -> Fmt.pr "  %-26s %14s@." (Test.Elt.name elt) "n/a")
        (Test.elements test))
    tests;
  micro_results := List.rev !micro_results;
  report_cache_stats probe_cache;
  (match
     ( List.assoc_opt "minimize probe (cache off)" !micro_results,
       List.assoc_opt "minimize probe (cache on)" !micro_results )
   with
  | Some off, Some on when on > 0.0 ->
    Fmt.pr "  %-26s %13.1fx@." "minimize cache speedup" (off /. on)
  | _ -> ())

(* ---- probe-cache smoke (cheap enough for every build) ---- *)

(* Two minimization sweeps over one interesting input through a shared
   cache: the second sweep's probes are warm, so hits/misses/resumes
   must all be non-trivial. Exercises the same code path as the
   cache-on micro rows without bechamel's sampling cost. *)
let cache_smoke () =
  section "Probe cache (prefix-caching execution engine)";
  let target = K.Kernel.target () in
  let rng = Healer_util.Rng.create 1 in
  let sample_prog =
    Gen.generate rng target
      ~select:(fun ~sub:_ -> Healer_util.Rng.int rng (Target.n_syscalls target))
      ()
  in
  let cov = K.Coverage.create () in
  let kernel = K.Kernel.boot ~version:K.Version.V5_11 () in
  let sample_run = snd (Healer_executor.Exec.run ~cov kernel sample_prog) in
  let sample_pc =
    Prog_cov.of_run sample_prog sample_run
      ~new_cov:
        (Array.map
           (fun (c : Healer_executor.Exec.call_result) -> c.Healer_executor.Exec.cov)
           sample_run.Healer_executor.Exec.calls)
  in
  let cache = Healer_executor.Exec_cache.create ~version:K.Version.V5_11 () in
  let exec p = Healer_executor.Exec_cache.run cache ~cov p in
  for _ = 1 to 2 do
    let table = Relation_table.create (Target.n_syscalls target) in
    List.iter
      (fun pc -> ignore (Dynamic_learning.learn ~exec ~table [ pc ]))
      (Minimize.minimize ~exec sample_pc)
  done;
  report_cache_stats cache

(* ---- lock and effect hook overhead (cheap enough for every build) ---- *)

(* The lock-accounting hooks charge two State-counter increments per
   lock nesting level, the effect-recording hooks one State-array
   increment per instrumented slot access; the acceptance bar for each
   is <= 5% on exec throughput. Measured directly (not via bechamel)
   so a hook setting brackets whole timing runs: N seed-corpus
   executions per batch, wall-clock per execution into
   [micro_results]. Batches interleave hooks off, lock hooks only and
   effect hooks only, and each side keeps its minimum: interleaving
   brackets out scheduler and GC drift, and the minimum is the
   noise-robust estimate of the true per-execution cost. Both
   overheads are taken against the one shared hooks-off baseline. *)
let hooks_smoke () =
  section "Lock and effect hook overhead";
  let target = K.Kernel.target () in
  let kernel = K.Kernel.boot ~version:K.Version.V5_11 () in
  let cov = K.Coverage.create () in
  let progs = Seeds.traces target @ Seeds.distilled target in
  let batches = 12 and rounds = 200 in
  let saved_lock = K.Lock.hooks_enabled ()
  and saved_effects = K.Effect.hooks_enabled () in
  let batch ~lock ~effects =
    K.Lock.set_hooks lock;
    K.Effect.set_hooks effects;
    Fun.protect
      ~finally:(fun () ->
        K.Lock.set_hooks saved_lock;
        K.Effect.set_hooks saved_effects)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to rounds do
          List.iter (fun p -> ignore (Healer_executor.Exec.run ~cov kernel p)) progs
        done;
        let dt = Unix.gettimeofday () -. t0 in
        dt /. float_of_int (rounds * List.length progs) *. 1e9)
  in
  let sides =
    [
      ("exec (hooks off)", false, false);
      ("exec (lock hooks on)", true, false);
      ("exec (effect hooks on)", false, true);
    ]
  in
  (* Warm-up every side so allocation effects don't bias any. *)
  List.iter (fun (_, lock, effects) -> ignore (batch ~lock ~effects)) sides;
  let best = Array.make (List.length sides) infinity in
  for _ = 1 to batches do
    List.iteri
      (fun i (_, lock, effects) ->
        best.(i) <- Float.min best.(i) (batch ~lock ~effects))
      sides
  done;
  let rows = List.mapi (fun i (name, _, _) -> (name, best.(i))) sides in
  micro_results := !micro_results @ rows;
  List.iter (fun (name, ns) -> Fmt.pr "  %-26s %14.0f@." name ns) rows;
  let overhead name i =
    let off = best.(0) in
    Fmt.pr "  %-26s %13.1f%%@." name
      (if off > 0.0 then (best.(i) -. off) /. off *. 100.0 else 0.0)
  in
  overhead "lockdep overhead" 1;
  overhead "effect overhead" 2

(* ---- execution smoke (cheap enough for every build) ---- *)

let json_path = "BENCH_results.json"

(* A number from the committed snapshot at the repository root (the
   working directory under `dune exec`, the parent of bench/ under the
   @bench-smoke rule), by its path of object keys. *)
let committed keys =
  let module J = Healer_perf.Json in
  let path =
    if Filename.basename (Sys.getcwd ()) = "bench" then
      Filename.concat Filename.parent_dir_name json_path
    else json_path
  in
  if not (Sys.file_exists path) then None
  else
    let json = J.parse (In_channel.with_open_bin path In_channel.input_all) in
    match List.fold_left (fun j k -> Option.bind j (J.member k)) (Some json) keys with
    | Some (J.Num w) -> Some w
    | _ -> None

(* Words allocated straight on the major heap so far. Words a minor
   collection promotes count in both the major and the promoted figure
   of Gc.counters, so the difference is exact. *)
let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* Allocated words so far. On OCaml 5 the minor figure of
   Gc.counters/quick_stat only moves at collections; Gc.minor_words is
   exact anywhere. *)
let allocated () = Gc.minor_words () +. direct_major ()

(* Fail the section when a deterministic words row rises more than 10%
   over its committed value, or more than [floor] words if that is
   larger: a row that sits at 0 could never break a pure +10% rule. *)
let gate_words ?(floor = 0.0) ~what words keys =
  match committed keys with
  | None -> Fmt.pr "  %-30s not gated (no committed row)@." what
  | Some base ->
    let slack = Float.max (base *. 0.10) floor in
    Fmt.pr "  %-30s %12.0f (gate: +%.0f)@." ("committed " ^ what) base slack;
    if words > base +. slack then
      failwith
        (Printf.sprintf "%s: %.0f allocated words, more than %.0f above the committed %.0f"
           what words slack base)

(* (programs, words per Kernel.boot, per Exec.run) over the seed
   corpus. *)
let exec_words : (int * float * float) option ref = ref None

(* Execution cost over the seed corpus: exact allocated words of a boot
   and of a whole Exec.run, then the fresh-run cost, the exec loop with
   the reboot amortized away, and the warm probe loop through the
   opt-in prefix cache. Words are counted with validation off, so they
   are the production path's whatever HEALER_DEBUG_VALIDATE says, and
   each row is gated at +10% over the committed one. Times use the
   hooks_smoke min-of-batches method and are not gated. The executor's
   differential check against the reference interpreter lives in the
   test suite (test/test_compiled.ml). *)
let exec_smoke () =
  section "Execution (resolve each call as it runs)";
  let module E = Healer_executor in
  let target = K.Kernel.target () in
  let kernel = K.Kernel.boot ~version:K.Version.V5_11 () in
  let cov = K.Coverage.create () in
  let progs = Seeds.traces target @ Seeds.distilled target in
  let nprogs = List.length progs in
  let debug = E.Progcheck.debug_enabled () in
  let words pass =
    Fun.protect
      ~finally:(fun () -> E.Progcheck.set_debug debug)
      (fun () ->
        E.Progcheck.set_debug false;
        pass ();
        let a0 = allocated () in
        pass ();
        (allocated () -. a0) /. float_of_int nprogs)
  in
  let boot_w =
    words (fun () ->
        List.iter (fun _ -> ignore (K.Kernel.boot ~version:K.Version.V5_11 ())) progs)
  in
  let run_w = words (fun () -> List.iter (fun p -> ignore (E.Exec.run ~cov kernel p)) progs) in
  exec_words := Some (nprogs, boot_w, run_w);
  List.iter
    (fun (what, w, key) ->
      Fmt.pr "  %-30s %12.0f@." (what ^ " words") w;
      gate_words ~what w [ "exec_words"; key ])
    [ ("Kernel.boot", boot_w, "boot"); ("Exec.run", run_w, "run") ];
  let batches = 12 and rounds = 200 in
  let measure name pass =
    ignore (pass ());
    let best = ref infinity in
    for _ = 1 to batches do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to rounds do
        pass ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      best := Float.min !best (dt /. float_of_int (rounds * nprogs) *. 1e9)
    done;
    micro_results := !micro_results @ [ (name, !best) ];
    Fmt.pr "  %-30s %12.0f@." name !best;
    !best
  in
  let fresh =
    measure "exec run (fresh)" (fun () ->
        List.iter (fun p -> ignore (E.Exec.run ~cov kernel p)) progs)
  in
  (* The exec loop itself: one reboot per corpus pass (amortized to
     noise) isolates per-call resolve/dispatch cost from the fresh-boot
     floor. *)
  ignore
    (measure "exec run (loop)" (fun () ->
         let k = K.Kernel.reboot kernel in
         List.iter (fun p -> ignore (E.Exec.run ~fresh_state:false ~cov k p)) progs));
  (* The opt-in prefix cache's best case: the probe loop re-running
     programs it has seen, results served from the whole-program
     table. *)
  let probe_cache = E.Exec_cache.create ~version:K.Version.V5_11 () in
  List.iter (fun p -> ignore (E.Exec_cache.run probe_cache ~cov p)) progs;
  List.iter (fun p -> ignore (E.Exec_cache.run probe_cache ~cov p)) progs;
  let warm =
    measure "exec_cache probe (warm)" (fun () ->
        List.iter (fun p -> ignore (E.Exec_cache.run probe_cache ~cov p)) progs)
  in
  Fmt.pr "  %-30s %11.1fx@." "warm probe speedup"
    (if warm > 0.0 then fresh /. warm else 0.0)

(* ---- sharded campaign scaling (fuzzing-as-a-service) ---- *)

(* (jobs, wall seconds, execs, coverage, corpus, relation edges,
   crashes) per shard count. *)
let shard_results : (int * float * int * int * int * int * int) list ref =
  ref []

(* Forked-coordinator communication costs: exact per-epoch wire bytes
   of the incremental protocol against the full-state counterfactual,
   and pipelined (async) vs lockstep (barrier) wall clock under a
   deterministic rotating straggler. *)
let shard_comms_stats :
    (int * int * int * int * float * float) option ref =
  ref None
(* (bytes_full, bytes_incremental, steady_full, steady_incremental,
   barrier_seconds, async_seconds) *)

let shard_comms () =
  let module S = Healer_service in
  let epochs = 8 and jobs = 2 in
  let cfg =
    {
      S.Checkpoint.tool = Fuzzer.Healer;
      version = K.Version.V5_11;
      jobs;
      base_seed = 1;
      epochs;
      slice = hours *. 3600.0 /. float_of_int epochs;
    }
  in
  (* Byte accounting runs in lockstep: per-epoch attribution is exact
     there, and the lag-2 schedule ships the same diffs either way. *)
  let per_epoch = ref [] in
  let last = ref (0, 0) in
  let on_epoch (p : S.Coordinator.progress) =
    let incr_now = p.S.Coordinator.bytes_sent + p.S.Coordinator.bytes_recv in
    let pi, pf = !last in
    per_epoch :=
      (p.S.Coordinator.epoch, incr_now - pi, p.S.Coordinator.bytes_full - pf)
      :: !per_epoch;
    last := (incr_now, p.S.Coordinator.bytes_full)
  in
  let out =
    S.Coordinator.run ~forked:true ~mode:S.Coordinator.Barrier
      ~measure_full:true ~on_epoch (S.Coordinator.initial cfg)
  in
  let bytes_incr =
    out.S.Coordinator.bytes_sent + out.S.Coordinator.bytes_recv
  in
  let bytes_full = out.S.Coordinator.bytes_full in
  Fmt.pr "@.  incremental vs full-state sync (%d shards x %d epochs)@." jobs
    epochs;
  Fmt.pr "  %5s %12s %12s %8s@." "epoch" "incr-bytes" "full-bytes" "ratio";
  List.iter
    (fun (e, i, f) ->
      Fmt.pr "  %5d %12d %12d %7.1fx@." e i f
        (float_of_int f /. float_of_int (max 1 i)))
    (List.rev !per_epoch);
  let steady_incr, steady_full =
    match !per_epoch with (_, i, f) :: _ -> (i, f) | [] -> (0, 0)
  in
  Fmt.pr "  %5s %12d %12d %7.1fx@." "total" bytes_incr bytes_full
    (float_of_int bytes_full /. float_of_int (max 1 bytes_incr));
  (* Wall clock with a rotating 120 ms straggler: the barrier stalls
     every shard on it each epoch; the pipeline overlaps it. Skew only
     sleeps, so all three digests must agree. *)
  Unix.putenv "HEALER_SHARD_SKEW_MS" "120";
  let timed mode =
    let t0 = Unix.gettimeofday () in
    let o = S.Coordinator.run ~forked:true ~mode (S.Coordinator.initial cfg) in
    ( Unix.gettimeofday () -. t0,
      S.Shard_state.digest o.S.Coordinator.final.S.Checkpoint.state )
  in
  let barrier_s, barrier_digest = timed S.Coordinator.Barrier in
  let async_s, async_digest = timed S.Coordinator.Async in
  Unix.putenv "HEALER_SHARD_SKEW_MS" "0";
  let base_digest =
    S.Shard_state.digest out.S.Coordinator.final.S.Checkpoint.state
  in
  if not (String.equal barrier_digest async_digest && String.equal base_digest async_digest)
  then failwith "shard_comms: modes disagree on the final digest";
  Fmt.pr "@.  barrier vs pipelined under a rotating 120ms straggler@.";
  Fmt.pr "  %-28s %7.2fs@." "barrier (lockstep) wall" barrier_s;
  Fmt.pr "  %-28s %7.2fs (digest %s, all modes)@." "async (pipelined) wall"
    async_s async_digest;
  shard_comms_stats :=
    Some (bytes_full, bytes_incr, steady_full, steady_incr, barrier_s, async_s)

(* The serve path end to end: N shards, pipelined CRDT merges. Same
   total virtual budget per shard at every width, so the rows show
   what adding shards buys (coverage, crashes) and costs (merge
   overhead). The digest column makes nondeterminism across widths
   immediately visible: same jobs, same digest, always. Scaling rows
   run the in-process oracle (deterministic timing); the comms rows
   fork real workers, which is why this section runs before the
   prefetch pool spawns domains (fork is unsafe afterwards). *)
let shard_smoke () =
  section "Sharded campaign scaling (serve)";
  let module S = Healer_service in
  let epochs = 3 in
  let slice = hours *. 3600.0 /. float_of_int epochs in
  Fmt.pr "  %4s %9s %9s %7s %6s %8s %7s  %s@." "jobs" "execs" "coverage"
    "corpus" "edges" "crashes" "wall-s" "digest";
  List.iter
    (fun jobs ->
      let cfg =
        {
          S.Checkpoint.tool = Fuzzer.Healer;
          version = K.Version.V5_11;
          jobs;
          base_seed = 1;
          epochs;
          slice;
        }
      in
      let t0 = Unix.gettimeofday () in
      let out = S.Coordinator.run ~forked:false (S.Coordinator.initial cfg) in
      let dt = Unix.gettimeofday () -. t0 in
      let st = out.S.Coordinator.final.S.Checkpoint.state in
      let execs = S.Shard_state.total_execs st in
      let cov = Healer_util.Bitset.count st.S.Shard_state.coverage in
      let corp = List.length st.S.Shard_state.corpus in
      let edges = Relation_table.count st.S.Shard_state.relations in
      let crashes = List.length st.S.Shard_state.crashes in
      Fmt.pr "  %4d %9d %9d %7d %6d %8d %7.2f  %s@." jobs execs cov corp edges
        crashes dt (S.Shard_state.digest st);
      shard_results :=
        (jobs, dt, execs, cov, corp, edges, crashes) :: !shard_results)
    [ 1; 2; 4 ];
  shard_comms ()

(* ---- wire endpoint micro-benchmark ---- *)

(* ns and bytes per framed send+recv roundtrip over a pipe, using the
   reusable endpoint buffers (the serve hot path). *)
let wire_stats : (float * float) option ref = ref None

let wire_micro () =
  section "Wire endpoint overhead";
  let module S = Healer_service in
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let epr = S.Wire.endpoint r and epw = S.Wire.endpoint w in
      let payload = String.make 512 'x' in
      let roundtrip () =
        S.Wire.send_string epw S.Wire.Delta payload;
        ignore (S.Wire.recv epr)
      in
      for _ = 1 to 1_000 do
        roundtrip ()
      done;
      let n = 50_000 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to n do
        roundtrip ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let ns = dt *. 1e9 /. float_of_int n in
      let bytes =
        float_of_int (S.Wire.bytes_out epw)
        /. float_of_int (S.Wire.frames_out epw)
      in
      Fmt.pr "  %-30s %11.1f ns/frame, %.1f bytes/frame@."
        "send+recv (512B payload)" ns bytes;
      wire_stats := Some (ns, bytes);
      micro_results :=
        !micro_results @ [ ("wire send+recv (512B frame)", ns) ])

(* ---- generation hot path (cheap enough for every build) ---- *)

(* (programs, then per program: minor words, words allocated directly
   on the major heap, buffer bytes and ns). *)
let gen_stats : (int * float * float * float * float) option ref = ref None

let gen_programs = 500

let rec buffer_bytes (v : Healer_executor.Value.t) =
  match v with
  | Buf b -> Blob.length b
  | Ptr v -> buffer_bytes v
  | Group vs -> List.fold_left (fun acc v -> acc + buffer_bytes v) 0 vs
  | Int _ | Res_ref _ | Res_special _ | Str _ | Null | Vma _ -> 0

(* Gen.generate from a fixed seed with a uniform select. Minor words,
   words allocated directly on the major heap (major - promoted) and
   buffer bytes per program are deterministic counts; each words row
   fails the section when it rises more than 10% or 8 words over the
   committed one, whichever is larger. Generated buffers are seeded
   ranges, so the direct-major row reads 0: any large allocation back
   on the generation path fails it. ns per program is the
   min-of-batches wall clock, recorded but not gated. Validation is
   off throughout, so the counts are the production path's whatever
   HEALER_DEBUG_VALIDATE says. *)
let gen_smoke () =
  section "Program generation (Gen.generate)";
  let target = K.Kernel.target () in
  let batch () =
    let rng = Healer_util.Rng.create 1 in
    List.init gen_programs (fun _ ->
        Gen.generate rng target
          ~select:(fun ~sub:_ -> Healer_util.Rng.int rng (Target.n_syscalls target))
          ())
  in
  let debug = Healer_executor.Progcheck.debug_enabled () in
  Healer_executor.Progcheck.set_debug false;
  Fun.protect
    ~finally:(fun () -> Healer_executor.Progcheck.set_debug debug)
    (fun () ->
      ignore (batch ());
      let m0 = Gc.minor_words () and d0 = direct_major () in
      let progs = batch () in
      let per_program x = x /. float_of_int gen_programs in
      let minor = per_program (Gc.minor_words () -. m0) in
      let direct = per_program (direct_major () -. d0) in
      let bytes =
        List.fold_left
          (fun acc p ->
            Array.fold_left
              (fun acc (c : Healer_executor.Prog.call) ->
                List.fold_left (fun acc v -> acc + buffer_bytes v) acc
                  c.Healer_executor.Prog.args)
              acc p.Healer_executor.Prog.calls)
          0 progs
      in
      let bytes = float_of_int bytes /. float_of_int gen_programs in
      let ns = ref infinity in
      for _ = 1 to 5 do
        let t0 = Unix.gettimeofday () in
        ignore (batch ());
        let dt = Unix.gettimeofday () -. t0 in
        ns := Float.min !ns (dt *. 1e9 /. float_of_int gen_programs)
      done;
      Fmt.pr "  %-30s %12.0f@." "minor words / program" minor;
      Fmt.pr "  %-30s %12.0f@." "direct-major words / program" direct;
      Fmt.pr "  %-30s %12.0f@." "buffer bytes / program" bytes;
      Fmt.pr "  %-30s %12.0f@." "ns / program" !ns;
      gen_stats := Some (gen_programs, minor, direct, bytes, !ns);
      gate_words ~floor:8.0 ~what:"gen minor words" minor
        [ "gen"; "minor_words_per_program" ];
      gate_words ~floor:8.0 ~what:"gen direct-major words" direct
        [ "gen"; "direct_major_words_per_program" ])

(* ---- main ---- *)

let sections =
  [
    ("fig4", fig4); ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig5", fig5); ("fig6", fig6); ("table4", table4); ("table5", table5);
    ("ablation", ablation); ("micro", micro); ("cache", cache_smoke);
    ("hooks", hooks_smoke); ("exec", exec_smoke);
    ("shard", shard_smoke);
    ("wire", wire_micro); ("gen", gen_smoke);
  ]

(* ---- machine-readable results (--json) ---- *)

let write_json ~jobs ~section_times () =
  let buf = Buffer.create 1024 in
  let field ?(last = false) fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf "  ";
        Buffer.add_string buf s;
        if not last then Buffer.add_char buf ',';
        Buffer.add_char buf '\n')
      fmt
  in
  let obj_list name items render =
    let body =
      String.concat ", " (List.map render items)
    in
    Printf.sprintf "%S: [%s]" name body
  in
  Buffer.add_string buf "{\n";
  field "\"schema\": 1";
  field "\"rounds\": %d" rounds;
  field "\"hours\": %g" hours;
  field "\"ext_hours\": %g" ext_hours;
  field "\"jobs\": %d" jobs;
  (match !prefetch_stats with
  | Some (campaigns, pjobs, seconds) ->
    field "\"prefetch\": {\"campaigns\": %d, \"jobs\": %d, \"seconds\": %.3f}"
      campaigns pjobs seconds
  | None -> field "\"prefetch\": null");
  field "%s"
    (obj_list "sections" (List.rev section_times) (fun (name, dt) ->
         Printf.sprintf "{\"name\": %S, \"seconds\": %.3f}" name dt));
  (match !probe_cache_stats with
  | Some (s, rate) ->
    field
      "\"exec_cache\": {\"hits\": %d, \"full_hits\": %d, \"misses\": %d, \
       \"hit_rate\": %.3f, \"evictions\": %d, \"flushes\": %d, \
       \"resumed_calls\": %d, \"executed_calls\": %d}"
      s.Healer_executor.Exec_cache.hits s.Healer_executor.Exec_cache.full_hits
      s.Healer_executor.Exec_cache.misses rate
      s.Healer_executor.Exec_cache.evictions s.Healer_executor.Exec_cache.flushes
      s.Healer_executor.Exec_cache.resumed_calls
      s.Healer_executor.Exec_cache.executed_calls
  | None -> field "\"exec_cache\": null");
  field "%s"
    (obj_list "shard" (List.rev !shard_results)
       (fun (jobs, dt, execs, cov, corp, edges, crashes) ->
         Printf.sprintf
           "{\"jobs\": %d, \"seconds\": %.3f, \"execs\": %d, \"coverage\": \
            %d, \"corpus\": %d, \"relations\": %d, \"crashes\": %d}"
           jobs dt execs cov corp edges crashes));
  (match !shard_comms_stats with
  | Some (bytes_full, bytes_incr, steady_full, steady_incr, barrier_s, async_s)
    ->
    let wire_ns, wire_bytes =
      match !wire_stats with Some (n, b) -> (n, b) | None -> (0.0, 0.0)
    in
    field
      "\"shard_comms\": {\"bytes_full\": %d, \"bytes_incremental\": %d, \
       \"ratio\": %.1f, \"steady_bytes_full\": %d, \
       \"steady_bytes_incremental\": %d, \"steady_ratio\": %.1f, \
       \"barrier_seconds\": %.3f, \"async_seconds\": %.3f, \
       \"wire_ns_per_frame\": %.1f, \"wire_bytes_per_frame\": %.1f}"
      bytes_full bytes_incr
      (float_of_int bytes_full /. float_of_int (max 1 bytes_incr))
      steady_full steady_incr
      (float_of_int steady_full /. float_of_int (max 1 steady_incr))
      barrier_s async_s wire_ns wire_bytes
  | None -> field "\"shard_comms\": null");
  (match !gen_stats with
  | Some (programs, minor, direct, bytes, ns) ->
    field
      "\"gen\": {\"seed\": 1, \"programs\": %d, \"minor_words_per_program\": %.1f, \
       \"direct_major_words_per_program\": %.1f, \
       \"buffer_bytes_per_program\": %.1f, \"ns_per_program\": %.1f}"
      programs minor direct bytes ns
  | None -> field "\"gen\": null");
  (match !exec_words with
  | Some (programs, boot, run) ->
    field "\"exec_words\": {\"programs\": %d, \"boot\": %.1f, \"run\": %.1f}"
      programs boot run
  | None -> field "\"exec_words\": null");
  field ~last:true "%s"
    (obj_list "micro" !micro_results (fun (name, ns) ->
         Printf.sprintf "{\"name\": %S, \"ns_per_run\": %.1f}" name ns));
  Buffer.add_string buf "}\n";
  let oc = open_out json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.epr "wrote %s@." json_path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let requested =
    match List.filter (fun a -> a <> "--json") args with
    | [] -> List.map fst sections
    | names -> names
  in
  Fmt.pr "HEALER reproduction benches: rounds=%d, %.0f virtual hours per campaign@."
    rounds hours;
  let section_times = ref [] in
  let run_section name =
    match List.assoc_opt name sections with
    | Some f ->
      let t0 = Unix.gettimeofday () in
      f ();
      section_times := (name, Unix.gettimeofday () -. t0) :: !section_times
    | None ->
      Fmt.epr "unknown section %s (available: %s)@." name
        (String.concat ", " (List.map fst sections))
  in
  (* The shard section forks real worker processes, and Unix.fork is
     unsafe once the prefetch pool has spawned domains — so it (and
     the tiny wire micro) runs first. *)
  let fork_first, pooled =
    List.partition (fun n -> n = "shard" || n = "wire") requested
  in
  List.iter run_section fork_first;
  prefetch pooled;
  List.iter run_section pooled;
  if json then
    write_json ~jobs:(Campaign.default_jobs ()) ~section_times:!section_times ()
