(* HEALER command-line interface.

   Subcommands:
     fuzz      run a fuzzing campaign on the simulated kernel
     target    print the compiled syscall description summary
     bugs      list the injected vulnerability catalog
     relations learn relations for a while and dump the table
     compare   head-to-head campaign of two tools
     analyze   static analysis of the description corpus
     lint      deprecated alias for a subset of analyze
     serve     sharded multi-process campaign with checkpoint/resume
     merge     CRDT-join two campaign checkpoints
     shard-status  inspect (and compare) campaign checkpoints *)

module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module K = Healer_kernel
module Diagnostic = Healer_analysis.Diagnostic
module Analysis = Healer_analysis.Analysis
open Healer_core
open Cmdliner

let version_conv =
  let parse s =
    match K.Version.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown kernel version %S" s))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (K.Version.to_string v))

let tool_conv =
  let parse = function
    | "healer" -> Ok Fuzzer.Healer
    | "healer-" -> Ok Fuzzer.Healer_minus
    | "syzkaller" -> Ok Fuzzer.Syzkaller
    | "moonshine" -> Ok Fuzzer.Moonshine
    | s -> Error (`Msg (Printf.sprintf "unknown tool %S" s))
  in
  Arg.conv (parse, fun ppf t -> Fmt.string ppf (Fuzzer.tool_name t))

let version_arg =
  Arg.(
    value
    & opt version_conv K.Version.V5_11
    & info [ "k"; "kernel" ] ~docv:"VERSION" ~doc:"Kernel version (4.19, 5.0, 5.4, 5.6, 5.11).")

let tool_arg =
  Arg.(
    value
    & opt tool_conv Fuzzer.Healer
    & info [ "t"; "tool" ] ~docv:"TOOL"
        ~doc:"Fuzzer: healer, healer-, syzkaller or moonshine.")

let hours_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "H"; "hours" ] ~docv:"HOURS" ~doc:"Virtual campaign duration in hours.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* Exit with status 1. When stdout can no longer be written (its
   reader closed the pipe), drop what is still buffered for it: the
   flush at exit would otherwise raise a second time, and Cmdliner
   would report that as an internal error. *)
let exit_error () =
  (try
     Format.pp_print_flush Format.std_formatter ();
     flush stdout
   with Sys_error _ -> close_out_noerr stdout);
  exit 1

(* Turn the library's typed failures into one-line CLI errors. *)
let or_die f =
  try f () with
  | Healer_util.Codec.Malformed { format; offset; reason } ->
    Fmt.epr "error: corrupt %s at byte %d (%s)@." format offset reason;
    exit_error ()
  | Failure msg ->
    Fmt.epr "error: %s@." msg;
    exit_error ()
  | Invalid_argument msg ->
    Fmt.epr "error: %s@." msg;
    exit_error ()
  | Healer_syzlang.Parser.Error { line; msg } ->
    Fmt.epr "error: parse failure at line %d: %s@." line msg;
    exit_error ()
  | Healer_syzlang.Lexer.Error { line; msg } ->
    Fmt.epr "error: lex failure at line %d: %s@." line msg;
    exit_error ()
  | Healer_syzlang.Target.Compile_error msg ->
    Fmt.epr "error: %s@." msg;
    exit_error ()
  | Sys_error msg ->
    Fmt.epr "error: %s@." msg;
    exit_error ()

let run_fuzz tool version hours seed load_rel save_rel load_corp save_corp =
  let cfg = Fuzzer.config ~seed ~tool ~version () in
  let initial_relations =
    Option.map (fun path -> or_die (fun () -> Persist.load_relations ~path)) load_rel
  in
  let initial_seeds =
    match load_corp with
    | Some path ->
      or_die (fun () -> Persist.load_corpus (Healer_kernel.Kernel.target ()) ~path)
    | None -> []
  in
  let f = Fuzzer.create ?initial_relations ~initial_seeds cfg in
  Fmt.pr "%s on Linux %s, %.1f virtual hours (seed %d)...@." (Fuzzer.tool_name tool)
    (K.Version.to_string version) hours seed;
  Fuzzer.run_until f (hours *. 3600.0);
  (match (save_rel, Fuzzer.relations f) with
  | Some path, Some table ->
    Persist.save_relations ~path table;
    Fmt.pr "saved %d relations to %s@." (Relation_table.count table) path
  | Some _, None -> Fmt.epr "this tool has no relation table to save@."
  | None, _ -> ());
  (match save_corp with
  | Some path ->
    let programs = ref [] in
    Corpus.iter (fun p -> programs := p :: !programs) (Fuzzer.corpus f);
    Persist.save_corpus ~path (List.rev !programs);
    Fmt.pr "saved %d corpus programs to %s@." (List.length !programs) path
  | None -> ());
  Fmt.pr "executions        %d@." (Fuzzer.execs f);
  Fmt.pr "branch coverage   %d@." (Fuzzer.coverage f);
  Fmt.pr "corpus            %d programs@." (Corpus.size (Fuzzer.corpus f));
  if tool = Fuzzer.Healer then begin
    Fmt.pr "learned relations %d@." (Fuzzer.relation_count f);
    Fmt.pr "alpha             %.2f@." (Fuzzer.alpha_value f)
  end;
  let records = Triage.records (Fuzzer.triage f) in
  Fmt.pr "unique crashes    %d@." (List.length records);
  List.iter
    (fun (r : Triage.record) ->
      Fmt.pr "  %6.1fh  %-44s %-24s repro=%d calls@."
        (r.Triage.first_found /. 3600.0)
        r.Triage.bug_key
        (K.Risk.to_string r.Triage.risk)
        r.Triage.repro_len)
    records

let path_opt name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run a fuzzing campaign against the simulated kernel")
    Term.(
      const run_fuzz $ tool_arg $ version_arg $ hours_arg $ seed_arg
      $ path_opt "load-relations" "Merge a saved relation table before fuzzing."
      $ path_opt "save-relations" "Write the learned relation table afterwards."
      $ path_opt "load-corpus" "Ingest a saved corpus archive as initial seeds."
      $ path_opt "save-corpus" "Write the final corpus archive afterwards.")

let run_target () =
  let t = K.Kernel.target () in
  Fmt.pr "%a@.@." Target.pp_summary t;
  let by_sub = Hashtbl.create 16 in
  Array.iter
    (fun (c : Syscall.t) ->
      let sub = K.Kernel.subsystem_of c.Syscall.name in
      Hashtbl.replace by_sub sub
        (c.Syscall.name
        :: (match Hashtbl.find_opt by_sub sub with Some l -> l | None -> [])))
    (Target.syscalls t);
  Hashtbl.fold (fun sub calls acc -> (sub, List.length calls) :: acc) by_sub []
  |> List.sort compare
  |> List.iter (fun (sub, n) -> Fmt.pr "  %-12s %3d interfaces@." sub n)

let target_cmd =
  Cmd.v
    (Cmd.info "target" ~doc:"Print the compiled Syzlang description summary")
    Term.(const run_target $ const ())

let run_bugs () =
  Fmt.pr "%-44s %-10s %-26s %-6s %s@." "BUG" "SUBSYSTEM" "RISK" "SINCE" "POPULATION";
  List.iter
    (fun (b : K.Bug.t) ->
      Fmt.pr "%-44s %-10s %-26s %-6s %s@." b.K.Bug.key b.K.Bug.subsystem
        (K.Risk.to_string b.K.Bug.risk)
        (K.Version.to_string b.K.Bug.since)
        (if b.K.Bug.table4 then "table-4"
         else if b.K.Bug.known then "known"
         else "table-5"))
    K.Bug.catalog

let bugs_cmd =
  Cmd.v
    (Cmd.info "bugs" ~doc:"List the injected vulnerability catalog")
    Term.(const run_bugs $ const ())

let run_relations version hours seed =
  let cfg = Fuzzer.config ~seed ~tool:Fuzzer.Healer ~version () in
  let f = Fuzzer.create cfg in
  Fuzzer.run_until f (hours *. 3600.0);
  let t = Fuzzer.target f in
  let static = Static_learning.initial_table t in
  match Fuzzer.relations f with
  | None -> Fmt.pr "no relation table@."
  | Some table ->
    Fmt.pr "%a@." Relation_table.pp_stats table;
    Fmt.pr "static %d + dynamic %d@.@." (Relation_table.count static)
      (Relation_table.count table - Relation_table.count static);
    List.iter
      (fun (a, b) ->
        let tag = if Relation_table.get static a b then "s" else "d" in
        Fmt.pr "  [%s] %-30s -> %s@." tag
          (Target.syscall t a).Syscall.name
          (Target.syscall t b).Syscall.name)
      (Relation_table.edges table)

let relations_cmd =
  Cmd.v
    (Cmd.info "relations"
       ~doc:"Fuzz for a while with HEALER and dump the learned relation table")
    Term.(const run_relations $ version_arg $ hours_arg $ seed_arg)

(* 0 = auto: HEALER_BENCH_JOBS or Domain.recommended_domain_count. *)
let resolve_jobs jobs = if jobs = 0 then Campaign.default_jobs () else jobs

let run_compare subject base version hours seed rounds jobs =
  or_die @@ fun () ->
  let jobs = resolve_jobs jobs in
  if rounds <= 1 then begin
    (* The two campaigns are independent: fan them out. *)
    let runs =
      Campaign.run_matrix ~jobs
        [ (base, version, seed, hours); (subject, version, seed, hours) ]
    in
    match runs with
    | [ b; s ] ->
      List.iter
        (fun (r : Campaign.run) ->
          Fmt.pr "%-10s coverage=%d execs=%d crashes=%d@."
            (Fuzzer.tool_name r.Campaign.tool) r.Campaign.final_cov
            r.Campaign.execs
            (List.length r.Campaign.crashes))
        [ b; s ];
      Fmt.pr "improvement of %s over %s: %+.1f%%@." (Fuzzer.tool_name subject)
        (Fuzzer.tool_name base)
        (Campaign.improvement_pct ~base:b s);
      (match Campaign.speedup ~base:b s with
      | Some x ->
        Fmt.pr "speed-up to reach %s's coverage: %.1fx@." (Fuzzer.tool_name base) x
      | None -> Fmt.pr "subject did not reach the base coverage@.")
    | _ -> assert false
  end
  else begin
    let c = Campaign.compare_tools ~jobs ~hours ~rounds ~subject ~base version in
    Fmt.pr "%s vs %s on Linux %s, %d paired rounds (%d jobs)@."
      (Fuzzer.tool_name subject) (Fuzzer.tool_name base)
      (K.Version.to_string version) rounds jobs;
    Fmt.pr "  improvement min %+.1f%%  max %+.1f%%  avg %+.1f%%@."
      c.Campaign.min_impr c.Campaign.max_impr c.Campaign.avg_impr;
    match c.Campaign.avg_speedup with
    | Some x -> Fmt.pr "  average speed-up %.1fx@." x
    | None -> Fmt.pr "  subject did not reach the base coverage@."
  end

let base_arg =
  Arg.(
    value
    & opt tool_conv Fuzzer.Syzkaller
    & info [ "b"; "base" ] ~docv:"TOOL" ~doc:"Baseline tool.")

let rounds_arg =
  Arg.(
    value
    & opt int 1
    & info [ "r"; "rounds" ] ~docv:"N"
        ~doc:"Paired rounds (one seed per round); with N>1 prints Table-1-style stats.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the campaign matrix. 0 (default) means \
           $(b,HEALER_BENCH_JOBS) or the machine's recommended domain count.")

let compare_cmd =
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Head-to-head campaigns of two tools, fanned out across worker \
          domains")
    Term.(
      const run_compare $ tool_arg $ base_arg $ version_arg $ hours_arg
      $ seed_arg $ rounds_arg $ jobs_arg)

(* The built-in corpus (with handler drift checks) or a standalone
   description file. Parse/compile failures of a file are reported as
   diagnostics by [Analysis.of_source], not raised. *)
let analysis_input file =
  or_die (fun () ->
      match file with
      | None -> Analysis.of_kernel ()
      | Some path -> Analysis.of_source ~name:path (Persist.read_file path))

let file_pos_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Description file; default: built-in corpus.")

let severity_conv =
  let parse = function
    | "error" -> Ok Diagnostic.Error
    | "warning" -> Ok Diagnostic.Warning
    | "info" -> Ok Diagnostic.Info
    | s ->
      Error (`Msg (Printf.sprintf "unknown severity %S (error|warning|info)" s))
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Diagnostic.severity_to_string s))

let severity_arg =
  Arg.(
    value
    & opt severity_conv Diagnostic.Info
    & info [ "severity" ] ~docv:"LEVEL"
        ~doc:
          "Minimum severity to report: $(b,error), $(b,warning) or \
           $(b,info) (default: everything).")

let only_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "only" ] ~docv:"CHECK_ID"
        ~doc:"Report only this check ID (repeatable; see $(b,--list-checks)).")

(* Diagnostic filters shared by the description and program modes. *)
let apply_filters ~min_sev ~only ds =
  let ds =
    List.filter
      (fun (d : Diagnostic.t) ->
        Diagnostic.severity_rank d.Diagnostic.severity
        <= Diagnostic.severity_rank min_sev)
      ds
  in
  match only with
  | [] -> ds
  | ids ->
    List.filter (fun (d : Diagnostic.t) -> List.mem d.Diagnostic.check ids) ds

let check_only_ids only =
  let known = List.map (fun (id, _, _, _) -> id) Analysis.all_checks in
  List.iter
    (fun id ->
      if not (List.mem id known) then begin
        Fmt.epr "error: unknown check ID %S (see --list-checks)@." id;
        exit 2
      end)
    only

(* Program-corpus mode: validate persisted archives and/or the
   built-in seed corpora against the kernel target. *)
let run_analyze_progs prog seed_corpus json min_sev only =
  or_die @@ fun () ->
  let target = K.Kernel.target () in
  let named =
    (match prog with
    | Some path ->
      Persist.load_corpus target ~path
      |> List.mapi (fun i p -> (Some (Printf.sprintf "%s#%d" path i), p))
    | None -> [])
    @
    if seed_corpus then
      (Seeds.traces target
      |> List.mapi (fun i p -> (Some (Printf.sprintf "seeds/traces#%d" i), p)))
      @ (Seeds.distilled target
        |> List.mapi (fun i p ->
               (Some (Printf.sprintf "seeds/distilled#%d" i), p)))
    else []
  in
  let ds =
    Healer_analysis.Progcheck.validate target named
    |> apply_filters ~min_sev ~only
  in
  if json then
    Fmt.pr "%s@."
      (Healer_analysis.Progcheck.report_to_json ~name:(Target.name target)
         ~programs:(List.length named) ds)
  else begin
    List.iter (fun d -> Fmt.pr "%a@." Diagnostic.pp d) ds;
    List.iter
      (fun (id, n) -> Fmt.pr "  %-22s %4d@." id n)
      (Healer_analysis.Progcheck.count_by_check ds);
    Fmt.pr "%d programs: %d errors, %d warnings, %d notes@."
      (List.length named)
      (Diagnostic.count Diagnostic.Error ds)
      (Diagnostic.count Diagnostic.Warning ds)
      (Diagnostic.count Diagnostic.Info ds)
  end;
  if Diagnostic.has_errors ds then exit 1

(* Lock-model mode: dump the declared model (classes, order graph,
   per-handler specs), the lockdep findings over it, and the lock-pair
   acquisition counts the built-in seed corpus exhibits — the
   queryable concurrency-coverage signal. *)
let run_locks json =
  or_die @@ fun () ->
  let model = K.Kernel.lock_model () in
  let classes =
    List.sort
      (fun (a : K.Lock.cls) (b : K.Lock.cls) -> compare a.K.Lock.rank b.K.Lock.rank)
      model.K.Lock.classes
  in
  let edges = K.Lock.order_edges model in
  let ds =
    List.map Healer_analysis.Lockdep.to_diagnostic (K.Lock.check_model model)
  in
  (* Execute the seed corpus (each program from pristine state, like
     the executor's forked processes) and aggregate the lock-pair /
     per-class acquisition counters across runs. *)
  let target = K.Kernel.target () in
  let kernel = K.Kernel.boot ~version:K.Version.V5_11 () in
  let cov = K.Coverage.create () in
  let merge acc counts =
    List.fold_left
      (fun acc (key, n) ->
        let cur = try List.assoc key acc with Not_found -> 0 in
        (key, cur + n) :: List.remove_assoc key acc)
      acc counts
  in
  let pairs, acqs =
    List.fold_left
      (fun (pairs, acqs) p ->
        let k', _ = Healer_executor.Exec.run ~cov kernel p in
        ( merge pairs (K.Kernel.lock_pair_counts k'),
          merge acqs (K.Kernel.lock_acquire_counts k') ))
      ([], [])
      (Seeds.traces target @ Seeds.distilled target)
  in
  let pairs = List.sort compare pairs and acqs = List.sort compare acqs in
  if json then begin
    let b = Buffer.create 1024 in
    let esc = Diagnostic.json_escape in
    Buffer.add_string b "{\n  \"classes\": [";
    List.iteri
      (fun i (c : K.Lock.cls) ->
        Buffer.add_string b
          (Printf.sprintf "%s\n    {\"name\": \"%s\", \"rank\": %d, \"guards\": [%s]}"
             (if i = 0 then "" else ",")
             (esc c.K.Lock.cname) c.K.Lock.rank
             (String.concat ", "
                (List.map (fun g -> "\"" ^ esc g ^ "\"") c.K.Lock.guards))))
      classes;
    Buffer.add_string b "\n  ],\n  \"order_edges\": [";
    List.iteri
      (fun i (a, bn) ->
        Buffer.add_string b
          (Printf.sprintf "%s\n    [\"%s\", \"%s\"]"
             (if i = 0 then "" else ",")
             (esc a) (esc bn)))
      edges;
    Buffer.add_string b "\n  ],\n  \"specs\": ";
    Buffer.add_string b (string_of_int (List.length model.K.Lock.specs));
    Buffer.add_string b ",\n  \"seed_pair_counts\": [";
    List.iteri
      (fun i ((outer, inner), n) ->
        Buffer.add_string b
          (Printf.sprintf
             "%s\n    {\"outer\": \"%s\", \"inner\": \"%s\", \"count\": %d}"
             (if i = 0 then "" else ",")
             (esc outer) (esc inner) n))
      pairs;
    Buffer.add_string b "\n  ],\n  \"seed_acquire_counts\": [";
    List.iteri
      (fun i (cls, n) ->
        Buffer.add_string b
          (Printf.sprintf "%s\n    {\"class\": \"%s\", \"count\": %d}"
             (if i = 0 then "" else ",")
             (esc cls) n))
      acqs;
    Buffer.add_string b "\n  ],\n  \"diagnostics\": [";
    List.iteri
      (fun i d ->
        Buffer.add_string b
          (Printf.sprintf "%s\n    %s" (if i = 0 then "" else ",")
             (Diagnostic.to_json d)))
      ds;
    Buffer.add_string b "\n  ]\n}";
    Fmt.pr "%s@." (Buffer.contents b)
  end
  else begin
    Fmt.pr "lock classes (%d):@." (List.length classes);
    List.iter
      (fun (c : K.Lock.cls) ->
        Fmt.pr "  %-14s rank %3d  guards: %s@." c.K.Lock.cname c.K.Lock.rank
          (if c.K.Lock.guards = [] then "-"
           else String.concat ", " c.K.Lock.guards))
      classes;
    Fmt.pr "declared handler specs: %d@." (List.length model.K.Lock.specs);
    Fmt.pr "lock-order graph (outer -> inner):@.";
    if edges = [] then Fmt.pr "  (no nested acquisitions)@."
    else List.iter (fun (a, bn) -> Fmt.pr "  %s -> %s@." a bn) edges;
    Fmt.pr "seed-corpus lock-pair acquisitions:@.";
    if pairs = [] then Fmt.pr "  (none)@."
    else
      List.iter
        (fun ((outer, inner), n) -> Fmt.pr "  %-28s %6d@." (outer ^ " -> " ^ inner) n)
        pairs;
    Fmt.pr "seed-corpus acquisitions per class:@.";
    List.iter (fun (cls, n) -> Fmt.pr "  %-28s %6d@." cls n) acqs;
    if ds = [] then Fmt.pr "lockdep: model clean@."
    else begin
      Fmt.pr "lockdep findings:@.";
      List.iter (fun d -> Fmt.pr "%a@." Diagnostic.pp d) ds
    end
  end;
  if Diagnostic.has_errors ds then exit 1

(* Race mode: the known-race catalog, plus the effect-drift and
   lockset-race findings over the declared effect + lock models. Exits
   non-zero on Error severity (drift), so the @analyze gate keeps the
   corpus effect-clean; the intentional fixture races surface at Info. *)
let run_races json =
  or_die @@ fun () ->
  let input = Analysis.of_kernel () in
  let ds =
    Analysis.run
      ~passes:[ Healer_analysis.Effects.pass; Healer_analysis.Races.pass ]
      input
  in
  let known = K.Effect.registered_races () in
  if json then begin
    let b = Buffer.create 1024 in
    let esc = Diagnostic.json_escape in
    Buffer.add_string b "{\n  \"known_races\": [";
    List.iteri
      (fun i (k : K.Effect.known_race) ->
        Buffer.add_string b
          (Printf.sprintf
             "%s\n    {\"slot\": \"%s\", \"bug\": \"%s\", \"parties\": [%s]}"
             (if i = 0 then "" else ",")
             (esc k.K.Effect.kslot) (esc k.K.Effect.bug)
             (String.concat ", "
                (List.map (fun p -> "\"" ^ esc p ^ "\"") k.K.Effect.parties))))
      known;
    Buffer.add_string b "\n  ],\n  \"diagnostics\": [";
    List.iteri
      (fun i d ->
        Buffer.add_string b
          (Printf.sprintf "%s\n    %s" (if i = 0 then "" else ",")
             (Diagnostic.to_json d)))
      ds;
    Buffer.add_string b "\n  ]\n}";
    Fmt.pr "%s@." (Buffer.contents b)
  end
  else begin
    Fmt.pr "known race catalog (%d):@." (List.length known);
    List.iter
      (fun (k : K.Effect.known_race) ->
        Fmt.pr "  slot %-12s %s  (bug %s)@."
          (Printf.sprintf "%S:" k.K.Effect.kslot)
          (String.concat " <-> " k.K.Effect.parties)
          k.K.Effect.bug)
      known;
    if ds = [] then Fmt.pr "race detector: no candidate pairs@."
    else begin
      Fmt.pr "findings:@.";
      List.iter (fun d -> Fmt.pr "%a@." Diagnostic.pp d) ds
    end;
    Fmt.pr "%d errors, %d warnings, %d notes@."
      (Diagnostic.count Diagnostic.Error ds)
      (Diagnostic.count Diagnostic.Warning ds)
      (Diagnostic.count Diagnostic.Info ds)
  end;
  if Diagnostic.has_errors ds then exit 1

(* Effect mode: dump the declared effect model (slot vocabulary, spec
   count), the effect-drift findings, and the per-slot read/write
   counts the built-in seed corpus exhibits — the observed-access
   signal mirroring `--locks`' acquisition counters. Under
   HEALER_DEBUG_VALIDATE the executions also check observed ⊆ declared
   per call, so the @analyze gate exercises the runtime validator. *)
let run_effects json =
  or_die @@ fun () ->
  let input = Analysis.of_kernel () in
  let ds = Analysis.run ~passes:[ Healer_analysis.Effects.pass ] input in
  let model = K.Kernel.effect_model () in
  let counts = Healer_analysis.Effects.seed_counts () in
  if json then begin
    let b = Buffer.create 1024 in
    let esc = Diagnostic.json_escape in
    Buffer.add_string b "{\n  \"slots\": [";
    List.iteri
      (fun i s ->
        Buffer.add_string b
          (Printf.sprintf "%s\"%s\"" (if i = 0 then "" else ", ") (esc s)))
      model.K.Effect.slots;
    Buffer.add_string b "],\n  \"specs\": ";
    Buffer.add_string b (string_of_int (List.length model.K.Effect.especs));
    Buffer.add_string b ",\n  \"seed_slot_counts\": [";
    List.iteri
      (fun i (slot, (r, w)) ->
        Buffer.add_string b
          (Printf.sprintf
             "%s\n    {\"slot\": \"%s\", \"reads\": %d, \"writes\": %d}"
             (if i = 0 then "" else ",")
             (esc slot) r w))
      counts;
    Buffer.add_string b "\n  ],\n  \"diagnostics\": [";
    List.iteri
      (fun i d ->
        Buffer.add_string b
          (Printf.sprintf "%s\n    %s" (if i = 0 then "" else ",")
             (Diagnostic.to_json d)))
      ds;
    Buffer.add_string b "\n  ]\n}";
    Fmt.pr "%s@." (Buffer.contents b)
  end
  else begin
    Fmt.pr "effect slot vocabulary (%d): %s@."
      (List.length model.K.Effect.slots)
      (String.concat ", " model.K.Effect.slots);
    Fmt.pr "declared handler effect specs: %d@."
      (List.length model.K.Effect.especs);
    Fmt.pr "seed-corpus slot accesses (reads/writes):@.";
    if counts = [] then Fmt.pr "  (none; effect hooks disabled?)@."
    else
      List.iter
        (fun (slot, (r, w)) -> Fmt.pr "  %-16s %7d %7d@." slot r w)
        counts;
    if ds = [] then Fmt.pr "effects: model clean@."
    else begin
      Fmt.pr "effect findings:@.";
      List.iter (fun d -> Fmt.pr "%a@." Diagnostic.pp d) ds
    end
  end;
  if Diagnostic.has_errors ds then exit 1

let run_analyze file prog seed_corpus json list_checks locks races effects
    min_sev only =
  if locks then run_locks json
  else if races then run_races json
  else if effects then run_effects json
  else if list_checks then
    List.iter
      (fun (id, sev, doc, pass) ->
        Fmt.pr "%-26s %-7s %-12s %s@." id
          (Diagnostic.severity_to_string sev)
          pass doc)
      Analysis.all_checks
  else begin
    check_only_ids only;
    if prog <> None || seed_corpus then
      run_analyze_progs prog seed_corpus json min_sev only
    else begin
      let input = analysis_input file in
      let ds = Analysis.run input |> apply_filters ~min_sev ~only in
      if json then
        Fmt.pr "%s@."
          (Diagnostic.list_to_json ~name:input.Healer_analysis.Pass.name ds)
      else begin
        List.iter (fun d -> Fmt.pr "%a@." Diagnostic.pp d) ds;
        Fmt.pr "%s: %d errors, %d warnings, %d notes@."
          input.Healer_analysis.Pass.name
          (Diagnostic.count Diagnostic.Error ds)
          (Diagnostic.count Diagnostic.Warning ds)
          (Diagnostic.count Diagnostic.Info ds)
      end;
      if Diagnostic.has_errors ds then exit 1
    end
  end

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the multi-pass static analyzer (description semantics, \
          reachability fixpoint, handler drift, static-relation soundness, \
          corpus hygiene) over a description file or the built-in \
          20-subsystem corpus; or, with $(b,--prog) / $(b,--seed-corpus), \
          run the program validator (the $(b,prog-*) checks: typed value \
          conformance and resource dataflow) over persisted corpus \
          archives or the built-in seed corpora. Exits non-zero when any \
          Error-severity diagnostic is reported.")
    Term.(
      const run_analyze $ file_pos_arg
      $ Arg.(
          value
          & opt (some file) None
          & info [ "prog" ] ~docv:"FILE"
              ~doc:
                "Validate the programs of a persisted corpus archive (as \
                 written by $(b,fuzz --save-corpus)) instead of analyzing \
                 descriptions.")
      $ Arg.(
          value & flag
          & info [ "seed-corpus" ]
              ~doc:
                "Validate the built-in seed corpora (synthetic traces and \
                 their distilled form).")
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")
      $ Arg.(
          value & flag
          & info [ "list-checks" ]
              ~doc:"List every check ID with its severity and pass, then exit.")
      $ Arg.(
          value & flag
          & info [ "locks" ]
              ~doc:
                "Report the declared lock model: classes with ranks and \
                 guarded state, the lock-order graph, lockdep findings, and \
                 the lock-pair acquisition counts observed while executing \
                 the built-in seed corpus.")
      $ Arg.(
          value & flag
          & info [ "races" ]
              ~doc:
                "Run the Eraser-style lockset race detector over the \
                 declared effect and lock models: the known-race catalog, \
                 effect-drift findings and candidate race pairs (see the \
                 $(b,race-*) checks).")
      $ Arg.(
          value & flag
          & info [ "effects" ]
              ~doc:
                "Report the declared effect model: the slot vocabulary, \
                 effect-drift findings, and the per-slot read/write counts \
                 observed while executing the built-in seed corpus.")
      $ severity_arg $ only_arg)

(* Deprecated: kept as a thin alias over the analyzer's lint pass so
   existing invocations keep working. *)
let run_lint file =
  Fmt.epr "note: `healer lint` is deprecated; use `healer analyze`@.";
  let input = analysis_input file in
  let ds =
    Analysis.run ~passes:[ Healer_analysis.Lint.pass ] input
    |> List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.severity <> Diagnostic.Info)
  in
  match ds with
  | [] -> Fmt.pr "%s: no description warnings@." input.Healer_analysis.Pass.name
  | ds -> List.iter (fun d -> Fmt.pr "%a@." Diagnostic.pp d) ds

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Deprecated alias for the corpus-hygiene subset of $(b,analyze): \
          unreachable resources, unused flag sets and producer-less \
          consumers.")
    Term.(const run_lint $ file_pos_arg)

(* ---- fuzzing-as-a-service: serve / merge / shard-status ---- *)

module Service = Healer_service

let pp_shard_state ppf (s : Service.Shard_state.t) =
  Fmt.pf ppf "  executions        %d@." (Service.Shard_state.total_execs s);
  List.iter
    (fun (shard, n) -> Fmt.pf ppf "    shard %-4d      %d@." shard n)
    s.Service.Shard_state.execs;
  Fmt.pf ppf "  branch coverage   %d@."
    (Healer_util.Bitset.count s.Service.Shard_state.coverage);
  Fmt.pf ppf "  corpus            %d programs@."
    (List.length s.Service.Shard_state.corpus);
  Fmt.pf ppf "  learned relations %d@."
    (Relation_table.count s.Service.Shard_state.relations);
  Fmt.pf ppf "  unique crashes    %d@."
    (List.length s.Service.Shard_state.crashes);
  List.iter
    (fun (r : Triage.record) ->
      Fmt.pf ppf "    %6.1fh  %-44s %-24s repro=%d calls@."
        (r.Triage.first_found /. 3600.0)
        r.Triage.bug_key
        (K.Risk.to_string r.Triage.risk)
        r.Triage.repro_len)
    s.Service.Shard_state.crashes;
  Fmt.pf ppf "  state digest      %s@." (Service.Shard_state.digest s)

let status_line (p : Service.Coordinator.progress) =
  let s = p.Service.Coordinator.state in
  Printf.sprintf
    "{\"epoch\":%d,\"epochs\":%d,\"execs\":%d,\"coverage\":%d,\"corpus\":%d,\
     \"relations\":%d,\"crashes\":%d,\"respawns\":%d,\"bytes_sent\":%d,\
     \"bytes_recv\":%d,\"digest\":%S,\"updated\":%.0f}"
    (p.Service.Coordinator.epoch + 1)
    p.Service.Coordinator.epochs
    (Service.Shard_state.total_execs s)
    (Healer_util.Bitset.count s.Service.Shard_state.coverage)
    (List.length s.Service.Shard_state.corpus)
    (Relation_table.count s.Service.Shard_state.relations)
    (List.length s.Service.Shard_state.crashes)
    p.Service.Coordinator.respawns p.Service.Coordinator.bytes_sent
    p.Service.Coordinator.bytes_recv
    (Service.Shard_state.digest s)
    (Unix.time ())

let run_serve tool version hours seed jobs epochs checkpoint resume stop_after
    watch status_json =
  or_die @@ fun () ->
  if jobs < 1 || jobs > Service.Checkpoint.max_jobs then
    failwith
      (Printf.sprintf "--jobs must be between 1 and %d"
         Service.Checkpoint.max_jobs);
  if epochs < 1 then failwith "--epochs must be at least 1";
  let ck =
    if resume then begin
      let dir =
        match checkpoint with
        | Some dir -> dir
        | None -> failwith "--resume requires --checkpoint DIR"
      in
      let ck =
        Service.Checkpoint.load (K.Kernel.target ())
          ~path:(Service.Checkpoint.file dir)
      in
      Fmt.pr "resuming %s campaign at epoch %d/%d (%d jobs)@."
        (Fuzzer.tool_name ck.Service.Checkpoint.config.Service.Checkpoint.tool)
        ck.Service.Checkpoint.completed
        ck.Service.Checkpoint.config.Service.Checkpoint.epochs
        ck.Service.Checkpoint.config.Service.Checkpoint.jobs;
      ck
    end
    else
      Service.Coordinator.initial
        {
          Service.Checkpoint.tool;
          version;
          jobs;
          base_seed = seed;
          epochs;
          slice = hours *. 3600.0;
        }
  in
  let cfg = ck.Service.Checkpoint.config in
  Fmt.pr "%s on Linux %s: %d shards x %d epochs x %.2f virtual hours (seed %d)@."
    (Fuzzer.tool_name cfg.Service.Checkpoint.tool)
    (K.Version.to_string cfg.Service.Checkpoint.version)
    cfg.Service.Checkpoint.jobs cfg.Service.Checkpoint.epochs
    (cfg.Service.Checkpoint.slice /. 3600.0)
    cfg.Service.Checkpoint.base_seed;
  (* Live status: a one-line JSON snapshot per closed front, written
     atomically so `healer shard-status` (or any dashboard) can poll
     it without ever observing a torn file. --watch throttles the
     cadence; with no file to write, the line goes to stdout. *)
  let status_path =
    match (status_json, checkpoint) with
    | Some f, _ -> Some f
    | None, Some dir when watch <> None ->
      Some (Filename.concat dir "status.json")
    | _ -> None
  in
  let last_status = ref neg_infinity in
  let emit_status p =
    if status_path <> None || watch <> None then begin
      let now = Unix.gettimeofday () in
      let due =
        match watch with None -> true | Some s -> now -. !last_status >= s
      in
      if due then begin
        last_status := now;
        let line = status_line p in
        match status_path with
        | Some path -> Persist.write_atomic ~path (line ^ "\n")
        | None -> Fmt.pr "%s@." line
      end
    end
  in
  let on_epoch (p : Service.Coordinator.progress) =
    Fmt.pr "epoch %d/%d: coverage=%d corpus=%d relations=%d crashes=%d execs=%d@."
      (p.Service.Coordinator.epoch + 1)
      p.Service.Coordinator.epochs
      (Healer_util.Bitset.count
         p.Service.Coordinator.state.Service.Shard_state.coverage)
      (List.length p.Service.Coordinator.state.Service.Shard_state.corpus)
      (Relation_table.count
         p.Service.Coordinator.state.Service.Shard_state.relations)
      (List.length p.Service.Coordinator.state.Service.Shard_state.crashes)
      (Service.Shard_state.total_execs p.Service.Coordinator.state);
    emit_status p
  in
  let outcome =
    Service.Coordinator.run ?checkpoint_dir:checkpoint ?stop_after ~on_epoch ck
  in
  let final = outcome.Service.Coordinator.final in
  (* The throttle may have swallowed the last front; always leave the
     final state on disk. *)
  (match status_path with
  | Some path when final.Service.Checkpoint.completed > 0 ->
    Persist.write_atomic ~path
      (status_line
         {
           Service.Coordinator.epoch = final.Service.Checkpoint.completed - 1;
           epochs = final.Service.Checkpoint.config.Service.Checkpoint.epochs;
           state = final.Service.Checkpoint.state;
           respawns = outcome.Service.Coordinator.respawns;
           bytes_sent = outcome.Service.Coordinator.bytes_sent;
           bytes_recv = outcome.Service.Coordinator.bytes_recv;
         }
       ^ "\n")
  | _ -> ());
  if final.Service.Checkpoint.completed
     < final.Service.Checkpoint.config.Service.Checkpoint.epochs
  then
    Fmt.pr "stopped after epoch %d/%d (resume with --resume)@."
      final.Service.Checkpoint.completed
      final.Service.Checkpoint.config.Service.Checkpoint.epochs;
  if outcome.Service.Coordinator.respawns > 0 then
    Fmt.pr "worker deaths recovered: %d@." outcome.Service.Coordinator.respawns;
  Fmt.pr "wire traffic: %d bytes out / %d bytes in (%d+%d frames)@."
    outcome.Service.Coordinator.bytes_sent
    outcome.Service.Coordinator.bytes_recv
    outcome.Service.Coordinator.frames_sent
    outcome.Service.Coordinator.frames_recv;
  Fmt.pr "%a" pp_shard_state final.Service.Checkpoint.state

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "checkpoint" ] ~docv:"DIR"
        ~doc:"Campaign directory; the checkpoint is written (atomically) \
              after every epoch.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a sharded fuzzing campaign: one worker process per shard, \
          pipelined (barrier-free) synchronization of relations, coverage, \
          corpus and crashes via incremental CRDT deltas, durable \
          checkpoints, automatic respawn of dead workers. $(b,--hours) is \
          the virtual time each shard fuzzes per epoch; results do not \
          depend on worker timing, deaths or interruptions.")
    Term.(
      const run_serve $ tool_arg $ version_arg
      $ Arg.(
          value
          & opt float 0.25
          & info [ "H"; "hours" ] ~docv:"HOURS"
              ~doc:"Virtual hours each shard fuzzes per epoch.")
      $ seed_arg
      $ Arg.(
          value & opt int 2
          & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker shards (at most 256).")
      $ Arg.(
          value & opt int 4
          & info [ "e"; "epochs" ] ~docv:"N" ~doc:"Synchronization rounds.")
      $ checkpoint_arg
      $ Arg.(
          value & flag
          & info [ "resume" ]
              ~doc:
                "Continue from the checkpoint in $(b,--checkpoint) (its \
                 recorded configuration wins over the command line).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "stop-after-epoch" ] ~docv:"N"
              ~doc:
                "Shut down cleanly once N epochs have completed — simulates \
                 an interrupted daemon for resume testing.")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "watch" ] ~docv:"SECS"
              ~doc:
                "Emit a one-line JSON status at most every SECS seconds \
                 (to $(b,--status-json), to \
                 $(b,--checkpoint)/status.json, or to stdout).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "status-json" ] ~docv:"FILE"
              ~doc:
                "Write the one-line JSON status to FILE (atomic \
                 write-then-rename) after every merged epoch."))

let run_merge a b output =
  or_die @@ fun () ->
  let target = K.Kernel.target () in
  let ca = Service.Checkpoint.load target ~path:a in
  let cb = Service.Checkpoint.load target ~path:b in
  let m = Service.Checkpoint.merge ca cb in
  Persist.write_atomic ~path:output (Service.Checkpoint.to_string m);
  Fmt.pr "merged %s + %s -> %s@." a b output;
  Fmt.pr "  digest %s@."
    (Service.Shard_state.digest m.Service.Checkpoint.state)

let merge_cmd =
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "CRDT-join two campaign checkpoints into one: relation edges, \
          coverage and corpus union; earliest crash record per signature; \
          pointwise-max execution counters. Commutative, associative and \
          idempotent, so any merge order (or re-merge) yields the same \
          bytes.")
    Term.(
      const run_merge
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"A" ~doc:"First checkpoint (file or campaign dir).")
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"B" ~doc:"Second checkpoint (file or campaign dir).")
      $ Arg.(
          required
          & opt (some string) None
          & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Merged checkpoint file."))

let run_shard_status path equal =
  or_die @@ fun () ->
  let target = K.Kernel.target () in
  let ck = Service.Checkpoint.load target ~path in
  let cfg = ck.Service.Checkpoint.config in
  Fmt.pr "%s: %s on Linux %s, %d shards, epoch %d/%d, slice %.2fh, seed %d@."
    path
    (Fuzzer.tool_name cfg.Service.Checkpoint.tool)
    (K.Version.to_string cfg.Service.Checkpoint.version)
    cfg.Service.Checkpoint.jobs ck.Service.Checkpoint.completed
    cfg.Service.Checkpoint.epochs
    (cfg.Service.Checkpoint.slice /. 3600.0)
    cfg.Service.Checkpoint.base_seed;
  Fmt.pr "%a" pp_shard_state ck.Service.Checkpoint.state;
  (* A serve --watch daemon leaves a live status line beside the
     checkpoint; surface it (wire counters, respawns, freshness). *)
  (let status =
     Filename.concat
       (if Sys.file_exists path && Sys.is_directory path then path
        else Filename.dirname path)
       "status.json"
   in
   if Sys.file_exists status then
     let ic = open_in_bin status in
     Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () ->
         match input_line ic with
         | line -> Fmt.pr "  live status       %s@." line
         | exception End_of_file -> ()));
  match equal with
  | None -> ()
  | Some other ->
    let co = Service.Checkpoint.load target ~path:other in
    if
      Service.Shard_state.equal ck.Service.Checkpoint.state
        co.Service.Checkpoint.state
      && ck.Service.Checkpoint.completed = co.Service.Checkpoint.completed
    then Fmt.pr "states are identical@."
    else begin
      Fmt.epr "error: states differ: %s (epoch %d, digest %s) vs %s (epoch %d, digest %s)@."
        path ck.Service.Checkpoint.completed
        (Service.Shard_state.digest ck.Service.Checkpoint.state)
        other co.Service.Checkpoint.completed
        (Service.Shard_state.digest co.Service.Checkpoint.state);
      exit 1
    end

let shard_status_cmd =
  Cmd.v
    (Cmd.info "shard-status"
       ~doc:
         "Print a campaign checkpoint: configuration, progress, per-shard \
          execution counters, merged coverage/corpus/relations/crashes and \
          the canonical state digest. With $(b,--equal), exit non-zero \
          unless the other checkpoint holds the bit-identical merged state \
          (the sharding determinism oracle).")
    Term.(
      const run_shard_status
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"PATH" ~doc:"Checkpoint file or campaign dir.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "equal" ] ~docv:"OTHER"
              ~doc:"Compare against another checkpoint's merged state."))

let () =
  let info =
    Cmd.info "healer" ~version:"1.0.0"
      ~doc:"Relation-learning guided kernel fuzzing on a simulated Linux kernel"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fuzz_cmd; target_cmd; bugs_cmd; relations_cmd; compare_cmd;
            analyze_cmd; lint_cmd; serve_cmd; merge_cmd; shard_status_cmd;
          ]))
