(* The sharded campaign service: CRDT merge laws for every state
   component, wire/checkpoint serialization robustness, and the
   coordinator's determinism guarantees (forked == sequential,
   interrupted+resumed == uninterrupted, worker death == no-op). *)

module Bitset = Healer_util.Bitset
module Target = Healer_syzlang.Target
module K = Healer_kernel
module Serializer = Healer_executor.Serializer
module S = Healer_service
open Healer_core
open Helpers

let n_syscalls () = Target.n_syscalls (tgt ())

let sample_progs =
  lazy
    [
      prog [ call "sync$ALL" [ i 0L; i 0L ] ];
      prog [ call "memfd_create" [ ptr (s "m"); i 2L ] ];
      prog
        [ call "socket$tcp" [ i 2L; i 1L; i 6L ]; call "listen" [ r 0; iv 8 ] ];
      prog [ call "socket$udp" [ i 2L; i 2L; i 17L ] ];
    ]

let sample_records =
  lazy
    (let ps = Lazy.force sample_progs in
     let p n = List.nth ps n in
     let risk n = List.nth K.Risk.all (n mod List.length K.Risk.all) in
     [
       {
         Triage.bug_key = "bug_a";
         risk = risk 0;
         signature = "sig_a";
         first_found = 10.0;
         reproducer = p 0;
         repro_len = 1;
       };
       {
         Triage.bug_key = "bug_a";
         risk = risk 0;
         signature = "sig_a";
         first_found = 5.0;
         reproducer = p 2;
         repro_len = 2;
       };
       {
         Triage.bug_key = "bug_b";
         risk = risk 1;
         signature = "sig_b";
         first_found = 99.0;
         reproducer = p 1;
         repro_len = 1;
       };
       {
         Triage.bug_key = "bug_c";
         risk = risk 2;
         signature = "sig_c";
         first_found = 7.0;
         reproducer = p 3;
         repro_len = 1;
       };
     ])

(* ---- generators ---- *)

let gen_state =
  let open QCheck2.Gen in
  let pick_from l = map (fun idx -> List.nth l idx) (int_bound (List.length l - 1)) in
  let* edges =
    small_list (pair (int_bound (n_syscalls () - 1)) (int_bound (n_syscalls () - 1)))
  in
  let* cov = small_list (int_bound 5000) in
  let* progs = small_list (pick_from (Lazy.force sample_progs)) in
  let* crashes = small_list (pick_from (Lazy.force sample_records)) in
  let* execs = small_list (pair (int_bound 3) (int_bound 1000)) in
  return
    (let relations = Relation_table.create (n_syscalls ()) in
     List.iter (fun (a, b) -> ignore (Relation_table.set relations a b)) edges;
     let coverage = Bitset.create () in
     List.iter (Bitset.add coverage) cov;
     {
       S.Shard_state.n_syscalls = n_syscalls ();
       relations;
       coverage;
       corpus = List.map (fun p -> (Corpus.key p, p)) progs;
       crashes;
       execs;
     })

let gen_edges n =
  QCheck2.Gen.(small_list (pair (int_bound (n - 1)) (int_bound (n - 1))))

let table_of_edges n edges =
  let t = Relation_table.create n in
  List.iter (fun (a, b) -> ignore (Relation_table.set t a b)) edges;
  t

let bitset_of l =
  let b = Bitset.create () in
  List.iter (Bitset.add b) l;
  b

let corpus_of progs =
  let c = Corpus.create (tgt ()) in
  List.iter (fun p -> ignore (Corpus.add c p ~new_blocks:1)) progs;
  c

let corpus_progs c =
  let acc = ref [] in
  Corpus.iter (fun p -> acc := Serializer.encode p :: !acc) c;
  List.sort compare !acc

let record_key (r : Triage.record) =
  (r.Triage.signature, r.Triage.first_found, Serializer.encode r.Triage.reproducer)

(* ---- CRDT law properties ---- *)

let eq = S.Shard_state.equal
let ( <+> ) = S.Shard_state.merge

let state_props =
  let open QCheck2.Gen in
  [
    qcheck ~count:100 "state merge commutative" (pair gen_state gen_state)
      (fun (a, b) -> eq (a <+> b) (b <+> a));
    qcheck ~count:100 "state merge associative"
      (triple gen_state gen_state gen_state)
      (fun (a, b, c) -> eq ((a <+> b) <+> c) (a <+> (b <+> c)));
    qcheck ~count:100 "state merge idempotent" gen_state (fun a ->
        eq (a <+> a) a);
    qcheck ~count:100 "empty is identity" gen_state (fun a ->
        eq (a <+> S.Shard_state.empty ~n_syscalls:(n_syscalls ())) a);
    qcheck ~count:100 "serialization roundtrip" gen_state (fun a ->
        eq a (S.Shard_state.of_string (tgt ()) (S.Shard_state.to_string a)));
    qcheck ~count:100 "canonical bytes: digest agrees across merge order"
      (pair gen_state gen_state)
      (fun (a, b) ->
        String.equal (S.Shard_state.digest (a <+> b)) (S.Shard_state.digest (b <+> a)));
  ]

(* The incremental-protocol laws: a diff is a sparse state that, merged
   back into its base, reconstructs exactly what shipping the full
   state would have. *)
let diff_props =
  let open QCheck2.Gen in
  let diff = S.Shard_state.diff in
  [
    qcheck ~count:100 "apply law: merge base (diff base s) == merge base s"
      (pair gen_state gen_state)
      (fun (base, s) -> eq (base <+> diff ~since:base s) (base <+> s));
    qcheck ~count:100 "self diff is empty" gen_state (fun a ->
        S.Shard_state.is_empty (diff ~since:a a));
    qcheck ~count:100 "diff against a superset is empty"
      (pair gen_state gen_state)
      (fun (a, b) -> S.Shard_state.is_empty (diff ~since:(a <+> b) a));
    qcheck ~count:100 "diff applies idempotently" (pair gen_state gen_state)
      (fun (base, s) ->
        let d = diff ~since:base s in
        eq (base <+> d <+> d) (base <+> d));
    qcheck ~count:100 "diff survives the wire" (pair gen_state gen_state)
      (fun (base, s) ->
        let d =
          S.Shard_state.of_string (tgt ())
            (S.Shard_state.to_string (diff ~since:base s))
        in
        eq (base <+> d) (base <+> s));
  ]

let relation_props =
  let open QCheck2.Gen in
  let n = 40 in
  let t = table_of_edges n in
  let eq a b = Relation_table.edges a = Relation_table.edges b in
  [
    qcheck "relation merge commutative" (pair (gen_edges n) (gen_edges n))
      (fun (a, b) ->
        eq (Relation_table.merge (t a) (t b)) (Relation_table.merge (t b) (t a)));
    qcheck "relation merge associative"
      (triple (gen_edges n) (gen_edges n) (gen_edges n))
      (fun (a, b, c) ->
        eq
          (Relation_table.merge (Relation_table.merge (t a) (t b)) (t c))
          (Relation_table.merge (t a) (Relation_table.merge (t b) (t c))));
    qcheck "relation merge idempotent" (gen_edges n) (fun a ->
        eq (Relation_table.merge (t a) (t a)) (t a));
    qcheck "empty table is identity" (gen_edges n) (fun a ->
        eq (Relation_table.merge (t a) (Relation_table.create n)) (t a));
  ]

let coverage_props =
  let open QCheck2.Gen in
  let ids = small_list (int_bound 10_000) in
  let union a b =
    let d = Bitset.copy (bitset_of a) in
    Bitset.union_into ~dst:d (bitset_of b);
    Bitset.elements d
  in
  [
    qcheck "coverage union commutative" (pair ids ids) (fun (a, b) ->
        union a b = union b a);
    qcheck "coverage union idempotent" ids (fun a -> union a a = Bitset.elements (bitset_of a));
    qcheck "coverage union associative" (triple ids ids ids) (fun (a, b, c) ->
        union (union a b) c = union a (union b c));
  ]

let corpus_props =
  let open QCheck2.Gen in
  let progs = small_list (map (List.nth (Lazy.force sample_progs)) (int_bound 3)) in
  let merged a b =
    let c = corpus_of a in
    ignore (Corpus.merge_into ~dst:c (corpus_of b));
    corpus_progs c
  in
  [
    qcheck "corpus merge commutative" (pair progs progs) (fun (a, b) ->
        merged a b = merged b a);
    qcheck "corpus merge idempotent" progs (fun a ->
        merged a a = corpus_progs (corpus_of a));
    qcheck "corpus merge associative" (triple progs progs progs)
      (fun (a, b, c) ->
        (let ab = corpus_of a in
         ignore (Corpus.merge_into ~dst:ab (corpus_of b));
         ignore (Corpus.merge_into ~dst:ab (corpus_of c));
         corpus_progs ab)
        = merged a (b @ c));
  ]

let crash_props =
  let open QCheck2.Gen in
  let recs = small_list (map (List.nth (Lazy.force sample_records)) (int_bound 3)) in
  let m lists = List.map record_key (Triage.merge_records lists) in
  [
    qcheck "crash merge commutative" (pair recs recs) (fun (a, b) ->
        m [ a; b ] = m [ b; a ]);
    qcheck "crash merge associative" (triple recs recs recs)
      (fun (a, b, c) -> m [ Triage.merge_records [ a; b ]; c ] = m [ a; Triage.merge_records [ b; c ] ]);
    qcheck "crash merge idempotent" recs (fun a -> m [ a; a ] = m [ a ]);
    qcheck "earliest record wins" (pair recs recs) (fun (a, b) ->
        List.for_all
          (fun (r : Triage.record) ->
            List.for_all
              (fun (o : Triage.record) ->
                (not (String.equal o.Triage.signature r.Triage.signature))
                || o.Triage.first_found >= r.Triage.first_found)
              (a @ b))
          (Triage.merge_records [ a; b ]));
  ]

(* ---- wire protocol ---- *)

let test_wire_frames_over_pipe () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      S.Wire.send_frame w S.Wire.Epoch "payload one";
      (* Stays under the pipe buffer: both ends live in this process,
         so an oversized frame would block the write forever. *)
      S.Wire.send_frame w S.Wire.Delta (String.make 16_000 'x');
      S.Wire.send_frame w S.Wire.Quit "";
      let tag, p = S.Wire.recv_frame r in
      Alcotest.(check bool) "epoch tag" true (tag = S.Wire.Epoch);
      Alcotest.(check string) "payload" "payload one" p;
      let tag, p = S.Wire.recv_frame r in
      Alcotest.(check bool) "delta tag" true (tag = S.Wire.Delta);
      Alcotest.(check int) "large payload intact" 16_000 (String.length p);
      let tag, _ = S.Wire.recv_frame r in
      Alcotest.(check bool) "quit tag" true (tag = S.Wire.Quit);
      Unix.close w;
      match S.Wire.recv_frame r with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "expected EOF after writer closed")

let test_wire_rejects_garbage () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.write_substring w "Z\x05hello" 0 7);
      match S.Wire.recv_frame r with
      | exception Healer_util.Codec.Malformed _ -> ()
      | _ -> Alcotest.fail "accepted unknown frame tag")

(* ---- worker determinism and delta folding ---- *)

let small_cfg ?(jobs = 2) ?(epochs = 2) ?(seed = 5) ?(slice = 30.0) () =
  {
    S.Checkpoint.tool = Fuzzer.Healer;
    version = K.Version.V5_11;
    jobs;
    base_seed = seed;
    epochs;
    slice;
  }

let test_worker_deterministic () =
  let cfg = small_cfg () in
  let g = S.Shard_state.of_target (tgt ()) in
  let d1 = S.Worker.run_epoch cfg ~shard:0 ~epoch:0 g in
  let d2 = S.Worker.run_epoch cfg ~shard:0 ~epoch:0 g in
  Alcotest.(check string) "identical delta bytes"
    (S.Shard_state.delta_to_string d1)
    (S.Shard_state.delta_to_string d2)

let test_fold_order_irrelevant () =
  let cfg = small_cfg () in
  let g = S.Shard_state.of_target (tgt ()) in
  let d0 = S.Worker.run_epoch cfg ~shard:0 ~epoch:0 g in
  let d1 = S.Worker.run_epoch cfg ~shard:1 ~epoch:0 g in
  let a = S.Shard_state.apply (S.Shard_state.apply g d0) d1 in
  let b = S.Shard_state.apply (S.Shard_state.apply g d1) d0 in
  Alcotest.(check bool) "two shards fold to the same state either way" true
    (eq a b);
  Alcotest.(check int) "exec counters are exact"
    (d0.S.Shard_state.d_execs + d1.S.Shard_state.d_execs)
    (S.Shard_state.total_execs a)

let test_delta_roundtrip () =
  let cfg = small_cfg () in
  let g = S.Shard_state.of_target (tgt ()) in
  let d = S.Worker.run_epoch cfg ~shard:1 ~epoch:0 g in
  let d' =
    S.Shard_state.delta_of_string (tgt ()) (S.Shard_state.delta_to_string d)
  in
  Alcotest.(check int) "shard" d.S.Shard_state.shard d'.S.Shard_state.shard;
  Alcotest.(check int) "epoch" d.S.Shard_state.epoch d'.S.Shard_state.epoch;
  Alcotest.(check int) "d_execs" d.S.Shard_state.d_execs d'.S.Shard_state.d_execs;
  Alcotest.(check bool) "outcome" true
    (eq d.S.Shard_state.outcome d'.S.Shard_state.outcome)

(* The sequential oracle's fronts: F(e) after epoch e, so epoch e runs
   on [lag2 fronts e], F(e-2) or the empty state. *)
let oracle_fronts cfg =
  let fronts = ref [] in
  ignore
    (S.Coordinator.run ~forked:false
       ~on_epoch:(fun p -> fronts := p.S.Coordinator.state :: !fronts)
       (S.Coordinator.initial cfg));
  Array.of_list (List.rev !fronts)

let lag2 fronts e = if e >= 2 then fronts.(e - 2) else S.Shard_state.of_target (tgt ())

(* A worker carries each corpus key instead of recomputing it: every
   key it reports must still be the program's. *)
let test_epoch_keys () =
  let cfg = small_cfg ~epochs:4 () in
  let fronts = oracle_fronts cfg in
  for epoch = 0 to cfg.S.Checkpoint.epochs - 1 do
    for shard = 0 to cfg.S.Checkpoint.jobs - 1 do
      let d = S.Worker.run_epoch cfg ~shard ~epoch (lag2 fronts epoch) in
      List.iter
        (fun (k, p) ->
          Alcotest.(check string)
            (Printf.sprintf "shard %d epoch %d key" shard epoch)
            (Corpus.key p) k)
        d.S.Shard_state.outcome.S.Shard_state.corpus
    done
  done

(* What a fuzzer is made of, in the orders it holds them. *)
let fuzzer_summary f =
  let keys = ref [] in
  Corpus.iter_keyed (fun k _ -> keys := k :: !keys) (Fuzzer.corpus f);
  ( (Fuzzer.execs f, Fuzzer.coverage f, Fuzzer.relation_count f),
    List.rev !keys,
    List.map (fun (r : Triage.record) -> r.Triage.bug_key) (Triage.records (Fuzzer.triage f)) )

(* Ingesting a front's keyed corpus one program at a time is the
   fuzzer [~initial_seeds] builds, before and after a slice of fuzzing
   — also for Moonshine, whose distilled seeds come first. *)
let test_keyed_ingest_equals_initial_seeds () =
  let cfg = small_cfg ~epochs:3 () in
  let front = (oracle_fronts cfg).(2) in
  Alcotest.(check bool) "front has a corpus" true (front.S.Shard_state.corpus <> []);
  List.iter
    (fun tool ->
      let fcfg = Fuzzer.config ~seed:11 ~tool ~version:K.Version.V5_11 () in
      let initial_relations = front.S.Shard_state.relations in
      let seeded =
        Fuzzer.create ~initial_relations
          ~initial_seeds:(List.map snd front.S.Shard_state.corpus)
          fcfg
      in
      let keyed = Fuzzer.create ~initial_relations fcfg in
      List.iter (fun (key, p) -> Fuzzer.ingest keyed ~key p) front.S.Shard_state.corpus;
      let same what =
        let ((execs, cov, rels), keys, crashes) = fuzzer_summary seeded in
        let ((execs', cov', rels'), keys', crashes') = fuzzer_summary keyed in
        let name s = Printf.sprintf "%s %s: %s" (Fuzzer.tool_name tool) what s in
        Alcotest.(check (list int)) (name "execs, coverage, relations")
          [ execs; cov; rels ] [ execs'; cov'; rels' ];
        Alcotest.(check (list string)) (name "corpus keys") keys keys';
        Alcotest.(check (list string)) (name "crash keys") crashes crashes'
      in
      same "ingested";
      Fuzzer.run_until seeded 60.0;
      Fuzzer.run_until keyed 60.0;
      same "after a slice")
    [ Fuzzer.Healer; Fuzzer.Moonshine ]

(* ---- coordinator ---- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "healer-svc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let run ?forked ?mode ?checkpoint_dir ?stop_after ?chaos cfg_or_ck =
  S.Coordinator.run ?forked ?mode ?checkpoint_dir ?stop_after ?chaos cfg_or_ck

let test_forked_equals_sequential () =
  let cfg = small_cfg () in
  let seq = (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final in
  let fkd = (run ~forked:true (S.Coordinator.initial cfg)).S.Coordinator.final in
  Alcotest.(check bool) "bit-identical merged state" true
    (eq seq.S.Checkpoint.state fkd.S.Checkpoint.state);
  Alcotest.(check int) "same epochs completed" seq.S.Checkpoint.completed
    fkd.S.Checkpoint.completed;
  Alcotest.(check bool) "campaign made progress" true
    (S.Shard_state.total_execs seq.S.Checkpoint.state > 0)

let test_interrupted_resume () =
  with_tmpdir @@ fun dir ->
  let cfg = small_cfg ~epochs:3 () in
  let full = (run ~forked:true (S.Coordinator.initial cfg)).S.Coordinator.final in
  (* Kill the campaign after one epoch, then resume from disk. *)
  let part =
    (run ~forked:true ~checkpoint_dir:dir ~stop_after:1
       (S.Coordinator.initial cfg))
      .S.Coordinator.final
  in
  Alcotest.(check int) "stopped early" 1 part.S.Checkpoint.completed;
  let loaded = S.Checkpoint.load (tgt ()) ~path:dir in
  Alcotest.(check bool) "checkpoint holds the interrupted state" true
    (eq part.S.Checkpoint.state loaded.S.Checkpoint.state);
  let resumed = (run ~forked:true ~checkpoint_dir:dir loaded).S.Coordinator.final in
  Alcotest.(check int) "resumed to completion" cfg.S.Checkpoint.epochs
    resumed.S.Checkpoint.completed;
  Alcotest.(check bool) "resumed == uninterrupted (relations, coverage, \
                         corpus, crashes, execs)" true
    (eq full.S.Checkpoint.state resumed.S.Checkpoint.state)

let test_worker_death_respawn () =
  let cfg = small_cfg () in
  let baseline =
    (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final
  in
  let killed = ref 0 in
  let chaos ~epoch pids =
    if epoch = 0 then
      match pids with
      | (_, pid) :: _ ->
        incr killed;
        Unix.kill pid Sys.sigkill
      | [] -> ()
  in
  let out = run ~forked:true ~chaos (S.Coordinator.initial cfg) in
  Alcotest.(check int) "one worker was killed" 1 !killed;
  Alcotest.(check bool) "death was detected and recovered" true
    (out.S.Coordinator.respawns >= 1);
  Alcotest.(check bool) "worker death does not perturb results" true
    (eq baseline.S.Checkpoint.state out.S.Coordinator.final.S.Checkpoint.state)

(* Both forked modes execute the same lag-2 schedule, so the pipelined
   coordinator must land on the barrier oracle's digest, bit for bit —
   and both on the in-process oracle's. *)
let test_async_equals_barrier () =
  let cfg = small_cfg ~epochs:4 ~jobs:3 () in
  let digest_of mode =
    let final =
      (run ~forked:true ~mode (S.Coordinator.initial cfg)).S.Coordinator.final
    in
    Alcotest.(check int) "completed all epochs" cfg.S.Checkpoint.epochs
      final.S.Checkpoint.completed;
    S.Shard_state.digest final.S.Checkpoint.state
  in
  let async = digest_of S.Coordinator.Async in
  let barrier = digest_of S.Coordinator.Barrier in
  let seq =
    S.Shard_state.digest
      (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final
        .S.Checkpoint.state
  in
  Alcotest.(check string) "async == barrier" barrier async;
  Alcotest.(check string) "async == sequential oracle" seq async

(* Killing workers mid-campaign must not perturb the async digest
   either: respawned workers are re-seeded with a full diff and
   reproduce the lost slice exactly. *)
let test_async_chaos_equals_barrier () =
  let cfg = small_cfg ~epochs:3 () in
  let baseline =
    (run ~forked:true ~mode:S.Coordinator.Barrier (S.Coordinator.initial cfg))
      .S.Coordinator.final
  in
  let chaos ~epoch pids =
    if epoch <= 1 then
      match List.nth_opt pids (epoch mod List.length pids) with
      | Some (_, pid) -> Unix.kill pid Sys.sigkill
      | None -> ()
  in
  let out =
    run ~forked:true ~mode:S.Coordinator.Async ~chaos
      (S.Coordinator.initial cfg)
  in
  Alcotest.(check bool) "deaths were recovered" true
    (out.S.Coordinator.respawns >= 1);
  Alcotest.(check string) "chaos async == clean barrier"
    (S.Shard_state.digest baseline.S.Checkpoint.state)
    (S.Shard_state.digest out.S.Coordinator.final.S.Checkpoint.state)

(* ---- checkpoint durability ---- *)

let test_checkpoint_roundtrip () =
  let cfg = small_cfg ~epochs:1 () in
  let ck = (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final in
  let ck' = S.Checkpoint.of_string (tgt ()) (S.Checkpoint.to_string ck) in
  Alcotest.(check bool) "state" true (eq ck.S.Checkpoint.state ck'.S.Checkpoint.state);
  Alcotest.(check int) "completed" ck.S.Checkpoint.completed ck'.S.Checkpoint.completed;
  Alcotest.(check int) "jobs" ck.S.Checkpoint.config.S.Checkpoint.jobs
    ck'.S.Checkpoint.config.S.Checkpoint.jobs;
  Alcotest.(check (float 0.0)) "slice" ck.S.Checkpoint.config.S.Checkpoint.slice
    ck'.S.Checkpoint.config.S.Checkpoint.slice

let test_checkpoint_midwrite_crash () =
  with_tmpdir @@ fun dir ->
  let cfg = small_cfg ~epochs:1 () in
  let ck = (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final in
  S.Checkpoint.save ~dir ck;
  (* A crash mid-write leaves a partial temp file behind but never
     touches the live checkpoint: the rename is the commit point. *)
  let oc = open_out_bin (S.Checkpoint.file dir ^ ".tmp") in
  output_string oc "partial garbage cut off mid-wr";
  close_out oc;
  let loaded = S.Checkpoint.load (tgt ()) ~path:dir in
  Alcotest.(check bool) "previous checkpoint intact after simulated crash" true
    (eq ck.S.Checkpoint.state loaded.S.Checkpoint.state)

let test_checkpoint_merge () =
  let ck seed =
    (run ~forked:false (S.Coordinator.initial (small_cfg ~epochs:1 ~seed ())))
      .S.Coordinator.final
  in
  let a = ck 5 and b = ck 23 in
  let ab = S.Checkpoint.merge a b and ba = S.Checkpoint.merge b a in
  Alcotest.(check bool) "merged states agree either way" true
    (eq ab.S.Checkpoint.state ba.S.Checkpoint.state);
  Alcotest.(check bool) "merge dominates both inputs" true
    (eq ab.S.Checkpoint.state
       (S.Shard_state.merge ab.S.Checkpoint.state a.S.Checkpoint.state)
    && eq ab.S.Checkpoint.state
         (S.Shard_state.merge ab.S.Checkpoint.state b.S.Checkpoint.state))

let suite =
  state_props @ diff_props @ relation_props @ coverage_props @ corpus_props
  @ crash_props
  @ [
      case "wire frames over a pipe" test_wire_frames_over_pipe;
      case "wire rejects unknown tags" test_wire_rejects_garbage;
      case "worker epoch is deterministic" test_worker_deterministic;
      case "delta fold order is irrelevant" test_fold_order_irrelevant;
      case "delta roundtrip" test_delta_roundtrip;
      case "worker keys are the programs' keys" test_epoch_keys;
      case "keyed ingestion == initial seeds" test_keyed_ingest_equals_initial_seeds;
      case "forked == sequential" test_forked_equals_sequential;
      case "interrupted + resumed == uninterrupted" test_interrupted_resume;
      case "worker death: respawn, same results" test_worker_death_respawn;
      case "pipelined == barrier == sequential" test_async_equals_barrier;
      case "chaos kills leave the async digest fixed"
        test_async_chaos_equals_barrier;
      case "checkpoint roundtrip" test_checkpoint_roundtrip;
      case "mid-write crash keeps previous checkpoint" test_checkpoint_midwrite_crash;
      case "checkpoint merge" test_checkpoint_merge;
    ]
