(* The prefix-caching execution engine: resumed execution must be
   bit-identical to fresh execution, campaigns must not change with
   the cache on or off, and the LRU bounds must hold. *)

module Prog = Healer_executor.Prog
module Exec = Healer_executor.Exec
module Exec_cache = Healer_executor.Exec_cache
module Compiled = Healer_executor.Compiled
module Serializer = Healer_executor.Serializer
module Target = Healer_syzlang.Target
module Rng = Healer_util.Rng
module K = Healer_kernel
open Healer_core
open Helpers

let gen_prog seed =
  let rng = Rng.create seed in
  Gen.generate rng (tgt ())
    ~select:(fun ~sub:_ -> Rng.int rng (Target.n_syscalls (tgt ())))
    ()

let same_result what (a : Exec.run_result) (b : Exec.run_result) =
  (match (a.Exec.crash, b.Exec.crash) with
  | None, None -> true
  | Some x, Some y -> x.K.Crash.bug_key = y.K.Crash.bug_key
  | _ -> false)
  && Array.length a.Exec.calls = Array.length b.Exec.calls
  && Array.for_all2
       (fun (x : Exec.call_result) (y : Exec.call_result) ->
         x.Exec.retval = y.Exec.retval
         && x.Exec.errno = y.Exec.errno
         && x.Exec.executed = y.Exec.executed
         && Exec.cov_equal x.Exec.cov y.Exec.cov)
       a.Exec.calls b.Exec.calls
  ||
  (Fmt.epr "mismatch: %s@." what;
   false)

(* run_from with the state+results of a fresh prefix run reproduces a
   full run exactly, for every split point of every generated
   program. *)
let test_run_from_equiv =
  qcheck ~count:100 "run_from ≡ run at every split point"
    QCheck2.Gen.(pair small_int (int_range 0 40))
    (fun (seed, cut) ->
      let p = gen_prog seed in
      let n = Prog.length p in
      let k = if n = 0 then 0 else cut mod (n + 1) in
      let full = run p in
      let kernel = boot () in
      let prefix_crashed =
        k > 0 && (snd (Exec.run kernel (Prog.sub p k))).Exec.crash <> None
      in
      if prefix_crashed then true
        (* A crashed prefix leaves no resumable state — the cache
           never snapshots it either. *)
      else begin
        let kernel, pre =
          if k = 0 then (kernel, [||])
          else
            let kernel, r = Exec.run kernel (Prog.sub p k) in
            (kernel, Array.sub r.Exec.calls 0 k)
        in
        let _, resumed =
          Exec.run_from_compiled ~prefix:pre kernel (Compiled.compile p)
        in
        same_result "run_from" full resumed
      end)

(* The cache is invisible: for a program, its re-runs and its removal
   variants (minimization's probe shape), cached results equal fresh
   execution — including crashing programs, which always re-crash
   live. Each variant runs twice so the second run resumes from
   snapshots the first already consumed (catches shallow copies). *)
let test_cache_equiv =
  qcheck ~count:60 "cached probe ≡ uncached" QCheck2.Gen.small_int
    (fun seed ->
      let p = gen_prog seed in
      let cache = Exec_cache.create ~version:K.Version.V5_11 () in
      let check q =
        let fresh = run q in
        same_result "first cached run" fresh (Exec_cache.run cache q)
        && same_result "second cached run" fresh (Exec_cache.run cache q)
      in
      let variants =
        if Prog.length p <= 1 then []
        else List.init (Prog.length p) (fun pos -> Prog.remove p pos)
      in
      List.for_all check (p :: variants))

let test_cache_counters () =
  let cache = Exec_cache.create ~version:K.Version.V5_11 () in
  let p =
    prog
      [
        call "open" [ s "/etc/passwd"; i 0L; i 0L ];
        call "read" [ r 0; buf 16; iv 16 ];
        call "close" [ r 0 ];
      ]
  in
  ignore (Exec_cache.run cache p);
  let st = Exec_cache.stats cache in
  Alcotest.(check int) "first run misses" 1 st.Exec_cache.misses;
  Alcotest.(check int) "three live calls" 3 st.Exec_cache.executed_calls;
  ignore (Exec_cache.run cache p);
  Alcotest.(check int) "second run hits" 1 st.Exec_cache.hits;
  Alcotest.(check int) "full hit" 1 st.Exec_cache.full_hits;
  Alcotest.(check int) "all calls resumed" 3 st.Exec_cache.resumed_calls;
  Alcotest.(check int) "nothing re-executed" 3 st.Exec_cache.executed_calls;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Exec_cache.hit_rate cache);
  (* A shorter prefix of the same program resumes mid-path. *)
  ignore (Exec_cache.run cache (Prog.remove p 2));
  Alcotest.(check int) "prefix resumes" 2 st.Exec_cache.hits

let test_cache_lru_eviction () =
  let cache = Exec_cache.create ~capacity:2 ~version:K.Version.V5_11 () in
  let mk path = prog [ call "open" [ s path; i 0L; i 0L ] ] in
  List.iter
    (fun path -> ignore (Exec_cache.run cache (mk path)))
    [ "/etc/passwd"; "/etc/shadow"; "/etc/hosts"; "/tmp/a"; "/tmp/b" ];
  let st = Exec_cache.stats cache in
  Alcotest.(check bool) "snapshots bounded" true (Exec_cache.snapshot_count cache <= 2);
  Alcotest.(check bool) "evicted" true (st.Exec_cache.evictions >= 3);
  (* Evicting a snapshot keeps the node's results: re-runs are still
     full hits, just without a restorable kernel downstream. *)
  ignore (Exec_cache.run cache (mk "/etc/passwd"));
  Alcotest.(check bool) "results survive eviction" true (st.Exec_cache.full_hits >= 1)

let test_cache_flush_at_node_capacity () =
  let cache = Exec_cache.create ~capacity:2 ~node_capacity:4 ~version:K.Version.V5_11 () in
  let mk path = prog [ call "open" [ s path; i 0L; i 0L ] ] in
  List.iter
    (fun path -> ignore (Exec_cache.run cache (mk path)))
    [ "/a"; "/b"; "/c"; "/d"; "/e"; "/f" ];
  let st = Exec_cache.stats cache in
  Alcotest.(check bool) "flushed at least once" true (st.Exec_cache.flushes >= 1);
  Alcotest.(check bool) "trie stays bounded" true (Exec_cache.node_count cache <= 4);
  Exec_cache.clear cache;
  Alcotest.(check int) "clear empties the trie" 0 (Exec_cache.node_count cache);
  Alcotest.(check int) "clear empties snapshots" 0 (Exec_cache.snapshot_count cache)

(* The tentpole acceptance gate: a campaign is a deterministic
   function of its spec, and the cache must not perturb any observable
   — coverage curve, learned relations, crash log, corpus, execs. *)
let test_campaign_identical_cache_on_off () =
  let go exec_cache =
    Campaign.run_one ~hours:0.4 ~seed:5 ~exec_cache ~tool:Fuzzer.Healer
      ~version:K.Version.V5_11 ()
  in
  let on = go true and off = go false in
  Alcotest.(check bool) "cache was exercised" true (on.Campaign.cache_hits > 0);
  Alcotest.(check int) "cache off means no cache" 0 off.Campaign.cache_misses;
  Alcotest.(check int) "final coverage" off.Campaign.final_cov on.Campaign.final_cov;
  Alcotest.(check (list (pair (float 1e-9) int))) "coverage curve"
    off.Campaign.samples on.Campaign.samples;
  Alcotest.(check int) "execs" off.Campaign.execs on.Campaign.execs;
  Alcotest.(check int) "relations" off.Campaign.relations on.Campaign.relations;
  Alcotest.(check bool) "relation snapshots" true
    (off.Campaign.relation_snapshots = on.Campaign.relation_snapshots);
  Alcotest.(check int) "corpus size" off.Campaign.corpus_size on.Campaign.corpus_size;
  Alcotest.(check (list int)) "corpus lengths" off.Campaign.corpus_lengths
    on.Campaign.corpus_lengths;
  let key (r : Triage.record) =
    (r.Triage.bug_key, r.Triage.first_found, r.Triage.repro_len,
     Serializer.encode r.Triage.reproducer)
  in
  Alcotest.(check bool) "crash log identical" true
    (List.map key off.Campaign.crashes = List.map key on.Campaign.crashes)

let suite =
  [
    test_run_from_equiv;
    test_cache_equiv;
    case "cache counters" test_cache_counters;
    case "LRU eviction bound" test_cache_lru_eviction;
    case "node-capacity flush" test_cache_flush_at_node_capacity;
    case "campaign identical cache on/off" test_campaign_identical_cache_on_off;
  ]
