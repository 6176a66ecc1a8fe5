(* The lock model and lockdep: one hand-broken fixture per lock-*
   check ID, golden "the shipped 20-subsystem corpus is lockdep-clean"
   tests, runtime-trace validation, lock-pair coverage accounting, and
   property suites asserting the gen/mutate/minimize pipeline never
   trips the runtime validator (armed suite-wide by main.ml via
   [Progcheck.set_debug true]). *)

module Lock = Healer_kernel.Lock
module Prog = Healer_executor.Prog
module Exec = Healer_executor.Exec
module Target = Healer_syzlang.Target
module Rng = Healer_util.Rng
module D = Healer_util.Diagnostic
module K = Healer_kernel
open Healer_core
open Helpers

(* ---- fixture models (built with [Lock.make]: nothing below touches
   the process-global class registry) ---- *)

let cls ?guards ~rank name = Lock.make ?guards ~rank name

let model classes specs = { Lock.classes; specs }

let spec ?touches classes = Lock.scoped ?touches classes

let has id fs = List.exists (fun (f : Lock.finding) -> f.Lock.check = id) fs

let find_f id fs = List.find (fun (f : Lock.finding) -> f.Lock.check = id) fs

(* The broken fixtures are minimal, so a perturbation can have honest
   follow-on findings (an acquire-less class is also unused; the
   release bracketing a skipped double-acquire is itself unheld) —
   [allow] lists those, anything else is a test failure. *)
let expect_only ?(allow = []) id fs =
  Alcotest.(check bool) (id ^ " reported") true (has id fs);
  List.iter
    (fun (f : Lock.finding) ->
      if not (List.mem f.Lock.check (id :: allow)) then
        Alcotest.failf "unexpected check %s (%s)" f.Lock.check f.Lock.msg)
    fs

(* A two-class baseline every broken fixture perturbs: a (rank 10)
   nests b (rank 20), one handler under each, one nesting both. *)
let a () = cls ~rank:10 ~guards:[ "sa" ] "a"
let b () = cls ~rank:20 ~guards:[ "sb" ] "b"

let clean_model () =
  model
    [ a (); b () ]
    [
      ("s1", "h_a", spec ~touches:[ "sa" ] [ "a" ]);
      ("s1", "h_b", spec ~touches:[ "sb" ] [ "b" ]);
      ("s2", "h_ab", spec [ "a"; "b" ]);
    ]

let test_clean_fixture () =
  Alcotest.(check int) "clean model has no findings" 0
    (List.length (Lock.check_model (clean_model ())))

let test_unknown_class () =
  let m = model [ a () ] [ ("s", "h", spec [ "ghost" ]) ] in
  expect_only ~allow:[ "lock-unused-class" ] "lock-unknown-class"
    (Lock.check_model m)

let test_double_acquire () =
  let m = model [ a () ] [ ("s", "h", spec [ "a"; "a" ]) ] in
  (* The skipped inner re-acquire leaves its bracketed release with
     nothing to pop, so a follow-on release-unheld is expected. *)
  expect_only ~allow:[ "lock-release-unheld" ] "lock-double-acquire"
    (Lock.check_model m)

let test_release_unheld () =
  let m =
    model [ a () ]
      [ ("s", "h", { Lock.ops = [ Lock.Release "a" ]; touches = [] }) ]
  in
  expect_only ~allow:[ "lock-unused-class" ] "lock-release-unheld"
    (Lock.check_model m)

let test_held_at_exit () =
  let m =
    model [ a () ]
      [ ("s", "h", { Lock.ops = [ Lock.Acquire "a" ]; touches = [] }) ]
  in
  expect_only "lock-held-at-exit" (Lock.check_model m)

let test_rank_violation () =
  let m =
    model [ a (); b () ]
      [ ("s", "h", spec [ "b"; "a" ]) (* b (20) held while taking a (10) *) ]
  in
  Alcotest.(check bool) "rank violation reported" true
    (has "lock-rank-violation" (Lock.check_model m))

let test_order_cycle () =
  (* Equal ranks make both nestings rank-legal; together they close an
     ABBA cycle. *)
  let a = cls ~rank:10 "a" and b = cls ~rank:10 "b" in
  let m =
    model [ a; b ]
      [ ("s1", "h_ab", spec [ "a"; "b" ]); ("s2", "h_ba", spec [ "b"; "a" ]) ]
  in
  let fs = Lock.check_model m in
  Alcotest.(check bool) "cycle reported" true (has "lock-order-cycle" fs);
  Alcotest.(check int) "one report per cycle" 1
    (List.length
       (List.filter (fun (f : Lock.finding) -> f.Lock.check = "lock-order-cycle") fs))

let test_guard_coverage_unguarded () =
  let m =
    model [ a () ]
      [
        ("s1", "h1", spec ~touches:[ "sa" ] [ "a" ]);
        ("s2", "h2", spec ~touches:[ "sa" ] []) (* mutates sa lockless *);
      ]
  in
  let fs = Lock.check_model m in
  Alcotest.(check bool) "guard coverage reported" true
    (has "lock-guard-coverage" fs);
  let f = find_f "lock-guard-coverage" fs in
  Alcotest.(check string) "subject names the slot" "state slot \"sa\""
    f.Lock.subject

(* The in-tree true positive, reduced: annotating the netlink RTM
   handlers with a netlink-local class instead of sharing rtnl leaves
   "netdevs" mutated under disjoint classes. *)
let test_guard_coverage_disjoint () =
  let rtnl = cls ~rank:10 ~guards:[ "netdevs" ] "rtnl" in
  let nl = cls ~rank:15 ~guards:[ "netdevs" ] "nl_table" in
  let m =
    model [ rtnl; nl ]
      [
        ("netdev", "ioctl$ifup", spec ~touches:[ "netdevs" ] [ "rtnl" ]);
        ("netlink", "sendmsg$RTM_NEWLINK", spec ~touches:[ "netdevs" ] [ "nl_table" ]);
      ]
  in
  let fs = Lock.check_model m in
  Alcotest.(check bool) "disjoint classes reported" true
    (has "lock-guard-coverage" fs);
  let f = find_f "lock-guard-coverage" fs in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "message says disjoint" true
    (contains f.Lock.msg "disjoint")

(* Read-side coverage: a guarded slot read while holding no guarding
   class warns too (the [?reads] extension feeding off effect specs).
   Unguarded slots stay the race detector's domain — no class guards
   them, so there is nothing to hold. *)
let test_guard_coverage_read () =
  let m =
    model [ a () ]
      [
        ("s1", "h1", spec ~touches:[ "sa" ] [ "a" ]);
        ("s2", "h2", spec [] (* lock-free reader *));
      ]
  in
  let fs = Lock.check_model ~reads:[ ("s2", "h2", [ "sa" ]) ] m in
  Alcotest.(check bool) "read coverage reported" true
    (has "lock-guard-coverage" fs);
  let f = find_f "lock-guard-coverage" fs in
  Alcotest.(check string) "subject names the slot" "state slot \"sa\""
    f.Lock.subject;
  (* A reader holding the guarding class is clean... *)
  let held =
    model [ a () ]
      [
        ("s1", "h1", spec ~touches:[ "sa" ] [ "a" ]);
        ("s2", "h2", spec [ "a" ]);
      ]
  in
  Alcotest.(check int) "guarded read clean" 0
    (List.length (Lock.check_model ~reads:[ ("s2", "h2", [ "sa" ]) ] held));
  (* ... and so is reading a slot no class guards at all. *)
  let m' = model [ a () ] [ ("s1", "h1", spec [ "a" ]) ] in
  Alcotest.(check int) "unguarded slot ignored" 0
    (List.length (Lock.check_model ~reads:[ ("s2", "h2", [ "sx" ]) ] m'))

let test_unused_class () =
  let m = model [ a (); b () ] [ ("s", "h", spec [ "a" ]) ] in
  let fs = Lock.check_model m in
  Alcotest.(check bool) "unused class reported" true (has "lock-unused-class" fs);
  let f = find_f "lock-unused-class" fs in
  Alcotest.(check string) "names the unused class" "lock class \"b\""
    f.Lock.subject

(* ---- runtime trace validation (check_trace) ---- *)

let test_trace_clean () =
  let m = clean_model () in
  Alcotest.(check int) "declared trace validates" 0
    (List.length
       (Lock.check_trace m ~subsystem:"s2" ~handler:"h_ab"
          [ Lock.Acquire "a"; Lock.Acquire "b"; Lock.Release "b"; Lock.Release "a" ]))

let test_trace_spec_mismatch () =
  let m = clean_model () in
  (* h_a declares [a]; acquiring b is not a subsequence of that. *)
  let fs =
    Lock.check_trace m ~subsystem:"s1" ~handler:"h_a"
      [ Lock.Acquire "b"; Lock.Release "b" ]
  in
  Alcotest.(check bool) "spec mismatch reported" true
    (has "lock-spec-mismatch" fs);
  (* A handler with no spec must not acquire anything. *)
  let fs =
    Lock.check_trace m ~subsystem:"s9" ~handler:"h_nospec"
      [ Lock.Acquire "a"; Lock.Release "a" ]
  in
  Alcotest.(check bool) "no-spec acquisition reported" true
    (has "lock-spec-mismatch" fs)

let test_trace_order_inversion () =
  (* Equal ranks; the declared graph has a->b, the runtime trace nests
     b->a: a would-be ABBA only visible at runtime. *)
  let a = cls ~rank:10 "a" and b = cls ~rank:10 "b" in
  let m =
    model [ a; b ]
      [
        ("s1", "h_ab", spec [ "a"; "b" ]);
        ("s2", "h_free", spec [ "b"; "a" ] (* what it may acquire *));
      ]
  in
  let fs =
    Lock.check_trace m ~subsystem:"s2" ~handler:"h_free"
      [ Lock.Acquire "b"; Lock.Acquire "a"; Lock.Release "a"; Lock.Release "b" ]
  in
  Alcotest.(check bool) "runtime inversion reported" true
    (has "lock-order-cycle" fs)

(* ---- the shipped model ---- *)

(* Golden: the 20-subsystem corpus model is lockdep-clean. *)
let test_corpus_clean () =
  let fs = Lock.check_model (K.Kernel.lock_model ()) in
  List.iter
    (fun (f : Lock.finding) ->
      Alcotest.failf "corpus lockdep finding: %s: %s: %s" f.Lock.check
        f.Lock.subject f.Lock.msg)
    fs

(* And stays clean through the Diagnostic adapter + full analysis. *)
let test_corpus_clean_analysis () =
  let ds = Healer_analysis.Analysis.(run (of_kernel ())) in
  let locky =
    List.filter (fun (d : D.t) -> String.starts_with ~prefix:"lock-" d.D.check) ds
  in
  Alcotest.(check int) "no lock-* diagnostics on the corpus" 0
    (List.length locky)

let test_catalog () =
  let ids = List.map (fun (id, _, _) -> id) Healer_analysis.Lockdep.checks in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " in catalog") true (List.mem id ids))
    [
      "lock-unknown-class"; "lock-double-acquire"; "lock-release-unheld";
      "lock-held-at-exit"; "lock-rank-violation"; "lock-order-cycle";
      "lock-guard-coverage"; "lock-spec-mismatch"; "lock-unused-class";
    ];
  Alcotest.(check bool) "at least 9 checks" true (List.length ids >= 9)

let test_registered_classes () =
  let names = List.map (fun (c : Lock.cls) -> c.Lock.cname) (Lock.registered ()) in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [
      "rtnl"; "genl_mutex"; "vfs_files"; "ep_mutex"; "namespace_sem";
      "ipc_ids"; "sk_lock"; "memfd_seals"; "uring_ctx"; "nl_sock";
    ]

(* ---- lock-pair coverage accounting ---- *)

(* An rtnetlink exchange acquires nl_sock under rtnl: the pair counter
   and both acquisition counters must land in the kernel state. *)
let test_pair_counts () =
  let p =
    prog
      [
        call "socket$nl_route" [ i 16L; i 3L; i 0L ];
        call "sendmsg$RTM_GETLINK"
          [
            r 0;
            group
              [
                iv 32; iv 18; iv 0x300; i 0L;
                Value.Group [ i 0L; i 0L; iv 0; iv 0; iv 0 ];
                Value.Group [];
              ];
            i 0L;
          ];
      ]
  in
  let kernel = boot () in
  let k', result = Exec.run kernel p in
  Alcotest.(check bool) "no crash" true (result.Exec.crash = None);
  let pairs = K.Kernel.lock_pair_counts k' in
  Alcotest.(check bool) "rtnl->nl_sock pair observed" true
    (List.exists (fun ((o, i), n) -> o = "rtnl" && i = "nl_sock" && n > 0) pairs);
  let acqs = K.Kernel.lock_acquire_counts k' in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " acquired") true
        (List.exists (fun (c', n) -> c' = c && n > 0) acqs))
    [ "rtnl"; "nl_sock" ]

(* Hooks off: executions are bit-identical, counters stay empty. *)
let test_hooks_off_identical () =
  let p =
    prog
      [
        call "open" [ s "/tmp/f1"; i 0x40L; i 0x1ffL ];
        call "read" [ r 0; buf 16; iv 16 ];
        call "close" [ r 0 ];
      ]
  in
  let with_hooks on =
    Lock.set_hooks on;
    Fun.protect
      ~finally:(fun () -> Lock.set_hooks true)
      (fun () -> Exec.run (boot ()) p)
  in
  let k_on, r_on = with_hooks true in
  let k_off, r_off = with_hooks false in
  Alcotest.(check int) "same length" (Array.length r_on.Exec.calls)
    (Array.length r_off.Exec.calls);
  Array.iter2
    (fun (a : Exec.call_result) (b : Exec.call_result) ->
      Alcotest.(check bool) "same errno" true (a.Exec.errno = b.Exec.errno);
      Alcotest.(check bool) "same coverage" true (a.Exec.cov = b.Exec.cov))
    r_on.Exec.calls r_off.Exec.calls;
  Alcotest.(check bool) "hooks-on counted" true
    (K.Kernel.lock_acquire_counts k_on <> []);
  Alcotest.(check int) "hooks-off counted nothing" 0
    (List.length (K.Kernel.lock_pair_counts k_off)
    + List.length (K.Kernel.lock_acquire_counts k_off))

(* Campaign-level determinism: a short healer campaign reaches the
   same coverage/execs/corpus with the accounting hooks on and off. *)
let test_campaign_hooks_determinism () =
  let fingerprint () =
    let f =
      Fuzzer.create (Fuzzer.config ~seed:11 ~tool:Fuzzer.Healer ~version:K.Version.V5_11 ())
    in
    Fuzzer.run_until f 120.0;
    (Fuzzer.execs f, Fuzzer.coverage f, Corpus.size (Fuzzer.corpus f))
  in
  let on = fingerprint () in
  Lock.set_hooks false;
  let off =
    Fun.protect ~finally:(fun () -> Lock.set_hooks true) fingerprint
  in
  Alcotest.(check (triple int int int)) "bit-identical campaign" on off

(* ---- runtime validation properties ----

   main.ml arms Progcheck.set_debug true for the whole binary, which
   also arms Lock.set_validate: every Exec.run below re-validates each
   executed call's acquisition trace against the declared model and
   raises Lock.Violation on divergence. The properties assert the
   pipeline never trips it. *)

let gen_prog seed =
  let rng = Rng.create seed in
  Gen.generate rng (tgt ())
    ~select:(fun ~sub:_ -> Rng.int rng (Target.n_syscalls (tgt ())))
    ()

let test_validated_generation =
  qcheck ~count:100 "generated programs execute without lock violations"
    QCheck2.Gen.small_int (fun seed ->
      Alcotest.(check bool) "validation armed" true (Lock.validate_enabled ());
      ignore (run (gen_prog seed));
      true)

let test_validated_mutation =
  qcheck ~count:60 "mutated programs execute without lock violations"
    QCheck2.Gen.small_int (fun seed ->
      let rng = Rng.create (seed + 1_000_000) in
      let select ~sub:_ = Rng.int rng (Target.n_syscalls (tgt ())) in
      let p = ref (Gen.generate rng (tgt ()) ~select ()) in
      for _ = 1 to 5 do
        p := Mutate.mutate rng (tgt ()) ~select !p;
        ignore (run !p)
      done;
      true)

let test_validated_minimization =
  qcheck ~count:25 "minimized programs execute without lock violations"
    QCheck2.Gen.small_int (fun seed ->
      let p = gen_prog (seed + 7) in
      let result = run p in
      if result.Exec.crash <> None then true
      else begin
        let cov =
          Array.map (fun (c : Exec.call_result) -> c.Exec.cov) result.Exec.calls
        in
        let last = Prog.length p - 1 in
        let new_cov = Array.make (Prog.length p) [] in
        new_cov.(last) <- cov.(last);
        let pc = { Prog_cov.prog = p; cov; new_cov } in
        let exec q = snd (Exec.run (boot ()) q) in
        ignore (Minimize.minimize ~target:(tgt ()) ~exec pc);
        true
      end)

(* And the seed corpus executes violation-free, with validation
   explicitly (re-)armed in case the suite's global flag changes. *)
let test_seed_corpus_validates () =
  Alcotest.(check bool) "validation armed" true (Lock.validate_enabled ());
  List.iter
    (fun p -> ignore (run p))
    (Seeds.traces (tgt ()) @ Seeds.distilled (tgt ()))

(* A spec that lies about its handler is caught at runtime: drive a
   locked handler while its declared spec is absent from the model
   under test via check_trace (the same code path Kernel.exec uses). *)
let test_runtime_catches_drift () =
  let m = clean_model () in
  let trace =
    [ Lock.Acquire "a"; Lock.Acquire "b"; Lock.Release "b"; Lock.Release "a" ]
  in
  (* h_b declares [b] only: the full a;b trace must be flagged. *)
  let fs = Lock.check_trace m ~subsystem:"s1" ~handler:"h_b" trace in
  Alcotest.(check bool) "drifted trace flagged" true
    (has "lock-spec-mismatch" fs)

let suite =
  [
    case "clean fixture" test_clean_fixture;
    case "lock-unknown-class" test_unknown_class;
    case "lock-double-acquire" test_double_acquire;
    case "lock-release-unheld" test_release_unheld;
    case "lock-held-at-exit" test_held_at_exit;
    case "lock-rank-violation" test_rank_violation;
    case "lock-order-cycle" test_order_cycle;
    case "lock-guard-coverage (unguarded)" test_guard_coverage_unguarded;
    case "lock-guard-coverage (disjoint)" test_guard_coverage_disjoint;
    case "lock-guard-coverage (read side)" test_guard_coverage_read;
    case "lock-unused-class" test_unused_class;
    case "trace: clean" test_trace_clean;
    case "lock-spec-mismatch" test_trace_spec_mismatch;
    case "trace: order inversion" test_trace_order_inversion;
    case "corpus model clean" test_corpus_clean;
    case "corpus clean via analysis" test_corpus_clean_analysis;
    case "check catalog" test_catalog;
    case "registered classes" test_registered_classes;
    case "lock-pair coverage counts" test_pair_counts;
    case "hooks off: identical + uncounted" test_hooks_off_identical;
    case "campaign determinism vs hooks" test_campaign_hooks_determinism;
    case "seed corpus validates" test_seed_corpus_validates;
    case "runtime catches spec drift" test_runtime_catches_drift;
    test_validated_generation;
    test_validated_mutation;
    test_validated_minimization;
  ]
