(* The execution engine against the reference interpreter
   (reference.ml): lowering a program once and patching resource slots
   must be observationally identical to resolving every argument per
   call — results, coverage, crashes and lock accounting — across
   generation, mutation, minimization shapes, fault injection, the
   seed corpus, every catalog reproducer, and the prefix cache's
   compiled-call reuse. The suite also runs with the reference
   installed as the executor's oracle (main.ml); the last test checks
   that the oracle is armed. *)

module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Compiled = Healer_executor.Compiled
module Exec = Healer_executor.Exec
module Exec_cache = Healer_executor.Exec_cache
module Progcheck = Healer_executor.Progcheck
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

(* Full structural run, for bit-identical comparison: the result
   record (retvals, errnos, per-call coverage in first-hit order,
   crash report) plus the kernel's lock-pair counters. *)
let observe_reference ?fault_call p =
  let kernel, r = Reference.run ?fault_call (boot ()) p in
  (r, K.Kernel.lock_pair_counts kernel)

let observe_compiled ?fault_call c =
  let kernel, r = Exec.run_compiled ?fault_call (boot ()) c in
  (r, K.Kernel.lock_pair_counts kernel)

(* Engines agree on generated programs pushed through mutation chains
   (the fuzz loop's exact workload). *)
let test_gen_mutate_differential =
  qcheck ~count:60 "compiled ≡ interpreted over gen+mutate"
    QCheck2.Gen.(pair small_int (int_range 0 4))
    (fun (seed, muts) ->
      let t = tgt () in
      let rng = Rng.create (seed + 1) in
      let select ~sub:_ = Rng.int rng (Target.n_syscalls t) in
      let p = ref (Gen.generate rng t ~select ()) in
      for _ = 1 to muts do
        p := Mutate.mutate rng t ~select !p
      done;
      observe_reference !p = observe_compiled (Compiled.compile !p))

(* Minimization probes: every single-call removal of a program. *)
let test_minimize_shapes =
  qcheck ~count:40 "compiled removal probes ≡ interpreted"
    QCheck2.Gen.small_int
    (fun seed ->
      let p = gen_prog seed in
      let n = Prog.length p in
      n <= 1
      || List.for_all
           (fun pos ->
             let q = Prog.remove p pos in
             observe_reference q = observe_compiled (Compiled.compile q))
           (List.init n Fun.id))

(* Fault injection goes through the compiled path's coredump branch. *)
let test_fault_differential =
  qcheck ~count:30 "fault-injected compiled ≡ interpreted"
    QCheck2.Gen.(pair small_int (int_range 0 12))
    (fun (seed, fc) ->
      let p = gen_prog seed in
      if Prog.length p = 0 then true
      else begin
        let fc = fc mod Prog.length p in
        observe_reference ~fault_call:fc p
        = observe_compiled ~fault_call:fc (Compiled.compile p)
      end)

(* The whole seed corpus — the strace-style traces and Moonshine's
   distilled seeds — runs bit-identically on both. *)
let test_seed_corpus_differential () =
  let t = tgt () in
  List.iter
    (fun p ->
      if observe_reference p <> observe_compiled (Compiled.compile p) then
        Alcotest.failf "compiled engine diverged from the reference on:@.%s"
          (Prog.to_string p))
    (Seeds.traces t @ Seeds.distilled t)

(* Every catalog reproducer — crashing programs, feature-gated
   subsystems, fault-triggered bugs — behaves identically compiled. *)
let test_repros_differential () =
  List.iter
    (fun (rp : Bug_repros.repro) ->
      let p = rp.Bug_repros.build () in
      let boot () =
        boot ~version:rp.Bug_repros.version ~features:rp.Bug_repros.features ()
      in
      let fault_call = rp.Bug_repros.fault_call in
      let ki, ri = Reference.run ?fault_call (boot ()) p in
      let kc, rc = Exec.run_compiled ?fault_call (boot ()) (Compiled.compile p) in
      if ri <> rc then
        Alcotest.failf "engine divergence on reproducer %s" rp.Bug_repros.key;
      if K.Kernel.lock_pair_counts ki <> K.Kernel.lock_pair_counts kc then
        Alcotest.failf "lock-counter divergence on reproducer %s"
          rp.Bug_repros.key)
    Bug_repros.all

(* Compiled-call reuse in the trie: a probe sharing a prefix with an
   earlier run re-lowers only its new suffix. *)
let test_cache_ccall_reuse () =
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
  Alcotest.(check int) "first run lowers every call" 3
    st.Exec_cache.compiled_calls;
  Alcotest.(check int) "nothing reused yet" 0 st.Exec_cache.reused_ccalls;
  (* Whole-program re-run: served from the full-result table, no
     lowering at all. *)
  ignore (Exec_cache.run cache p);
  Alcotest.(check int) "full hit lowers nothing" 3 st.Exec_cache.compiled_calls;
  (* Dropping the middle call keeps the one-call prefix: its compiled
     form comes from the trie, only the shifted suffix is lowered. *)
  ignore (Exec_cache.run cache (Prog.remove p 1));
  Alcotest.(check int) "shared prefix reused" 1 st.Exec_cache.reused_ccalls;
  Alcotest.(check int) "suffix lowered" 4 st.Exec_cache.compiled_calls

(* The oracle is live: a reference that disagrees on one retval makes
   both run entry points fail with the divergence message. *)
let test_oracle_armed () =
  let tampered ?fault_call ~prefix kernel p =
    let r = Reference.replay ?fault_call ~prefix kernel p in
    let c0 = r.Exec.calls.(0) in
    r.Exec.calls.(0) <- { c0 with Exec.retval = Int64.succ c0.Exec.retval };
    r
  in
  let p = prog [ call "open" [ s "/etc/passwd"; i 0L; i 0L ] ] in
  let diverges what f =
    match f () with
    | _ -> Alcotest.failf "%s: a diverging reference went unnoticed" what
    | exception Failure msg ->
      let prefix =
        "HEALER_DEBUG_VALIDATE: " ^ what
        ^ " diverged from the reference interpreter"
      in
      Alcotest.(check bool) (what ^ " reports the divergence") true
        (String.starts_with ~prefix msg)
  in
  let debug = Progcheck.debug_enabled () in
  Fun.protect
    ~finally:(fun () ->
      Exec.set_reference (Some Reference.replay);
      Progcheck.set_debug debug)
  @@ fun () ->
  Progcheck.set_debug true;
  Exec.set_reference (Some tampered);
  diverges "run" (fun () -> Exec.run (boot ()) p);
  diverges "run_from_compiled" (fun () ->
      Exec.run_from_compiled ~prefix:[||] (boot ()) (Compiled.compile p))

(* ---- Prog satellite: builder and early-exit predicates ---- *)

(* A random edit script applied to a builder and to the immutable
   program agrees call-for-call. *)
let test_builder_equiv =
  qcheck ~count:80 "Prog.Builder ≡ immutable edits"
    QCheck2.Gen.(pair small_int (list_size (int_range 0 12) (pair small_int bool)))
    (fun (seed, ops) ->
      let p = gen_prog seed in
      if Prog.length p = 0 then true
      else begin
        let b = Prog.Builder.of_prog p in
        let q = ref p in
        List.iter
          (fun (x, push) ->
            let c = Prog.call p (x mod Prog.length p) in
            if push then begin
              Prog.Builder.push b c;
              q := Prog.append !q c
            end
            else begin
              let at = x mod (Prog.Builder.length b + 1) in
              Prog.Builder.insert b at c;
              q := Prog.insert !q at c
            end)
          ops;
        Prog.Builder.to_prog b = !q
        && Prog.Builder.length b = Prog.length !q
      end)

(* The early-exit predicates match their exhaustive definitions, on
   well-formed programs and on deliberately corrupted ones. *)
let test_predicates =
  qcheck ~count:60 "well_formed/uses_result_of ≡ exhaustive scan"
    QCheck2.Gen.(pair small_int bool)
    (fun (seed, corrupt) ->
      let p = gen_prog seed in
      let p =
        if corrupt && Prog.length p > 0 then
          Prog.append p
            {
              Prog.syscall = (Prog.call p 0).Prog.syscall;
              args = [ Value.Res_ref 99 ];
            }
        else p
      in
      let n = Prog.length p in
      let wf_ref =
        let ok = ref true in
        for k = 0 to n - 1 do
          List.iter
            (fun i -> if i >= k || i < 0 then ok := false)
            (Prog.refs_of_call (Prog.call p k))
        done;
        !ok
      in
      let uses_ref i =
        let used = ref false in
        for k = 0 to n - 1 do
          if k > i && List.mem i (Prog.refs_of_call (Prog.call p k)) then
            used := true
        done;
        !used
      in
      Prog.well_formed p = wf_ref
      && List.for_all
           (fun i -> Prog.uses_result_of p i = uses_ref i)
           (List.init n Fun.id))

let suite =
  [
    test_gen_mutate_differential;
    test_minimize_shapes;
    test_fault_differential;
    case "seed corpus agrees with the reference" test_seed_corpus_differential;
    case "catalog reproducers agree across engines" test_repros_differential;
    case "trie reuses compiled calls" test_cache_ccall_reuse;
    case "reference oracle is armed" test_oracle_armed;
    test_builder_equiv;
    test_predicates;
  ]
