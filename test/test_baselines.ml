(* The Syzkaller choice-table and Moonshine distillation baselines. *)

module Prog = Healer_executor.Prog
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
open Healer_core
open Helpers

let id name = (Target.find_exn (tgt ()) name).Syscall.id

(* ---- choice table ---- *)

let test_choice_weight_range () =
  let ct = Choice_table.create (tgt ()) in
  let n = Target.n_syscalls (tgt ()) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let w = Choice_table.weight ct i j in
      if w < 0 || w > 1000 then
        Alcotest.fail (Printf.sprintf "weight out of range: P(%d,%d)=%d" i j w)
    done
  done

let test_choice_coarseness () =
  (* The paper's critique: common *type classes* cannot distinguish a
     real influence pair from a spurious one. Both pairs below share
     "has a resource", so their static weights are equal. *)
  let ct = Choice_table.create (tgt ()) in
  let w_real = Choice_table.weight ct (id "ioctl$KVM_CREATE_VCPU") (id "ioctl$KVM_RUN") in
  let w_spurious = Choice_table.weight ct (id "read") (id "listen") in
  Alcotest.(check int) "choice table cannot tell them apart" w_real w_spurious

let test_choice_resourceless_low () =
  let ct = Choice_table.create (tgt ()) in
  let w_compat = Choice_table.weight ct (id "prctl$PR_SET_NAME") (id "ioctl$KVM_RUN") in
  let w_res = Choice_table.weight ct (id "openat$kvm") (id "ioctl$KVM_RUN") in
  Alcotest.(check bool) "resourceless pairs score lower" true (w_compat < w_res)

let test_choice_dynamic_part () =
  let ct = Choice_table.create (tgt ()) in
  let p =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "listen" [ r 0; iv 8 ];
      ]
  in
  let before = Choice_table.weight ct (id "socket$tcp") (id "listen") in
  for _ = 1 to 50 do
    Choice_table.note_corpus_program ct p
  done;
  let after = Choice_table.weight ct (id "socket$tcp") (id "listen") in
  Alcotest.(check bool) "adjacency counts raise P1" true (after > before)

let test_choice_select () =
  let ct = Choice_table.create (tgt ()) in
  let rng = rng () in
  let n = Target.n_syscalls (tgt ()) in
  for _ = 1 to 100 do
    let v = Choice_table.select rng ct ~bias:None in
    if v < 0 || v >= n then Alcotest.fail "select out of range";
    let v = Choice_table.select rng ct ~bias:(Some (id "socket$tcp")) in
    if v < 0 || v >= n then Alcotest.fail "biased select out of range"
  done

(* ---- choice table vs the full-renormalize reference model ---- *)

let equal_weights ct model =
  let n = Target.n_syscalls (tgt ()) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let w = Choice_table.weight ct i j and w' = Choice_oracle.weight model i j in
      if w <> w' then
        Alcotest.fail (Printf.sprintf "P(%d,%d): table %d, model %d" i j w w')
    done
  done

let equal_picks ct model =
  let n = Target.n_syscalls (tgt ()) in
  let rng = rng () in
  for b = 0 to n - 1 do
    let rng' = Healer_util.Rng.copy rng in
    let v = Choice_table.select rng ct ~bias:(Some b) in
    let v' = Choice_oracle.select rng' model ~bias:(Some b) in
    if v <> v' then
      Alcotest.fail (Printf.sprintf "row %d: table picked %d, model %d" b v v')
  done

(* The first note takes the maximum count from 0 to 1: the noted entry
   jumps from P1 = 10 to 1000 while every other entry must stay put. *)
let test_choice_first_note () =
  let ct = Choice_table.create (tgt ()) and model = Choice_oracle.create (tgt ()) in
  equal_weights ct model;
  equal_picks ct model;
  let before = Choice_table.weight ct (id "socket$tcp") (id "listen") in
  let p =
    prog [ call "socket$tcp" [ i 2L; i 1L; i 6L ]; call "listen" [ r 0; iv 8 ] ]
  in
  Choice_table.note_corpus_program ct p;
  Choice_oracle.note_corpus_program model p;
  equal_weights ct model;
  equal_picks ct model;
  Alcotest.(check bool) "noted pair rises" true
    (Choice_table.weight ct (id "socket$tcp") (id "listen") > before)

type choice_op =
  | Note_fresh of int  (* a program generated from this seed *)
  | Note_again of int  (* an earlier program again: raises the maximum *)
  | Select of [ `None | `Neg | `N | `Id of int | `Hot of int ]
  | Weight of int * int

let choice_op_gen =
  let open QCheck2.Gen in
  let id = int_bound 1_000_000 in
  frequency
    [
      (2, map (fun s -> Note_fresh s) small_nat);
      (1, map (fun k -> Note_again k) small_nat);
      ( 2,
        map (fun b -> Select b)
          (oneof [ pure `None; pure `Neg; pure `N; map (fun b -> `Id b) id ]) );
      (4, map (fun k -> Select (`Hot k)) small_nat);
      (2, map2 (fun a b -> Weight (a, b)) id id);
    ]

(* Notes that grew the maximum count, and notes that did not. *)
let raised = ref 0 and kept = ref 0

(* Drives both tables through [ops] with two RNGs from one seed; false
   on the first disagreement, or if the RNGs end in different states. *)
let choice_agrees ops =
  let tgt = tgt () in
  let n = Target.n_syscalls tgt in
  let ct = Choice_table.create tgt and model = Choice_oracle.create tgt in
  let rng = Healer_util.Rng.create 11 and rng' = Healer_util.Rng.create 11 in
  let noted = ref [] in
  (* A call of some noted program: rows with counts are the ones a
     missed rescale would leave wrong. *)
  let hot k =
    match List.concat_map (fun p -> Array.to_list p.Prog.calls) !noted with
    | [] -> k mod n
    | cs -> (List.nth cs (k mod List.length cs)).Prog.syscall.Syscall.id
  in
  let vmax () =
    Array.fold_left (Array.fold_left max) 0 model.Choice_oracle.p1_raw
  in
  let note p =
    let before = vmax () in
    noted := p :: !noted;
    Choice_table.note_corpus_program ct p;
    Choice_oracle.note_corpus_program model p;
    incr (if vmax () > before then raised else kept);
    true
  in
  List.for_all
    (function
      | Note_fresh seed ->
        let g = Healer_util.Rng.create seed in
        note
          (Gen.generate g tgt ~select:(fun ~sub:_ -> Healer_util.Rng.int g n) ())
      | Note_again k -> (
        match !noted with
        | [] -> true
        | ps -> note (List.nth ps (k mod List.length ps)))
      | Select b ->
        let bias =
          match b with
          | `None -> None
          | `Neg -> Some (-1)
          | `N -> Some n
          | `Id b -> Some (b mod n)
          | `Hot k -> Some (hot k)
        in
        Choice_table.select rng ct ~bias = Choice_oracle.select rng' model ~bias
      | Weight (a, b) ->
        Choice_table.weight ct (a mod n) (b mod n)
        = Choice_oracle.weight model (a mod n) (b mod n))
    ops
  && Healer_util.Rng.bits64 rng = Healer_util.Rng.bits64 rng'

let test_choice_differential =
  qcheck ~count:60 "choice table ≡ full-renormalize model"
    QCheck2.Gen.(list_size (int_range 1 40) choice_op_gen)
    choice_agrees

(* A fixed interleaving that draws both kinds of note, with the rows
   built before a rescale read again after it. *)
let test_choice_differential_fixed () =
  raised := 0;
  kept := 0;
  let hot = List.init 24 (fun k -> Select (`Hot k)) in
  Alcotest.(check bool) "agrees" true
    (choice_agrees
       ([ Note_fresh 1; Note_fresh 2 ] @ hot @ [ Note_again 0 ] @ hot
       @ [ Note_fresh 3; Select `None; Select `Neg; Select `N; Weight (3, 4) ]
       @ hot));
  Alcotest.(check bool) "notes that raise the maximum" true (!raised > 0);
  Alcotest.(check bool) "notes that keep it" true (!kept > 0)

(* Both baselines pinned across commits: a choice-table change that
   perturbs one pick moves these counts. *)
let test_golden_baseline tool expected () =
  let r =
    Campaign.run_one ~hours:1.0 ~seed:1 ~tool
      ~version:Healer_kernel.Version.V5_11 ()
  in
  Alcotest.(check (list int)) "execs, final_cov, corpus_size, crashes" expected
    [ r.Campaign.execs; r.Campaign.final_cov; r.Campaign.corpus_size;
      List.length r.Campaign.crashes ]

(* ---- distillation ---- *)

let test_dependencies_resource_flow () =
  let p =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "prctl$PR_SET_NAME" [ i 1L; i 2L ];
        call "listen" [ r 0; iv 8 ];
      ]
  in
  let deps = Distill.dependencies p 2 in
  Alcotest.(check bool) "listen depends on socket" true (List.mem 0 deps);
  Alcotest.(check bool) "not on the prctl noise" false (List.mem 1 deps)

let test_dependencies_shared_subsystem () =
  let p =
    prog
      [
        call "openat$fb0" [ i (-100L); s "/dev/fb0"; i 0L ];
        call "ioctl$FBIOPAN_DISPLAY" [ r 0; i 0x4606L; group [ i 0L; i 0L; i 0L; i 0L ] ];
      ]
  in
  (* Same subsystem implies a read-write dependency over-approximation. *)
  Alcotest.(check (list int)) "fb pan depends on open" [ 0 ]
    (Distill.dependencies p 1)

let test_slice_runnable () =
  let p =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "prctl$PR_SET_NAME" [ i 1L; i 2L ];
        call "listen" [ r 0; iv 8 ];
      ]
  in
  let slice = Distill.slice p 2 in
  Alcotest.(check int) "noise removed" 2 (Prog.length slice);
  Alcotest.(check bool) "well formed" true (Prog.well_formed slice);
  let result = run slice in
  Alcotest.(check int) "runs" 2 (Array.length result.Healer_executor.Exec.calls)

let test_distill_filters_and_dedups () =
  let trace =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "prctl$PR_SET_NAME" [ i 1L; i 2L ];
        call "listen" [ r 0; iv 8 ];
      ]
  in
  let seeds = Distill.distill [ trace; trace ] in
  (* Identical traces collapse; the isolated prctl is dropped. *)
  List.iter
    (fun seed ->
      for k = 0 to Prog.length seed - 1 do
        if (Prog.call seed k).Prog.syscall.Syscall.base = "prctl$PR_SET_NAME" then
          Alcotest.fail "noise survived distillation"
      done)
    seeds;
  let keys = List.map Healer_executor.Serializer.encode seeds in
  Alcotest.(check int) "deduplicated"
    (List.length (List.sort_uniq compare keys))
    (List.length keys)

(* ---- seed corpus ---- *)

let test_seed_traces () =
  let traces = Seeds.traces (tgt ()) in
  Alcotest.(check bool) "plenty of traces" true (List.length traces >= 20);
  List.iter
    (fun t ->
      if not (Prog.well_formed t) then Alcotest.fail "trace not well-formed")
    traces

let test_seed_traces_deterministic () =
  let a = Seeds.traces ~seed:3 (tgt ()) and b = Seeds.traces ~seed:3 (tgt ()) in
  Alcotest.(check (list string)) "same traces for same seed"
    (List.map Healer_executor.Serializer.encode a)
    (List.map Healer_executor.Serializer.encode b)

let test_distilled_seeds () =
  let traces = Seeds.traces (tgt ()) in
  let seeds = Seeds.distilled (tgt ()) in
  Alcotest.(check bool) "non-empty" true (List.length seeds > 0);
  (* Distillation output is runnable. *)
  List.iter (fun seed -> ignore (run seed)) seeds;
  (* Each distilled seed is a slice of one trace, so it can never be
     longer than the longest trace. *)
  let max_len ps = List.fold_left (fun acc p -> max acc (Prog.length p)) 0 ps in
  Alcotest.(check bool) "seeds bounded by trace length" true
    (max_len seeds <= max_len traces);
  Alcotest.(check bool) "no trivial seeds" true
    (List.for_all (fun p -> Prog.length p >= 2) seeds)

let suite =
  [
    case "choice weights in range" test_choice_weight_range;
    case "choice coarseness (paper critique)" test_choice_coarseness;
    case "choice resourceless low" test_choice_resourceless_low;
    case "choice dynamic part" test_choice_dynamic_part;
    case "choice select" test_choice_select;
    case "choice first note ≡ model" test_choice_first_note;
    test_choice_differential;
    case "choice differential, both kinds of note"
      test_choice_differential_fixed;
    case "golden syzkaller campaign"
      (test_golden_baseline Fuzzer.Syzkaller [ 1688; 494; 266; 2 ]);
    case "golden moonshine campaign"
      (test_golden_baseline Fuzzer.Moonshine [ 1578; 596; 272; 4 ]);
    case "deps: resource flow" test_dependencies_resource_flow;
    case "deps: shared subsystem" test_dependencies_shared_subsystem;
    case "slice runnable" test_slice_runnable;
    case "distill filters + dedups" test_distill_filters_and_dedups;
    case "seed traces" test_seed_traces;
    case "seed traces deterministic" test_seed_traces_deterministic;
    case "distilled seeds" test_distilled_seeds;
  ]
