(* The program validator: one hand-broken fixture per check ID, golden
   clean-corpus tests, and "fuzz the fuzzer" property suites asserting
   the whole gen/mutate/edit/minimize/serialize pipeline only ever
   emits validator-clean programs. *)

module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Serializer = Healer_executor.Serializer
module P = Healer_executor.Progcheck
module D = Healer_util.Diagnostic
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Rng = Healer_util.Rng
open Healer_core
open Helpers

(* ---- a mini target exercising every type constructor ---- *)

let mini_src =
  {|
resource fd[int32]: -1
resource fd_sub[fd]
flags oflags = 0x1 0x2 0x8
struct st { data buffer[in], n len[data], k int32 }
union u { ua int32[0:4], ub fd }
open_thing(path filename["/x"], mode flags[oflags]) fd
open_sub() fd_sub
use_thing(f fd, v int32[0:10], c const[0x42], p proc[100, 4], arr array[int8, 1:3], st ptr[in, st], un ptr[in, u], outp ptr[out, fd])
use_sub(f fd_sub)
close_thing(f fd)
noop(x int32)
|}

let mini = lazy (Target.of_string ~name:"mini" mini_src)
let mt () = Lazy.force mini
let mcall name args = { Prog.syscall = Target.find_exn (mt ()) name; args }

let open_call () = mcall "open_thing" [ Value.Str "/x"; Value.Int 0x2L ]

(* A fully conformant use_thing against r0. *)
let use_call ?(f = Value.Res_ref 0) ?(v = Value.Int 5L) ?(c = Value.Int 0x42L)
    ?(p = Value.Int 108L)
    ?(arr = Value.Group [ Value.Int 1L; Value.Int 2L ])
    ?(st =
      Value.Ptr
        (Value.Group [ Value.Buf (Blob.of_bytes (Bytes.make 4 'a')); Value.Int 4L; Value.Int 7L ]))
    ?(un = Value.Ptr (Value.Group [ Value.Int 3L ])) ?(outp = Value.Null) () =
  mcall "use_thing" [ f; v; c; p; arr; st; un; outp ]

let clean_prog () =
  prog [ open_call (); use_call (); mcall "close_thing" [ Value.Res_ref 0 ] ]

let has id ds = List.exists (fun (d : D.t) -> String.equal d.D.check id) ds

let str_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_error id p =
  let ds = P.errors (mt ()) p in
  Alcotest.(check bool)
    (Printf.sprintf "%s reported in: %s" id (Prog.to_string p))
    true (has id ds)

let expect_warning id p =
  let ds = P.check (mt ()) p in
  Alcotest.(check bool) (id ^ " reported") true
    (List.exists
       (fun (d : D.t) -> d.D.check = id && d.D.severity = D.Warning)
       ds);
  Alcotest.(check (list string))
    (id ^ " fixture stays error-free")
    [] (List.map D.to_string (P.errors (mt ()) p))

(* ---- fixtures: the clean program and one broken program per check ---- *)

let test_clean () =
  Alcotest.(check (list string))
    "clean program has no diagnostics at all" []
    (List.map D.to_string (P.check (mt ()) (clean_prog ())));
  Alcotest.(check bool) "is_clean" true (P.is_clean (mt ()) (clean_prog ()))

let test_alien_call () =
  let ghost = { Syscall.id = 999; name = "ghost"; base = "ghost"; args = []; ret = None } in
  expect_error "prog-alien-call" (prog [ { Prog.syscall = ghost; args = [] } ]);
  (* Right id, wrong declaration. *)
  let imposter = { (Target.syscall (mt ()) 0) with Syscall.name = "imposter" } in
  expect_error "prog-alien-call" (prog [ { Prog.syscall = imposter; args = [] } ])

let test_arity () =
  expect_error "prog-arity" (prog [ mcall "open_thing" [ Value.Str "/x" ] ])

let test_type () =
  expect_error "prog-type"
    (prog [ open_call (); use_call ~v:(Value.Str "not an int") () ])

let test_const () =
  expect_error "prog-const"
    (prog [ open_call (); use_call ~c:(Value.Int 0x41L) () ])

let test_flags () =
  (* declared mask is 0x1|0x2|0x8 = 0xb; 0x4 escapes it *)
  expect_error "prog-flags"
    (prog [ mcall "open_thing" [ Value.Str "/x"; Value.Int 0x4L ] ])

let test_int_width () =
  (* ranged int32[0:10] *)
  expect_error "prog-int-width"
    (prog [ open_call (); use_call ~v:(Value.Int 20L) () ]);
  (* unranged int8 inside the array *)
  expect_error "prog-int-width"
    (prog [ open_call (); use_call ~arr:(Value.Group [ Value.Int 300L ]) () ])

let test_proc () =
  expect_error "prog-proc"
    (prog [ open_call (); use_call ~p:(Value.Int 101L) () ])

let test_len () =
  (* st.n says 99 bytes; st.data is 4 *)
  expect_error "prog-len"
    (prog
       [
         open_call ();
         use_call
           ~st:
             (Value.Ptr
                (Value.Group
                   [ Value.Buf (Blob.of_bytes (Bytes.make 4 'a')); Value.Int 99L; Value.Int 7L ]))
           ();
       ])

let test_array_bounds () =
  (* array[int8, 1:3]: empty and oversized both escape *)
  expect_error "prog-array-bounds"
    (prog [ open_call (); use_call ~arr:(Value.Group []) () ]);
  expect_error "prog-array-bounds"
    (prog
       [
         open_call ();
         use_call
           ~arr:(Value.Group (List.init 4 (fun _ -> Value.Int 1L)))
           ();
       ])

let test_union () =
  (* neither arm (int32[0:4] | fd) accepts a string *)
  expect_error "prog-union"
    (prog
       [ open_call (); use_call ~un:(Value.Ptr (Value.Group [ Value.Str "x" ])) () ])

let test_union_arm_choice () =
  (* an in-range int conforms to arm ua; an fd reference to arm ub *)
  let ok un = prog [ open_call (); use_call ~un (); mcall "close_thing" [ Value.Res_ref 0 ] ] in
  Alcotest.(check (list string))
    "int arm accepted" []
    (List.map D.to_string (P.errors (mt ()) (ok (Value.Ptr (Value.Group [ Value.Int 4L ])))));
  Alcotest.(check (list string))
    "resource arm accepted" []
    (List.map D.to_string
       (P.errors (mt ()) (ok (Value.Ptr (Value.Group [ Value.Res_ref 0 ])))));
  (* out-of-range for ua and not a resource for ub: rejected *)
  expect_error "prog-union"
    (prog [ open_call (); use_call ~un:(Value.Ptr (Value.Group [ Value.Str "zz" ])) () ])

let test_res_dangling () =
  (* forward and self references *)
  expect_error "prog-res-dangling" (prog [ use_call ~f:(Value.Res_ref 0) () ]);
  expect_error "prog-res-dangling"
    (prog [ open_call (); use_call ~f:(Value.Res_ref 5) () ])

let test_res_kind () =
  (* noop produces nothing *)
  expect_error "prog-res-kind"
    (prog [ mcall "noop" [ Value.Int 0L ]; use_call ~f:(Value.Res_ref 0) () ]);
  (* fd is not a subtype of fd_sub: open_thing's fd cannot feed use_sub *)
  expect_error "prog-res-kind"
    (prog [ open_call (); mcall "use_sub" [ Value.Res_ref 0 ] ]);
  (* ...but fd_sub inherits from fd, so open_sub's result can feed use_thing *)
  Alcotest.(check (list string))
    "inherited kind accepted" []
    (List.map D.to_string
       (P.errors (mt ())
          (prog
             [
               mcall "open_sub" [];
               use_call ~f:(Value.Res_ref 0) ();
               mcall "close_thing" [ Value.Res_ref 0 ];
             ])))

let test_out_ref () =
  (* outp is ptr[out, fd]: passing a live reference there is suspect *)
  expect_warning "prog-out-ref"
    (prog
       [
         open_call ();
         use_call ~outp:(Value.Ptr (Value.Res_ref 0)) ();
         mcall "close_thing" [ Value.Res_ref 0 ];
       ])

let test_dead_producer () =
  expect_warning "prog-dead-producer" (prog [ open_call () ])

let test_use_after_close () =
  expect_warning "prog-use-after-close"
    (prog
       [
         open_call ();
         mcall "close_thing" [ Value.Res_ref 0 ];
         use_call ~f:(Value.Res_ref 0) ();
       ]);
  Alcotest.(check bool) "close_thing is a closer" true
    (P.is_closer (Target.find_exn (mt ()) "close_thing"));
  Alcotest.(check bool) "open_thing is not" false
    (P.is_closer (Target.find_exn (mt ()) "open_thing"))

(* Every check ID has a fixture above; make sure the catalog and the
   analyzer's --list-checks registry agree. *)
let test_catalog () =
  let ids = List.map (fun (id, _, _) -> id) P.checks in
  Alcotest.(check int) "unique IDs" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " has prog- prefix") true
        (String.length id > 5 && String.sub id 0 5 = "prog-"))
    ids;
  let registered =
    List.filter_map
      (fun (id, _, _, pass) -> if pass = "progcheck" then Some id else None)
      Healer_analysis.Analysis.all_checks
  in
  Alcotest.(check (list string)) "registered with the analyzer" ids registered

(* ---- debug enforcement ---- *)

let test_debug_check () =
  (* main.ml turns validation on for the whole suite *)
  Alcotest.(check bool) "debug on under the test runner" true (P.debug_enabled ());
  let bad = prog [ open_call (); use_call ~c:(Value.Int 0L) () ] in
  (match P.debug_check ~what:"fixture" (mt ()) bad with
  | () -> Alcotest.fail "expected Progcheck.Invalid"
  | exception P.Invalid msg ->
    Alcotest.(check bool) "names the stage" true (str_contains msg "fixture")
  | exception _ -> Alcotest.fail "expected Progcheck.Invalid");
  P.debug_check ~what:"fixture" (mt ()) (clean_prog ());
  P.set_debug false;
  Fun.protect
    ~finally:(fun () -> P.set_debug true)
    (fun () -> P.debug_check ~what:"fixture" (mt ()) bad)

(* Decoding a well-formed encoding of a type-invalid program is a
   Malformed input under debug validation. *)
let test_decode_rejects_invalid () =
  let bad = prog [ open_call (); use_call ~c:(Value.Int 0L) () ] in
  let s = Serializer.encode bad in
  match Serializer.decode (mt ()) s with
  | _ -> Alcotest.fail "expected Malformed"
  | exception Healer_util.Codec.Malformed _ -> ()

(* ---- golden clean corpora ---- *)

let test_seed_corpora_clean () =
  let t = tgt () in
  List.iter
    (fun p ->
      Alcotest.(check (list string))
        "seed trace validator-clean" []
        (List.map D.to_string (P.errors t p)))
    (Seeds.traces t @ Seeds.distilled t)

(* ---- fuzz the fuzzer: the pipeline only emits clean programs ---- *)

let select_uniform rng t ~sub:_ = Rng.int rng (Target.n_syscalls t)

(* The enforcement hooks themselves raise Progcheck.Invalid under the
   suite-wide debug flag; the explicit assertions make the property
   independent of the flag. *)
let test_pipeline_clean () =
  let t = tgt () in
  let rng = rng ~seed:11 () in
  for _ = 1 to 500 do
    let p = Gen.generate rng t ~select:(select_uniform rng t) () in
    Alcotest.(check (list string))
      "generated program clean" []
      (List.map D.to_string (P.errors t p));
    let p = ref p in
    for _ = 1 to 3 do
      p := Mutate.mutate rng t ~select:(select_uniform rng t) !p;
      Alcotest.(check (list string))
        "mutated program clean" []
        (List.map D.to_string (P.errors t !p))
    done
  done

let test_edit_clean () =
  let t = tgt () in
  let rng = rng ~seed:12 () in
  for _ = 1 to 300 do
    let p = ref (Gen.generate rng t ~select:(select_uniform rng t) ()) in
    for _ = 1 to 5 do
      (if Rng.bool rng && Prog.length !p < Builder.max_prog_len then
         let at = Rng.int rng (Prog.length !p + 1) in
         let calls = Target.syscalls t in
         let c = calls.(Rng.int rng (Array.length calls)) in
         p := Builder.insert_call rng t !p ~at c
       else if Prog.length !p > 1 then p := Prog.remove !p (Rng.int rng (Prog.length !p)));
      Alcotest.(check bool) "edited program well-formed" true (Prog.well_formed !p);
      Alcotest.(check (list string))
        "edited program clean" []
        (List.map D.to_string (P.errors t !p))
    done
  done

let test_roundtrip_clean () =
  let t = tgt () in
  let rng = rng ~seed:13 () in
  for _ = 1 to 200 do
    let p = Gen.generate rng t ~select:(select_uniform rng t) () in
    (* decode re-validates under the debug flag and raises Malformed on
       any regression *)
    let p' = Serializer.decode t (Serializer.encode p) in
    Alcotest.(check string) "roundtrip identity" (Prog.to_string p) (Prog.to_string p')
  done

let test_minimize_clean () =
  let t = tgt () in
  let rng = rng ~seed:14 () in
  let module Exec = Healer_executor.Exec in
  let exec q = Helpers.run q in
  let iters = ref 0 in
  while !iters < 30 do
    let p = Gen.generate rng t ~select:(select_uniform rng t) () in
    let result = exec p in
    if result.Exec.crash = None then begin
      incr iters;
      let cov = Array.map (fun (c : Exec.call_result) -> c.Exec.cov) result.Exec.calls in
      let pc = { Prog_cov.prog = p; cov; new_cov = Array.map (fun c -> c) cov } in
      (* ~target makes minimize assert each subsequence; check again
         explicitly *)
      List.iter
        (fun (m : Prog_cov.t) ->
          Alcotest.(check (list string))
            "minimized subsequence clean" []
            (List.map D.to_string (P.errors t m.Prog_cov.prog)))
        (Minimize.minimize ~target:t ~exec pc)
    end
  done

(* ---- satellite (a): reference renumbering under long edit sequences.

   Model: give every call a unique label; removal deletes the label,
   insertion mints a fresh one. After any edit sequence the labels a
   call references must match the model exactly — references to a
   removed call vanish (degraded to Res_special), all others follow
   their producer. *)

let ref_labels p labels =
  List.init (Prog.length p) (fun k ->
      List.map (fun j -> List.nth labels j) (Prog.refs_of_call (Prog.call p k)))

let test_edit_renumbering =
  qcheck ~count:150 "edit sequences renumber refs like the label model"
    QCheck2.Gen.(
      pair small_int (list_size (int_range 1 25) (pair bool (int_bound 1000))))
    (fun (seed, edits) ->
      let t = tgt () in
      let rng = Rng.create (seed + 5000) in
      let p =
        ref (Gen.generate rng t ~select:(select_uniform rng t) ())
      in
      let labels = ref (List.init (Prog.length !p) (fun k -> k)) in
      let fresh = ref (Prog.length !p) in
      List.for_all
        (fun (is_insert, x) ->
          if is_insert && Prog.length !p < Builder.max_prog_len then begin
            let at = x mod (Prog.length !p + 1) in
            let before = ref_labels !p !labels in
            let calls = Target.syscalls t in
            let sc = calls.(Rng.int rng (Array.length calls)) in
            (* make_call + Prog.insert adds exactly one call, which is
               what the label model tracks (insert_call may splice in
               whole producer chains) *)
            let c = Builder.make_call rng t !p ~at sc in
            p := Prog.insert !p at c;
            let l = !fresh in
            incr fresh;
            labels :=
              List.filteri (fun k _ -> k < at) !labels
              @ (l :: List.filteri (fun k _ -> k >= at) !labels);
            let after = ref_labels !p !labels in
            (* every pre-existing call still references the same labels *)
            List.filteri (fun k _ -> k <> at) after = before
            && Prog.well_formed !p
          end
          else if Prog.length !p > 1 then begin
            let i = x mod Prog.length !p in
            let removed = List.nth !labels i in
            let before = ref_labels !p !labels in
            p := Prog.remove !p i;
            labels := List.filteri (fun k _ -> k <> i) !labels;
            let after = ref_labels !p !labels in
            let expected =
              List.filteri (fun k _ -> k <> i) before
              |> List.map (List.filter (fun l -> l <> removed))
            in
            after = expected && Prog.well_formed !p
          end
          else true)
        edits)

(* ---- satellite (b): serializer corruption robustness ---- *)

(* Single-byte corruptions of valid encodings either decode to a
   validator-clean program or raise Malformed — never another
   exception, never a dirty program (debug validation would convert
   that to Malformed; the explicit errors check keeps the property
   honest even with validation off). *)
let test_corruption_never_dirty =
  qcheck ~count:400 "corrupted encodings never decode dirty"
    QCheck2.Gen.(triple small_int (int_bound 4095) (int_bound 255))
    (fun (seed, pos, byte) ->
      let t = tgt () in
      let rng = Rng.create (seed + 9000) in
      let p = Gen.generate rng t ~select:(select_uniform rng t) () in
      let good = Serializer.encode p in
      let bytes = Bytes.of_string good in
      Bytes.set bytes (pos mod Bytes.length bytes) (Char.chr byte);
      match Serializer.decode t (Bytes.to_string bytes) with
      | p' -> P.errors t p' = []
      | exception Healer_util.Codec.Malformed _ -> true)

(* ---- the analysis-layer corpus report ---- *)

let test_report_json () =
  let t = mt () in
  let bad = prog [ open_call (); use_call ~c:(Value.Int 0L) () ] in
  let named = [ (Some "fix#0", clean_prog ()); (Some "fix#1", bad) ] in
  let ds = Healer_analysis.Progcheck.validate t named in
  Alcotest.(check bool) "const error found" true (has "prog-const" ds);
  let counts = Healer_analysis.Progcheck.count_by_check ds in
  Alcotest.(check bool) "counts nonzero" true
    (List.exists (fun (id, n) -> id = "prog-const" && n >= 1) counts);
  let json = Healer_analysis.Progcheck.report_to_json ~name:"mini" ~programs:2 ds in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " in json") true (str_contains json affix))
    [ "\"programs\":2"; "\"prog-const\""; "\"checks\":["; "\"diagnostics\":[" ]

let suite =
  [
    case "clean program" test_clean;
    case "prog-alien-call" test_alien_call;
    case "prog-arity" test_arity;
    case "prog-type" test_type;
    case "prog-const" test_const;
    case "prog-flags" test_flags;
    case "prog-int-width" test_int_width;
    case "prog-proc" test_proc;
    case "prog-len" test_len;
    case "prog-array-bounds" test_array_bounds;
    case "prog-union" test_union;
    case "union arm choice" test_union_arm_choice;
    case "prog-res-dangling" test_res_dangling;
    case "prog-res-kind" test_res_kind;
    case "prog-out-ref" test_out_ref;
    case "prog-dead-producer" test_dead_producer;
    case "prog-use-after-close" test_use_after_close;
    case "check catalog" test_catalog;
    case "debug_check raises" test_debug_check;
    case "decode rejects invalid" test_decode_rejects_invalid;
    case "seed corpora clean" test_seed_corpora_clean;
    case "500x gen + 1500x mutate clean" test_pipeline_clean;
    case "1500x edit clean" test_edit_clean;
    case "200x roundtrip clean" test_roundtrip_clean;
    case "minimize outputs clean" test_minimize_clean;
    test_edit_renumbering;
    test_corruption_never_dirty;
    case "corpus report json" test_report_json;
  ]
