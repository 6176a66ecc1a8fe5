(* Value generation, program building, guided generation/mutation and
   the corpus. *)

module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Ty = Healer_syzlang.Ty
module Rng = Healer_util.Rng
open Healer_core
open Helpers

let no_producers = fun _ -> [||]
let vctx ?(producers = no_producers) () = { Value_gen.target = tgt (); producers }

let test_gen_args_arity =
  qcheck ~count:100 "generated args match arity" QCheck2.Gen.small_int (fun seed ->
      let rng = Rng.create seed in
      let ctx = vctx () in
      Array.for_all
        (fun (c : Syscall.t) ->
          List.length (Value_gen.gen_args rng ctx c) = List.length c.Syscall.args)
        (Target.syscalls (tgt ())))

let test_gen_const_preserved () =
  let rng = rng () in
  let c = Target.find_exn (tgt ()) "ioctl$KVM_RUN" in
  for _ = 1 to 20 do
    match Value_gen.gen_args rng (vctx ()) c with
    | [ _; Value.Int 0xae80L ] -> ()
    | _ -> Alcotest.fail "const argument must be the declared constant"
  done

let test_gen_len_resolved () =
  let rng = rng () in
  let c = Target.find_exn (tgt ()) "write" in
  for _ = 1 to 50 do
    match Value_gen.gen_args rng (vctx ()) c with
    | [ _; buf_v; Value.Int len ] ->
      Alcotest.(check int64) "len matches buffer size"
        (Int64.of_int (Value_gen.size_of_value buf_v))
        len
    | _ -> Alcotest.fail "unexpected shape for write args"
  done

let test_gen_resource_wiring () =
  let rng = rng () in
  let ctx =
    vctx ~producers:(fun (r : Target.resource) -> if r.kind = "fd" then [| 3 |] else [||]) ()
  in
  let c = Target.find_exn (tgt ()) "close" in
  let wired = ref 0 in
  for _ = 1 to 100 do
    match Value_gen.gen_args rng ctx c with
    | [ Value.Res_ref 3 ] -> incr wired
    | [ _ ] -> ()
    | _ -> Alcotest.fail "close takes one argument"
  done;
  Alcotest.(check bool) "mostly wired to the producer" true (!wired > 70)

let test_gen_resource_without_producer () =
  let rng = rng () in
  let c = Target.find_exn (tgt ()) "close" in
  for _ = 1 to 50 do
    match Value_gen.gen_args rng (vctx ()) c with
    | [ Value.Res_ref _ ] -> Alcotest.fail "no producer exists to reference"
    | [ _ ] -> ()
    | _ -> Alcotest.fail "arity"
  done

let test_mutate_args_arity =
  qcheck ~count:100 "mutation preserves arity" QCheck2.Gen.small_int (fun seed ->
      let rng = Rng.create seed in
      let ctx = vctx () in
      Array.for_all
        (fun (c : Syscall.t) ->
          let args = Value_gen.gen_args rng ctx c in
          List.length (Value_gen.mutate_args rng ctx c args)
          = List.length c.Syscall.args)
        (Target.syscalls (tgt ())))

let test_mutate_const_stable () =
  let rng = rng () in
  let ctx = vctx () in
  let c = Target.find_exn (tgt ()) "ioctl$KVM_CREATE_VM" in
  let args = Value_gen.gen_args rng ctx c in
  for _ = 1 to 30 do
    match Value_gen.mutate_args rng ctx c args with
    | [ _; Value.Int 0xae01L ] -> ()
    | _ -> Alcotest.fail "const must survive mutation"
  done

(* ---- builder ---- *)

let test_builder_ensures_producers () =
  let rng = rng () in
  let run_call = Target.find_exn (tgt ()) "ioctl$KVM_RUN" in
  let p = Builder.insert_call rng (tgt ()) Prog.empty ~at:0 run_call in
  Alcotest.(check bool) "well formed" true (Prog.well_formed p);
  let names =
    List.init (Prog.length p) (fun k -> (Prog.call p k).Prog.syscall.Syscall.name)
  in
  (* KVM_RUN needs a vcpu, which needs a vm, which needs /dev/kvm. *)
  Alcotest.(check bool) "vcpu producer inserted" true
    (List.mem "ioctl$KVM_CREATE_VCPU" names);
  Alcotest.(check bool) "vm producer inserted" true
    (List.mem "ioctl$KVM_CREATE_VM" names);
  Alcotest.(check bool) "run is last" true
    (List.nth names (List.length names - 1) = "ioctl$KVM_RUN")

let test_builder_reuses_existing_producer () =
  let rng = rng () in
  let p = Builder.append_call rng (tgt ()) Prog.empty (Target.find_exn (tgt ()) "socket$tcp") in
  let p = Builder.append_call rng (tgt ()) p (Target.find_exn (tgt ()) "listen") in
  (* listen should reference the existing socket, not insert another. *)
  let sockets =
    List.length
      (List.filter
         (fun k -> (Prog.call p k).Prog.syscall.Syscall.name = "socket$tcp")
         (List.init (Prog.length p) (fun k -> k)))
  in
  Alcotest.(check int) "one socket" 1 sockets

let test_builder_length_cap =
  qcheck ~count:50 "builder respects max length" QCheck2.Gen.small_int (fun seed ->
      let rng = Rng.create seed in
      let calls = Target.syscalls (tgt ()) in
      let p = ref Prog.empty in
      for _ = 1 to 100 do
        p := Builder.append_call rng (tgt ()) !p calls.(Rng.int rng (Array.length calls))
      done;
      Prog.length !p <= Builder.max_prog_len)

(* ---- generation and mutation ---- *)

let random_select rng ~sub:_ = Rng.int rng (Target.n_syscalls (tgt ()))

let test_generate_well_formed =
  qcheck ~count:200 "generated programs well-formed" QCheck2.Gen.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let p = Gen.generate rng (tgt ()) ~select:(random_select rng) () in
      Prog.length p > 0 && Prog.well_formed p && Prog.length p <= Builder.max_prog_len)

let test_generate_runs_cleanly =
  qcheck ~count:100 "generated programs execute" QCheck2.Gen.small_int (fun seed ->
      let rng = Rng.create seed in
      let p = Gen.generate rng (tgt ()) ~select:(random_select rng) () in
      let result = run p in
      Array.length result.Healer_executor.Exec.calls = Prog.length p)

let test_mutate_well_formed =
  qcheck ~count:200 "mutated programs well-formed" QCheck2.Gen.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let p = Gen.generate rng (tgt ()) ~select:(random_select rng) () in
      let q = Mutate.mutate rng (tgt ()) ~select:(random_select rng) p in
      Prog.length q > 0 && Prog.well_formed q)

let test_gen_syscall_ids () =
  let p =
    prog [ call "socket$tcp" [ i 2L; i 1L; i 6L ]; call "listen" [ r 0; iv 1 ] ]
  in
  let ids = Gen.syscall_ids p ~upto:2 in
  Alcotest.(check (list int)) "ids in order"
    [ (Target.find_exn (tgt ()) "socket$tcp").Syscall.id;
      (Target.find_exn (tgt ()) "listen").Syscall.id ]
    ids;
  Alcotest.(check int) "upto truncates" 1 (List.length (Gen.syscall_ids p ~upto:1))

(* ---- the RNG stream, pinned across builds ---- *)

(* Generation is a pure function of the Rng stream, so any change to
   how a generator consumes it (an extra draw, a reordered pair, a
   bulk fill that differs by one byte) shows up here. The constants
   were measured before the bulk-fill buffer generator replaced the
   per-byte one, and must never move. *)
let test_golden_generation_stream () =
  let rng = Rng.create 42 in
  let buf = Buffer.create (1 lsl 20) in
  for _ = 1 to 200 do
    let p = Gen.generate rng (tgt ()) ~select:(random_select rng) () in
    Buffer.add_string buf (Healer_executor.Serializer.encode p)
  done;
  Alcotest.(check string) "md5 of 200 encoded programs"
    "df0c02565e7aab5f4e72eb5976005e3b"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Generation allocates nothing directly on the major heap, where
   every buffer of 4 KiB or more (513+ words, past the minor heap's
   object limit) used to go. Validation is off, as in production. *)
let test_generation_no_direct_major () =
  let debug = Healer_executor.Progcheck.debug_enabled () in
  Fun.protect ~finally:(fun () -> Healer_executor.Progcheck.set_debug debug)
  @@ fun () ->
  Healer_executor.Progcheck.set_debug false;
  let rng = Rng.create 42 in
  let before = direct_major_words () in
  for _ = 1 to 200 do
    ignore (Sys.opaque_identity (Gen.generate rng (tgt ()) ~select:(random_select rng) ()))
  done;
  Alcotest.(check (float 0.0)) "words allocated directly on the major heap" 0.0
    (direct_major_words () -. before)

let test_golden_campaign () =
  let r =
    Campaign.run_one ~hours:1.0 ~seed:1 ~tool:Fuzzer.Healer
      ~version:Healer_kernel.Version.V5_11 ()
  in
  Alcotest.(check (list int)) "execs, final_cov, corpus_size, crashes"
    [ 1958; 570; 336; 7 ]
    [ r.Campaign.execs; r.Campaign.final_cov; r.Campaign.corpus_size;
      List.length r.Campaign.crashes ]

(* ---- corpus ---- *)

let test_corpus_dedup () =
  let c = Corpus.create (tgt ()) in
  let p = prog [ call "socket$tcp" [ i 2L; i 1L; i 6L ] ] in
  Alcotest.(check bool) "first add" true (Corpus.add c p ~new_blocks:3);
  Alcotest.(check bool) "duplicate rejected" false (Corpus.add c p ~new_blocks:5);
  Alcotest.(check bool) "empty rejected" false (Corpus.add c Prog.empty ~new_blocks:1);
  Alcotest.(check int) "size" 1 (Corpus.size c)

(* A caller-held key stands in for re-encoding the program; under
   validation a key that is not the program's is a caller bug. *)
let test_corpus_keys () =
  let c = Corpus.create (tgt ()) in
  let p = prog [ call "socket$tcp" [ i 2L; i 1L; i 6L ] ] in
  let q = prog [ call "socket$udp" [ i 2L; i 2L; i 17L ] ] in
  let key = Corpus.key p in
  Alcotest.(check bool) "keyed add" true (Corpus.add ~key c p ~new_blocks:1);
  Alcotest.(check bool) "re-add under its own key" false (Corpus.add ~key c p ~new_blocks:1);
  Alcotest.(check bool) "re-add unkeyed" false (Corpus.add c p ~new_blocks:1);
  let debug = Healer_executor.Progcheck.debug_enabled () in
  Fun.protect ~finally:(fun () -> Healer_executor.Progcheck.set_debug debug)
  @@ fun () ->
  Healer_executor.Progcheck.set_debug true;
  (match Corpus.add ~key c q ~new_blocks:1 with
  | _ -> Alcotest.fail "accepted another program's key"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "unkeyed add" true (Corpus.add c q ~new_blocks:1);
  let keys = ref [] in
  Corpus.iter_keyed (fun k p -> keys := (k, Corpus.key p) :: !keys) c;
  Alcotest.(check (list (pair string string))) "stored keys, in insertion order"
    [ (key, key); (Corpus.key q, Corpus.key q) ]
    (List.rev !keys)

let test_corpus_pick_and_histogram () =
  let c = Corpus.create (tgt ()) in
  Alcotest.(check (option unit)) "empty pick" None
    (Option.map ignore (Corpus.pick (rng ()) c));
  let mk ?(tag = 0) n =
    prog
      (call "socket$tcp" [ i 2L; i 1L; iv tag ]
      :: List.init (n - 1) (fun _ -> call "listen" [ r 0; iv 1 ]))
  in
  List.iter
    (fun (tag, n) -> ignore (Corpus.add c (mk ~tag n) ~new_blocks:n))
    [ (0, 1); (1, 2); (2, 2); (3, 3); (4, 6) ];
  Alcotest.(check int) "size" 5 (Corpus.size c);
  Alcotest.(check (list (pair string int)))
    "histogram"
    [ ("1", 1); ("2", 2); ("3", 1); ("4", 0); ("5+", 1) ]
    (Corpus.length_histogram c);
  Alcotest.(check (float 1e-9)) "frac >=3" 0.4 (Corpus.frac_len_at_least c 3);
  match Corpus.pick (rng ()) c with
  | Some p -> Alcotest.(check bool) "picked member" true (Prog.length p >= 1)
  | None -> Alcotest.fail "non-empty corpus must pick"

let suite =
  [
    test_gen_args_arity;
    case "const preserved" test_gen_const_preserved;
    case "len resolved" test_gen_len_resolved;
    case "resource wiring" test_gen_resource_wiring;
    case "resource without producer" test_gen_resource_without_producer;
    test_mutate_args_arity;
    case "const stable under mutation" test_mutate_const_stable;
    case "builder inserts producer chain" test_builder_ensures_producers;
    case "builder reuses producers" test_builder_reuses_existing_producer;
    test_builder_length_cap;
    test_generate_well_formed;
    test_generate_runs_cleanly;
    test_mutate_well_formed;
    case "gen syscall_ids" test_gen_syscall_ids;
    case "golden generation stream" test_golden_generation_stream;
    case "generation skips the major heap" test_generation_no_direct_major;
    case "golden 1h campaign" test_golden_campaign;
    case "corpus dedup" test_corpus_dedup;
    case "corpus keys" test_corpus_keys;
    case "corpus pick/histogram" test_corpus_pick_and_histogram;
  ]
