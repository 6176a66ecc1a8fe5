(* Relation-table and corpus persistence across campaigns. *)

module Prog = Healer_executor.Prog
module K = Healer_kernel
open Healer_core
open Helpers

let test_relations_roundtrip () =
  let t = Relation_table.create 40 in
  ignore (Relation_table.set t 0 1);
  ignore (Relation_table.set t 5 30);
  ignore (Relation_table.set t 39 0);
  let t' = Relation_table.deserialize (Relation_table.serialize t) in
  Alcotest.(check int) "size" 40 (Relation_table.size t');
  Alcotest.(check (list (pair int int))) "edges preserved"
    (Relation_table.edges t) (Relation_table.edges t')

let test_relations_learned_roundtrip () =
  (* A table learned by an actual campaign survives the roundtrip. *)
  let cfg = Fuzzer.config ~seed:8 ~tool:Fuzzer.Healer ~version:K.Version.V5_11 () in
  let f = Fuzzer.create cfg in
  Fuzzer.run_until f 1200.0;
  let table = Option.get (Fuzzer.relations f) in
  let restored = Relation_table.deserialize (Relation_table.serialize table) in
  Alcotest.(check int) "count preserved" (Relation_table.count table)
    (Relation_table.count restored)

let test_initial_relations_merge () =
  (* Reusing a learned table gives the next campaign a head start. *)
  let saved = Relation_table.create (Healer_syzlang.Target.n_syscalls (tgt ())) in
  ignore (Relation_table.set saved 1 2);
  let cfg = Fuzzer.config ~seed:8 ~tool:Fuzzer.Healer ~version:K.Version.V5_11 () in
  let f = Fuzzer.create ~initial_relations:saved cfg in
  let table = Option.get (Fuzzer.relations f) in
  Alcotest.(check bool) "merged edge present" true (Relation_table.get table 1 2)

let test_corpus_roundtrip () =
  let progs =
    [
      prog [ call "socket$tcp" [ i 2L; i 1L; i 6L ]; call "listen" [ r 0; iv 8 ] ];
      prog [ call "memfd_create" [ ptr (s "m"); i 2L ] ];
    ]
  in
  let restored = Persist.corpus_of_string (tgt ()) (Persist.corpus_to_string progs) in
  Alcotest.(check int) "count" 2 (List.length restored);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "identical encoding"
        (Healer_executor.Serializer.encode a)
        (Healer_executor.Serializer.encode b))
    progs restored

let test_file_roundtrip () =
  let path = Filename.temp_file "healer" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let progs = [ prog [ call "sync$ALL" [ i 0L; i 0L ] ] ] in
      Persist.save_corpus ~path progs;
      Alcotest.(check int) "reloaded" 1
        (List.length (Persist.load_corpus (tgt ()) ~path)))

let test_atomic_write_survives_crash () =
  let path = Filename.temp_file "healer" ".rel" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () ->
      let t = Relation_table.create 8 in
      ignore (Relation_table.set t 1 2);
      Persist.save_relations ~path t;
      (* A crash mid-write leaves a partial temp file; the rename that
         would commit it never ran, so the live file is untouched. *)
      let oc = open_out_bin (path ^ ".tmp") in
      output_string oc "healer-relations 8\n1";
      close_out oc;
      Alcotest.(check (list (pair int int)))
        "previous state loadable after simulated crash"
        (Relation_table.edges t)
        (Relation_table.edges (Persist.load_relations ~path)))

let test_initial_seeds_ingested () =
  let seeds =
    [ prog [ call "socket$tcp" [ i 2L; i 1L; i 6L ]; call "listen" [ r 0; iv 8 ] ] ]
  in
  let cfg = Fuzzer.config ~seed:8 ~tool:Fuzzer.Syzkaller ~version:K.Version.V5_11 () in
  let f = Fuzzer.create ~initial_seeds:seeds cfg in
  Alcotest.(check bool) "corpus pre-populated" true
    (Corpus.size (Fuzzer.corpus f) >= 1)

let suite =
  [
    case "relations roundtrip" test_relations_roundtrip;
    case "learned relations roundtrip" test_relations_learned_roundtrip;
    case "initial relations merge" test_initial_relations_merge;
    case "corpus roundtrip" test_corpus_roundtrip;
    case "corpus file roundtrip" test_file_roundtrip;
    case "atomic write survives mid-write crash" test_atomic_write_survives_crash;
    case "initial seeds ingested" test_initial_seeds_ingested;
  ]
