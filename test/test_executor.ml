module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Serializer = Healer_executor.Serializer
module Exec = Healer_executor.Exec
module Vm = Healer_executor.Vm
module Pool = Healer_executor.Pool
module K = Healer_kernel
open Helpers

(* ---- Prog editing ---- *)

let sample_prog () =
  prog
    [
      call "memfd_create" [ ptr (s "memfd"); i 3L ];
      call "write" [ r 0; buf 64; iv 64 ];
      call "fcntl$ADD_SEALS" [ r 0; i 0x409L; i 0x8L ];
      call "mmap" [ vma; iv 4096; i 1L; i 2L; r 0; i 0L ];
    ]

let test_prog_basics () =
  let p = sample_prog () in
  Alcotest.(check int) "length" 4 (Prog.length p);
  Alcotest.(check bool) "well formed" true (Prog.well_formed p);
  Alcotest.(check bool) "call 0 used" true (Prog.uses_result_of p 0);
  Alcotest.(check bool) "call 1 unused" false (Prog.uses_result_of p 1)

let test_prog_remove_shifts_refs () =
  let p = Prog.remove (sample_prog ()) 1 in
  Alcotest.(check int) "length" 3 (Prog.length p);
  Alcotest.(check bool) "still well formed" true (Prog.well_formed p);
  (* mmap's reference to call 0 must survive the removal of call 1. *)
  match (Prog.call p 2).Prog.args with
  | [ _; _; _; _; Value.Res_ref 0; _ ] -> ()
  | _ -> Alcotest.fail "reference not preserved"

let test_prog_remove_degrades_refs () =
  let p = Prog.remove (sample_prog ()) 0 in
  Alcotest.(check bool) "well formed" true (Prog.well_formed p);
  (* References to the removed producer degrade to the special -1. *)
  match (Prog.call p 0).Prog.args with
  | [ Value.Res_special -1L; _; _ ] -> ()
  | _ -> Alcotest.fail "dangling reference should degrade"

let test_prog_insert_renumbers () =
  let p = sample_prog () in
  let extra = call "fsync" [ r 0 ] in
  let p' = Prog.insert p 1 extra in
  Alcotest.(check int) "length" 5 (Prog.length p');
  Alcotest.(check bool) "well formed" true (Prog.well_formed p');
  (* The old call 1 (write) moved to index 2, still referencing 0. *)
  match (Prog.call p' 2).Prog.args with
  | [ Value.Res_ref 0; _; _ ] -> ()
  | _ -> Alcotest.fail "renumbering"

let test_prog_sub () =
  let p = Prog.sub (sample_prog ()) 2 in
  Alcotest.(check int) "prefix" 2 (Prog.length p);
  Alcotest.(check bool) "well formed" true (Prog.well_formed p)

let test_prog_pp () =
  let out = Prog.to_string (sample_prog ()) in
  Alcotest.(check bool) "names result" true
    (String.length out > 0
    && String.sub out 0 5 = "r0 = ")

(* Random edit sequences keep programs well-formed. *)
let test_prog_edit_invariant =
  qcheck ~count:300 "remove/insert keep refs backwards"
    QCheck2.Gen.(list (pair bool (int_range 0 10)))
    (fun edits ->
      let p = ref (sample_prog ()) in
      List.iter
        (fun (is_remove, pos) ->
          if is_remove && Prog.length !p > 1 then
            p := Prog.remove !p (pos mod Prog.length !p)
          else if Prog.length !p < 12 then
            p :=
              Prog.insert !p
                (pos mod (Prog.length !p + 1))
                (call "fsync" [ i 0L ]))
        edits;
      Prog.well_formed !p)

(* ---- serializer ---- *)

let test_roundtrip_explicit () =
  let p = sample_prog () in
  let decoded = Serializer.decode (tgt ()) (Serializer.encode p) in
  Alcotest.(check int) "length" (Prog.length p) (Prog.length decoded);
  for k = 0 to Prog.length p - 1 do
    let a = Prog.call p k and b = Prog.call decoded k in
    Alcotest.(check string) "syscall"
      a.Prog.syscall.Healer_syzlang.Syscall.name
      b.Prog.syscall.Healer_syzlang.Syscall.name;
    Alcotest.(check bool) "args equal" true
      (List.for_all2 Value.equal a.Prog.args b.Prog.args)
  done

(* Exercises every wire form the serializer knows, with values picked
   for shape coverage rather than type correctness — so decode-time
   validation is scoped off for this one test. *)
let test_roundtrip_all_value_forms () =
  let was = Healer_executor.Progcheck.debug_enabled () in
  Healer_executor.Progcheck.set_debug false;
  Fun.protect ~finally:(fun () -> Healer_executor.Progcheck.set_debug was)
  @@ fun () ->
  let p =
    prog
      [
        call "read"
          [
            Value.Res_special (-1L);
            Value.Buf (Blob.of_bytes (Bytes.of_string "\x00\xff\x80"));
            Value.Int Int64.min_int;
          ];
        call "mmap"
          [ Value.Vma 0xffffffffffffL; Value.Null;
            Value.Ptr (Value.Group [ Value.Int 1L; Value.Str "s" ]);
            Value.Group []; Value.Res_ref 0; Value.Int Int64.max_int ];
      ]
  in
  let decoded = Serializer.decode (tgt ()) (Serializer.encode p) in
  let b = Prog.call decoded 1 in
  Alcotest.(check bool) "args equal" true
    (List.for_all2 Value.equal (Prog.call p 1).Prog.args b.Prog.args)

(* ---- execution ---- *)

let test_exec_basic_flow () =
  let p =
    prog
      [
        call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
        call "write" [ r 0; buf 100; iv 100 ];
        call "read" [ r 0; buf 10; iv 10 ];
      ]
  in
  let r = run p in
  check_ok "open" r.Exec.calls.(0);
  check_ok "write" r.Exec.calls.(1);
  Alcotest.(check int64) "write count" 100L r.Exec.calls.(1).Exec.retval;
  Alcotest.(check bool) "coverage nonempty" true (r.Exec.calls.(0).Exec.cov <> [])

(* A write of a generated 16 KiB buffer (2 048 words if filled) costs
   what any two-call run does: no handler fills the buffer. Counted
   exactly, with validation and the reference replay off and a reused
   coverage map, as a pool runs. *)
let test_exec_write_fills_nothing () =
  let n = 16384 in
  let p =
    prog
      [
        call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
        call "write" [ r 0; Value.Buf (Blob.generate (rng ()) n); iv n ];
      ]
  in
  let debug = Healer_executor.Progcheck.debug_enabled () in
  Fun.protect
    ~finally:(fun () ->
      Exec.set_reference (Some Reference.replay);
      Healer_executor.Progcheck.set_debug debug)
  @@ fun () ->
  Healer_executor.Progcheck.set_debug false;
  Exec.set_reference None;
  let kernel = boot () and cov = K.Coverage.create () in
  ignore (Exec.run ~cov kernel p);
  let before = words () in
  let _, res = Exec.run ~cov kernel p in
  let w = words () -. before in
  check_ok "write" res.Exec.calls.(1);
  Alcotest.(check int64) "write count" (Int64.of_int n) res.Exec.calls.(1).Exec.retval;
  if w >= 1024.0 then
    Alcotest.failf "running a 16 KiB write allocated %.0f words (bound: 1024)" w

let test_exec_failed_ref_degrades () =
  (* The open fails (no O_CREAT on a missing file); the dependent write
     then gets fd -1 and fails with EBADF. *)
  let p =
    prog
      [
        call "open" [ s "/tmp/missing"; i 0L; i 0L ];
        call "write" [ r 0; buf 10; iv 10 ];
      ]
  in
  let r = run p in
  check_errno "open fails" (Some K.Errno.ENOENT) r.Exec.calls.(0);
  check_errno "write gets bad fd" (Some K.Errno.EBADF) r.Exec.calls.(1)

let test_exec_deterministic () =
  let p = sample_prog () in
  let r1 = run p and r2 = run p in
  Array.iteri
    (fun k (c1 : Exec.call_result) ->
      Alcotest.(check bool)
        (Printf.sprintf "call %d cov equal" k)
        true
        (Exec.cov_equal c1.Exec.cov r2.Exec.calls.(k).Exec.cov))
    r1.Exec.calls

let test_exec_crash_stops () =
  (* tcp_disconnect: connect then connect$unspec crashes; later calls
     must not execute. *)
  let p =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "connect" [ r 0; group [ i 2L; i 80L; i 1L ] ];
        call "connect$unspec" [ r 0; i 0L ];
        call "close" [ r 0 ];
      ]
  in
  let r = run p in
  check_crash "crash key" (Some "tcp_disconnect") r;
  Alcotest.(check bool) "last call skipped" false r.Exec.calls.(3).Exec.executed

let test_exec_sanitizer_gating () =
  (* raw_sendmsg_uninit is a KMSAN bug: invisible without KMSAN. *)
  let p =
    prog
      [
        call "socket$raw" [ i 2L; i 3L; i 255L ];
        call "sendto" [ r 0; buf 4; iv 4; i 0L; group [ i 2L; i 0L; i 0L ] ];
      ]
  in
  let with_kmsan = run p in
  check_crash "detected" (Some "raw_sendmsg_uninit") with_kmsan;
  let without = run ~san:{ K.Sanitizer.default with kmsan = false } p in
  check_crash "silent without kmsan" None without

let test_exec_version_gating () =
  (* blk_add_partitions exists only on 5.11. *)
  let p =
    prog
      [
        call "openat$loop" [ i (-100L); s "/dev/loop0"; i 0L ];
        call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
        call "ioctl$LOOP_SET_FD" [ r 0; i 0x4c00L; r 1 ];
        call "ioctl$BLKPG_ADD" [ r 0; i 0x1269L; group [ i 1L; i 0L; i 0L ] ];
        call "ioctl$BLKPG_DEL" [ r 0; i 0x126aL; group [ i 1L; i 0L; i 0L ] ];
        call "ioctl$BLKRRPART" [ r 0; i 0x125fL ];
      ]
  in
  check_crash "fires on 5.11" (Some "blk_add_partitions")
    (run ~version:K.Version.V5_11 p);
  check_crash "absent on 5.4" None (run ~version:K.Version.V5_4 p)

let test_exec_fault_injection_coredump () =
  (* Fault injection kills the process after the chosen call; the
     core-dump path leaks uninitialized memory (Listing 2) when KMSAN
     watches and the process had open descriptors. *)
  let p =
    prog
      [
        call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
        call "write" [ r 0; buf 10; iv 10 ];
        call "read" [ r 0; buf 10; iv 10 ];
      ]
  in
  let r = run ~version:K.Version.V5_11 ~fault_call:1 p in
  check_crash "fill_thread_core_info" (Some "fill_thread_core_info") r;
  Alcotest.(check bool) "read never ran" false r.Exec.calls.(2).Exec.executed;
  (* Not present before 5.6 in the catalog. *)
  check_crash "absent on 5.4" None (run ~version:K.Version.V5_4 ~fault_call:1 p)

let test_cov_equal () =
  Alcotest.(check bool) "order insensitive" true (Exec.cov_equal [ 1; 2 ] [ 2; 1 ]);
  Alcotest.(check bool) "dup insensitive" true (Exec.cov_equal [ 1; 1 ] [ 1 ]);
  Alcotest.(check bool) "different" false (Exec.cov_equal [ 1 ] [ 2 ])

(* ---- VM and pool ---- *)

let crash_prog () =
  prog
    [
      call "socket$tcp" [ i 2L; i 1L; i 6L ];
      call "connect" [ r 0; group [ i 2L; i 80L; i 1L ] ];
      call "connect$unspec" [ r 0; i 0L ];
    ]

let test_vm_lifecycle () =
  let vm = Vm.create ~version:K.Version.V5_11 ~id:0 () in
  Alcotest.(check bool) "fresh" false (Vm.crashed vm);
  let r = Vm.run vm (crash_prog ()) in
  Alcotest.(check bool) "crashed" true (Vm.crashed vm);
  Alcotest.(check bool) "report" true (r.Exec.crash <> None);
  (* The next run auto-resets. *)
  let _ = Vm.run vm (prog [ call "open" [ s "/etc/passwd"; i 0L; i 0L ] ]) in
  let st = Vm.stats vm in
  Alcotest.(check int) "execs" 2 st.Vm.execs;
  Alcotest.(check int) "crashes" 1 st.Vm.crashes;
  Alcotest.(check int) "resets" 1 st.Vm.resets

let test_pool_round_robin () =
  let pool = Pool.create ~version:K.Version.V5_11 ~size:3 () in
  let ids = List.init 7 (fun _ -> Vm.id (Pool.next pool)) in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 0; 1; 2; 0 ] ids

let test_pool_stats () =
  let pool = Pool.create ~version:K.Version.V5_11 ~size:2 () in
  ignore (Pool.run pool (crash_prog ()));
  ignore (Pool.run pool (prog [ call "open" [ s "/etc/passwd"; i 0L; i 0L ] ]));
  Alcotest.(check int) "execs" 2 (Pool.total_execs pool);
  Alcotest.(check int) "crashes" 1 (Pool.total_crashes pool)

let suite =
  [
    case "prog basics" test_prog_basics;
    case "prog remove shifts refs" test_prog_remove_shifts_refs;
    case "prog remove degrades refs" test_prog_remove_degrades_refs;
    case "prog insert renumbers" test_prog_insert_renumbers;
    case "prog sub" test_prog_sub;
    case "prog pp" test_prog_pp;
    test_prog_edit_invariant;
    case "serializer roundtrip" test_roundtrip_explicit;
    case "serializer all value forms" test_roundtrip_all_value_forms;
    case "exec basic flow" test_exec_basic_flow;
    case "exec write fills no buffer" test_exec_write_fills_nothing;
    case "exec failed ref degrades" test_exec_failed_ref_degrades;
    case "exec deterministic" test_exec_deterministic;
    case "exec crash stops program" test_exec_crash_stops;
    case "exec sanitizer gating" test_exec_sanitizer_gating;
    case "exec version gating" test_exec_version_gating;
    case "exec fault injection coredump" test_exec_fault_injection_coredump;
    case "cov_equal" test_cov_equal;
    case "vm lifecycle" test_vm_lifecycle;
    case "pool round robin" test_pool_round_robin;
    case "pool stats" test_pool_stats;
  ]
