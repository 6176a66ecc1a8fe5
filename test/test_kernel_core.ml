(* The kernel plumbing itself: boot/reboot, dispatch, coverage regions,
   sanitizer mapping, version ordering, crash log machinery. *)

module K = Healer_kernel
module Target = Healer_syzlang.Target
module Exec = Healer_executor.Exec
open Helpers

let test_boot_reboot_preserve_config () =
  let k =
    K.Kernel.boot ~san:{ K.Sanitizer.default with kcsan = false }
      ~features:[ "usb" ] ~version:K.Version.V5_4 ()
  in
  let k' = K.Kernel.reboot k in
  Alcotest.(check string) "version preserved" "5.4"
    (K.Version.to_string (K.Kernel.version k'));
  Alcotest.(check (list string)) "features preserved" [ "usb" ] (K.Kernel.features k');
  Alcotest.(check bool) "sanitizers preserved" false
    (K.Kernel.sanitizers k').K.Sanitizer.kcsan

let test_reboot_resets_state () =
  let k = boot () in
  let p = prog [ call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ] ] in
  let k, r1 = Exec.run ~fresh_state:false k p in
  check_ok "created" r1.Exec.calls.(0);
  (* Without O_CREAT the file only opens if state persisted. *)
  let reopen = prog [ call "open" [ s "/tmp/f0"; i 0L; i 0L ] ] in
  let k, r2 = Exec.run ~fresh_state:false k reopen in
  check_ok "persists without reboot" r2.Exec.calls.(0);
  let _, r3 = Exec.run ~fresh_state:true k reopen in
  check_errno "fresh state forgets" (Some K.Errno.ENOENT) r3.Exec.calls.(0)

let test_target_memoized () =
  Alcotest.(check bool) "same compiled target" true
    (K.Kernel.target () == K.Kernel.target ())

let test_subsystem_of () =
  Alcotest.(check string) "kvm ioctl" "kvm" (K.Kernel.subsystem_of "ioctl$KVM_RUN");
  Alcotest.(check string) "generic write" "vfs" (K.Kernel.subsystem_of "write");
  Alcotest.(check string) "unknown" "?" (K.Kernel.subsystem_of "nonsense")

let test_coredump_without_fds () =
  (* No live descriptors: the dump takes the clean path. *)
  let k = boot ~version:K.Version.V5_11 () in
  let cov = K.Coverage.create () in
  K.Kernel.coredump k ~cov;
  Alcotest.(check bool) "covered something" true (K.Coverage.blocks cov <> [])

let test_coverage_regions () =
  let base = K.Coverage.region ~name:"test-region-a" ~size:16 in
  Alcotest.(check int) "idempotent" base (K.Coverage.region ~name:"test-region-a" ~size:16);
  Alcotest.(check int) "smaller re-request fine" base
    (K.Coverage.region ~name:"test-region-a" ~size:8);
  (match K.Coverage.region ~name:"test-region-a" ~size:32 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "larger re-registration must fail");
  Alcotest.(check string) "region_name resolves" "test-region-a"
    (K.Coverage.region_name (base + 3));
  Alcotest.(check bool) "regions are disjoint" true
    (K.Coverage.region ~name:"test-region-b" ~size:4 >= base + 16)

let test_coverage_collector () =
  let cov = K.Coverage.create () in
  K.Coverage.hit cov 5;
  K.Coverage.hit cov 3;
  K.Coverage.hit cov 5;
  Alcotest.(check (list int)) "first-hit order, deduped" [ 5; 3 ]
    (K.Coverage.blocks cov);
  K.Coverage.reset cov;
  Alcotest.(check (list int)) "reset" [] (K.Coverage.blocks cov)

let test_sanitizer_mapping () =
  let open K.Risk in
  let base = K.Sanitizer.none in
  Alcotest.(check bool) "uaf needs kasan" false (K.Sanitizer.detects base Use_after_free);
  Alcotest.(check bool) "uaf with kasan" true
    (K.Sanitizer.detects { base with kasan = true } Use_after_free);
  Alcotest.(check bool) "uninit needs kmsan" false (K.Sanitizer.detects base Uninit_value);
  Alcotest.(check bool) "race needs kcsan" false (K.Sanitizer.detects base Data_race);
  Alcotest.(check bool) "null-deref always visible" true
    (K.Sanitizer.detects base Null_ptr_deref);
  Alcotest.(check bool) "deadlock always visible" true
    (K.Sanitizer.detects base Deadlock)

let test_version_ordering () =
  let open K.Version in
  Alcotest.(check bool) "4.19 < 5.11" true (compare V4_19 V5_11 < 0);
  Alcotest.(check bool) "at_least reflexive" true (at_least V5_4 V5_4);
  Alcotest.(check bool) "at_least strict" false (at_least V5_0 V5_4);
  Alcotest.(check int) "all versions" 5 (List.length all);
  List.iter
    (fun v ->
      Alcotest.(check (option string)) "of_string/to_string roundtrip"
        (Some (to_string v))
        (Option.map to_string (of_string (to_string v))))
    all

let test_errno_codes_unique () =
  let all =
    [ K.Errno.EPERM; ENOENT; EINTR; EIO; EBADF; EAGAIN; ENOMEM; EFAULT; EBUSY;
      EEXIST; ENODEV; EINVAL; ENOTTY; ENOSPC; EPIPE; ENOSYS; ENOTCONN; EISCONN;
      EADDRINUSE; EDESTADDRREQ; EOPNOTSUPP; EALREADY; EINPROGRESS; ETIMEDOUT;
      EACCES; ENXIO; EOVERFLOW ]
  in
  let codes = List.map K.Errno.code all in
  Alcotest.(check int) "codes distinct" (List.length all)
    (List.length (List.sort_uniq compare codes));
  List.iter (fun c -> Alcotest.(check bool) "positive" true (c > 0)) codes

let test_ctx_bug_unknown_key () =
  let k = boot () in
  let cov = K.Coverage.create () in
  let ctx = K.Ctx.make ~st:(K.Kernel.state k) ~san:K.Sanitizer.default cov in
  match K.Ctx.bug ctx "definitely_not_a_bug" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "typo'd bug keys must fail loudly"

let test_crash_log_shape () =
  let log =
    K.Crash.render_log ~bug_key:"tcp_disconnect" ~risk:K.Risk.Null_ptr_deref
      ~call_name:"connect$unspec"
  in
  let lines = String.split_on_char '\n' log in
  Alcotest.(check bool) "multi-line" true (List.length lines >= 5);
  Alcotest.(check bool) "has RIP line" true
    (List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "RIP:") lines);
  (* Naive first-address symbolization would hit the header; the RIP
     frame and the noise frames must all be distinct addresses. *)
  Alcotest.(check bool) "noise differs from faulting address" true
    (K.Crash.address_of "tcp_disconnect" <> K.Crash.address_of "tcp_disconnect:t")

let test_exec_call_enosys () =
  (* A syscall object not in any handler table returns ENOSYS; build
     one from a private target. *)
  let t = Target.of_string "phantom(a int32)" in
  let k = boot () in
  let ctx = K.Kernel.make_ctx k (K.Coverage.create ()) in
  let prep = K.Kernel.prepare (Target.find_exn t "phantom") in
  let r = K.Kernel.exec_prepared k ~ctx prep [ K.Arg.Int 0L ] in
  Alcotest.(check (option string)) "ENOSYS" (Some "ENOSYS")
    (Option.map K.Errno.to_string r.K.Ctx.err)

(* ---- Arg buffer accessors ---- *)

(* The removed [Arg.as_buf], kept as the oracle of the two accessors
   that replaced it: [buf_length a] is its length and [buf_get a i] its
   byte [i], raising where [Bytes.get] does. *)
let as_buf_oracle : K.Arg.t -> bytes = function
  | K.Arg.Buf b -> Blob.to_bytes b
  | K.Arg.Str s -> Bytes.of_string s
  | K.Arg.Int _ | K.Arg.Slot _ | K.Arg.Rec _ | K.Arg.Nothing -> Bytes.empty

let test_arg_buf_accessors () =
  let seeded = Blob.generate (Healer_util.Rng.create 7) 40 in
  let outcome f = match f () with c -> Ok c | exception Invalid_argument m -> Error m in
  List.iter
    (fun (what, a) ->
      let b = as_buf_oracle a in
      Alcotest.(check int) (what ^ ": length") (Bytes.length b) (K.Arg.buf_length a);
      for i = -1 to Bytes.length b do
        Alcotest.(check (result char string))
          (Printf.sprintf "%s: byte %d" what i)
          (outcome (fun () -> Bytes.get b i))
          (outcome (fun () -> K.Arg.buf_get a i))
      done)
    [
      ("str", K.Arg.Str "jdev=/dev/loop1");
      ("empty str", K.Arg.Str "");
      ("seeded buf", K.Arg.Buf seeded);
      ("plain buf", K.Arg.Buf (Blob.of_bytes (Blob.to_bytes seeded)));
      ("empty buf", K.Arg.Buf (Blob.generate (Healer_util.Rng.create 7) 0));
      ("int", K.Arg.Int 0x41L);
      ("slot", K.Arg.Slot (K.Arg.slot 0x41L));
      ("rec", K.Arg.Rec [ K.Arg.Buf seeded ]);
      ("nothing", K.Arg.Nothing);
    ]

let suite =
  [
    case "boot/reboot preserve config" test_boot_reboot_preserve_config;
    case "arg buf_length/buf_get" test_arg_buf_accessors;
    case "reboot resets state" test_reboot_resets_state;
    case "target memoized" test_target_memoized;
    case "subsystem_of" test_subsystem_of;
    case "coredump without fds" test_coredump_without_fds;
    case "coverage regions" test_coverage_regions;
    case "coverage collector" test_coverage_collector;
    case "sanitizer mapping" test_sanitizer_mapping;
    case "version ordering" test_version_ordering;
    case "errno codes unique" test_errno_codes_unique;
    case "ctx bug unknown key" test_ctx_bug_unknown_key;
    case "crash log shape" test_crash_log_shape;
    case "exec_call ENOSYS" test_exec_call_enosys;
  ]
