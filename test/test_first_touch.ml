(* First-touch kernel state and the per-target dispatch table: a boot
   installs nothing, a run installs only the slots its calls reach,
   snapshots copy exactly what is installed, the dispatch table agrees
   with by-name resolution, and the seed corpus runs exactly as it did
   when every boot installed all 20 subsystems. *)

module K = Healer_kernel
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Exec = Healer_executor.Exec
module Prog = Healer_executor.Prog
open Helpers

let installed k = K.State.installed (K.Kernel.state k)

let test_boot_installs_nothing () =
  let k = boot () in
  Alcotest.(check (list string)) "no slot installed" [] (installed k);
  Alcotest.(check (list string)) "reboot installs none either" []
    (installed (K.Kernel.reboot k))

let test_boot_counts_nothing () =
  let k = boot () in
  Alcotest.(check int) "no effect counts" 0 (List.length (K.Kernel.effect_counts k));
  Alcotest.(check int) "no lock-pair counts" 0
    (List.length (K.Kernel.lock_pair_counts k));
  Alcotest.(check int) "no lock acquisitions" 0
    (List.length (K.Kernel.lock_acquire_counts k))

(* rtnetlink link bring-up, a generic-netlink family lookup and a
   queue drain: netlink plus the device table it shares with netdev. *)
let netlink_prog () =
  let ifname = Value.Group [ Value.Group [ Value.Group [ iv 8; iv 3; s "eth0" ] ] ] in
  prog
    [
      call "socket$nl_route" [ iv 16; iv 3; iv 0 ];
      call "sendmsg$RTM_SETLINK"
        [
          r 0;
          ptr
            (Value.Group
               [ iv 32; iv 19; iv 0; iv 0; Value.Group [ iv 0; iv 0; iv 0; iv 1; iv 1 ];
                 ifname ]);
          iv 0;
        ];
      call "socket$nl_generic" [ iv 16; iv 3; iv 16 ];
      call "sendmsg$GETFAMILY" [ r 2; ptr (Value.Group [ iv 32; iv 3; iv 2; s "devlink" ]); iv 0 ];
      call "recvmsg$netlink" [ r 0; buf 64; iv 64; iv 0 ];
    ]

let test_netlink_installs_its_slots () =
  let k, res = Exec.run (boot ()) (netlink_prog ()) in
  Array.iteri
    (fun i c -> check_ok (Printf.sprintf "call %d" i) c)
    res.Exec.calls;
  Alcotest.(check (list string)) "netdev's and netlink's slots only"
    [ "netdevs"; "genl_families" ] (installed k)

(* A kernel with some slots installed: the copy has the same ones, and
   the original and the copy then run a suffix identically, each
   touching its own state. *)
let test_copy_partial () =
  let prefix =
    prog
      [
        call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
        call "socket$nl_route" [ iv 16; iv 3; iv 0 ];
      ]
  in
  let k, _ = Exec.run (boot ()) prefix in
  let before = installed k in
  Alcotest.(check bool) "partly installed" true
    (before <> [] && List.length before < 10);
  let k' = K.Kernel.copy k in
  Alcotest.(check (list string)) "copy installs exactly the same slots" before
    (installed k');
  let suffix =
    prog
      [
        call "open" [ s "/tmp/f0"; i 0L; i 0L ];
        call "sendmsg$RTM_SETLINK"
          [ iv 4; ptr (Value.Group [ iv 32; iv 19; iv 0; iv 0 ]); iv 0 ];
        call "eventfd" [ iv 0 ];
      ]
  in
  let ka, ra = Exec.run ~fresh_state:false k suffix in
  let kb, rb = Exec.run ~fresh_state:false k' suffix in
  Alcotest.(check bool) "identical replay" true (ra = rb);
  check_ok "the copy kept the prefix's file" rb.Exec.calls.(0);
  Alcotest.(check (list string)) "both installed the same slots" (installed ka)
    (installed kb);
  Alcotest.(check bool) "the suffix installed more" true
    (List.length (installed kb) > List.length before)

(* Every syscall of the target runs the same through the dispatch
   table as through by-name resolution: a twin target compiled from
   the same source has equal names and ids but distinct syscall
   records, so [prepare] resolves its calls by name. *)
let test_prepare_matches_by_name () =
  let twin = Target.of_string ~name:"twin" (K.Kernel.source ()) in
  let outcome sc =
    let k = boot () in
    let cov = K.Coverage.create () in
    let ctx = K.Kernel.make_ctx k cov in
    let args = List.map (fun _ -> K.Arg.Int 0L) sc.Syscall.args in
    let r =
      match K.Kernel.exec_prepared k ~ctx (K.Kernel.prepare sc) args with
      | r -> Ok (r.K.Ctx.ret, Option.map K.Errno.to_string r.K.Ctx.err)
      | exception e -> Error (Printexc.to_string e)
    in
    (r, K.Coverage.blocks cov)
  in
  let same = ref 0 in
  Array.iter
    (fun (sc : Syscall.t) ->
      let sc' = Target.find_exn twin sc.Syscall.name in
      if sc' == sc || sc'.Syscall.id <> sc.Syscall.id then
        Alcotest.failf "%s: twin syscall is not a distinct record with the same id"
          sc.Syscall.name;
      if outcome sc = outcome sc' then incr same
      else Alcotest.failf "%s: table and by-name dispatch differ" sc.Syscall.name)
    (Target.syscalls (tgt ()));
  Alcotest.(check int) "every target syscall" (Target.n_syscalls (tgt ())) !same;
  (* A foreign syscall whose id collides with a target one must not
     pick up that syscall's handler. *)
  let phantom = Target.find_exn (Target.of_string "phantom(a int32)") "phantom" in
  Alcotest.(check int) "phantom shares id 0" 0 phantom.Syscall.id;
  let k = boot () in
  let ctx = K.Kernel.make_ctx k (K.Coverage.create ()) in
  let res = K.Kernel.exec_prepared k ~ctx (K.Kernel.prepare phantom) [ K.Arg.Int 0L ] in
  Alcotest.(check (option string)) "phantom is ENOSYS" (Some "ENOSYS")
    (Option.map K.Errno.to_string res.K.Ctx.err)

(* Retvals, errnos, executed flags, per-call coverage and crash keys of
   every seed program on every kernel version, plain and with a fault
   injected into the last call. The constant was measured while every
   boot still installed all 20 subsystems and the dispatch was hashed
   by name on every run; first-touch boot must not move it. *)
let test_golden_seed_corpus () =
  let progs = Healer_core.Seeds.traces (tgt ()) @ Healer_core.Seeds.distilled (tgt ()) in
  let b = Buffer.create 65536 in
  let record (res : Exec.run_result) =
    Array.iter
      (fun (c : Exec.call_result) ->
        Printf.bprintf b "%Ld %s %b [%s];" c.Exec.retval
          (match c.Exec.errno with None -> "-" | Some e -> K.Errno.to_string e)
          c.Exec.executed
          (String.concat "," (List.map string_of_int c.Exec.cov)))
      res.Exec.calls;
    Printf.bprintf b "| %s\n"
      (match res.Exec.crash with
      | None -> "-"
      | Some c -> c.K.Crash.bug_key ^ "@" ^ string_of_int c.K.Crash.call_index)
  in
  List.iter
    (fun version ->
      List.iter
        (fun p ->
          record (run ~version p);
          record
            (run ~version ~features:[ "fault_injection" ]
               ~fault_call:(Prog.length p - 1) p))
        progs)
    K.Version.all;
  Alcotest.(check int) "67 seed programs" 67 (List.length progs);
  Alcotest.(check string) "md5 of the seed corpus's run results"
    "ccafc4f15eb509d0ae7e8ed07736b7b0"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Installing a slot records no effect: the seed corpus reads the
   generic-netlink family table only where a handler does (once each in
   six runs), not three times per boot. *)
let test_seed_genl_reads () =
  let counts = Healer_analysis.Effects.seed_counts () in
  Alcotest.(check (option (pair int int))) "genl_families reads/writes"
    (Some (6, 0)) (List.assoc_opt "genl_families" counts)

let suite =
  [
    case "fresh boot installs no slot" test_boot_installs_nothing;
    case "fresh boot counts nothing" test_boot_counts_nothing;
    case "netlink program installs netlink+netdev" test_netlink_installs_its_slots;
    case "copy of a partly installed kernel" test_copy_partial;
    case "prepare = by-name for every syscall" test_prepare_matches_by_name;
    case "golden seed-corpus results" test_golden_seed_corpus;
    case "seed genl_families reads" test_seed_genl_reads;
  ]
