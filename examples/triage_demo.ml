(* Crash triage end to end: raw console log, symbolization, and
   reproducer minimization.

   A noisy 7-call program triggers the TCP disconnect bug; triage
   parses the sanitizer log back to a stable signature and shrinks the
   program to its 3-call core.

   Run with: dune exec examples/triage_demo.exe *)

module Target = Healer_syzlang.Target
module K = Healer_kernel
module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Exec = Healer_executor.Exec
module Blob = Healer_util.Blob
open Healer_core

let call target name args = { Prog.syscall = Target.find_exn target name; args }

let () =
  let target = K.Kernel.target () in
  let sockaddr = Value.Ptr (Value.Group [ Value.Int 2L; Value.Int 80L; Value.Int 1L ]) in
  let noisy =
    Prog.of_list
      [
        call target "open" [ Value.Str "/etc/passwd"; Value.Int 0L; Value.Int 0L ];
        call target "read" [ Value.Res_ref 0; Value.Buf (Blob.of_bytes (Bytes.make 16 '.')); Value.Int 16L ];
        call target "socket$tcp" [ Value.Int 2L; Value.Int 1L; Value.Int 6L ];
        call target "fsync" [ Value.Res_ref 0 ];
        call target "connect" [ Value.Res_ref 2; sockaddr ];
        call target "connect$unspec" [ Value.Res_ref 2; Value.Int 0L ];
        call target "close" [ Value.Res_ref 0 ];
      ]
  in
  Fmt.pr "Crashing test case (7 calls, 4 of them noise):@.%s@.@."
    (Prog.to_string noisy);

  let kernel = K.Kernel.boot ~version:K.Version.V5_11 () in
  let _, result = Exec.run kernel noisy in
  let report = Option.get result.Exec.crash in
  Fmt.pr "VM console output:@.%s@.@." report.K.Crash.log;

  (match K.Crash.symbolize report.K.Crash.log with
  | Some (key, risk) ->
    Fmt.pr "Symbolized: %s (%s)@.@." key (K.Risk.to_string risk)
  | None -> Fmt.pr "Symbolization failed!@.");

  let exec p =
    let kernel = K.Kernel.boot ~version:K.Version.V5_11 () in
    snd (Exec.run kernel p)
  in
  let triage = Triage.create ~exec in
  ignore (Triage.on_crash triage ~vtime:0.0 noisy report);
  match Triage.records triage with
  | [ record ] ->
    Fmt.pr "Minimized reproducer (%d calls):@.%s@." record.Triage.repro_len
      (Prog.to_string record.Triage.reproducer)
  | _ -> Fmt.pr "unexpected triage state@."
