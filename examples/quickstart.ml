(* Quickstart: boot the simulated kernel, execute a hand-written test
   case, inspect per-call coverage, then let HEALER fuzz for a virtual
   hour.

   Run with: dune exec examples/quickstart.exe *)

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
  Fmt.pr "Target: %a@.@." Target.pp_summary target;

  (* 1. A hand-written test case: create a memfd, seal it, map it —
     the paper's Figure 2 example. *)
  let p =
    Prog.of_list
      [
        call target "memfd_create" [ Value.Ptr (Value.Str "demo"); Value.Int 3L ];
        call target "write" [ Value.Res_ref 0; Value.Buf (Blob.of_bytes (Bytes.make 64 'a')); Value.Int 64L ];
        call target "fcntl$ADD_SEALS" [ Value.Res_ref 0; Value.Int 0x409L; Value.Int 0x8L ];
        call target "mmap"
          [ Value.Vma 0x20000000L; Value.Int 4096L; Value.Int 1L; Value.Int 2L;
            Value.Res_ref 0; Value.Int 0L ];
      ]
  in
  Fmt.pr "Test case:@.%s@.@." (Prog.to_string p);
  let kernel = K.Kernel.boot ~version:K.Version.V5_11 () in
  let _, result = Exec.run kernel p in
  Array.iteri
    (fun idx (cr : Exec.call_result) ->
      Fmt.pr "  call %d (%s): ret=%Ld errno=%a coverage=%d blocks@." idx
        (Prog.call p idx).Prog.syscall.Healer_syzlang.Syscall.name cr.Exec.retval
        Fmt.(option ~none:(any "-") (of_to_string K.Errno.to_string))
        cr.Exec.errno (List.length cr.Exec.cov))
    result.Exec.calls;

  (* 2. Fuzz for one virtual hour with HEALER's full pipeline. *)
  Fmt.pr "@.Fuzzing Linux 5.11 (virtual 1h) with relation learning...@.";
  let cfg = Fuzzer.config ~seed:1 ~tool:Fuzzer.Healer ~version:K.Version.V5_11 () in
  let f = Fuzzer.create cfg in
  Fuzzer.run_until f 3600.0;
  Fmt.pr
    "  executions        %d@.  branch coverage   %d@.  corpus            %d \
     programs@.  learned relations %d@.  alpha             %.2f@.  unique \
     crashes    %d@."
    (Fuzzer.execs f) (Fuzzer.coverage f)
    (Corpus.size (Fuzzer.corpus f))
    (Fuzzer.relation_count f) (Fuzzer.alpha_value f)
    (Triage.unique_count (Fuzzer.triage f));
  List.iter
    (fun (r : Triage.record) ->
      Fmt.pr "    crash: %s (%s), reproducer %d calls@." r.Triage.bug_key
        (K.Risk.to_string r.Triage.risk)
        r.Triage.repro_len)
    (Triage.records (Fuzzer.triage f))
