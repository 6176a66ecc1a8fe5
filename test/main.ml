(* The whole suite runs with program validation enforced: any stage
   that emits a validator-dirty program fails loudly (the
   HEALER_DEBUG_VALIDATE contract). With the reference interpreter
   installed, every execution is also replayed through it and must
   agree bit for bit. *)
let () =
  Healer_executor.Progcheck.set_debug true;
  Healer_executor.Exec.set_reference (Some Reference.replay)

let () =
  Alcotest.run "healer"
    [
      ("util", Test_util.suite);
      ("syzlang", Test_syzlang.suite);
      ("analysis", Test_analysis.suite);
      ("cheader", Test_cheader.suite);
      ("executor", Test_executor.suite);
      ("exec-cache", Test_exec_cache.suite);
      ("compiled", Test_compiled.suite);
      ("bugs", Test_bugs.suite);
      ("kernel-core", Test_kernel_core.suite);
      ("first-touch", Test_first_touch.suite);
      ("kernel-vfs", Test_kernel_vfs.suite);
      ("kernel-sock", Test_kernel_sock.suite);
      ("kernel-kvm-tty", Test_kernel_kvm_tty.suite);
      ("kernel-misc", Test_kernel_misc.suite);
      ("kernel-ipc", Test_kernel_ipc.suite);
      ("kernel-ext", Test_kernel_ext.suite);
      ("kernel-bpf-inotify", Test_kernel_bpf.suite);
      ("kernel-netlink", Test_kernel_netlink.suite);
      ("learning", Test_learning.suite);
      ("genmut", Test_genmut.suite);
      ("genplan", Test_genplan.suite);
      ("baselines", Test_baselines.suite);
      ("triage-fuzzer", Test_triage_fuzzer.suite);
      ("progcheck", Test_progcheck.suite);
      ("persist", Test_persist.suite);
      ("codec", Test_codec.suite);
      (* The service suite forks worker processes; OCaml 5 forbids
         Unix.fork once any other domain has been spawned, so it must
         run before the domain-spawning "parallel" suite. *)
      ("service", Test_service.suite);
      ("schedule", Test_schedule.suite);
      ("parallel", Test_parallel.suite);
      ("properties", Test_properties.suite);
      ("lockdep", Test_lockdep.suite);
      ("effects", Test_effects.suite);
    ]
