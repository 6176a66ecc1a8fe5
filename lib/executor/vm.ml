module K = Healer_kernel

type stats = {
  mutable execs : int;
  mutable crashes : int;
  mutable resets : int;
}

type t = {
  vm_id : int;
  (* The boot config: a kernel that is never executed on. Every run
     boots its own fresh kernel from it. *)
  config : K.Kernel.t;
  mutable is_crashed : bool;
  cov : K.Coverage.t;  (* reused across every run on this VM *)
  st : stats;
}

let create ?(san = K.Sanitizer.default) ?(features = []) ~version ~id () =
  {
    vm_id = id;
    config = K.Kernel.boot ~san ~features ~version ();
    is_crashed = false;
    cov = K.Coverage.create ();
    st = { execs = 0; crashes = 0; resets = 0 };
  }

let id vm = vm.vm_id
let crashed vm = vm.is_crashed

(* Every run boots fresh, so recovering from a crash needs no boot of
   its own: a reset only clears the flag and counts the restart the
   campaign pays for. *)
let reset vm =
  if vm.is_crashed then begin
    vm.is_crashed <- false;
    vm.st.resets <- vm.st.resets + 1
  end

let finish vm result =
  vm.st.execs <- vm.st.execs + 1;
  (match result.Exec.crash with
  | Some _ ->
    vm.is_crashed <- true;
    vm.st.crashes <- vm.st.crashes + 1
  | None -> ());
  result

let run vm ?fault_call prog =
  reset vm;
  finish vm (snd (Exec.run ?fault_call ~cov:vm.cov vm.config prog))

let run_probe vm ?cache prog =
  match cache with
  | None -> run vm prog
  | Some c ->
    (* Stats and crash bookkeeping mirror [run] exactly so campaign
       counters are identical with the cache on or off. *)
    reset vm;
    finish vm (Exec_cache.run c ~cov:vm.cov prog)

let stats vm = vm.st
let version vm = K.Kernel.version vm.config
