(* The reference interpreter: the executor's semantics of record, kept
   in the test suite as the differential oracle for the one execution
   engine in lib/ (Exec.run, which compiles then runs). It resolves
   every call's arguments from the program's symbolic values on every
   run and dispatches each call through a freshly made context, so it
   shares only the kernel's per-call entry points with the compiled
   loop — no argument skeletons, no patch slots, no recycled context.
   Its crash, fault-injection and coredump handling is its own copy of
   the executor contract. main.ml installs [replay] via
   [Exec.set_reference], which makes every run under the suite replay
   here and compare bit for bit. *)

module K = Healer_kernel
module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Exec = Healer_executor.Exec

(* Resolve a symbolic value to a runtime argument. [out] holds the
   per-call results so far; a reference to a failed, crashed or
   unexecuted call degrades to -1, which is how a real executor passes
   along an invalid resource. *)
let rec resolve out (v : Value.t) : K.Arg.t =
  match v with
  | Value.Int x -> K.Arg.Int x
  | Value.Res_special x -> K.Arg.Int x
  | Value.Res_ref i ->
    let x =
      if i >= 0 && i < Array.length out then
        match out.(i) with
        | { Exec.retval; errno = None; executed = true; _ } -> retval
        | _ -> -1L
      else -1L
    in
    K.Arg.Int x
  | Value.Str s -> K.Arg.Str s
  | Value.Buf b -> K.Arg.Buf b
  | Value.Group vs -> K.Arg.Rec (List.map (resolve out) vs)
  | Value.Ptr inner -> (
    match resolve out inner with
    | K.Arg.Rec _ as r -> r
    | K.Arg.Str _ as s -> s
    | K.Arg.Buf _ as b -> b
    | K.Arg.Int _ as x -> K.Arg.Rec [ x ]
    (* [resolve] never builds patch slots; the case exists only
       because [Arg.t] carries them for the compiled engine. *)
    | K.Arg.Slot _ as s -> K.Arg.Rec [ s ]
    | K.Arg.Nothing -> K.Arg.Nothing)
  | Value.Null -> K.Arg.Nothing
  | Value.Vma a -> K.Arg.Int a

let crash_report ~idx ~call_name bug_key risk =
  {
    K.Crash.bug_key;
    risk;
    call_index = idx;
    call_name;
    log = K.Crash.render_log ~bug_key ~risk ~call_name;
  }

let replay ?fault_call ~prefix kernel (p : Prog.t) : Exec.run_result =
  let n = Prog.length p in
  let k = Array.length prefix in
  if k > n then invalid_arg "Reference.replay: prefix longer than program";
  let out =
    Array.make n { Exec.retval = -1L; errno = None; cov = []; executed = false }
  in
  Array.blit prefix 0 out 0 k;
  let cov = K.Coverage.create () in
  let crash = ref None in
  let idx = ref k in
  while Option.is_none !crash && !idx < n do
    let i = !idx in
    let c = Prog.call p i in
    let fault = fault_call = Some i in
    let args = List.map (resolve out) c.Prog.args in
    let ctx = K.Kernel.make_ctx kernel cov in
    K.Coverage.reset cov;
    (try
       let r =
         K.Kernel.exec_prepared kernel ~ctx ~fault
           (K.Kernel.prepare c.Prog.syscall) args
       in
       let cr =
         {
           Exec.retval = r.K.Ctx.ret;
           errno = r.K.Ctx.err;
           cov = K.Coverage.blocks cov;
           executed = true;
         }
       in
       out.(i) <- cr
     with K.Crash.Crash { bug_key; risk } ->
       out.(i) <-
         {
           Exec.retval = -1L;
           errno = None;
           cov = K.Coverage.blocks cov;
           executed = true;
         };
       crash :=
         Some
           (crash_report ~idx:i
              ~call_name:c.Prog.syscall.Healer_syzlang.Syscall.name bug_key
              risk));
    (* A fault-injected call kills the executor process: the kernel
       dumps core (which can itself crash) and nothing after it runs. *)
    if Option.is_none !crash && fault then begin
      K.Coverage.reset cov;
      (try
         K.Kernel.coredump kernel ~cov;
         let prev = out.(i) in
         out.(i) <- { prev with cov = prev.Exec.cov @ K.Coverage.blocks cov }
       with K.Crash.Crash { bug_key; risk } ->
         crash :=
           Some (crash_report ~idx:i ~call_name:"coredump" bug_key risk));
      idx := n
    end
    else incr idx
  done;
  { Exec.calls = out; crash = !crash }

(* A whole run from a fresh boot, as [Exec.run] performs it. *)
let run ?fault_call kernel p =
  let kernel = K.Kernel.reboot kernel in
  let r = replay ?fault_call ~prefix:[||] kernel p in
  (kernel, r)
