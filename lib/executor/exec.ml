module K = Healer_kernel

type call_result = {
  retval : int64;
  errno : K.Errno.t option;
  cov : int list;
  executed : bool;
}

type run_result = {
  calls : call_result array;
  crash : K.Crash.report option;
}

let skipped = { retval = -1L; errno = None; cov = []; executed = false }

(* The resource value call [i] hands to a later [Res_ref i], read from
   the results so far: its return value when it ran and succeeded, and
   the invalid resource (-1) for a failed, crashed, unexecuted, later or
   out-of-range call — how a real executor passes along a failed
   resource. *)
let resval out i =
  if i < 0 || i >= Array.length out then -1L
  else
    match Array.unsafe_get out i with
    | { executed = true; errno = None; retval; _ } -> retval
    | _ -> -1L

(* A symbolic value as the handler reads it ([K.Arg.t]). A pointer
   payload keeps its [Rec] shape, and a pointer to a scalar becomes a
   one-field [Rec]. *)
let rec resolve out (v : Value.t) : K.Arg.t =
  match v with
  | Value.Int x | Value.Res_special x | Value.Vma x -> K.Arg.Int x
  | Value.Res_ref i -> K.Arg.Int (resval out i)
  | Value.Str s -> K.Arg.Str s
  | Value.Buf b -> K.Arg.Buf b
  | Value.Group vs -> K.Arg.Rec (resolve_all out vs)
  | Value.Ptr inner -> (
    match resolve out inner with
    | K.Arg.Int _ as x -> K.Arg.Rec [ x ]
    | (K.Arg.Rec _ | K.Arg.Str _ | K.Arg.Buf _ | K.Arg.Nothing) as a -> a)
  | Value.Null -> K.Arg.Nothing

and resolve_all out = function
  | [] -> []
  | v :: vs -> resolve out v :: resolve_all out vs

let crash_report ~idx ~call_name bug_key risk =
  {
    K.Crash.bug_key;
    risk;
    call_index = idx;
    call_name;
    log = K.Crash.render_log ~bug_key ~risk ~call_name;
  }

(* The execution loop: runs calls [start..] of [p] against [kernel] in
   place, filling [out]. Each call's arguments are resolved against the
   results so far right before it is dispatched, and one recycled
   context serves the whole run. A crash aborts the run; a
   fault-injected call kills the executor process after it returns.
   [on_call] fires after each call that completes without crashing or
   being fault-killed — the execution cache uses it to snapshot prefix
   states mid-run. *)
let exec_calls ?fault_call ?on_call kernel (p : Prog.t) out cov start =
  let n = Prog.length p in
  let ctx = K.Kernel.make_ctx kernel cov in
  let crash = ref None in
  let i = ref start in
  while Option.is_none !crash && !i < n do
    let idx = !i in
    let c = Prog.call p idx in
    let args = resolve_all out c.Prog.args in
    let fault = match fault_call with Some f -> f = idx | None -> false in
    K.Coverage.reset cov;
    (try
       let r = K.Kernel.exec kernel ~ctx ~fault c.Prog.syscall args in
       out.(idx) <-
         {
           retval = r.K.Ctx.ret;
           errno = r.K.Ctx.err;
           cov = K.Coverage.blocks cov;
           executed = true;
         }
     with K.Crash.Crash { bug_key; risk } ->
       out.(idx) <-
         { retval = -1L; errno = None; cov = K.Coverage.blocks cov; executed = true };
       crash :=
         Some
           (crash_report ~idx
              ~call_name:c.Prog.syscall.Healer_syzlang.Syscall.name bug_key risk));
    (* A fault-injected call kills the executor process: the kernel
       dumps core, which can itself crash (Listing 2), and the rest of
       the program never runs. *)
    match !crash with
    | Some _ -> ()
    | None when fault ->
      K.Coverage.reset cov;
      (try
         K.Kernel.coredump kernel ~cov;
         let prev = out.(idx) in
         out.(idx) <- { prev with cov = prev.cov @ K.Coverage.blocks cov }
       with K.Crash.Crash { bug_key; risk } ->
         crash := Some (crash_report ~idx ~call_name:"coredump" bug_key risk));
      i := n
    | None ->
      (match on_call with Some f -> f idx out.(idx) kernel | None -> ());
      incr i
  done;
  !crash

(* ---- the reference oracle (a test seam) ---- *)

type reference =
  ?fault_call:int ->
  prefix:call_result array ->
  K.Kernel.t ->
  Prog.t ->
  run_result

let reference : reference option ref = ref None
let set_reference r = reference := r

(* The installed reference and a shadow kernel carrying [kernel]'s
   pre-run state, when the oracle is armed: a reference is installed
   and HEALER_DEBUG_VALIDATE is on. *)
let arm_oracle ~fresh kernel =
  match !reference with
  | Some replay when Progcheck.debug_enabled () ->
    let shadow =
      if fresh then K.Kernel.reboot kernel else K.Kernel.copy kernel
    in
    Some (replay, shadow)
  | Some _ | None -> None

(* Replay the run on the shadow kernel through the reference and
   require bit-identical results plus identical lock-pair coverage
   counters. The reference is the semantics of record; any divergence
   is an executor bug and fails loudly. *)
let oracle_check ?fault_call ~what ~prefix ((replay : reference), shadow)
    kernel_after (p : Prog.t) (r : run_result) =
  if replay ?fault_call ~prefix shadow p <> r then
    failwith
      (Fmt.str
         "HEALER_DEBUG_VALIDATE: %s diverged from the reference interpreter \
          on:@.%s"
         what (Prog.to_string p));
  if
    K.Kernel.lock_pair_counts kernel_after <> K.Kernel.lock_pair_counts shadow
  then
    failwith
      (Fmt.str
         "HEALER_DEBUG_VALIDATE: %s left different lock-pair counters than \
          the reference interpreter on:@.%s"
         what (Prog.to_string p))

(* One run of [p] on [kernel] in place, resuming after [prefix] (empty
   for a whole run). [fresh] says whether [kernel] is a fresh boot,
   which lets the oracle's shadow reboot instead of deep-copying. *)
let execute ?fault_call ?on_call ?cov ~what ~fresh ~prefix kernel (p : Prog.t) =
  let n = Prog.length p in
  let k = Array.length prefix in
  if k > n then invalid_arg ("Exec." ^ what ^ ": prefix longer than program");
  let oracle = arm_oracle ~fresh kernel in
  let out = Array.make n skipped in
  Array.blit prefix 0 out 0 k;
  (* Callers on the hot path (the VM pool) pass a long-lived collector
     so steady-state execution allocates no per-run dedup state. *)
  let cov = match cov with Some c -> c | None -> K.Coverage.create () in
  let crash = exec_calls ?fault_call ?on_call kernel p out cov k in
  let r = { calls = out; crash } in
  Option.iter
    (fun o -> oracle_check ?fault_call ~what ~prefix o kernel p r)
    oracle;
  (kernel, r)

let run ?fault_call ?(fresh_state = true) ?cov kernel p =
  let kernel = if fresh_state then K.Kernel.reboot kernel else kernel in
  execute ?fault_call ?cov ~what:"run" ~fresh:fresh_state ~prefix:[||] kernel p

let run_from ?cov ?on_call ~prefix kernel p =
  execute ?cov ?on_call ~what:"run_from" ~fresh:false ~prefix kernel p

(* Sorted, duplicate-free array form of a coverage trace. Minimization
   and dynamic learning compare one reference trace against many probe
   traces; keying the reference once replaces the double sort_uniq the
   old cov_equal paid on every probe. *)
type cov_key = int array

let dedup_sorted a =
  let n = Array.length a in
  if n = 0 then a
  else begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let cov_key l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  dedup_sorted a

let cov_matches key l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  let a = dedup_sorted a in
  let n = Array.length key in
  Array.length a = n
  &&
  let rec eq i = i >= n || (a.(i) = key.(i) && eq (i + 1)) in
  eq 0

let cov_equal a b = cov_matches (cov_key a) b

(* Union of all per-call coverage: one pass to count, one scratch array
   filled and sorted in place, dedup via the shared [dedup_sorted] —
   no intermediate lists for what minimization calls per candidate. *)
let total_cov r =
  let total = ref 0 in
  Array.iter (fun cr -> List.iter (fun _ -> incr total) cr.cov) r.calls;
  if !total = 0 then []
  else begin
    let scratch = Array.make !total 0 in
    let w = ref 0 in
    Array.iter
      (fun cr ->
        List.iter
          (fun b ->
            scratch.(!w) <- b;
            incr w)
          cr.cov)
      r.calls;
    Array.sort Int.compare scratch;
    Array.to_list (dedup_sorted scratch)
  end
