module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall

type t = {
  st : State.t;
  san : Sanitizer.config;
  features : string list;
}

(* Subsystem list: extended as subsystems are implemented. Order
   matters only for description concatenation (resource declarations
   must precede uses, so [vfs] comes first). *)
let all_subsystems =
  lazy
    (let subs =
       [
         Vfs.sub; Memfd.sub; Sock.sub; Kvm.sub; Tty.sub; Fbdev.sub; Rdma.sub;
         Uring.sub; Blockdev.sub; Sock_misc.sub; Netdev.sub; Netlink.sub;
         Jfs.sub;
         Mounts.sub; Vivid.sub; Usb.sub; Ipc.sub; Bpf.sub; Inotify.sub;
         Compat.sub;
       ]
     in
     List.iter Subsystem.register subs;
     Subsystem.registered ())

let subsystems () = Lazy.force all_subsystems

(* The full description corpus, one subsystem after another. Line
   numbers in the concatenation are resolvable back to a subsystem via
   [locate_line]. *)
let source () =
  String.concat "\n"
    (List.map (fun (s : Subsystem.t) -> s.descriptions) (subsystems ()))

let count_lines s =
  1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* (subsystem, first global line, line count) per description block,
   sorted by start line — diagnostics resolve lines by binary search,
   like [Coverage.region_name] does for branch ids. *)
let line_index =
  lazy
    (let rec build start = function
       | [] -> []
       | (s : Subsystem.t) :: rest ->
         let n = count_lines s.descriptions in
         (s.name, start, n) :: build (start + n) rest
     in
     Array.of_list (build 1 (subsystems ())))

let locate_line global =
  let index = Lazy.force line_index in
  (* Greatest block whose start is <= global. *)
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let _, start, _ = index.(mid) in
      if start <= global then search (mid + 1) hi (Some index.(mid))
      else search lo (mid - 1) best
  in
  match search 0 (Array.length index - 1) None with
  | Some (name, start, n) when global < start + n ->
    Some (name, global - start + 1)
  | Some _ | None -> None

let handler_table =
  lazy
    (let tbl = Hashtbl.create 256 in
     List.iter
       (fun (s : Subsystem.t) ->
         List.iter
           (fun (name, h) ->
             if Hashtbl.mem tbl name then
               invalid_arg ("Kernel: duplicate handler for " ^ name);
             Hashtbl.add tbl name h)
           s.handlers)
       (subsystems ());
     tbl)

let subsystem_index =
  lazy
    (let tbl = Hashtbl.create 256 in
     List.iter
       (fun (s : Subsystem.t) ->
         List.iter (fun (name, _) -> Hashtbl.replace tbl name s.name) s.handlers)
       (subsystems ());
     tbl)

let subsystem_of name =
  match Hashtbl.find_opt (Lazy.force subsystem_index) name with
  | Some s -> s
  | None -> "?"

(* A call with its dispatch pre-resolved: handler and owning subsystem,
   looked up by name once per target syscall instead of on every
   run. *)
type prepared = {
  p_call : Syscall.t;  (* the syscall this entry was resolved for *)
  p_sub : string;  (* owning subsystem, for the lockdep validator *)
  p_handler : Subsystem.handler option;  (* None -> ENOSYS *)
}

let resolve (call : Syscall.t) =
  let name = call.Syscall.name in
  {
    p_call = call;
    p_sub = subsystem_of name;
    p_handler = Hashtbl.find_opt (Lazy.force handler_table) name;
  }

(* The compiled description set together with its dispatch table,
   indexed by syscall id. *)
let target_memo = ref None

let target_and_dispatch () =
  match !target_memo with
  | Some c -> c
  | None ->
    let t = Target.of_string ~name:"healer-sim" (source ()) in
    let c = (t, Array.map resolve (Target.syscalls t)) in
    target_memo := Some c;
    c

let target () = fst (target_and_dispatch ())

(* An array read for the target's own syscalls. A syscall of any other
   target (a test's private one, a separately compiled copy) fails the
   identity check and resolves by name. *)
let prepare (call : Syscall.t) =
  let d = snd (target_and_dispatch ()) in
  let id = call.Syscall.id in
  if id >= 0 && id < Array.length d && (Array.unsafe_get d id).p_call == call
  then Array.unsafe_get d id
  else resolve call

(* A boot is a fresh state alone: subsystem slots are installed on
   first touch ([State.get]). *)
let boot ?(san = Sanitizer.default) ?(features = []) ~version () =
  { st = State.create ~version; san; features }

let reboot k = boot ~san:k.san ~features:k.features ~version:(State.version k.st) ()

let copy_fd_kind = function
  | State.Dead -> State.Dead
  | k -> (
    match List.find_map (fun (s : Subsystem.t) -> s.copy_kind k) (subsystems ()) with
    | Some k' -> k'
    | None -> invalid_arg "Kernel.copy: fd kind with no subsystem copier")

let copy k = { k with st = State.copy ~copy_kind:copy_fd_kind k.st }

(* The assembled lock model: every registered class (subsystem modules
   register theirs at module-init time, which [subsystems ()] forces)
   plus every subsystem's declared handler specs. *)
let lock_model_memo =
  lazy
    (let subs = subsystems () in
     {
       Lock.classes = Lock.registered ();
       specs =
         List.concat_map
           (fun (s : Subsystem.t) ->
             List.map (fun (h, spec) -> (s.Subsystem.name, h, spec)) s.Subsystem.locks)
           subs;
     })

let lock_model () = Lazy.force lock_model_memo

(* The assembled effect model: the interned slot vocabulary (subsystem
   modules intern theirs at module-init time, which [subsystems ()]
   forces) unioned with every lock class's guarded slots, plus every
   subsystem's declared effect specs. *)
let effect_model_memo =
  lazy
    (let subs = subsystems () in
     {
       Effect.slots =
         List.sort_uniq compare
           (Effect.registered_slots ()
           @ List.concat_map
               (fun (c : Lock.cls) -> c.Lock.guards)
               (Lock.registered ()));
       especs =
         List.concat_map
           (fun (s : Subsystem.t) ->
             List.map
               (fun (h, sp) -> (s.Subsystem.name, h, sp))
               s.Subsystem.effects)
           subs;
     })

let effect_model () = Lazy.force effect_model_memo

(* Validate the access trace the current call just recorded against
   the handler's declared effect spec (HEALER_DEBUG_VALIDATE, same
   contract as the lock-trace check below). *)
let check_effect_trace st ~sub ~handler =
  let events =
    List.map (fun (w, s) -> (w, Effect.slot_name s)) (State.effect_trace st)
  in
  match Effect.check_trace (effect_model ()) ~subsystem:sub ~handler events with
  | [] -> ()
  | f :: _ -> raise (Effect.Violation f)

let split_pair key =
  (* "lock:pair:A->B" -> (A, B) *)
  let body =
    String.sub key
      (String.length Lock.pair_prefix)
      (String.length key - String.length Lock.pair_prefix)
  in
  match String.index_opt body '-' with
  | Some i when i + 1 < String.length body && body.[i + 1] = '>' ->
    (String.sub body 0 i, String.sub body (i + 2) (String.length body - i - 2))
  | _ -> (body, "")

let lock_pair_counts k =
  List.filter_map
    (fun (slot, v) ->
      let key = Lock.slot_name slot in
      if String.starts_with ~prefix:Lock.pair_prefix key then
        Some (split_pair key, v)
      else None)
    (State.lock_slot_counts k.st)
  |> List.sort compare

let lock_acquire_counts k =
  List.filter_map
    (fun (slot, v) ->
      let key = Lock.slot_name slot in
      if String.starts_with ~prefix:Lock.acq_prefix key then
        Some
          ( String.sub key
              (String.length Lock.acq_prefix)
              (String.length key - String.length Lock.acq_prefix),
            v )
      else None)
    (State.lock_slot_counts k.st)
  |> List.sort compare

let effect_counts k =
  List.map
    (fun (slot, r, w) -> (Effect.slot_name slot, r, w))
    (State.effect_slot_counts k.st)
  |> List.sort compare
let version k = State.version k.st
let state k = k.st
let sanitizers k = k.san
let features k = k.features

(* Settle every piece of process-global kernel state — the subsystem
   registry, the memoized target, the lazy dispatch tables, the crash
   symbol table and the coverage-region lookup array — while still
   single-domain. After this returns, all of that state is read-only,
   so campaigns may run in parallel domains against it. *)
let force_init () =
  ignore (subsystems ());
  ignore (target ());
  ignore (Lazy.force handler_table);
  ignore (Lazy.force subsystem_index);
  ignore (Lazy.force line_index);
  ignore (lock_model ());
  ignore (effect_model ());
  Lock.force_pairs ();
  Crash.preload ();
  Coverage.force_regions ()

let blk = Coverage.region ~name:"core" ~size:64

(* ---- execution ---- *)

let make_ctx k cov = Ctx.make ~features:k.features ~st:k.st ~san:k.san cov

let exec k ~ctx ?(fault = false) call args =
  let prep = prepare call in
  Ctx.recycle ctx;
  ctx.Ctx.fault_pending <- fault;
  let cov = ctx.Ctx.cov in
  State.reset_effect_trace k.st;
  ignore (State.tick k.st);
  Coverage.hit cov (blk + 0);
  match prep.p_handler with
  | None ->
    Coverage.hit cov (blk + 1);
    Ctx.err Errno.ENOSYS
  | Some h ->
    (* A fault-injected allocation failure short-circuits the call
       itself with ENOMEM on a dedicated branch when the handler has
       not consumed the fault explicitly. *)
    let r = h ctx args in
    (* Runtime lockdep (the HEALER_DEBUG_VALIDATE contract): the trace
       this call actually recorded must match the handler's declared
       spec and the global order graph — the static model can never
       drift from handler behavior. Skipped when a Crash aborted the
       call ([Fun.protect] in [Ctx.with_lock] still released
       everything). *)
    if Lock.validate_enabled () then begin
      match
        Lock.check_trace (lock_model ()) ~subsystem:prep.p_sub
          ~handler:prep.p_call.Syscall.name (Ctx.lock_trace ctx)
      with
      | [] -> ()
      | f :: _ -> raise (Lock.Violation f)
    end;
    (* Same contract for the observed effect trace: every state slot
       this call read or wrote must appear in the handler's declared
       effect spec. *)
    if Effect.validate_enabled () then
      check_effect_trace k.st ~sub:prep.p_sub ~handler:prep.p_call.Syscall.name;
    if Ctx.take_fault ctx then begin
      Coverage.hit cov (blk + 2);
      Ctx.err Errno.ENOMEM
    end
    else r

let coredump k ~cov =
  let ctx = Ctx.make ~features:k.features ~st:k.st ~san:k.san cov in
  Coverage.hit cov (blk + 8);
  (* fill_note / regset walk of binfmt_elf core dumping. *)
  Coverage.hit cov (blk + 9);
  let live = State.live_fds k.st in
  if List.length live >= 1 then begin
    Coverage.hit cov (blk + 10);
    (* Listing 2: a regset with an unfilled tail leaves kmalloc'ed
       memory uninitialized and dumps it to the core file. *)
    Ctx.bug ctx "fill_thread_core_info"
  end
  else Coverage.hit cov (blk + 11)
