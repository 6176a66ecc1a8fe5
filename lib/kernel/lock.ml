(* The lock model: named lock classes with a declared nesting order
   (ranks), the shared-state slots each class guards, per-handler
   declared lock specs, and the pure checking core behind both the
   static lockdep pass ([Healer_analysis.Lockdep]) and the runtime
   validator in [Kernel.exec_prepared].

   The model is deliberately simulator-shaped: the simulated kernel is
   single-threaded, so locks never block — acquire/release hooks only
   *account* (lock-pair coverage counters) and *record* (acquisition
   traces under debug validation). What lockdep checks is therefore
   the declared discipline, exactly like Linux's lockdep validates
   would-be deadlocks on a machine that never actually deadlocks. *)

(* ---- classes ---- *)

type cls = { id : int; cname : string; rank : int; guards : string list }

let next_id = ref 0

let make ?(guards = []) ~rank cname =
  incr next_id;
  { id = !next_id; cname; rank; guards }

(* Process-global registry, filled by subsystem modules at module-init
   time (like [Subsystem.register]). Idempotent by name. *)
let registry : (string, cls) Hashtbl.t = Hashtbl.create 16
let reg_order : cls list ref = ref []

let register ?guards ~rank cname =
  match Hashtbl.find_opt registry cname with
  | Some c -> c
  | None ->
    let c = make ?guards ~rank cname in
    Hashtbl.add registry cname c;
    reg_order := c :: !reg_order;
    c

let registered () = List.rev !reg_order
let find name = Hashtbl.find_opt registry name

(* ---- specs and models ---- *)

type op = Acquire of string | Release of string

type spec = { ops : op list; touches : string list }

let scoped ?(touches = []) classes =
  let acq = List.map (fun c -> Acquire c) classes in
  let rel = List.rev_map (fun c -> Release c) classes in
  { ops = acq @ rel; touches }

let acquires spec =
  List.filter_map (function Acquire c -> Some c | Release _ -> None) spec.ops

type model = {
  classes : cls list;
  specs : (string * string * spec) list;
      (* (subsystem, handler, declared spec) *)
}

type finding = { check : string; subject : string; msg : string }

exception Violation of finding

let () =
  Printexc.register_printer (function
    | Violation f ->
      Some
        (Printf.sprintf "Lock.Violation(%s: %s: %s)" f.check f.subject f.msg)
    | _ -> None)

(* ---- runtime switches ---- *)

let env_on ?(default = false) var =
  match Sys.getenv_opt var with
  | None -> default
  | Some v -> (
    match String.lowercase_ascii (String.trim v) with
    | "" | "0" | "false" | "no" | "off" -> false
    | _ -> true)

(* Accounting hooks default on (they are the lock-pair coverage
   signal); HEALER_LOCK_HOOKS=0 turns them off, which the bench uses
   to measure their overhead. *)
let hooks = ref (env_on ~default:true "HEALER_LOCK_HOOKS")
let hooks_enabled () = !hooks
let set_hooks b = hooks := b

(* Trace recording + per-call validation follow the same debug
   contract as the program validator ([Progcheck]): opt-in via
   HEALER_DEBUG_VALIDATE, forced on across `dune runtest`. *)
let validate = ref (env_on "HEALER_DEBUG_VALIDATE")
let validate_enabled () = !validate
let set_validate b = validate := b

(* ---- lock-pair coverage counter slots ----

   The per-acquire hot path must stay cheap (it runs on every handler
   of every executed call), so counters are dense int slots into
   [State]'s lock-count array, not string-keyed counters: bumping one
   is an array increment. Slot indices are memoized per class pair /
   class; [slot_name] maps them back to the printable "lock:pair:A->B"
   / "lock:acq:C" keys. The memo tables are filled for every
   registered pair by [force_pairs] (from [Kernel.force_init]) before
   any parallel campaign starts; after that they are only read. *)

let counter_prefix = "lock:"
let pair_prefix = "lock:pair:"
let acq_prefix = "lock:acq:"
let slot_names = ref (Array.make 0 "")
let n_slots = ref 0

let new_slot name =
  let i = !n_slots in
  let cap = Array.length !slot_names in
  if i >= cap then begin
    let a = Array.make (max 16 (2 * cap)) "" in
    Array.blit !slot_names 0 a 0 cap;
    slot_names := a
  end;
  !slot_names.(i) <- name;
  incr n_slots;
  i

let slot_name i = !slot_names.(i)
let n_counter_slots () = !n_slots

(* The memos are dense arrays indexed by class id (0 = unassigned, so
   slot s is stored as s+1): a pair lookup on the acquire hot path is
   two array reads, no tuple allocation, no hashing. *)
let pair_slots : int array array ref = ref [||]
let acq_slots : int array ref = ref [||]

let ensure_id id =
  let cap = Array.length !acq_slots in
  if id >= cap then begin
    let cap' = max 16 (max (id + 1) (2 * cap)) in
    let a = Array.make cap' 0 in
    Array.blit !acq_slots 0 a 0 cap;
    acq_slots := a;
    let m = Array.make cap' [||] in
    Array.blit !pair_slots 0 m 0 (Array.length !pair_slots);
    pair_slots := m
  end

let pair_counter outer inner =
  let m = !pair_slots in
  let row = if outer.id < Array.length m then m.(outer.id) else [||] in
  if inner.id < Array.length row && row.(inner.id) > 0 then row.(inner.id) - 1
  else begin
    ensure_id outer.id;
    ensure_id inner.id;
    let row = !pair_slots.(outer.id) in
    let row =
      if inner.id < Array.length row then row
      else begin
        let r = Array.make (Array.length !acq_slots) 0 in
        Array.blit row 0 r 0 (Array.length row);
        !pair_slots.(outer.id) <- r;
        r
      end
    in
    let s = new_slot (pair_prefix ^ outer.cname ^ "->" ^ inner.cname) in
    row.(inner.id) <- s + 1;
    s
  end

let acq_counter c =
  let a = !acq_slots in
  if c.id < Array.length a && a.(c.id) > 0 then a.(c.id) - 1
  else begin
    ensure_id c.id;
    let s = new_slot (acq_prefix ^ c.cname) in
    !acq_slots.(c.id) <- s + 1;
    s
  end

let force_pairs () =
  let all = registered () in
  List.iter
    (fun a ->
      ignore (acq_counter a);
      List.iter (fun b -> if a.id <> b.id then ignore (pair_counter a b)) all)
    all

(* ---- checking core ---- *)

let find_cls model name = List.find_opt (fun c -> c.cname = name) model.classes

(* Simulate one op sequence: structural checks (unknown class, double
   acquire, release of unheld, held at exit, rank inversions) plus the
   (outer, inner) nesting pairs it exhibits. [held] is innermost
   first. *)
let sim model ~emit ops =
  let held = ref [] in
  let pairs = ref [] in
  List.iter
    (fun op ->
      match op with
      | Acquire n -> (
        match find_cls model n with
        | None ->
          emit "lock-unknown-class"
            (Printf.sprintf "acquires undeclared lock class %S" n)
        | Some c ->
          if List.mem n !held then
            emit "lock-double-acquire"
              (Printf.sprintf "acquires %S while already holding it" n)
          else begin
            List.iter
              (fun h ->
                match find_cls model h with
                | Some hc when hc.rank > c.rank ->
                  emit "lock-rank-violation"
                    (Printf.sprintf
                       "acquires %S (rank %d) while holding %S (rank %d)"
                       n c.rank h hc.rank)
                | _ -> ())
              !held;
            List.iter (fun h -> pairs := (h, n) :: !pairs) !held;
            held := n :: !held
          end)
      | Release n ->
        if List.mem n !held then
          held :=
            (let rec drop = function
               | [] -> []
               | x :: rest -> if x = n then rest else x :: drop rest
             in
             drop !held)
        else if find_cls model n = None then
          emit "lock-unknown-class"
            (Printf.sprintf "releases undeclared lock class %S" n)
        else
          emit "lock-release-unheld"
            (Printf.sprintf "releases %S without holding it" n))
    ops;
  if !held <> [] then
    emit "lock-held-at-exit"
      (Printf.sprintf "exits still holding %s"
         (String.concat ", "
            (List.rev_map (fun n -> Printf.sprintf "%S" n) !held)));
  List.rev !pairs

(* The declared lock-order graph: deduped (outer, inner) edges over
   every spec, in first-witness order. *)
let order_edges model =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun (_, _, spec) ->
      let pairs = sim model ~emit:(fun _ _ -> ()) spec.ops in
      List.iter
        (fun p ->
          if not (Hashtbl.mem seen p) then begin
            Hashtbl.add seen p ();
            out := p :: !out
          end)
        pairs)
    model.specs;
  List.rev !out

let reachable edges ~src ~dst =
  let visited = Hashtbl.create 16 in
  let rec go n =
    if n = dst then true
    else if Hashtbl.mem visited n then false
    else begin
      Hashtbl.add visited n ();
      List.exists (fun (a, b) -> a = n && go b) edges
    end
  in
  List.exists (fun (a, b) -> a = src && (b = dst || go b)) edges

let subject_of sub handler = Printf.sprintf "%s/%s" sub handler

let check_model ?(reads = []) model =
  let out = ref [] in
  let add check subject msg = out := { check; subject; msg } :: !out in
  (* Per-spec structural checks. *)
  List.iter
    (fun (sub, handler, spec) ->
      let subject = subject_of sub handler in
      ignore (sim model ~emit:(fun check msg -> add check subject msg) spec.ops))
    model.specs;
  (* ABBA: an edge that the rest of the graph can invert closes a
     declared-order cycle. Each offending edge is reported once. *)
  let edges = order_edges model in
  List.iter
    (fun (a, b) ->
      if reachable edges ~src:b ~dst:a && (a < b || not (List.mem (b, a) edges))
      then
        add "lock-order-cycle"
          (Printf.sprintf "lock order %S -> %S" a b)
          (Printf.sprintf
             "declared nesting %S -> %S closes a cycle (ABBA deadlock \
              candidate): %S is also reachable from %S"
             a b a b))
    edges;
  (* Guard coverage: a slot mutated by two handlers must share at
     least one guarding class across all of them. *)
  let slots = Hashtbl.create 16 in
  let slot_order = ref [] in
  List.iter
    (fun (sub, handler, spec) ->
      let acquired = List.sort_uniq compare (acquires spec) in
      List.iter
        (fun slot ->
          let guardians =
            List.filter
              (fun cn ->
                match find_cls model cn with
                | Some c -> List.mem slot c.guards
                | None -> false)
              acquired
          in
          if not (Hashtbl.mem slots slot) then slot_order := slot :: !slot_order;
          Hashtbl.replace slots slot
            ((subject_of sub handler, guardians)
            :: (try Hashtbl.find slots slot with Not_found -> [])))
        spec.touches)
    model.specs;
  List.iter
    (fun slot ->
      let touchers = List.rev (Hashtbl.find slots slot) in
      if List.length touchers >= 2 then begin
        let subject = Printf.sprintf "state slot %S" slot in
        let unguarded =
          List.filter_map
            (fun (who, gs) -> if gs = [] then Some who else None)
            touchers
        in
        if unguarded <> [] then
          add "lock-guard-coverage" subject
            (Printf.sprintf
               "mutated by %d handlers but %s under no declared lock class \
                guarding it (data-race candidate)"
               (List.length touchers)
               (String.concat ", " unguarded))
        else begin
          let inter =
            List.fold_left
              (fun acc (_, gs) -> List.filter (fun g -> List.mem g gs) acc)
              (snd (List.hd touchers))
              (List.tl touchers)
          in
          if inter = [] then
            add "lock-guard-coverage" subject
              (Printf.sprintf
                 "mutated under disjoint lock classes across %s (data-race \
                  candidate)"
                 (String.concat ", " (List.map fst touchers)))
        end
      end)
    (List.rev !slot_order);
  (* Read-side guard coverage: reading a slot some class guards
     without holding any guarding class. (Unguarded slots are the race
     detector's domain, not a guard-coverage finding.) *)
  List.iter
    (fun (sub, handler, slots_read) ->
      let acquired =
        match
          List.find_opt (fun (_, h, _) -> String.equal h handler) model.specs
        with
        | Some (_, _, spec) -> List.sort_uniq compare (acquires spec)
        | None -> []
      in
      List.iter
        (fun slot ->
          let guardians =
            List.filter (fun c -> List.mem slot c.guards) model.classes
          in
          if
            guardians <> []
            && not (List.exists (fun c -> List.mem c.cname acquired) guardians)
          then
            add "lock-guard-coverage"
              (Printf.sprintf "state slot %S" slot)
              (Printf.sprintf
                 "read by %s without holding %s guarding it (data-race \
                  candidate)"
                 (subject_of sub handler)
                 (String.concat " or "
                    (List.map
                       (fun c -> Printf.sprintf "%S" c.cname)
                       guardians))))
        slots_read)
    reads;
  (* Classes nothing acquires are dead weight (or a missing spec). *)
  List.iter
    (fun c ->
      let used =
        List.exists (fun (_, _, s) -> List.mem c.cname (acquires s)) model.specs
      in
      if not used then
        add "lock-unused-class"
          (Printf.sprintf "lock class %S" c.cname)
          "declared but never acquired by any handler spec")
    model.classes;
  List.sort_uniq compare (List.rev !out)

let rec subseq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' -> if x = y then subseq xs' ys' else subseq xs ys'

let check_trace model ~subsystem ~handler trace =
  let subject = Printf.sprintf "runtime %s" (subject_of subsystem handler) in
  let out = ref [] in
  let add check msg = out := { check; subject; msg } :: !out in
  let got =
    List.filter_map (function Acquire c -> Some c | Release _ -> None) trace
  in
  (match
     List.find_opt (fun (_, h, _) -> String.equal h handler) model.specs
   with
  | None ->
    if trace <> [] then
      add "lock-spec-mismatch"
        (Printf.sprintf "acquired [%s] but declares no lock spec"
           (String.concat "; " got))
  | Some (_, _, spec) ->
    let want = acquires spec in
    if not (subseq got want) then
      add "lock-spec-mismatch"
        (Printf.sprintf
           "runtime acquisition order [%s] is not a subsequence of the \
            declared [%s]"
           (String.concat "; " got)
           (String.concat "; " want)));
  let pairs = sim model ~emit:(fun check msg -> add check msg) trace in
  let edges = order_edges model in
  List.iter
    (fun (outer, inner) ->
      if outer <> inner && reachable edges ~src:inner ~dst:outer then
        add "lock-order-cycle"
          (Printf.sprintf
             "runtime nesting %S -> %S inverts the declared order graph"
             outer inner))
    pairs;
  List.sort_uniq compare (List.rev !out)
