(* Handler effect summaries: every handler in the stateful subsystems
   declares the [State.slot]s and fd-payload pseudo-slots it
   reads and writes (the same slot vocabulary as [Lock.cls.guards]),
   and instrumented state accessors record the observed per-execution
   effect trace. The pure checking core here backs three consumers:
   the static effect-drift pass ([Healer_analysis.Effects]), the
   Eraser-style lockset race detector ([Healer_analysis.Races]) and
   the runtime validator in [Kernel.exec_prepared] (the same
   HEALER_DEBUG_VALIDATE contract as Progcheck and lockdep).

   Like the lock model, everything is simulator-shaped: the kernel is
   single-threaded, so "races" are declared-discipline findings — a
   write/write or write/read handler pair on one slot whose declared
   locksets cannot serialize, exactly what Eraser's lockset algorithm
   reports on traces that never actually raced. *)

(* ---- specs and models ---- *)

type spec = { reads : string list; writes : string list }

let spec ?(reads = []) ?(writes = []) () = { reads; writes }

type model = {
  slots : string list;  (* the known slot vocabulary *)
  especs : (string * string * spec) list;
      (* (subsystem, handler, declared effect spec) *)
}

type finding = { check : string; subject : string; msg : string }

exception Violation of finding

let () =
  Printexc.register_printer (function
    | Violation f ->
      Some
        (Printf.sprintf "Effect.Violation(%s: %s: %s)" f.check f.subject f.msg)
    | _ -> None)

(* The fd wildcard: generic vfs handlers ([read], [write], [close],
   ...) dispatch file_ops on whatever fd kind the descriptor carries,
   so their specs declare ["fd:*"] — any fd-payload pseudo-slot. *)
let wildcard = "fd:*"
let fd_prefix = "fd:"
let is_fd_slot s = String.starts_with ~prefix:fd_prefix s

let covers ~declared slot =
  List.exists
    (fun d -> String.equal d slot || (String.equal d wildcard && is_fd_slot slot))
    declared

(* ---- runtime switches ---- *)

(* Recording hooks default on (they feed the per-slot access counters
   behind `healer analyze --effects`); HEALER_EFFECT_HOOKS=0 turns
   them off, which the bench uses to measure their overhead.
   Executions are bit-identical either way. *)
let hooks = ref (Lock.env_on ~default:true "HEALER_EFFECT_HOOKS")
let hooks_enabled () = !hooks
let set_hooks b = hooks := b

(* Trace recording + per-call validation follow the
   HEALER_DEBUG_VALIDATE contract ([Progcheck.set_debug] arms all of
   Progcheck, lockdep and this). *)
let validate = ref (Lock.env_on "HEALER_DEBUG_VALIDATE")
let validate_enabled () = !validate
let set_validate b = validate := b

(* ---- slot interning ----

   Observed accesses are accounted in dense integer slots into
   [State]'s effect-count arrays (one read + one write counter per
   slot), so the record hook on the execution hot path is an array
   increment. Subsystem modules intern their slots at module-init
   time; after [Kernel.force_init] the table is read-only. *)

let slot_names = ref (Array.make 0 "")
let n_interned = ref 0
let interned : (string, int) Hashtbl.t = Hashtbl.create 32

let slot name =
  match Hashtbl.find_opt interned name with
  | Some i -> i
  | None ->
    let i = !n_interned in
    let cap = Array.length !slot_names in
    if i >= cap then begin
      let a = Array.make (max 16 (2 * cap)) "" in
      Array.blit !slot_names 0 a 0 cap;
      slot_names := a
    end;
    !slot_names.(i) <- name;
    incr n_interned;
    Hashtbl.add interned name i;
    i

let slot_name i = !slot_names.(i)
let n_slots () = !n_interned

let registered_slots () =
  List.init !n_interned (fun i -> !slot_names.(i))

(* ---- known-race catalog ----

   The deliberately-unguarded fixture races: each entry names the slot
   and the full set of handlers racing on it, keyed to the
   version-gated bug the race models. The race detector downgrades
   candidate pairs drawn entirely from one entry's parties to Info
   ([race-known-bug]) so the shipped corpus stays warning-clean while
   the true positives remain visible in `healer analyze --races`. *)

type known_race = { kslot : string; parties : string list; bug : string }

let race_registry : known_race list ref = ref []

let register_race ~slot:kslot ~parties ~bug =
  if
    not
      (List.exists
         (fun k -> k.kslot = kslot && k.bug = bug)
         !race_registry)
  then race_registry := { kslot; parties; bug } :: !race_registry

let registered_races () = List.rev !race_registry

(* ---- static checking core ---- *)

let subject_of sub handler = Printf.sprintf "%s/%s" sub handler

let lock_spec_of (lock : Lock.model) handler =
  List.find_opt (fun (_, h, _) -> String.equal h handler) lock.Lock.specs

(* Static effect-model checks: unknown slots, orphan specs (handler
   tables given), handlers whose lock spec declares mutations but that
   carry no effect spec, and lock-spec [touches] the effect spec does
   not acknowledge as writes. An effect spec writing MORE than the
   lock spec touches is legal — that surplus (unguarded writes) is
   exactly what the race detector inspects. *)
let check_model ~lock ?handlers model =
  let out = ref [] in
  let add check subject msg = out := { check; subject; msg } :: !out in
  List.iter
    (fun (sub, handler, sp) ->
      let subject = subject_of sub handler in
      List.iter
        (fun s ->
          if (not (String.equal s wildcard)) && not (List.mem s model.slots)
          then
            add "effect-unknown-slot" subject
              (Printf.sprintf "spec names undeclared state slot %S" s))
        (sp.reads @ sp.writes);
      (match handlers with
      | None -> ()
      | Some hs ->
        if not (List.exists (fun (h, _) -> String.equal h handler) hs) then
          add "effect-orphan-spec" subject
            "effect spec declared for a handler that does not exist");
      match lock_spec_of lock handler with
      | None -> ()
      | Some (_, _, lspec) ->
        List.iter
          (fun t ->
            if not (covers ~declared:sp.writes t) then
              add "effect-guard-mismatch" subject
                (Printf.sprintf
                   "lock spec declares it mutates %S but the effect spec does \
                    not write it"
                   t))
          lspec.Lock.touches)
    model.especs;
  (* A handler whose lock spec declares mutations must summarize them. *)
  List.iter
    (fun (sub, handler, (lspec : Lock.spec)) ->
      if
        lspec.Lock.touches <> []
        && not
             (List.exists
                (fun (_, h, _) -> String.equal h handler)
                model.especs)
      then
        add "effect-missing-spec"
          (subject_of sub handler)
          (Printf.sprintf
             "lock spec declares it mutates %s but no effect spec summarizes \
              its reads/writes"
             (String.concat ", "
                (List.map (Printf.sprintf "%S") lspec.Lock.touches))))
    lock.Lock.specs;
  List.sort_uniq compare (List.rev !out)

(* ---- runtime trace checking ---- *)

(* One observed access: [(is_write, slot name)]. A declared write
   subsumes reads of the same slot (read-modify-write accessors record
   only the write). *)
let check_trace model ~subsystem ~handler events =
  let subject = Printf.sprintf "runtime %s" (subject_of subsystem handler) in
  let out = ref [] in
  let add check msg = out := { check; subject; msg } :: !out in
  let sp =
    match
      List.find_opt (fun (_, h, _) -> String.equal h handler) model.especs
    with
    | Some (_, _, sp) -> Some sp
    | None -> None
  in
  List.iter
    (fun (is_write, s) ->
      match sp with
      | None ->
        add
          (if is_write then "effect-undeclared-write"
           else "effect-undeclared-read")
          (Printf.sprintf "%s state slot %S but declares no effect spec"
             (if is_write then "wrote" else "read")
             s)
      | Some sp ->
        if is_write then begin
          if not (covers ~declared:sp.writes s) then
            add "effect-undeclared-write"
              (Printf.sprintf "wrote state slot %S, not declared in writes" s)
        end
        else if
          not (covers ~declared:sp.reads s || covers ~declared:sp.writes s)
        then
          add "effect-undeclared-read"
            (Printf.sprintf "read state slot %S, not declared in reads" s))
    events;
  List.sort_uniq compare (List.rev !out)

(* ---- the Eraser-style lockset race detector ---- *)

(* Reachability over the declared lock-order edges (a tiny graph;
   recomputed per query). *)
let reaches edges src dst =
  let visited = Hashtbl.create 16 in
  let rec go n =
    n = dst
    || (not (Hashtbl.mem visited n))
       && begin
            Hashtbl.add visited n ();
            List.exists (fun (a, b) -> a = n && go b) edges
          end
  in
  src = dst || List.exists (fun (a, b) -> a = src && go b) edges

(* For every slot, gather the declared accesses [(handler, is_write,
   lockset)] (wildcards excluded: a ["fd:*"] access names no single
   object). A write/write or write/read pair whose locksets do not
   intersect is a candidate race:
   - both parties of a registered fixture race  -> race-known-bug (Info)
   - either side holds no lock at all           -> race-unguarded-slot
   - a class guarding the slot reaches both
     locksets in the declared order graph       -> race-order-masked (Info)
   - otherwise                                  -> race-disjoint-locksets *)
let races ~lock ?(known = []) model =
  let out = ref [] in
  let add check subject msg = out := { check; subject; msg } :: !out in
  let lockset handler =
    match lock_spec_of lock handler with
    | None -> []
    | Some (_, _, lspec) -> List.sort_uniq compare (Lock.acquires lspec)
  in
  let accesses = Hashtbl.create 16 in
  let slot_order = ref [] in
  let record sub handler is_write s =
    if not (String.equal s wildcard) then begin
      if not (Hashtbl.mem accesses s) then slot_order := s :: !slot_order;
      let prev = try Hashtbl.find accesses s with Not_found -> [] in
      Hashtbl.replace accesses s
        ((sub, handler, is_write, lockset handler) :: prev)
    end
  in
  List.iter
    (fun (sub, handler, sp) ->
      List.iter (fun s -> record sub handler true s) sp.writes;
      List.iter
        (fun s -> if not (List.mem s sp.writes) then record sub handler false s)
        sp.reads)
    model.especs;
  let order = Lock.order_edges lock in
  let guardians s =
    List.filter_map
      (fun (c : Lock.cls) ->
        if List.mem s c.Lock.guards then Some c.Lock.cname else None)
      lock.Lock.classes
  in
  List.iter
    (fun s ->
      let acc = List.rev (Hashtbl.find accesses s) in
      let subject = Printf.sprintf "state slot %S" s in
      let rec pairs = function
        | [] -> ()
        | (sub1, h1, w1, ls1) :: rest ->
          List.iter
            (fun (sub2, h2, w2, ls2) ->
              if
                (w1 || w2)
                && not (String.equal h1 h2)
                && not (List.exists (fun c -> List.mem c ls2) ls1)
              then begin
                let pair =
                  Printf.sprintf "%s <-> %s"
                    (subject_of sub1 h1) (subject_of sub2 h2)
                in
                let kind = if w1 && w2 then "write/write" else "write/read" in
                match
                  List.find_opt
                    (fun k ->
                      String.equal k.kslot s
                      && List.mem h1 k.parties
                      && List.mem h2 k.parties)
                    known
                with
                | Some k ->
                  add "race-known-bug" subject
                    (Printf.sprintf
                       "%s pair %s with disjoint locksets: the intentional \
                        race behind bug %S"
                       kind pair k.bug)
                | None ->
                  if ls1 = [] || ls2 = [] then
                    add "race-unguarded-slot" subject
                      (Printf.sprintf
                         "%s pair %s: %s accesses it under no lock at all \
                          (candidate race)"
                         kind pair
                         (subject_of
                            (if ls1 = [] then sub1 else sub2)
                            (if ls1 = [] then h1 else h2)))
                  else if
                    List.exists
                      (fun g ->
                        List.exists (fun c -> reaches order g c) ls1
                        && List.exists (fun c -> reaches order g c) ls2)
                      (guardians s)
                  then
                    add "race-order-masked" subject
                      (Printf.sprintf
                         "%s pair %s holds disjoint locksets, but a class \
                          guarding the slot precedes both in the declared \
                          order graph (race masked by lock-order convention)"
                         kind pair)
                  else
                    add "race-disjoint-locksets" subject
                      (Printf.sprintf
                         "%s pair %s under disjoint locksets [%s] vs [%s] \
                          (candidate race)"
                         kind pair (String.concat ", " ls1)
                         (String.concat ", " ls2))
              end)
            rest;
          pairs rest
      in
      pairs acc)
    (List.rev !slot_order);
  List.sort_uniq compare (List.rev !out)

(* ---- relation inference ---- *)

(* The write(slot) -> read(slot) handler-pair graph: handler [w]
   writing a slot that handler [r] reads predicts an influence edge
   w -> r (HEALER's relation, justified by shared state rather than
   resource flow). Wildcard accesses predict nothing. *)
let predicted_edges model =
  let writers = Hashtbl.create 16 in
  List.iter
    (fun (_, handler, sp) ->
      List.iter
        (fun s ->
          if not (String.equal s wildcard) then
            Hashtbl.replace writers (s, handler) ())
        sp.writes)
    model.especs;
  let out = ref [] in
  List.iter
    (fun (_, reader, sp) ->
      List.iter
        (fun s ->
          if not (String.equal s wildcard) then
            Hashtbl.iter
              (fun (s', writer) () ->
                if String.equal s s' && not (String.equal writer reader) then
                  out := (writer, reader, s) :: !out)
              writers)
        (List.sort_uniq compare (sp.reads @ sp.writes)))
    model.especs;
  List.sort_uniq compare !out
