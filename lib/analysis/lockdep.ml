(* Pass 6: static lockdep over the kernel's declared lock model.

   The checking core lives in [Healer_kernel.Lock] (shared with the
   runtime validator in [Kernel.exec_prepared]); this pass adapts its
   findings onto the Diagnostic framework with stable [lock-*] IDs.
   Lock specs have no source position — their subjects name the
   subsystem/handler or state slot instead. *)

module Lock = Healer_kernel.Lock
module Effect = Healer_kernel.Effect
open Pass

let checks =
  [
    ( "lock-unknown-class",
      Diagnostic.Error,
      "spec acquires or releases an undeclared lock class" );
    ( "lock-double-acquire",
      Diagnostic.Error,
      "spec acquires a class it already holds (self-deadlock)" );
    ( "lock-release-unheld",
      Diagnostic.Error,
      "spec releases a class it does not hold" );
    ( "lock-held-at-exit",
      Diagnostic.Error,
      "spec exits a handler still holding a class (acquire without release)" );
    ( "lock-rank-violation",
      Diagnostic.Error,
      "acquisition contradicts the classes' declared nesting ranks" );
    ( "lock-order-cycle",
      Diagnostic.Error,
      "the declared lock-order graph has a cycle (ABBA deadlock candidate)" );
    ( "lock-guard-coverage",
      Diagnostic.Warning,
      "state slot mutated under different or no lock classes, or read (per \
       the effect spec) without holding a guarding class (data-race \
       candidate)" );
    ( "lock-spec-mismatch",
      Diagnostic.Error,
      "runtime acquisition trace diverges from the handler's declared spec" );
    ( "lock-unused-class",
      Diagnostic.Info,
      "lock class declared but never acquired by any handler spec" );
  ]

let severity_of check =
  match List.find_opt (fun (id, _, _) -> String.equal id check) checks with
  | Some (_, sev, _) -> sev
  | None -> Diagnostic.Error

let to_diagnostic (f : Lock.finding) =
  Diagnostic.v ~check:f.Lock.check ~severity:(severity_of f.Lock.check)
    ~subject:f.Lock.subject f.Lock.msg

(* Read-side guard coverage gets its read sets from the effect model:
   each handler's declared (non-wildcard) read-only slots, minus the
   slots a registered known race already accounts for — the fixture
   races are the race pass's domain ([race-known-bug]), and reporting
   them here too would dirty the corpus gate. *)
let effect_reads effects =
  match effects with
  | None -> []
  | Some em ->
    let known = Effect.registered_races () in
    List.filter_map
      (fun (sub, handler, (sp : Effect.spec)) ->
        let reads =
          List.filter
            (fun s ->
              (not (String.equal s Effect.wildcard))
              && (not (List.mem s sp.Effect.writes))
              && not
                   (List.exists
                      (fun (k : Effect.known_race) ->
                        String.equal k.Effect.kslot s
                        && List.mem handler k.Effect.parties)
                      known))
            sp.Effect.reads
        in
        if reads = [] then None else Some (sub, handler, reads))
      em.Effect.especs

let run input =
  match input.locks with
  | None -> []
  | Some model ->
    List.map to_diagnostic
      (Lock.check_model ~reads:(effect_reads input.effects) model)

let pass =
  {
    pass_name = "lockdep";
    doc =
      "lock-order graph, acquire/release discipline and guard coverage over \
       the declared lock model";
    checks;
    run;
  }
