(* Pass 7: effect-model drift.

   The checking core lives in [Healer_kernel.Effect] (shared with the
   runtime validator in [Kernel.exec]); this pass adapts its
   findings onto the Diagnostic framework with stable [effect-*] IDs.
   Like lock specs, effect specs have no source position — subjects
   name the subsystem/handler instead.

   The two [effect-undeclared-*] IDs are produced by the runtime
   validator (observed trace vs declared spec, HEALER_DEBUG_VALIDATE),
   never by this static pass; they are cataloged here so
   `--list-checks` documents them, exactly like lockdep's
   [lock-spec-mismatch]. *)

module Effect = Healer_kernel.Effect
module Lock = Healer_kernel.Lock
open Pass

let checks =
  [
    ( "effect-unknown-slot",
      Diagnostic.Error,
      "effect spec names a state slot outside the interned/guarded vocabulary"
    );
    ( "effect-orphan-spec",
      Diagnostic.Error,
      "effect spec declared for a handler that does not exist" );
    ( "effect-missing-spec",
      Diagnostic.Warning,
      "lock spec declares mutations but no effect spec summarizes the \
       handler's reads/writes" );
    ( "effect-guard-mismatch",
      Diagnostic.Error,
      "lock spec declares a mutated slot the effect spec does not write" );
    ( "effect-undeclared-read",
      Diagnostic.Error,
      "runtime read of a state slot outside the handler's declared effect \
       spec" );
    ( "effect-undeclared-write",
      Diagnostic.Error,
      "runtime write of a state slot outside the handler's declared effect \
       spec" );
  ]

let severity_of check =
  match List.find_opt (fun (id, _, _) -> String.equal id check) checks with
  | Some (_, sev, _) -> sev
  | None -> Diagnostic.Error

let to_diagnostic (f : Effect.finding) =
  Diagnostic.v ~check:f.Effect.check ~severity:(severity_of f.Effect.check)
    ~subject:f.Effect.subject f.Effect.msg

let run input =
  match input.effects with
  | None -> []
  | Some model ->
    let lock =
      match input.locks with
      | Some l -> l
      | None -> { Lock.classes = []; specs = [] }
    in
    List.map to_diagnostic
      (Effect.check_model ~lock ?handlers:input.handlers model)

(* Per-slot [(slot, (reads, writes))] access counts of the built-in
   seed corpus, each program run from a fresh boot like the executor's
   forked processes; sorted by slot. What `healer analyze --effects`
   reports; empty when the effect hooks are off. *)
let seed_counts () =
  let module K = Healer_kernel in
  let target = K.Kernel.target () in
  let kernel = K.Kernel.boot ~version:K.Version.V5_11 () in
  let cov = K.Coverage.create () in
  List.fold_left
    (fun acc p ->
      let k', _ = Healer_executor.Exec.run ~cov kernel p in
      List.fold_left
        (fun acc (slot, r, w) ->
          let cr, cw = try List.assoc slot acc with Not_found -> (0, 0) in
          (slot, (cr + r, cw + w)) :: List.remove_assoc slot acc)
        acc (K.Kernel.effect_counts k'))
    []
    (Healer_core.Seeds.traces target @ Healer_core.Seeds.distilled target)
  |> List.sort compare

let pass =
  {
    pass_name = "effects";
    doc =
      "declared handler effect summaries vs the slot vocabulary, handler \
       tables and lock-spec mutation claims";
    checks;
    run;
  }
