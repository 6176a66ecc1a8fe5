(** Handler effect summaries over shared kernel state.

    Every handler in the stateful subsystems declares the
    {!State.slot}s and [fd:<kind>] pseudo-slots it reads and
    writes — the same slot vocabulary as {!Lock.cls.guards} — and
    instrumented state accessors record the observed per-execution
    effect trace. The pure checkers here back the static effect-drift
    pass, the Eraser-style lockset race detector, the
    write→read relation-inference pass, and the runtime validator in
    [Kernel.exec_prepared] (same [HEALER_DEBUG_VALIDATE] contract as
    Progcheck and lockdep). *)

(** {1 Specs and models} *)

type spec = { reads : string list; writes : string list }
(** Declared effect summary: slot names the handler may read / write.
    A write subsumes a read of the same slot (read-modify-write
    accessors record only the write). *)

val spec : ?reads:string list -> ?writes:string list -> unit -> spec

type model = {
  slots : string list;  (** the known slot vocabulary *)
  especs : (string * string * spec) list;
      (** (subsystem, handler, declared effect spec) *)
}

type finding = { check : string; subject : string; msg : string }

exception Violation of finding
(** Raised by the runtime validator on effect drift (validate mode). *)

val wildcard : string
(** ["fd:*"] — matches any [fd:<kind>] pseudo-slot. Generic vfs
    handlers that dispatch file_ops on arbitrary fd kinds declare it.
    Wildcard accesses are excluded from race analysis and relation
    inference (they name no single object). *)

val covers : declared:string list -> string -> bool
(** Does a declared slot list cover an observed slot (wildcard-aware)? *)

(** {1 Runtime switches} *)

val hooks_enabled : unit -> bool
(** Effect-count recording hooks; default on, [HEALER_EFFECT_HOOKS=0]
    disables. Executions are bit-identical either way. *)

val set_hooks : bool -> unit

val validate_enabled : unit -> bool
(** Trace recording + per-call declared-vs-observed validation; armed
    by [HEALER_DEBUG_VALIDATE] / {!set_validate} (wired through
    [Progcheck.set_debug] like the lock validator). *)

val set_validate : bool -> unit

(** {1 Slot interning}

    Observed accesses are accounted in dense int slots into [State]'s
    effect-count arrays, so the record hook on the execution hot path
    is an array increment. Subsystem modules intern their slots at
    module-init time; read-only after [Kernel.force_init]. *)

val slot : string -> int
(** Intern a slot name (idempotent). *)

val slot_name : int -> string
val n_slots : unit -> int
val registered_slots : unit -> string list

(** {1 Known-race catalog} *)

type known_race = { kslot : string; parties : string list; bug : string }
(** A deliberately-unguarded fixture race: the slot, the full set of
    handlers racing on it, and the version-gated bug it models. *)

val register_race : slot:string -> parties:string list -> bug:string -> unit
val registered_races : unit -> known_race list

(** {1 Static checks} *)

val check_model :
  lock:Lock.model -> ?handlers:(string * string) list -> model -> finding list
(** Effect-model drift: [effect-unknown-slot] (slot outside the
    vocabulary), [effect-orphan-spec] (spec for a nonexistent handler,
    when a handler table is given), [effect-missing-spec] (lock spec
    declares mutations but no effect spec exists),
    [effect-guard-mismatch] (lock-spec [touches] not acknowledged as
    writes). Writes beyond the lock spec's [touches] are legal — that
    unguarded surplus is what {!races} inspects. *)

val check_trace :
  model -> subsystem:string -> handler:string -> (bool * string) list ->
  finding list
(** Validate one call's observed accesses [(is_write, slot)] against
    the handler's declared spec: [effect-undeclared-read] /
    [effect-undeclared-write]. *)

val races :
  lock:Lock.model -> ?known:known_race list -> model -> finding list
(** Eraser-style lockset race detector over declared accesses: for
    every (non-wildcard) slot, a write/write or write/read handler
    pair whose declared locksets do not intersect is a candidate race
    — [race-known-bug] (both parties of a registered fixture race),
    [race-unguarded-slot] (a side holds no lock at all),
    [race-order-masked] (a guarding class precedes both locksets in
    the declared order graph), [race-disjoint-locksets] otherwise. *)

val predicted_edges : model -> (string * string * string) list
(** The write(slot)→read(slot) handler-pair graph:
    [(writer, reader, slot)] influence edges predicted by shared
    state, for the relation-inference pass. Deduplicated, sorted;
    wildcards and self-pairs excluded. *)
