(** The lock model: named lock classes with a declared nesting order,
    the shared-state slots each class guards, per-handler declared lock
    specs, and the checking core shared by the static lockdep pass
    ([Healer_analysis.Lockdep]) and the runtime validator in
    {!Kernel.exec}.

    The simulated kernel is single-threaded, so acquire/release never
    block: the hooks account lock-pair coverage and (under debug
    validation) record acquisition traces, and lockdep checks the
    declared discipline — exactly like Linux's lockdep reports
    would-be deadlocks on executions that never actually deadlock. *)

(** {2 Lock classes} *)

type cls = {
  id : int;  (** Dense registration id; keys the counter memos. *)
  cname : string;  (** Class name, e.g. ["rtnl"]. *)
  rank : int;
      (** Declared nesting order: a handler may only acquire a class
          whose rank is >= every rank it already holds. *)
  guards : string list;
      (** The {!State.slot} names (["netdevs"]) and fd-payload
          pseudo-slots (["fd:sock"]) this class protects. *)
}

val make : ?guards:string list -> rank:int -> string -> cls
(** A class value without registering it — for test fixtures building
    broken models. *)

val register : ?guards:string list -> rank:int -> string -> cls
(** Register (idempotently, by name) into the process-global class
    registry; subsystem modules call this at module-init time. *)

val registered : unit -> cls list
(** In registration order. *)

val find : string -> cls option

(** {2 Declared specs} *)

type op = Acquire of string | Release of string

type spec = {
  ops : op list;  (** The declared acquire/release sequence. *)
  touches : string list;
      (** Slots (as in {!cls.guards}) the handler mutates — the
          guard-coverage input. *)
}

val scoped : ?touches:string list -> string list -> spec
(** [scoped ~touches classes] declares well-bracketed acquisition:
    acquire in list order, release in reverse. *)

val acquires : spec -> string list
(** The acquire sequence of a spec, in order. *)

type model = {
  classes : cls list;
  specs : (string * string * spec) list;
      (** [(subsystem, handler, declared spec)]. *)
}

(** {2 Checking}

    Findings use stable [lock-*] check IDs; {!Healer_analysis.Lockdep}
    maps them onto the Diagnostic framework. *)

type finding = { check : string; subject : string; msg : string }

exception Violation of finding
(** Raised by the runtime validator in {!Kernel.exec} (never by
    the pure checkers below). *)

val check_model :
  ?reads:(string * string * string list) list -> model -> finding list
(** Static lockdep over the declared model: unknown classes, double
    acquire, release of unheld, held-at-exit, rank inversions,
    declared-order cycles (ABBA), guard coverage and unused classes.
    [reads] extends guard coverage to the read side:
    [(subsystem, handler, slots read)] triples — reading a slot some
    class guards without holding any guarding class also warns under
    [lock-guard-coverage]. Sorted and deduplicated; empty on a clean
    model. *)

val order_edges : model -> (string * string) list
(** The declared lock-order graph: deduped [(outer, inner)] nesting
    edges over every spec, in first-witness order. *)

val check_trace :
  model -> subsystem:string -> handler:string -> op list -> finding list
(** Validate one recorded acquisition trace against the model: the
    structural checks of {!check_model}, plus the runtime acquire
    order must be a subsequence of the handler's declared spec
    ([lock-spec-mismatch]) and must not invert the declared order
    graph. *)

(** {2 Runtime switches} *)

val env_on : string -> bool
(** Parse a boolean environment toggle (unset or
    ["" | 0 | false | no | off] are false); shared with the other
    hook-bearing modules. *)

val hooks_enabled : unit -> bool
(** Lock-pair accounting hooks; default on, {!set_hooks} switches them
    (the bench measures their overhead). Executions are bit-identical
    either way — the hooks only write [lock:*] counters. *)

val set_hooks : bool -> unit

val validate_enabled : unit -> bool
(** Trace recording + per-call validation; same contract as
    {!Healer_executor.Progcheck}: opt-in via [HEALER_DEBUG_VALIDATE],
    forced on across [dune runtest]. *)

val set_validate : bool -> unit

(** {2 Lock-pair coverage counters}

    Acquisitions are accounted in dense integer slots into
    {!State.t}'s lock-count array (so the per-acquire hot path is an
    array increment): one slot per acquisition of class [C]
    (["lock:acq:C"]) and one per acquisition of [B] while holding [A]
    (["lock:pair:A->B"]) — the queryable concurrency-coverage signal
    ({!Kernel.lock_pair_counts}). {!slot_name} maps a slot back to its
    printable key. *)

val counter_prefix : string
val pair_prefix : string
val acq_prefix : string

val pair_counter : cls -> cls -> int
(** Memoized counter slot for (outer, inner). *)

val acq_counter : cls -> int

val slot_name : int -> string
(** The printable ["lock:pair:A->B"] / ["lock:acq:C"] key of a slot. *)

val n_counter_slots : unit -> int

val force_pairs : unit -> unit
(** Pre-assign counter slots for every registered class pair so the
    hot path never mutates the memos; {!Kernel.force_init} calls this
    before campaigns go parallel. *)
