(** The assembled simulated kernel: boots a {!State.t} for a version,
    compiles the union of all subsystem descriptions into a
    {!Healer_syzlang.Target.t} with a dispatch table, and dispatches
    executed calls to subsystem handlers.

    This module is the executor's only entry point into the kernel. *)

type t
(** A booted kernel instance. *)

val subsystems : unit -> Subsystem.t list
(** All registered subsystems (registers them on first use). *)

val target : unit -> Healer_syzlang.Target.t
(** The compiled description set (memoized; identical across boots).
    Its dispatch table for {!exec} is built with it. *)

val source : unit -> string
(** The full Syzlang corpus: every subsystem's descriptions
    concatenated in registration order — exactly what {!target}
    compiles. *)

val locate_line : int -> (string * int) option
(** Map a 1-based line of {!source} back to [(subsystem, local line)].
    [None] for lines past the end. Lets analysis diagnostics point at
    the subsystem that owns a declaration. *)

val subsystem_of : string -> string
(** [subsystem_of syscall_name] is the name of the subsystem whose
    handler serves the call, or ["?"] for unknown names. Used by the
    Moonshine baseline's read-write dependency approximation. *)

val force_init : unit -> unit
(** Force every lazily initialized process-global (subsystem registry,
    memoized target with its per-syscall dispatch table,
    handler/subsystem/line lookup tables, lock and effect models,
    crash symbol table, coverage-region lookup). The globals are
    read-only afterwards (so is {!State}'s slot registry, which
    subsystems fill at module-init time), making kernel boots and
    executions safe from multiple domains. Must be called before
    spawning any domain that touches the kernel;
    {!Healer_core.Campaign.run_matrix} does so. *)

val boot :
  ?san:Sanitizer.config ->
  ?features:string list ->
  version:Version.t ->
  unit ->
  t
(** Boot a fresh kernel: {!State.create} and nothing else. Each
    subsystem's state is installed on first touch ({!State.get}), so a
    run pays only for the subsystems it reaches. [features] are
    executor capabilities (e.g. ["usb"; "fault_injection"]) visible to
    handlers. *)

val reboot : t -> t
(** Fresh state with the same version, sanitizer config and features. *)

val copy : t -> t
(** Snapshot: deep-copy the kernel's mutable state, so execution can
    resume from the copy while the original stays pristine (the
    prefix-caching executor's primitive). Installed slots are copied
    with their registered copy, empty ones stay empty; fd payloads go
    through each subsystem's [copy_kind]. Fails loudly on an fd kind
    whose subsystem registered no copier — a gap the snapshot tests
    catch. *)

val version : t -> Version.t
val state : t -> State.t
val sanitizers : t -> Sanitizer.config
val features : t -> string list

(** {2 Lock model} *)

val lock_model : unit -> Lock.model
(** The assembled lock model: every registered {!Lock.cls} plus every
    subsystem's declared handler specs. Memoized; the lockdep analysis
    pass and the runtime validator below both read it. *)

val lock_pair_counts : t -> ((string * string) * int) list
(** Lock-pair acquisition counts accumulated by this kernel's
    executions: [((outer, inner), n)] meaning [inner] was acquired [n]
    times while [outer] was held. Sorted; empty when
    {!Lock.hooks_enabled} was off. The queryable concurrency-coverage
    signal behind [healer analyze --locks]. *)

val lock_acquire_counts : t -> (string * int) list
(** Total acquisitions per lock class, sorted by class name. *)

(** {2 Effect model} *)

val effect_model : unit -> Effect.model
(** The assembled effect model: the interned slot vocabulary unioned
    with every lock class's guarded slots, plus every subsystem's
    declared handler effect specs. Memoized; read by the effect-drift
    / race / relation-inference passes and the runtime validator. *)

val effect_counts : t -> (string * int * int) list
(** Per-slot [(slot, reads, writes)] access counts accumulated by this
    kernel's executions, sorted by slot name; empty when
    {!Effect.hooks_enabled} was off. The observed-access signal behind
    [healer analyze --effects]. *)

(** {2 Execution}

    The executor dispatches each call through {!exec}, which reads the
    handler and owning subsystem from the target's dispatch table and
    runs the call through a recycled {!Ctx.t}. *)

val make_ctx : t -> Coverage.t -> Ctx.t
(** A handler context bound to this kernel's state and the given
    collector; recycled across every call of a run. *)

val exec :
  t -> ctx:Ctx.t -> ?fault:bool -> Healer_syzlang.Syscall.t -> Arg.t list -> Ctx.result
(** Execute one call against the kernel. The handler comes from an
    array read by syscall id for the calls of {!target}; a syscall from
    any other target resolves by name, and an unknown name returns
    [ENOSYS]. [ctx] must come from {!make_ctx} on this kernel (it is
    {!Ctx.recycle}d first; coverage lands in its collector, which the
    caller resets between calls). [fault] injects an allocation failure
    into this call. May raise {!Crash.Crash}. Under
    {!Lock.validate_enabled} the call's recorded lock-acquisition
    trace is checked against its declared spec and the order graph; a
    divergence raises {!Lock.Violation}. Likewise under
    {!Effect.validate_enabled} the observed state-slot access trace
    must be covered by the handler's declared {!Effect.spec}; drift
    raises {!Effect.Violation}. *)

val coredump : t -> cov:Coverage.t -> unit
(** Run the core-dump path, entered after a fault-injected call kills
    the executor process. Covers the binfmt_elf blocks and can trigger
    the [fill_thread_core_info] KMSAN bug (the paper's Listing 2 /
    Section 7 case study). May raise {!Crash.Crash}. *)
