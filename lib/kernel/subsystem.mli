(** Subsystem plumbing: each simulated kernel subsystem bundles its
    Syzlang descriptions, exact handlers for its specialized syscalls,
    and optional implementations of the generic file operations
    ([read]/[write]/[mmap]/[ftruncate] ...), mirroring Linux's
    [file_operations] dispatch. Its non-fd state lives in
    {!State.slot}s it registers at module-init time; nothing runs at
    boot. *)

type handler = Ctx.t -> Arg.t list -> Ctx.result

type file_op = {
  op_name : string;  (** "read", "write", "mmap", "ftruncate", ... *)
  applies : State.fd_kind -> bool;  (** Does this fd belong to us? *)
  run : Ctx.t -> State.fd_entry -> Arg.t list -> Ctx.result;
}

type t = {
  name : string;
  descriptions : string;  (** Syzlang source for this subsystem. *)
  handlers : (string * handler) list;  (** Exact syscall-name handlers. *)
  file_ops : file_op list;
  copy_kind : State.fd_kind -> State.fd_kind option;
      (** Deep-copy this subsystem's fd payloads ([None] = not ours).
          Every subsystem that extends {!State.fd_kind} must handle its
          own constructors here or {!Kernel.copy} fails loudly. (Its
          {!State.slot}s carry their own copy.) *)
  locks : (string * Lock.spec) list;
      (** Declared lock specs, keyed by handler name. Deliberately
          separate from the {!locked} wrappers on the handlers
          themselves: the runtime validator in {!Kernel.exec_prepared}
          cross-checks actual acquisition traces against these, so the
          two cannot drift silently. *)
  effects : (string * Effect.spec) list;
      (** Declared effect summaries, keyed by handler name — the state
          slots each handler reads/writes ({!Effect.spec}). Separate
          from the instrumented accessors for the same reason as
          [locks]: the runtime validator cross-checks observed access
          traces against these. *)
}

val make :
  ?handlers:(string * handler) list ->
  ?file_ops:file_op list ->
  ?copy_kind:(State.fd_kind -> State.fd_kind option) ->
  ?locks:(string * Lock.spec) list ->
  ?effects:(string * Effect.spec) list ->
  name:string ->
  descriptions:string ->
  unit ->
  t

val locked : Lock.cls list -> handler -> handler
(** [locked classes h] wraps [h] so its body runs under
    {!Ctx.with_lock} for each class, acquired in list order and
    released in reverse. *)

val register : t -> unit
(** Idempotent (keyed by name); installs the subsystem's file_ops into
    the global dispatch chain used by {!dispatch_file_op}. *)

val registered : unit -> t list
(** In registration order. *)

val dispatch_file_op :
  Ctx.t -> string -> State.fd_entry -> Arg.t list -> Ctx.result option
(** [dispatch_file_op ctx op entry args] walks the chain and runs the
    first registered operation whose [applies] matches the entry's
    kind. [None] when no subsystem claims the descriptor. *)
