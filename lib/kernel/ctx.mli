(** Per-execution handler context and the helpers every simulated
    syscall handler uses: coverage reporting, errno results and bug
    triggering. *)

type t = {
  st : State.t;
  cov : Coverage.t;
  san : Sanitizer.config;
  features : string list;
      (** Executor features (e.g. ["usb"]); gates some subsystems. *)
  proc : int;  (** Executor process id, for [proc] typed values. *)
  mutable fault_pending : bool;
      (** Set by the executor when fault injection targets the current
          call; {!take_fault} consumes it. *)
  mutable lock_held : Lock.cls list;
      (** Lock classes currently held, innermost first; maintained by
          {!with_lock}. *)
  mutable lock_trace : Lock.op list;
      (** Acquisition trace in reverse order, recorded only under
          {!Lock.validate_enabled}; {!lock_trace} returns it
          chronologically. *)
}

type result = { ret : int64; err : Errno.t option }

val make :
  ?features:string list ->
  ?proc:int ->
  st:State.t ->
  san:Sanitizer.config ->
  Coverage.t ->
  t

val recycle : t -> unit
(** Reset the per-call mutable fields ([fault_pending], lock state) so
    one context serves every call of a run ({!Kernel.exec} recycles
    it before each call). Equivalent to a fresh {!make} with the same
    state/coverage/config. *)

val ok : int64 -> result
(** Success with a return value (fd, byte count...). *)

val ok0 : result
(** Success returning 0. *)

val err : Errno.t -> result
(** Failure; the return value is [-errno] like the raw Linux ABI. *)

val cover : t -> int -> unit
(** Report passing through branch id. *)

val covern : t -> int -> int list -> unit
(** [covern ctx base offs] covers [base + o] for each offset. *)

val version : t -> Version.t
val has_feature : t -> string -> bool

val take_fault : t -> bool
(** True at most once per injected fault: simulated allocation failure. *)

val bug : t -> string -> unit
(** [bug ctx key] fires the catalog bug [key]: if the bug exists in the
    booted kernel version and an enabled sanitizer detects its risk
    class, raises {!Crash.Crash}. Otherwise the corruption goes
    unnoticed and execution continues (exactly like an unsanitized or
    unaffected kernel). Raises [Invalid_argument] on unknown keys so
    that typos in handlers fail loudly in tests. *)

val bug_fires : t -> string -> bool
(** Would {!bug} raise? (Version and sanitizer check, no side effect.) *)

(** {2 Lock hooks}

    Handlers (normally via {!Subsystem.locked}) bracket their bodies
    in {!with_lock}; since the simulator is single-threaded the hooks
    never block — they account lock-pair coverage counters in
    {!State.t} and, under {!Lock.validate_enabled}, record the
    acquisition trace that {!Kernel.exec} checks against the
    handler's declared spec. *)

val acquire : t -> Lock.cls -> unit
val release : t -> Lock.cls -> unit

val with_lock : t -> Lock.cls -> (unit -> 'a) -> 'a
(** [with_lock ctx c f] runs [f] holding [c]; the release is exception
    safe ([Fun.protect]), so traces stay balanced when a handler
    raises {!Crash.Crash} mid-section. *)

val lock_trace : t -> Lock.op list
(** The recorded trace, chronologically. Empty unless
    {!Lock.validate_enabled}. *)
