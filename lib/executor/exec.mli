(** Program execution against a booted simulated kernel.

    Each run executes the calls in order, resolving each call's
    symbolic arguments against the results so far right before it is
    dispatched, and collects per-call branch coverage — the feedback
    HEALER's minimization and dynamic relation learning consume. A
    resource reference to a failed, crashed, unexecuted, later or
    out-of-range call reads as the invalid resource [-1]. A crash
    aborts the run; the remaining calls are not executed (the guest
    has paniced). *)

type call_result = {
  retval : int64;
  errno : Healer_kernel.Errno.t option;
  cov : int list;  (** Branch ids covered by this call, first-hit order. *)
  executed : bool;  (** False for calls after a crash / process kill. *)
}

type run_result = {
  calls : call_result array;  (** One slot per program call. *)
  crash : Healer_kernel.Crash.report option;
}

val run :
  ?fault_call:int ->
  ?fresh_state:bool ->
  ?cov:Healer_kernel.Coverage.t ->
  Healer_kernel.Kernel.t ->
  Prog.t ->
  Healer_kernel.Kernel.t * run_result
(** [run kernel prog] executes [prog]. With [fresh_state] (default
    true) the kernel is re-booted first, making runs reproducible —
    the executor forks a pristine process per test case.
    [fault_call i] injects an allocation failure into call [i]; the
    process is then killed and the kernel runs its core-dump path
    (which may itself crash). [cov] is the coverage collector to
    (re)use — pass a long-lived one to avoid allocating dedup state
    per run; a fresh one is created when absent. Returns the
    (possibly re-booted) kernel and the result. *)

val run_from :
  ?cov:Healer_kernel.Coverage.t ->
  ?on_call:(int -> call_result -> Healer_kernel.Kernel.t -> unit) ->
  prefix:call_result array ->
  Healer_kernel.Kernel.t ->
  Prog.t ->
  Healer_kernel.Kernel.t * run_result
(** [run_from ~prefix kernel prog] resumes execution at call
    [Array.length prefix]: [kernel] must be the state left by running
    exactly those prefix calls of [prog] from a fresh boot (the
    execution cache restores it from a snapshot), and [prefix] supplies
    their results so later [Res_ref] arguments resolve identically to a
    full {!run}. Because execution is deterministic, the returned
    result is bit-identical to [run kernel prog] — the qcheck suite
    enforces this. [on_call i r k] fires after each live (resumed) call
    that completes without crashing, with the kernel state at that
    point. The kernel is mutated in place and returned. Only the
    execution cache calls it. *)

(** {2 Reference oracle}

    A test seam: the test suite installs an independent reference
    executor, and while one is installed and [HEALER_DEBUG_VALIDATE]
    is on ({!Progcheck.set_debug}), {!run} and {!run_from} replay
    every run on a shadow kernel carrying the same pre-run state. The
    replay must produce bit-identical results — retvals, errnos,
    per-call coverage, crash report — and leave identical lock-pair
    counters; a divergence raises [Failure]. *)

type reference =
  ?fault_call:int ->
  prefix:call_result array ->
  Healer_kernel.Kernel.t ->
  Prog.t ->
  run_result
(** [replay ?fault_call ~prefix kernel p] executes the calls of [p]
    after [prefix] against [kernel] in place, exactly as {!run_from}
    would (an empty [prefix] is a whole run, with [kernel] already in
    its pre-run state). *)

val set_reference : reference option -> unit
(** Install ([Some]) or remove ([None]) the reference executor. *)

val cov_equal : int list -> int list -> bool
(** Set equality of two per-call coverage traces (order-insensitive),
    the comparison both Algorithm 1 and Algorithm 2 perform. *)

type cov_key
(** A coverage trace in sorted duplicate-free form, for comparing one
    reference trace against many probes without re-sorting it. *)

val cov_key : int list -> cov_key
val cov_matches : cov_key -> int list -> bool
(** [cov_matches (cov_key a) b] is [cov_equal a b]. *)

val total_cov : run_result -> int list
(** Union of all per-call coverage, deduplicated. *)
