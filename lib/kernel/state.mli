(** Shared kernel state: the file-descriptor table and per-subsystem
    slots.

    Subsystems extend {!fd_kind} with their own object constructors
    (like [struct file] private data) and keep whole-subsystem state
    (device registries, journals, console) in typed {!slot}s that are
    built on first access, so a fresh state costs only what a run
    touches. *)

type fd_kind = ..
(** Extended by each subsystem, e.g. [State.fd_kind += Memfd of memfd]. *)

type fd_kind += Dead  (** A closed descriptor whose number was reused. *)

type fd_entry = {
  fd : int;
  mutable kind : fd_kind;
  mutable refs : int;  (** Reference count ([dup] raises it). *)
  mutable closed : bool;
}

type t

val create : version:Version.t -> t
(** A fresh state: no descriptors and no slot installed. This is the
    whole of a boot ({!Kernel.boot}). *)

val version : t -> Version.t

val tick : t -> int
(** Bump and return the global operation counter. Handlers use
    distances between ticks to model data-race windows
    deterministically. *)

val now : t -> int
(** Current operation counter without bumping. *)

(** {2 File descriptors} *)

val alloc_fd : t -> fd_kind -> fd_entry
(** Install a new descriptor at the lowest unused number (>= 3). *)

val lookup_fd : t -> int -> fd_entry option
(** [None] for unknown or closed descriptors. *)

val lookup_fd_raw : t -> int -> fd_entry option
(** Like {!lookup_fd} but returns closed entries too (needed for
    use-after-free modeling). *)

val close_fd : t -> int -> bool
(** Drop one reference; marks the entry closed when the count reaches
    zero. Returns false for unknown/already-closed descriptors. *)

val dup_fd : t -> int -> int option
(** Allocate a new descriptor number sharing the same object (bumps the
    refcount) and return it. *)

val live_fds : t -> fd_entry list
(** Open descriptors in ascending fd order. *)

val exists_fd : t -> (fd_entry -> bool) -> bool
(** Does any open descriptor satisfy the predicate? (No allocation or
    ordering — safe for hot paths.) *)

(** {2 Subsystem slots}

    Each slot holds one subsystem's non-fd state (vfs's inode table,
    netlink's family registry, the tty console, ...). A subsystem
    registers its slots once, at module-init time, with a pure
    constructor and a deep copy. A fresh state has every slot empty;
    {!get} runs the constructor on first access. The constructor never
    sees the state, so an install records no effect or lock event, and
    a run's results cannot depend on when a slot was installed. *)

type 'a slot

val slot : name:string -> create:(unit -> 'a) -> copy:('a -> 'a) -> 'a slot
(** Register a slot. Module-init time only: the registry is read-only
    once {!Kernel.force_init} has run. Raises [Invalid_argument] on a
    duplicate name. *)

val get : t -> 'a slot -> 'a
(** The slot's value, built by its constructor on first access. *)

val installed : t -> string list
(** Names of the slots built so far, in registration order. *)

(** {2 Snapshots} *)

val copy : copy_kind:(fd_kind -> fd_kind) -> t -> t
(** Deep-copy the state so execution can resume from it later without
    disturbing the original. Installed slots are cloned with their
    registered copy and empty ones stay empty. [copy_kind] clones the
    subsystem-owned fd payloads ({!Kernel.copy} assembles it from the
    per-subsystem hooks); the fd table preserves [dup_fd] aliasing
    (two descriptor numbers sharing one entry share its copy too). *)

val copy_tbl : ('b -> 'b) -> ('a, 'b) Hashtbl.t -> ('a, 'b) Hashtbl.t
(** Hash-table clone with a per-value copy function, preserving the
    internal bucket structure (and therefore iteration order) of the
    original — subsystem copy hooks use it for their registries. *)

(** {2 Named counters}

    Small integer scratchpad for cross-call conditions that do not
    warrant a dedicated record (e.g. "number of faults injected"). *)

val incr_counter : t -> string -> int
(** Increment and return the new value (counters start at 0). *)

val counter : t -> string -> int
val set_counter : t -> string -> int -> unit

val fold_counters : (string -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every named counter (unspecified order — sort for
    deterministic output). *)

(** {2 Lock-acquisition counters}

    Dense integer slots (assigned by [Lock]) into a plain int array,
    so the per-acquire accounting hook is an array increment — far
    cheaper than a string-keyed counter on the execution hot path.
    Copied by {!copy} like every other piece of state. *)

val bump_lock : t -> int -> unit
(** Increment a lock-counter slot, growing the array on demand. *)

val lock_slot_counts : t -> (int * int) list
(** The non-zero [(slot, count)] pairs, in slot order.
    {!Kernel.lock_pair_counts} maps slots back to printable keys. *)

(** {2 Effect-access recording}

    Instrumented subsystem accessors call these with [Effect]'s dense
    slot indices. With hooks on ({!Effect.hooks_enabled}) accesses are
    counted per slot (one read + one write counter, array-increment
    hot path); under debug validation ({!Effect.validate_enabled}) the
    current call's access trace is recorded too, for the
    declared-vs-observed check in [Kernel.exec]. Results never
    depend on recording — campaigns are bit-identical hooks on/off. *)

val record_read : t -> int -> unit
val record_write : t -> int -> unit

val reset_effect_trace : t -> unit
(** Clear the per-call trace ([Kernel] calls it at call entry). *)

val effect_trace : t -> (bool * int) list
(** The recorded trace in access order, decoded to
    [(is_write, effect slot)]. *)

val effect_slot_counts : t -> (int * int * int) list
(** Non-zero [(slot, reads, writes)] triples in slot order;
    {!Kernel.effect_counts} maps slots back to names. *)
