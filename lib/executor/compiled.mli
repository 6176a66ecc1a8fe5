(** Compile once, execute many: a {!Prog.t} lowered once into flat
    per-call instruction records the executor can run repeatedly with
    zero per-call allocation in steady state.

    Compilation builds each call's {!Healer_kernel.Arg.t} tree once,
    leaving a mutable {!Healer_kernel.Arg.slot} cell at each [Res_ref]
    position and recording [(slot, producer index)] patch points;
    before a call executes, {!patch} fills its slots from the per-run
    results array ({!set_resval}) — two array reads and a pointer
    store per reference. The test suite's reference interpreter is
    the differential oracle: while it is installed and
    [HEALER_DEBUG_VALIDATE] is on, every run is replayed through it
    and compared bit-for-bit (see {!Exec.set_reference}). *)

module K = Healer_kernel

type ccall = {
  syscall : Healer_syzlang.Syscall.t;
  prep : K.Kernel.prepared;  (** dispatch resolved at compile time *)
  args : K.Arg.t list;  (** shared argument skeleton *)
  slots : K.Arg.slot array;  (** patch points, traversal order *)
  producers : int array;  (** producer call index per slot; -1 = none *)
}
(** One compiled call. [slots] and [producers] are parallel arrays. *)

type t
(** A compiled program: the source {!Prog.t}, its compiled calls, and
    a private per-run results array. Forms assembled by {!of_calls}
    may share [ccall]s — including their mutable slots — with other
    forms; this is safe because every slot of a call is patched
    immediately before that call runs, but it confines any given
    family of compiled forms to a single domain at a time. *)

val compile : Prog.t -> t
val compile_call : Prog.call -> ccall

val of_calls : Prog.t -> ccall array -> t
(** Assemble a compiled form from per-call compiled pieces (the
    prefix-cache reuses trie-resident [ccall]s this way). The array
    length must equal [Prog.length]. *)

val prog : t -> Prog.t
val length : t -> int
val call : t -> int -> ccall

(** {2 Run-time patching} *)

val reset_resvals : t -> unit
(** Invalidate all per-run results (every producer reads as -1). Call
    once before each run. *)

val set_resval : t -> int -> int64 -> unit
(** Record call [i]'s resource value: its return value on success, -1
    on error or skip. *)

val patch : t -> int -> unit
(** Fill call [i]'s slots from the recorded results. Allocation-free. *)
