(** Compact binary program encoding.

    This is the analogue of HEALER's ivshmem wire format: the fuzzer
    serializes each test case into a compact byte string that the
    in-guest executor decodes. The magic ["HLR1"], a call count, then
    per call the syscall id, an argument count and one tagged value
    per argument, all as {!Healer_util.Codec} varints (zigzag for
    signed payloads); the encoding is self-delimiting. *)

val encode : Prog.t -> string

val put_call : Buffer.t -> Prog.call -> unit
(** Wire encoding of a single call (the per-call slice of {!encode},
    without the program header), appended to a caller-provided buffer.
    The execution cache keys its prefix trie on these bytes, so two
    calls compare equal exactly when their serialized forms do. *)

val decode : Healer_syzlang.Target.t -> string -> Prog.t
(** Raises {!Healer_util.Codec.Malformed} (format ["program"]) on
    truncated or corrupt input, or when a syscall id does not exist in
    [target]. When {!Progcheck.debug_enabled} is set, it also rejects
    a decoded program that has {!Progcheck} errors: well-formed bytes
    encoding a type-invalid program are still malformed input. *)

val read : Healer_syzlang.Target.t -> Healer_util.Codec.reader -> Prog.t
(** {!decode} as a schema over a reader, for formats that nest
    programs: errors carry the outer format and file offsets. *)
