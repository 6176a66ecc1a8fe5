(** Persistence of fuzzing state across campaigns: corpus archives (the
    syz-db analogue) and learned-relation files (HEALER's [-r] flag).

    Corpus archives are binary: the magic ["HLRDB1\n"], then each
    program as a length-prefixed {!Healer_executor.Serializer}
    encoding. Relation files are the text format of
    {!Relation_table.serialize}. Both loaders raise
    {!Healer_util.Codec.Malformed} on corrupt contents (format
    ["corpus"] or ["relations"]) and [Sys_error] when the file is
    unreadable. *)

val corpus_to_string : Healer_executor.Prog.t list -> string

val corpus_of_string :
  Healer_syzlang.Target.t -> string -> Healer_executor.Prog.t list

val write_atomic : path:string -> string -> unit
(** Write-to-temp-then-rename: a crash mid-write can never leave a
    truncated file at [path] — the previous contents survive. Every
    state-persisting path (corpus archives, relation files, campaign
    checkpoints) writes through this. *)

val read_file : string -> string
(** The whole file, read in binary mode. *)

val save_corpus : path:string -> Healer_executor.Prog.t list -> unit
val load_corpus : Healer_syzlang.Target.t -> path:string -> Healer_executor.Prog.t list

val save_relations : path:string -> Relation_table.t -> unit
val load_relations : path:string -> Relation_table.t
