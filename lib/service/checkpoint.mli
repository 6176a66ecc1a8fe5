(** Durable campaign state: the coordinator's merged {!Shard_state}
    plus the campaign configuration and progress, written atomically
    (temp file + rename via {!Healer_core.Persist.write_atomic}) after
    every epoch so a [healer serve] daemon can be killed at any point
    and resume without losing learned relations.

    On-disk format (v2): the magic ["HLRCKP"], one version byte
    (forward compatibility: loaders reject versions they do not
    understand instead of misparsing), the configuration, the number
    of completed epochs, then the two newest completed fronts — the
    older as a full canonical state blob, the newer as its
    {!Shard_state.diff} (reconstructed by merge on load). *)

exception Malformed of { format : string; offset : int; reason : string }
(** The same exception as {!Healer_util.Codec.Malformed}, under its
    old name for callers that still match it here. Match
    [Codec.Malformed] in new code. *)

type config = {
  tool : Healer_core.Fuzzer.tool;
  version : Healer_kernel.Version.t;
  jobs : int;  (** Worker shards, 1 to {!max_jobs}. *)
  base_seed : int;
  epochs : int;  (** Planned sync rounds. *)
  slice : float;  (** Virtual seconds each shard fuzzes per epoch. *)
}

val max_jobs : int
(** 256: two pipe ends per shard stay under [Unix.select]'s 1024. *)

type t = {
  config : config;
  completed : int;
  state : Shard_state.t;  (** Front [completed - 1]: the join of every
      shard's deltas through the last globally completed epoch. *)
  prev : Shard_state.t;  (** Front [completed - 2] — the state that
      seeds epoch [completed] under the pipelined (lag-2) schedule,
      required for exact resume. Equals [state] on fresh campaigns.
      On disk it is stored whole and [state] as its diff. *)
}

val file : string -> string
(** [file dir] is the checkpoint file inside a campaign directory. *)

val to_string : t -> string

val of_string : Healer_syzlang.Target.t -> string -> t
(** Raises {!Healer_util.Codec.Malformed} (format ["checkpoint"]) on
    truncated or corrupt input, including unsupported format
    versions, unknown tools or kernel versions, and an implausible
    configuration. *)

val save : dir:string -> t -> unit
(** Creates [dir] if needed; the write is atomic. *)

val load : Healer_syzlang.Target.t -> path:string -> t
(** [path] may be the campaign directory or the checkpoint file
    itself. Raises {!Healer_util.Codec.Malformed} on corrupt contents,
    [Sys_error] when unreadable. *)

val merge : t -> t -> t
(** CRDT join of two checkpoints of the same campaign lineage: states
    merge, [completed] takes the max, the configuration must agree on
    tool/version (raises [Invalid_argument] otherwise); [jobs] and
    [epochs] take the max so a widened campaign keeps its history.
    The remaining scalar config fields ([base_seed], [slice]) keep the
    left operand's values — merging checkpoints of the {e same}
    campaign (the intended use) is fully commutative. *)
