module Codec = Healer_util.Codec
module Fuzzer = Healer_core.Fuzzer
module Persist = Healer_core.Persist
module Version = Healer_kernel.Version

exception Malformed = Codec.Malformed

type config = {
  tool : Fuzzer.tool;
  version : Version.t;
  jobs : int;
  base_seed : int;
  epochs : int;
  slice : float;
}

type t = {
  config : config;
  completed : int;
  state : Shard_state.t;
  prev : Shard_state.t;
}

let max_jobs = 256

let magic = "HLRCKP"
let format_version = '\002'
let file dir = Filename.concat dir "healer.ckpt"

(* v2 stores the last two completed fronts (the pipelined schedule
   seeds epoch [e] from front [e-2], so exact resume needs both), the
   older as a full blob and the newer as its diff — the increment is
   cheap to store for the same reason it is cheap to ship. *)
let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf format_version;
  Codec.put_string buf (Fuzzer.tool_name t.config.tool);
  Codec.put_string buf (Version.to_string t.config.version);
  Codec.put_uint buf t.config.jobs;
  Codec.put_uint buf t.config.base_seed;
  Codec.put_uint buf t.config.epochs;
  Codec.put_float buf t.config.slice;
  Codec.put_uint buf t.completed;
  Codec.put_string buf (Shard_state.to_string t.prev);
  Shard_state.put_state buf (Shard_state.diff ~since:t.prev t.state);
  Buffer.contents buf

let read target r =
  Codec.magic r magic;
  let at = Codec.offset r in
  let v = Codec.byte r in
  if v <> Char.code format_version then
    Codec.fail ~at r (Printf.sprintf "unsupported checkpoint format version %d" v);
  let tool =
    Codec.named r "tool" (fun name ->
        List.find_opt
          (fun t -> String.equal (Fuzzer.tool_name t) name)
          Fuzzer.all_tools)
  in
  let version = Codec.named r "kernel version" Version.of_string in
  let at = Codec.offset r in
  let jobs = Codec.uint r in
  let base_seed = Codec.uint r in
  let epochs = Codec.uint r in
  let slice = Codec.float r in
  let completed = Codec.uint r in
  if jobs < 1 || jobs > max_jobs || completed > epochs then
    Codec.fail ~at r "implausible campaign configuration";
  let prev = Codec.sub r (Shard_state.read target) in
  let state = Shard_state.merge prev (Shard_state.read target r) in
  {
    config = { tool; version; jobs; base_seed; epochs; slice };
    completed;
    state;
    prev;
  }

let of_string target s = Codec.decode ~format:"checkpoint" (read target) s

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ~dir t =
  mkdir_p dir;
  Persist.write_atomic ~path:(file dir) (to_string t)

let load target ~path =
  let path =
    if Sys.file_exists path && Sys.is_directory path then file path else path
  in
  of_string target (Persist.read_file path)

let merge a b =
  if a.config.tool <> b.config.tool || a.config.version <> b.config.version then
    invalid_arg "Checkpoint.merge: campaigns disagree on tool or kernel";
  {
    config =
      {
        a.config with
        jobs = max a.config.jobs b.config.jobs;
        epochs = max a.config.epochs b.config.epochs;
      };
    completed = max a.completed b.completed;
    state = Shard_state.merge a.state b.state;
    prev = Shard_state.merge a.prev b.prev;
  }
