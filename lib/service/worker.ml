module Bitset = Healer_util.Bitset
module Serializer = Healer_executor.Serializer
module Corpus = Healer_core.Corpus
module Fuzzer = Healer_core.Fuzzer
module Relation_table = Healer_core.Relation_table
module Triage = Healer_core.Triage

(* Distinct odd multipliers keep (shard, epoch) seed collisions out of
   any realistic campaign size. *)
let seed_for (cfg : Checkpoint.config) ~shard ~epoch =
  cfg.base_seed + (shard * 1_000_003) + (epoch * 7919)

let run_epoch (cfg : Checkpoint.config) ~shard ~epoch (g : Shard_state.t) =
  let fuzzer_cfg =
    Fuzzer.config ~seed:(seed_for cfg ~shard ~epoch) ~tool:cfg.tool
      ~version:cfg.version ()
  in
  let initial_relations =
    if Relation_table.count g.relations > 0 then Some g.relations else None
  in
  let f =
    Fuzzer.create ?initial_relations
      ~initial_seeds:(List.map snd g.corpus)
      fuzzer_cfg
  in
  Fuzzer.run_until f cfg.slice;
  (* Workers fuzz a [0, slice) virtual clock each epoch; offset crash
     times so first_found is campaign-global and the earliest-wins
     merge rule compares like with like. *)
  let epoch_start = float_of_int epoch *. cfg.slice in
  let corpus = ref [] in
  Corpus.iter
    (fun p -> corpus := (Shard_state.corpus_key p, p) :: !corpus)
    (Fuzzer.corpus f);
  let relations =
    match Fuzzer.relations f with
    | Some r -> Relation_table.copy r
    | None -> Relation_table.create g.n_syscalls
  in
  let outcome =
    {
      Shard_state.n_syscalls = g.n_syscalls;
      relations;
      coverage = Bitset.copy (Fuzzer.coverage_set f);
      corpus = !corpus;
      crashes =
        List.map
          (fun (r : Triage.record) ->
            { r with first_found = r.first_found +. epoch_start })
          (Triage.records (Fuzzer.triage f));
      execs = [];
    }
  in
  { Shard_state.shard; epoch; d_execs = Fuzzer.execs f; outcome }

(* Bench/test-only straggler simulation: when HEALER_SHARD_SKEW_MS is
   a positive integer, the shard whose turn it is ((epoch + shard) mod
   jobs = 0) sleeps that long before answering — a deterministic
   rotating slow shard that leaves results untouched but shows what
   the pipelined coordinator buys over the barrier. *)
let skew_ms =
  lazy
    (match Sys.getenv_opt "HEALER_SHARD_SKEW_MS" with
    | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> 0)
    | None -> 0)

let skew_sleep (cfg : Checkpoint.config) ~shard ~epoch =
  let ms = Lazy.force skew_ms in
  if ms > 0 && (epoch + shard) mod cfg.jobs = 0 then
    Unix.sleepf (float_of_int ms /. 1000.0)

let serve (cfg : Checkpoint.config) ~shard ~input ~output =
  let target = Healer_kernel.Kernel.target () in
  let inp = Wire.endpoint input and out = Wire.endpoint output in
  (* The worker's base view of the merged global state: grown only by
     the coordinator's incremental diffs, versioned by their count so
     a desync is caught instead of silently diverging. The fuzzing
     outcome is shipped back as a diff against this base — O(what this
     slice discovered) bytes, not O(total state). *)
  let base = ref (Shard_state.of_target target) in
  let version = ref 0 in
  let rec loop () =
    match Wire.recv inp with
    | Wire.Quit, _ -> Unix._exit 0
    | Wire.Delta, _ -> Unix._exit 3
    | Wire.Epoch, payload ->
      let epoch, ver, d = Shard_state.epoch_of_string target payload in
      if ver <> !version then Unix._exit 3;
      if not (Shard_state.is_empty d) then base := Shard_state.merge !base d;
      incr version;
      let d = run_epoch cfg ~shard ~epoch !base in
      let d =
        { d with Shard_state.outcome = Shard_state.diff ~since:!base d.outcome }
      in
      skew_sleep cfg ~shard ~epoch;
      Wire.send out Wire.Delta (fun buf -> Shard_state.put_delta buf d);
      loop ()
  in
  try loop () with
  | End_of_file -> Unix._exit 0 (* coordinator went away *)
  | _ -> Unix._exit 3
