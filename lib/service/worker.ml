module Bitset = Healer_util.Bitset
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
  let f = Fuzzer.create ?initial_relations fuzzer_cfg in
  (* The base's keys ride along, so no program is encoded here: an
     epoch re-keys only what it adds to the corpus. *)
  List.iter (fun (key, p) -> Fuzzer.ingest f ~key p) g.corpus;
  Fuzzer.run_until f cfg.slice;
  (* Workers fuzz a [0, slice) virtual clock each epoch; offset crash
     times so first_found is campaign-global and the earliest-wins
     merge rule compares like with like. *)
  let epoch_start = float_of_int epoch *. cfg.slice in
  let corpus = ref [] in
  Corpus.iter_keyed (fun key p -> corpus := (key, p) :: !corpus) (Fuzzer.corpus f);
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

type view = { base : Shard_state.t; version : int }

let fresh () =
  { base = Shard_state.of_target (Healer_kernel.Kernel.target ()); version = 0 }

exception Desync

(* The version counts the diffs absorbed, so a lost or repeated frame
   is caught instead of silently diverging the base. *)
let absorb v payload =
  let epoch, version, d =
    Shard_state.epoch_of_string (Healer_kernel.Kernel.target ()) payload
  in
  if version <> v.version then raise Desync;
  let base =
    if Shard_state.is_empty d then v.base else Shard_state.merge v.base d
  in
  (epoch, { base; version = version + 1 })

let reply v (d : Shard_state.delta) =
  { d with outcome = Shard_state.diff ~since:v.base d.outcome }
