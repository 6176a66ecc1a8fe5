module Bitset = Healer_util.Bitset
module Codec = Healer_util.Codec
module Prog = Healer_executor.Prog
module Serializer = Healer_executor.Serializer
module Target = Healer_syzlang.Target
module Coverage = Healer_kernel.Coverage
module Risk = Healer_kernel.Risk
module Relation_table = Healer_core.Relation_table
module Triage = Healer_core.Triage
module Corpus = Healer_core.Corpus

type t = {
  n_syscalls : int;
  relations : Relation_table.t;
  coverage : Bitset.t;
  corpus : (string * Prog.t) list;
  crashes : Triage.record list;
  execs : (int * int) list;
}

let empty ~n_syscalls =
  {
    n_syscalls;
    relations = Relation_table.create n_syscalls;
    coverage = Bitset.create ();
    corpus = [];
    crashes = [];
    execs = [];
  }

let of_target target = empty ~n_syscalls:(Target.n_syscalls target)

(* Canonical component orders: corpus by digest key, crashes by
   signature (their dedup unit), counters by shard. *)
let sort_corpus c =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) c

let sort_crashes cs =
  List.sort
    (fun (a : Triage.record) b -> String.compare a.Triage.signature b.Triage.signature)
    cs

(* Duplicate shard keys collapse to their max, so canonicalization is
   a true normalizer and the G-counter laws hold for any input. *)
let sort_execs e =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, n) ->
      match Hashtbl.find_opt tbl s with
      | Some m when m >= n -> ()
      | _ -> Hashtbl.replace tbl s n)
    e;
  List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) tbl [])

let canonical t =
  {
    t with
    corpus = sort_corpus t.corpus;
    crashes = sort_crashes (Triage.merge_records [ t.crashes ]);
    execs = sort_execs t.execs;
  }

let merge a b =
  if a.n_syscalls <> b.n_syscalls then
    invalid_arg "Shard_state.merge: table size mismatch";
  let coverage = Bitset.copy a.coverage in
  Bitset.union_into ~dst:coverage b.coverage;
  let execs =
    let ea = sort_execs a.execs and eb = sort_execs b.execs in
    let shards = List.sort_uniq compare (List.map fst ea @ List.map fst eb) in
    List.map
      (fun s ->
        let get l = match List.assoc_opt s l with Some n -> n | None -> 0 in
        (s, max (get ea) (get eb)))
      shards
  in
  {
    n_syscalls = a.n_syscalls;
    relations = Relation_table.merge a.relations b.relations;
    coverage;
    corpus = sort_corpus (a.corpus @ b.corpus);
    crashes = sort_crashes (Triage.merge_records [ a.crashes; b.crashes ]);
    execs;
  }

let total_execs t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.execs

(* ---- watermarks and diffs ---- *)

type watermark = {
  w_relations : int;
  w_coverage : int;
  w_corpus : int;
  w_crashes : int;
  w_execs : int;
}

let watermark t =
  {
    w_relations = Relation_table.count t.relations;
    w_coverage = Bitset.count t.coverage;
    w_corpus = List.length t.corpus;
    w_crashes = List.length t.crashes;
    w_execs = total_execs t;
  }

let is_empty t =
  Relation_table.count t.relations = 0
  && Bitset.count t.coverage = 0
  && t.corpus = [] && t.crashes = [] && t.execs = []

(* A diff is itself a state holding only the components of [t] that
   [base] lacks (or, for crash records and counters, strictly
   improves on): merging it into [base] reconstructs [merge base t]
   exactly — the qcheck law the service suite pins. Bytes shipped are
   O(new work), not O(total state). *)
let diff ~since:base t =
  if base.n_syscalls <> t.n_syscalls then
    invalid_arg "Shard_state.diff: table size mismatch";
  let relations = Relation_table.create t.n_syscalls in
  Relation_table.iter_new ~base:base.relations
    (fun i j -> ignore (Relation_table.set relations i j))
    t.relations;
  let coverage = Bitset.create () in
  Bitset.iter_diff ~base:base.coverage (Bitset.add coverage) t.coverage;
  let base_keys = Hashtbl.create (List.length base.corpus) in
  List.iter (fun (k, _) -> Hashtbl.replace base_keys k ()) base.corpus;
  let corpus =
    List.filter (fun (k, _) -> not (Hashtbl.mem base_keys k)) t.corpus
  in
  (* Keep the preferred record per signature: the raw base may hold
     duplicates, and diffing against a worse duplicate would ship
     records the canonical merge already owns. *)
  let base_crashes = Hashtbl.create (List.length base.crashes) in
  List.iter
    (fun (r : Triage.record) ->
      match Hashtbl.find_opt base_crashes r.Triage.signature with
      | Some prev when Triage.preferred prev r -> ()
      | _ -> Hashtbl.replace base_crashes r.Triage.signature r)
    base.crashes;
  let crashes =
    List.filter
      (fun (r : Triage.record) ->
        match Hashtbl.find_opt base_crashes r.Triage.signature with
        | None -> true
        | Some prev -> not (Triage.preferred prev r))
      t.crashes
  in
  let base_execs = sort_execs base.execs in
  let execs =
    List.filter
      (fun (s, n) ->
        match List.assoc_opt s base_execs with
        | Some m -> n > m
        | None -> true)
      (sort_execs t.execs)
  in
  { n_syscalls = t.n_syscalls; relations; coverage; corpus; crashes; execs }

(* ---- canonical serialization ---- *)

let put_crash buf (r : Triage.record) =
  Codec.put_string buf r.Triage.bug_key;
  Codec.put_string buf r.Triage.signature;
  Codec.put_string buf (Risk.to_string r.Triage.risk);
  Codec.put_float buf r.Triage.first_found;
  Codec.put_string buf (Serializer.encode r.Triage.reproducer)

let put_pair buf (a, b) =
  Codec.put_uint buf a;
  Codec.put_uint buf b

let put_state buf t =
  let t = canonical t in
  Codec.put_uint buf t.n_syscalls;
  Codec.put_list put_pair buf (Relation_table.edges t.relations);
  let cov = Bitset.elements t.coverage in
  Codec.put_uint buf (List.length cov);
  (* Ascending ids, delta-encoded: small varints. *)
  ignore
    (List.fold_left
       (fun prev id ->
         Codec.put_uint buf (id - prev);
         id)
       0 cov);
  Codec.put_list
    (fun buf (_, p) -> Codec.put_string buf (Serializer.encode p))
    buf t.corpus;
  Codec.put_list put_crash buf t.crashes;
  Codec.put_list put_pair buf t.execs

let to_string t =
  let buf = Buffer.create 4096 in
  put_state buf t;
  Buffer.contents buf

let get_crash target r =
  let bug_key = Codec.string r in
  let signature = Codec.string r in
  let risk = Codec.named r "risk class" Risk.of_string in
  let first_found = Codec.float r in
  let reproducer = Codec.sub r (Serializer.read target) in
  {
    Triage.bug_key;
    risk;
    signature;
    first_found;
    reproducer;
    repro_len = Prog.length reproducer;
  }

let read target r =
  let at = Codec.offset r in
  let n_syscalls = Codec.uint r in
  if n_syscalls <> Target.n_syscalls target then
    Codec.fail ~at r
      (Printf.sprintf "state for a %d-syscall target, expected %d" n_syscalls
         (Target.n_syscalls target));
  let relations = Relation_table.create n_syscalls in
  for _ = 1 to Codec.count r do
    let at = Codec.offset r in
    let i = Codec.uint r in
    let j = Codec.uint r in
    if i >= n_syscalls || j >= n_syscalls then
      Codec.fail ~at r (Printf.sprintf "relation (%d, %d) out of range" i j);
    ignore (Relation_table.set relations i j)
  done;
  (* A decoded id sizes the bitset, so ids stop at the allocated
     branch range. *)
  let coverage = Bitset.create () in
  let ids = Coverage.total_allocated () in
  let prev = ref 0 in
  for _ = 1 to Codec.count r do
    let at = Codec.offset r in
    let d = Codec.uint r in
    if d >= ids - !prev then
      Codec.fail ~at r (Printf.sprintf "coverage id beyond the %d allocated" ids);
    prev := !prev + d;
    Bitset.add coverage !prev
  done;
  let corpus =
    Codec.list r (fun r ->
        (* Re-key on the canonical encoding in case the stored bytes
           were not (the key is the dedup unit). *)
        let prog = Codec.sub r (Serializer.read target) in
        (Corpus.key prog, prog))
  in
  let crashes = Codec.list r (get_crash target) in
  let execs =
    Codec.list r (fun r ->
        let shard = Codec.uint r in
        (shard, Codec.uint r))
  in
  canonical { n_syscalls; relations; coverage; corpus; crashes; execs }

let of_string target s = Codec.decode ~format:"shard state" (read target) s
let equal a b = String.equal (to_string a) (to_string b)
let digest t = Digest.to_hex (Digest.string (to_string t))

(* ---- worker deltas ---- *)

type delta = { shard : int; epoch : int; d_execs : int; outcome : t }

let apply g (d : delta) =
  let prev = match List.assoc_opt d.shard g.execs with Some n -> n | None -> 0 in
  let contrib = { d.outcome with execs = [ (d.shard, prev + d.d_execs) ] } in
  merge g contrib

let put_delta buf d =
  Codec.put_uint buf d.shard;
  Codec.put_uint buf d.epoch;
  Codec.put_uint buf d.d_execs;
  put_state buf { d.outcome with execs = [] }

let delta_to_string d =
  let buf = Buffer.create 4096 in
  put_delta buf d;
  Buffer.contents buf

let delta_of_string target s =
  Codec.decode ~format:"shard delta"
    (fun r ->
      let shard = Codec.uint r in
      let epoch = Codec.uint r in
      let d_execs = Codec.uint r in
      { shard; epoch; d_execs; outcome = read target r })
    s

(* ---- epoch frames ---- *)

let put_epoch buf ~epoch ~version blob =
  Codec.put_uint buf epoch;
  Codec.put_uint buf version;
  Buffer.add_string buf blob

let epoch_of_string target s =
  Codec.decode ~format:"epoch"
    (fun r ->
      let epoch = Codec.uint r in
      let version = Codec.uint r in
      (epoch, version, read target r))
    s
