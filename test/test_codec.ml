(* One codec, one law suite.

   Every byte format is a schema over [Healer_util.Codec], and one
   functor states the laws they all obey:

   - round-trip: each sample decodes and re-encodes to the same bytes,
     and the sample with one byte appended is rejected;
   - corruption: every truncation, every single-byte flip and every
     splice of an extreme varint over any byte either raises
     [Codec.Malformed] (naming the format, at an offset inside the
     input) or decodes to a value whose encoding decodes back to the
     same bytes. Formats without a prefix-closed layout reject every
     truncation outright;
   - allocation: each of those decodes allocates at most 64 B per
     input byte plus 256 KB.

   Below the functor: qcheck over the primitives, the specific inputs
   the older per-format tests checked, the byte strings that escaped
   the decoders before the codec, and golden encodings of real
   campaigns, which pin that every format kept its bytes. *)

module Codec = Healer_util.Codec
module Rng = Healer_util.Rng
module Bitset = Healer_util.Bitset
module Serializer = Healer_executor.Serializer
module S = Healer_service
open Healer_core
open Helpers

(* ---- the laws ---- *)

module type FORMAT = sig
  type t

  val name : string
  (** The [format] its errors carry. *)

  val samples : t list Lazy.t
  (** Each encodes to ~1 KB or less, which keeps the suite fast. *)

  val encode : t -> string
  val decode : string -> t

  val prefix_closed : bool
  (** Some proper prefixes are valid inputs (entry archives, text
      lines), so a truncation may decode. *)

  val bounded_alloc : bool
end

let uvarint v =
  let b = Buffer.create 10 in
  Codec.put_uvarint b v;
  Buffer.contents b

(* max_int, 2^30, 2^40, 2^63-1 and 2^64-1 as uvarints. *)
let extreme_varints =
  List.map uvarint
    [ Int64.of_int max_int; 0x40000000L; 0x10000000000L; Int64.max_int; -1L ]

let flip_masks = [ 0x01; 0x40; 0x80; 0xff ]

let splice s i v =
  String.sub s 0 i ^ v ^ String.sub s (i + 1) (String.length s - i - 1)

module Laws (F : FORMAT) = struct
  (* Decode one possibly corrupt input under every law; true when it
     decoded. *)
  let decodes ~what input =
    let budget = (64 * String.length input) + (256 * 1024) in
    let w0 = words () in
    let result =
      match F.decode input with
      | v -> Some v
      | exception Codec.Malformed { format; offset; reason } ->
        if format <> F.name || offset < 0 || offset > String.length input then
          Alcotest.failf "%s: Malformed names %s at byte %d (%s)" what format
            offset reason;
        None
      | exception e -> Alcotest.failf "%s: escaped %s" what (Printexc.to_string e)
    in
    let used = int_of_float (words () -. w0) * (Sys.word_size / 8) in
    if F.bounded_alloc && used > budget then
      Alcotest.failf "%s: decode allocated %d B, budget %d B" what used budget;
    match result with
    | None -> false
    | Some v ->
      let e = F.encode v in
      (match F.encode (F.decode e) with
      | e' when String.equal e e' -> ()
      | _ -> Alcotest.failf "%s: decoded to a value that re-encodes differently" what
      | exception e ->
        Alcotest.failf "%s: its re-encoding does not decode: %s" what
          (Printexc.to_string e));
      true

  let each_sample f = List.iteri (fun k v -> f k (F.encode v)) (Lazy.force F.samples)

  let round_trip () =
    each_sample (fun k s ->
        Alcotest.(check string)
          (Printf.sprintf "sample %d re-encodes" k)
          s
          (F.encode (F.decode s));
        if decodes ~what:(Printf.sprintf "sample %d + 1 byte" k) (s ^ "\001") then
          Alcotest.failf "%s sample %d: accepted a trailing byte" F.name k)

  let truncations () =
    each_sample (fun k s ->
        for n = 0 to String.length s - 1 do
          let what = Printf.sprintf "sample %d cut to %d bytes" k n in
          if decodes ~what (String.sub s 0 n) && not F.prefix_closed then
            Alcotest.failf "%s: accepted" what
        done)

  let flips () =
    each_sample (fun k s ->
        String.iteri
          (fun i c ->
            List.iter
              (fun mask ->
                let b = Bytes.of_string s in
                Bytes.set b i (Char.chr (Char.code c lxor mask));
                ignore
                  (decodes
                     ~what:(Printf.sprintf "sample %d, byte %d xor 0x%02x" k i mask)
                     (Bytes.to_string b)))
              flip_masks)
          s)

  let splices () =
    each_sample (fun k s ->
        for i = 0 to String.length s - 1 do
          List.iteri
            (fun j v ->
              ignore
                (decodes
                   ~what:(Printf.sprintf "sample %d, varint %d over byte %d" k j i)
                   (splice s i v)))
            extreme_varints
        done)

  (* Random bytes after a random prefix of a sample: deep garbage past
     the magic, and plain garbage at cut 0. *)
  let garbage =
    qcheck ~count:300 (F.name ^ " survives garbage tails")
      QCheck2.Gen.(triple small_nat small_nat (string_size (int_range 0 64)))
      (fun (k, cut, tail) ->
        let samples = Lazy.force F.samples in
        let s = F.encode (List.nth samples (k mod List.length samples)) in
        let input = String.sub s 0 (cut mod (String.length s + 1)) ^ tail in
        ignore (decodes ~what:(Printf.sprintf "garbage %S" input) input);
        true)

  let tests =
    [
      case (F.name ^ " round-trips") round_trip;
      case (F.name ^ " truncations") truncations;
      case (F.name ^ " byte flips") flips;
      case (F.name ^ " varint splices") splices;
      garbage;
    ]
end

(* ---- samples ---- *)

let gen_prog seed =
  let t = tgt () in
  let rng = Rng.create seed in
  Gen.generate rng t ~select:(fun ~sub:_ -> Rng.int rng (Target.n_syscalls t)) ()

(* Generated programs, plus a hand-written one with a reference, a
   pointer, a buffer and a vma. *)
let programs =
  lazy
    (let small =
       List.filter
         (fun p -> String.length (Serializer.encode p) <= 600)
         (List.init 40 gen_prog)
     in
     prog
       [
         call "memfd_create" [ ptr (s "memfd"); i 3L ];
         call "write" [ r 0; buf 64; iv 64 ];
         call "mmap" [ vma; iv 4096; i 1L; i 2L; r 0; i 0L ];
       ]
     :: List.filteri (fun k _ -> k < 4) small)

let golden_cfg =
  {
    S.Checkpoint.tool = Fuzzer.Healer;
    version = K.Version.V5_11;
    jobs = 2;
    base_seed = 5;
    epochs = 2;
    slice = 30.0;
  }

(* Shard 0's first epoch of the golden campaign. *)
let first_delta =
  lazy
    (S.Worker.run_epoch golden_cfg ~shard:0 ~epoch:0
       (S.Shard_state.of_target (tgt ())))

let record reproducer =
  {
    Triage.bug_key = "bug_a";
    risk = List.hd K.Risk.all;
    signature = "sig_a";
    first_found = 12.5;
    reproducer;
    repro_len = Prog.length reproducer;
  }

(* A small state with every component non-empty. *)
let synthetic =
  lazy
    (let n = Target.n_syscalls (tgt ()) in
     let relations = Relation_table.create n in
     List.iter
       (fun (a, b) -> ignore (Relation_table.set relations a b))
       [ (1, 2); (7, 300) ];
     let coverage = Bitset.create () in
     List.iter (Bitset.add coverage) [ 3; 200; 9000 ];
     let p = List.hd (Lazy.force programs) in
     {
       S.Shard_state.n_syscalls = n;
       relations;
       coverage;
       corpus = [ (Corpus.key p, p) ];
       crashes = [ record p ];
       execs = [ (0, 120); (1, 7) ];
     })

let states =
  lazy
    [
      S.Shard_state.of_target (tgt ());
      (Lazy.force first_delta).S.Shard_state.outcome;
      Lazy.force synthetic;
    ]

module Program = Laws (struct
  type t = Prog.t

  let name = "program"
  let samples = programs
  let encode = Serializer.encode
  let decode s = Serializer.decode (tgt ()) s
  let prefix_closed = false
  let bounded_alloc = true
end)

module Corpus_archive = Laws (struct
  type t = Prog.t list

  let name = "corpus"

  let samples =
    lazy [ []; List.filteri (fun k _ -> k < 3) (Lazy.force programs) ]

  let encode = Persist.corpus_to_string
  let decode s = Persist.corpus_of_string (tgt ()) s
  let prefix_closed = true
  let bounded_alloc = true
end)

module State = Laws (struct
  type t = S.Shard_state.t

  let name = "shard state"
  let samples = states
  let encode = S.Shard_state.to_string
  let decode s = S.Shard_state.of_string (tgt ()) s
  let prefix_closed = false
  let bounded_alloc = true
end)

module Delta = Laws (struct
  type t = S.Shard_state.delta

  let name = "shard delta"
  let samples = lazy [ Lazy.force first_delta ]
  let encode = S.Shard_state.delta_to_string
  let decode s = S.Shard_state.delta_of_string (tgt ()) s
  let prefix_closed = false
  let bounded_alloc = true
end)

module Epoch = Laws (struct
  type t = int * int * S.Shard_state.t

  let name = "epoch"
  let samples =
    lazy [ (0, 0, S.Shard_state.of_target (tgt ())); (5, 3, Lazy.force synthetic) ]

  let encode (epoch, version, d) =
    let b = Buffer.create 256 in
    S.Shard_state.put_epoch b ~epoch ~version (S.Shard_state.to_string d);
    Buffer.contents b

  let decode s = S.Shard_state.epoch_of_string (tgt ()) s
  let prefix_closed = false
  let bounded_alloc = true
end)

module Ckpt = Laws (struct
  type t = S.Checkpoint.t

  let name = "checkpoint"

  let samples =
    lazy
      (let empty = S.Shard_state.of_target (tgt ()) in
       let synthetic = Lazy.force synthetic in
       [
         S.Coordinator.initial golden_cfg;
         {
           S.Checkpoint.config = { golden_cfg with epochs = 4 };
           completed = 3;
           prev = synthetic;
           state =
             S.Shard_state.merge synthetic
               (Lazy.force first_delta).S.Shard_state.outcome;
         };
         {
           S.Checkpoint.config = golden_cfg;
           completed = 1;
           prev = empty;
           state = synthetic;
         };
       ])

  let encode = S.Checkpoint.to_string
  let decode s = S.Checkpoint.of_string (tgt ()) s
  let prefix_closed = false
  let bounded_alloc = true
end)

module Relations = Laws (struct
  type t = Relation_table.t

  let name = "relations"

  let samples =
    lazy
      (let n = Target.n_syscalls (tgt ()) in
       let t = Relation_table.create n in
       for k = 0 to 59 do
         ignore (Relation_table.set t (k * 5 mod n) (k * 37 mod n))
       done;
       [ Relation_table.create n; t ])

  let encode = Relation_table.serialize
  let decode = Relation_table.deserialize
  let prefix_closed = true
  let bounded_alloc = false
end)

(* ---- primitives ---- *)

let decode_all read s = Codec.decode ~format:"test" read s

let gen_fields =
  QCheck2.Gen.(
    tup6 (map abs int) ui64 ui64 (string_size (int_range 0 40)) ui64
      (small_list (map abs int)))

let put_fields b (n, u, sv, str, fbits, l) =
  Codec.put_uint b n;
  Codec.put_uvarint b u;
  Codec.put_svarint b sv;
  Codec.put_string b str;
  Codec.put_bytes b (Bytes.of_string str);
  Codec.put_float b (Int64.float_of_bits fbits);
  Codec.put_list Codec.put_uint b l

let get_fields r =
  let n = Codec.uint r in
  let u = Codec.uvarint r in
  let sv = Codec.svarint r in
  let str = Codec.string r in
  let bytes = Codec.bytes r in
  let fbits = Int64.bits_of_float (Codec.float r) in
  let l = Codec.list r Codec.uint in
  (n, u, sv, str, bytes, fbits, l)

let encode_fields f =
  let b = Buffer.create 64 in
  put_fields b f;
  Buffer.contents b

let primitive_props =
  [
    qcheck "primitives round-trip" gen_fields (fun ((n, u, sv, str, fbits, l) as f) ->
        decode_all get_fields (encode_fields f)
        = (n, u, sv, str, Bytes.of_string str, fbits, l));
    qcheck "every cut of a primitive encoding is rejected"
      QCheck2.Gen.(pair gen_fields small_nat)
      (fun (f, cut) ->
        let s = encode_fields f in
        let cut = cut mod String.length s in
        match decode_all get_fields (String.sub s 0 cut) with
        | _ -> false
        | exception Codec.Malformed { offset; _ } -> offset <= cut);
    qcheck "put_uint and put_svarint are put_uvarint's bytes"
      QCheck2.Gen.(pair (map abs int) ui64)
      (fun (n, v) ->
        let bytes put x =
          let b = Buffer.create 10 in
          put b x;
          Buffer.contents b
        in
        bytes Codec.put_uint n = uvarint (Int64.of_int n)
        && bytes Codec.put_svarint v
           = uvarint (Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)));
    qcheck "uint stops at max_int" QCheck2.Gen.ui64 (fun v ->
        match decode_all Codec.uint (uvarint v) with
        | n -> Int64.compare v 0L >= 0 && Int64.equal (Int64.of_int n) v
        | exception Codec.Malformed _ ->
          Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0);
    qcheck "counts and lengths never exceed what remains"
      QCheck2.Gen.(string_size (int_range 0 16))
      (fun s ->
        let r = Codec.reader ~format:"test" s in
        (match Codec.count r with
        | n -> n <= Codec.remaining r
        | exception Codec.Malformed _ -> true)
        &&
        match Codec.string (Codec.reader ~format:"test" s) with
        | v -> String.length v < String.length s
        | exception Codec.Malformed _ -> true);
  ]

let test_primitive_rows () =
  let b = Buffer.create 64 in
  List.iter (Codec.put_uint b) [ 0; 300; max_int ];
  List.iter (Codec.put_string b) [ ""; "hello \x00 world" ];
  List.iter (Codec.put_float b) [ 1.5; -0.0 ];
  let r = Codec.reader ~format:"test" (Buffer.contents b) in
  Alcotest.(check int) "zero" 0 (Codec.uint r);
  Alcotest.(check int) "multi-byte" 300 (Codec.uint r);
  Alcotest.(check int) "max_int" max_int (Codec.uint r);
  Alcotest.(check string) "empty string" "" (Codec.string r);
  Alcotest.(check string) "binary string" "hello \x00 world" (Codec.string r);
  Alcotest.(check (float 0.0)) "float" 1.5 (Codec.float r);
  Alcotest.(check int64) "negative zero" (Int64.bits_of_float (-0.0))
    (Int64.bits_of_float (Codec.float r));
  Alcotest.(check bool) "fully consumed" true (Codec.at_end r);
  match Codec.put_uint b (-1) with
  | () -> Alcotest.fail "put_uint accepted a negative int"
  | exception Invalid_argument _ -> ()

(* ---- rows: specific inputs ---- *)

let rejects ?offset ~format decode s =
  match decode s with
  | _ -> Alcotest.failf "%s accepted %S" format s
  | exception Codec.Malformed m ->
    Alcotest.(check string) (Printf.sprintf "format of %S" s) format m.format;
    Option.iter
      (fun o -> Alcotest.(check int) (Printf.sprintf "offset of %S" s) o m.offset)
      offset

let test_program_rows () =
  let reject ?offset s =
    rejects ?offset ~format:"program" (Serializer.decode (tgt ())) s
  in
  reject ~offset:0 "";
  reject ~offset:0 "XXXX";
  reject ~offset:4 "HLR1";
  let good = Serializer.encode (List.hd (Lazy.force programs)) in
  reject (String.sub good 0 (String.length good - 1));
  reject ~offset:(String.length good) (good ^ "\x00")

let test_corpus_rows () =
  let reject ?offset s =
    rejects ?offset ~format:"corpus" (Persist.corpus_of_string (tgt ())) s
  in
  reject ~offset:0 "";
  reject ~offset:0 "WRONG!\n";
  let good = Persist.corpus_to_string [ prog [ call "sync$ALL" [ i 0L; i 0L ] ] ] in
  reject ~offset:7 (String.sub good 0 (String.length good - 2))

let test_relations_rows () =
  let reject ?offset s =
    rejects ?offset ~format:"relations" Relation_table.deserialize s
  in
  reject ~offset:0 "";
  reject ~offset:0 "nonsense\n1 2\n";
  reject ~offset:19 "healer-relations 4\n9 1\n";
  reject ~offset:19 "healer-relations 4\n1 x\n";
  reject ~offset:19 "healer-relations 4\n1 2 trailing\n";
  reject ~offset:23 "healer-relations 4\n0 1\n1 2 trailing\n";
  reject ~offset:0 "healer-relations 99999999\n";
  reject ~offset:0 "healer-relations 4097\n";
  (* The cap bounds what a header alone can make the table allocate. *)
  let w0 = words () in
  let t = Relation_table.deserialize "healer-relations 4096\n" in
  let used = int_of_float (words () -. w0) * (Sys.word_size / 8) in
  Alcotest.(check int) "size" 4096 (Relation_table.size t);
  if used >= 2_500_000 then Alcotest.failf "a 4096 header allocated %d B" used;
  (* Loaders raise the same error. *)
  let path = Filename.temp_file "healer" ".rel" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.write_atomic ~path "nonsense\n1 2\n";
      rejects ~format:"relations" (fun path -> Persist.load_relations ~path) path)

let test_checkpoint_rows () =
  let s = S.Checkpoint.to_string (S.Coordinator.initial golden_cfg) in
  let reject ?offset s =
    rejects ?offset ~format:"checkpoint" (S.Checkpoint.of_string (tgt ())) s
  in
  (* Unknown future format versions are rejected, not misparsed. *)
  reject ~offset:6 (String.mapi (fun k c -> if k = 6 then '\255' else c) s);
  reject ~offset:(String.length s) (s ^ "x");
  (* More shards than the forked coordinator can select over. *)
  reject ~offset:19
    (S.Checkpoint.to_string
       (S.Coordinator.initial
          { golden_cfg with jobs = S.Checkpoint.max_jobs + 1 }));
  (* The old exception name still matches. *)
  match S.Checkpoint.of_string (tgt ()) "" with
  | _ -> Alcotest.fail "accepted an empty checkpoint"
  | exception S.Checkpoint.Malformed _ -> ()

(* Byte strings that escaped the decoders before the codec: lengths
   and ids whose varints are out of range as a whole, which a single
   byte flip of a valid encoding cannot produce. *)
let max_int_varint = "\xff\xff\xff\xff\xff\xff\xff\xff\x3f"

(* One call, one [Str] argument of length max_int, three bytes. *)
let program_20 = "HLR1\x01\x00\x01\x03" ^ max_int_varint ^ "abc"

(* 308 syscalls, no edges, the given delta-coded coverage ids, then
   empty corpus, crash and counter lists. *)
let state_with_coverage ids = "\xb4\x02\x00" ^ ids ^ "\x00\x00\x00"
let state_max_int = state_with_coverage ("\x02" ^ max_int_varint ^ max_int_varint)
let state_2p40 = state_with_coverage "\x01\x80\x80\x80\x80\x80\x20"
let corpus_28 = "HLRDB1\n\x14" ^ program_20

(* healer, 5.11, jobs/seed/epochs 1, slice 30.0, one completed epoch,
   the 2^40 state as both fronts. *)
let checkpoint_59 =
  "HLRCKP\x02\x06healer\x045.11\x01\x01\x01\x80\x80\x80\x80\x80\x80\x80\x9f\x40\x01\x0d"
  ^ state_2p40 ^ state_2p40

let test_regression_rows () =
  let t = tgt () in
  Alcotest.(check (list int)) "fixture sizes" [ 20; 28; 59 ]
    (List.map String.length [ program_20; corpus_28; checkpoint_59 ]);
  rejects ~format:"program" ~offset:8 (Serializer.decode t) program_20;
  rejects ~format:"shard state" ~offset:4 (S.Shard_state.of_string t) state_max_int;
  rejects ~format:"shard state" ~offset:4 (S.Shard_state.of_string t) state_2p40;
  rejects ~format:"corpus" ~offset:16 (Persist.corpus_of_string t) corpus_28;
  rejects ~format:"checkpoint" ~offset:37 (S.Checkpoint.of_string t) checkpoint_59;
  (* The CLI gate in bin/dune feeds these same bytes to healer. *)
  Alcotest.(check string) "committed archive" corpus_28
    (Persist.read_file "fixtures/str-max-int.db");
  Alcotest.(check string) "committed checkpoint" checkpoint_59
    (Persist.read_file "fixtures/coverage-2p40.ckpt")

(* ---- goldens: every format keeps its bytes ---- *)

let md5 s = Digest.to_hex (Digest.string s)

let test_goldens () =
  let d = S.Shard_state.delta_to_string (Lazy.force first_delta) in
  Alcotest.(check (pair int string)) "epoch-0 delta"
    (796, "2c9f6ee4fb965f8d6207e5263883dd37")
    (String.length d, md5 d);
  let ck =
    (S.Coordinator.run ~forked:false (S.Coordinator.initial golden_cfg))
      .S.Coordinator.final
  in
  Alcotest.(check string) "final state digest" "1fce883327e3b64a63d56f9760dbabbf"
    (S.Shard_state.digest ck.S.Checkpoint.state);
  let c = S.Checkpoint.to_string ck in
  Alcotest.(check (pair int string)) "checkpoint"
    (1542, "732a04f6c620249ff6c72706bccb7fc3")
    (String.length c, md5 c);
  let f =
    Fuzzer.create (Fuzzer.config ~seed:8 ~tool:Fuzzer.Healer ~version:K.Version.V5_11 ())
  in
  Fuzzer.run_until f 1200.0;
  let progs = ref [] in
  Corpus.iter (fun p -> progs := p :: !progs) (Fuzzer.corpus f);
  let a = Persist.corpus_to_string (List.rev !progs) in
  Alcotest.(check (pair int string)) "corpus archive"
    (80006, "b93e6740beaebc6a7bf685743eb8f8e5")
    (String.length a, md5 a);
  let rel = Relation_table.serialize (Option.get (Fuzzer.relations f)) in
  Alcotest.(check (pair int string)) "relations file"
    (1581, "dd5c1dfd992516c84f9b51e82d96bb82")
    (String.length rel, md5 rel)

let suite =
  Program.tests @ Corpus_archive.tests @ State.tests @ Delta.tests @ Epoch.tests
  @ Ckpt.tests @ Relations.tests @ primitive_props
  @ [
      case "primitive rows" test_primitive_rows;
      case "program rows" test_program_rows;
      case "corpus rows" test_corpus_rows;
      case "relations rows" test_relations_rows;
      case "checkpoint rows" test_checkpoint_rows;
      case "regression rows" test_regression_rows;
      case "golden encodings" test_goldens;
    ]
