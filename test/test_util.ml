module Rng = Healer_util.Rng
module Bitset = Healer_util.Bitset
module Statx = Healer_util.Statx
module Vclock = Healer_util.Vclock
module Serializer = Healer_executor.Serializer
open Helpers

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.bits64 a) in
  let ys = List.init 32 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_int_range =
  qcheck "Rng.int in range" QCheck2.Gen.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_int_in =
  qcheck "Rng.int_in inclusive"
    QCheck2.Gen.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let hi = lo + span in
      let rng = Rng.create seed in
      let v = Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let test_rng_weighted () =
  let rng = Rng.create 5 in
  (* Zero-weight choices must never be picked. *)
  for _ = 1 to 200 do
    let x = Rng.weighted rng [ ("a", 0); ("b", 3); ("c", 0) ] in
    Alcotest.(check string) "only positive weight" "b" x
  done

let test_rng_weighted_bias () =
  let rng = Rng.create 5 in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Rng.weighted rng [ (true, 9); (false, 1) ] then incr hits
  done;
  Alcotest.(check bool) "9:1 bias respected" true (!hits > 780 && !hits < 980)

let test_rng_shuffle_permutation =
  qcheck "shuffle is a permutation" QCheck2.Gen.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let a = Array.of_list xs in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let test_rng_sample () =
  let rng = Rng.create 9 in
  let xs = List.init 20 (fun i -> i) in
  let s = Rng.sample rng 5 xs in
  Alcotest.(check int) "sample size" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s))

let test_rng_chance_extremes () =
  let rng = Rng.create 1 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)

(* ---- Blob: seeded ranges of the Rng byte stream ---- *)

(* The per-byte draws a generated blob stands for, kept as its oracle. *)
let per_byte_draws rng n = Bytes.init n (fun _ -> Char.chr (Rng.int rng 256))

let test_blob_generate_oracle =
  qcheck ~count:100 "blob generate matches per-byte draws"
    QCheck2.Gen.(pair int (int_range 0 20_000))
    (fun (seed, n) ->
      let a = Rng.create seed in
      let b = Rng.copy a in
      let blob = Blob.generate a n in
      Bytes.equal (Blob.to_bytes blob) (per_byte_draws b n)
      && Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let both_forms seed n =
  let seeded = Blob.generate (Rng.create seed) n in
  (seeded, Blob.of_bytes (Blob.to_bytes seeded))

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_blob_get =
  qcheck ~count:100 "blob get agrees with to_bytes"
    QCheck2.Gen.(pair int (int_range 0 5_000))
    (fun (seed, n) ->
      let seeded, plain = both_forms seed n in
      let bytes = Blob.to_bytes seeded in
      let rec agree i =
        i = n
        || Char.equal (Blob.get seeded i) (Bytes.get bytes i)
           && Char.equal (Blob.get plain i) (Bytes.get bytes i)
           && agree (i + 1)
      in
      Blob.length seeded = n && agree 0
      && List.for_all
           (fun b -> raises_invalid (fun () -> Blob.get b n) && raises_invalid (fun () -> Blob.get b (-1)))
           [ seeded; plain ])

let test_blob_equal =
  qcheck ~count:100 "blob equal holds across forms"
    QCheck2.Gen.(pair int (int_range 16 5_000))
    (fun (seed, n) ->
      let seeded, plain = both_forms seed n in
      let flipped = Blob.to_bytes seeded in
      Bytes.set flipped (n / 2) (Char.chr (Char.code (Bytes.get flipped (n / 2)) lxor 1));
      let k = n / 3 in
      Blob.equal seeded plain && Blob.equal plain seeded && Blob.equal seeded seeded
      && (not (Blob.equal seeded (Blob.of_bytes flipped)))
      && (not (Blob.equal seeded (Blob.prefix plain (n - 1))))
      && (not (Blob.equal seeded (snd (both_forms (seed + 1) n))))
      && Blob.equal (Blob.prefix seeded k) (Blob.prefix plain k)
      && Blob.equal (Blob.prefix seeded k) (Blob.of_bytes (Bytes.sub (Blob.to_bytes seeded) 0 k)))

(* Generating is O(1) whatever the length: the same words for 0 bytes
   as for 1 MiB, none of them on the major heap. Filling 16 KiB into an
   existing buffer allocates nothing either. *)
let test_blob_generate_alloc () =
  let rng = Rng.create 1 in
  let cost n =
    let before = words () in
    let b = Blob.generate rng n in
    let w = words () -. before in
    ignore (Sys.opaque_identity b);
    w
  in
  ignore (cost 0);
  let empty = cost 0 in
  List.iter
    (fun n ->
      let w = cost n in
      if w > empty || w >= 64.0 then
        Alcotest.failf "generating %d bytes allocated %.0f words (0 bytes: %.0f)" n w empty)
    [ 1; 4096; 16384; 1 lsl 20 ];
  let b = Blob.generate rng 16384 and dst = Bytes.create 16384 in
  Blob.blit b dst 0;
  let before = words () in
  Blob.blit b dst 0;
  let w = words () -. before in
  if w >= 64.0 then Alcotest.failf "filling 16 KiB allocated %.0f words (bound: 64)" w

let test_blob_serializer_roundtrip =
  qcheck ~count:50 "generated buffers round-trip the serializer"
    QCheck2.Gen.(pair small_int (int_range 0 20_000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let select ~sub:_ = Rng.int rng (Target.n_syscalls (tgt ())) in
      let g = Healer_core.Gen.generate rng (tgt ()) ~select () in
      let k = Prog.length g in
      let p =
        prog
          (Array.to_list g.Prog.calls
          @ [ call "memfd_create" [ ptr (s "memfd"); i 0L ];
              call "write" [ r k; Value.Buf (Blob.generate rng n); iv n ] ])
      in
      let encoded = Serializer.encode p in
      let q = Serializer.decode (tgt ()) encoded in
      String.equal (Serializer.encode q) encoded
      && Prog.length q = Prog.length p
      && Array.for_all2
           (fun (a : Prog.call) (b : Prog.call) -> List.equal Value.equal a.Prog.args b.Prog.args)
           p.Prog.calls q.Prog.calls)

let test_bitset_basic () =
  let b = Bitset.create () in
  Alcotest.(check int) "empty" 0 (Bitset.count b);
  Bitset.add b 3;
  Bitset.add b 3;
  Bitset.add b 100000;
  Alcotest.(check int) "dedup count" 2 (Bitset.count b);
  Alcotest.(check bool) "mem 3" true (Bitset.mem b 3);
  Alcotest.(check bool) "mem 4" false (Bitset.mem b 4);
  Alcotest.(check (list int)) "elements sorted" [ 3; 100000 ] (Bitset.elements b)

let test_bitset_add_seq () =
  let b = Bitset.create () in
  let fresh = Bitset.add_seq b [ 1; 2; 2; 3 ] in
  Alcotest.(check int) "fresh" 3 fresh;
  Alcotest.(check int) "second add" 1 (Bitset.add_seq b [ 3; 4 ])

let test_bitset_new_of () =
  let b = Bitset.create () in
  ignore (Bitset.add_seq b [ 1; 2 ]);
  Alcotest.(check (list int)) "new only" [ 3 ] (Bitset.new_of b [ 1; 3; 3; 2 ]);
  Alcotest.(check bool) "no mutation" false (Bitset.mem b 3);
  (* The mark/unmark implementation must restore cardinality and cope
     with ids past the current capacity. *)
  Alcotest.(check int) "count restored" 2 (Bitset.count b);
  Alcotest.(check (list int)) "order kept, growth ok" [ 9000; 4; 8999 ]
    (Bitset.new_of b [ 9000; 4; 9000; 2; 8999 ]);
  Alcotest.(check int) "count still restored" 2 (Bitset.count b)

let test_bitset_union_copy_clear () =
  let a = Bitset.create () and b = Bitset.create () in
  ignore (Bitset.add_seq a [ 1; 5 ]);
  ignore (Bitset.add_seq b [ 5; 9 ]);
  Bitset.union_into ~dst:a b;
  Alcotest.(check (list int)) "union" [ 1; 5; 9 ] (Bitset.elements a);
  let c = Bitset.copy a in
  Bitset.clear a;
  Alcotest.(check int) "cleared" 0 (Bitset.count a);
  Alcotest.(check int) "copy unaffected" 3 (Bitset.count c)

let test_bitset_vs_reference =
  qcheck "bitset matches a set reference"
    QCheck2.Gen.(list (int_range 0 500))
    (fun xs ->
      let b = Bitset.create () in
      List.iter (Bitset.add b) xs;
      let reference = List.sort_uniq compare xs in
      Bitset.count b = List.length reference
      && Bitset.elements b = reference)

let test_statx () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Statx.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Statx.mean []);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Statx.minimum [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Statx.maximum [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "pct" 50.0 (Statx.pct 100.0 150.0);
  Alcotest.(check (float 1e-6)) "stddev" 0.0 (Statx.stddev [ 5.0; 5.0 ])

let test_statx_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Statx.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Statx.percentile 100.0 xs)

let test_statx_histogram () =
  let h = Statx.histogram ~buckets:[ 1; 2; 3; 4 ] [ 1; 1; 2; 4; 7; 9 ] in
  Alcotest.(check (list (pair string int)))
    "histogram"
    [ ("1", 2); ("2", 1); ("3", 0); ("4", 1); ("5+", 2) ]
    h

let test_vclock () =
  let c = Vclock.create () in
  Alcotest.(check (float 1e-9)) "starts at zero" 0.0 (Vclock.now c);
  Vclock.advance c 1.5;
  Vclock.advance c 2.5;
  Alcotest.(check (float 1e-9)) "accumulates" 4.0 (Vclock.now c);
  Alcotest.(check (float 1e-9)) "hours" 7200.0 (Vclock.hours 2.0);
  Alcotest.check_raises "negative dt rejected"
    (Invalid_argument "Vclock.advance: negative dt") (fun () ->
      Vclock.advance c (-1.0))

let test_asciichart_shape () =
  let chart =
    Healer_util.Asciichart.render ~width:20 ~height:5
      ~series:[ ("a", [| 0.0; 5.0; 10.0 |]); ("b", [| 1.0; 1.0; 1.0 |]) ]
      ()
  in
  let lines = String.split_on_char '\n' chart in
  (* 5 grid rows + axis + legend + trailing empty *)
  Alcotest.(check int) "line count" 8 (List.length lines);
  Alcotest.(check bool) "max label" true
    (String.length (List.hd lines) > 0
    && String.trim (List.hd lines) <> ""
    && String.contains (List.hd lines) '1');
  Alcotest.(check bool) "legend names both series" true
    (let legend = List.nth lines 6 in
     let has sub =
       let n = String.length legend and m = String.length sub in
       let rec go i = i + m <= n && (String.sub legend i m = sub || go (i + 1)) in
       go 0
     in
     has "a" && has "b")

let test_asciichart_errors () =
  let reject f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "should reject"
  in
  reject (fun () -> Healer_util.Asciichart.render ~series:[] ());
  reject (fun () -> Healer_util.Asciichart.render ~series:[ ("a", [||]) ] ())

let suite =
  [
    case "rng deterministic" test_rng_deterministic;
    case "rng seed sensitivity" test_rng_seed_sensitivity;
    case "rng copy" test_rng_copy;
    case "rng split independent" test_rng_split_independent;
    test_rng_int_range;
    test_rng_int_in;
    case "rng weighted zero" test_rng_weighted;
    case "rng weighted bias" test_rng_weighted_bias;
    test_rng_shuffle_permutation;
    case "rng sample" test_rng_sample;
    case "rng chance extremes" test_rng_chance_extremes;
    test_blob_generate_oracle;
    test_blob_get;
    test_blob_equal;
    case "blob generate allocation" test_blob_generate_alloc;
    test_blob_serializer_roundtrip;
    case "bitset basic" test_bitset_basic;
    case "bitset add_seq" test_bitset_add_seq;
    case "bitset new_of" test_bitset_new_of;
    case "bitset union/copy/clear" test_bitset_union_copy_clear;
    test_bitset_vs_reference;
    case "statx basics" test_statx;
    case "statx percentile" test_statx_percentile;
    case "statx histogram" test_statx_histogram;
    case "vclock" test_vclock;
    case "asciichart shape" test_asciichart_shape;
    case "asciichart errors" test_asciichart_errors;
  ]
