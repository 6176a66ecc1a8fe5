module Rng = Healer_util.Rng
module Prog = Healer_executor.Prog
module Serializer = Healer_executor.Serializer
module Progcheck = Healer_executor.Progcheck

(* Dedup on a 16-byte digest of the canonical encoding instead of
   retaining the whole encoded string. Each entry keeps its key (the
   string the dedup table holds), so readers never re-encode. *)
type entry = { prog : Prog.t; key : string; weight : int }

let key p = Digest.string (Serializer.encode p)

type t = {
  target : Healer_syzlang.Target.t;
  mutable entries : entry array;
  mutable count : int;
  keys : (string, unit) Hashtbl.t;
}

let create target =
  { target; entries = Array.make 64 { prog = Prog.empty; key = ""; weight = 0 }; count = 0;
    keys = Hashtbl.create 256 }

let grow t =
  if t.count = Array.length t.entries then begin
    let bigger = Array.make (2 * Array.length t.entries) t.entries.(0) in
    Array.blit t.entries 0 bigger 0 t.count;
    t.entries <- bigger
  end

let add ?key:known t prog ~new_blocks =
  if Prog.length prog = 0 then false
  else begin
    let key =
      match known with
      | None -> key prog
      | Some k ->
        if Progcheck.debug_enabled () && not (String.equal k (key prog)) then
          invalid_arg "Corpus.add: the key is not the program's";
        k
    in
    if Hashtbl.mem t.keys key then false
    else begin
      Hashtbl.add t.keys key ();
      grow t;
      t.entries.(t.count) <- { prog; key; weight = max 1 new_blocks };
      t.count <- t.count + 1;
      true
    end
  end

let size t = t.count
let is_empty t = t.count = 0

let merge_into ~dst src =
  let fresh = ref 0 in
  for i = 0 to src.count - 1 do
    let e = src.entries.(i) in
    if add ~key:e.key dst e.prog ~new_blocks:e.weight then incr fresh
  done;
  !fresh

let pick rng t =
  if t.count = 0 then None
  else begin
    (* Weighted pick over a bounded random sample keeps selection O(k)
       even for large corpora, like Syzkaller's prio-weighted choice. *)
    let k = min t.count 16 in
    let best = ref t.entries.(Rng.int rng t.count) in
    for _ = 2 to k do
      let cand = t.entries.(Rng.int rng t.count) in
      let total = !best.weight + cand.weight in
      if total > 0 && Rng.int rng total < cand.weight then best := cand
    done;
    Some !best.prog
  end

let lengths t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (Prog.length t.entries.(i).prog :: acc)
  in
  go (t.count - 1) []

let length_histogram t =
  Healer_util.Statx.histogram ~buckets:[ 1; 2; 3; 4 ] (lengths t)

let frac_len_at_least t n =
  if t.count = 0 then 0.0
  else begin
    let hits = ref 0 in
    for i = 0 to t.count - 1 do
      if Prog.length t.entries.(i).prog >= n then incr hits
    done;
    float_of_int !hits /. float_of_int t.count
  end

let iter f t =
  for i = 0 to t.count - 1 do
    f t.entries.(i).prog
  done

let iter_keyed f t =
  for i = 0 to t.count - 1 do
    let e = t.entries.(i) in
    f e.key e.prog
  done
