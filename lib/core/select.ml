module Rng = Healer_util.Rng

type outcome = { id : int; used_table : bool }

let random_call rng table =
  { id = Rng.int rng (Relation_table.size table); used_table = false }

(* Guided picks run once per generated call: a per-domain scratch
   counter over syscall ids replaces the old per-pick Hashtbl + sorted
   assoc list (domain-local because campaigns run in parallel). [lo]
   and [hi] bound the ids the current pick touched, so the walk and
   the clearing cover only that range instead of every id. *)
type scratch = {
  mutable counts : int array;
  mutable total : int;
  mutable lo : int;
  mutable hi : int;
}

let scratch : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { counts = [||]; total = 0; lo = 0; hi = -1 })

(* Plain recursion over the rows, so counting allocates nothing. *)
let rec count_row s = function
  | [] -> ()
  | cj :: rest ->
    s.counts.(cj) <- s.counts.(cj) + 1;
    s.total <- s.total + 1;
    if cj < s.lo then s.lo <- cj;
    if cj > s.hi then s.hi <- cj;
    count_row s rest

let rec count_sub s table = function
  | [] -> ()
  | ci :: rest ->
    count_row s (Relation_table.influenced_by table ci);
    count_sub s table rest

let select rng table ~alpha ~sub =
  if Rng.float rng 1.0 > alpha then random_call rng table
  else begin
    let n = Relation_table.size table in
    let s = Domain.DLS.get scratch in
    if Array.length s.counts < n then s.counts <- Array.make n 0;
    s.total <- 0;
    s.lo <- n;
    s.hi <- -1;
    count_sub s table sub;
    if s.total = 0 then random_call rng table
    else begin
      (* One draw, walked in ascending id order — the exact sequence
         the old sorted-assoc [Rng.weighted] consumed, so guided picks
         are bit-identical. *)
      let counts = s.counts in
      let target = Rng.int rng s.total in
      let id = ref (-1) in
      let acc = ref 0 in
      let j = ref s.lo in
      while !id < 0 do
        (if counts.(!j) > 0 then begin
           acc := !acc + counts.(!j);
           if target < !acc then id := !j
         end);
        incr j
      done;
      Array.fill counts s.lo (s.hi - s.lo + 1) 0;
      { id = !id; used_table = true }
    end
  end

let scratch_is_clear () = Array.for_all (fun c -> c = 0) (Domain.DLS.get scratch).counts
