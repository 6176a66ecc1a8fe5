type t = {
  n : int;
  bits : Bytes.t;  (* row-major n*n bit matrix *)
  succ : int list array;  (* adjacency: successors of each row *)
  pred : int list array;
  mutable relations : int;
}

let create n =
  if n <= 0 then invalid_arg "Relation_table.create: size must be positive";
  {
    n;
    bits = Bytes.make ((n * n / 8) + 1) '\000';
    succ = Array.make n [];
    pred = Array.make n [];
    relations = 0;
  }

let size t = t.n

let check t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg "Relation_table: index out of range"

let get t i j =
  check t i j;
  let idx = (i * t.n) + j in
  Char.code (Bytes.get t.bits (idx / 8)) land (1 lsl (idx mod 8)) <> 0

let set t i j =
  check t i j;
  if i = j then false
  else if get t i j then false
  else begin
    let idx = (i * t.n) + j in
    let byte = idx / 8 and bit = 1 lsl (idx mod 8) in
    Bytes.set t.bits byte (Char.chr (Char.code (Bytes.get t.bits byte) lor bit));
    t.succ.(i) <- j :: t.succ.(i);
    t.pred.(j) <- i :: t.pred.(j);
    t.relations <- t.relations + 1;
    true
  end

let count t = t.relations

let influenced_by t i =
  check t i 0;
  t.succ.(i)

let influencers_of t j =
  check t j 0;
  t.pred.(j)

let edges t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    List.iter (fun j -> acc := (i, j) :: !acc) (List.sort Int.compare t.succ.(i))
  done;
  !acc

let copy t =
  {
    n = t.n;
    bits = Bytes.copy t.bits;
    succ = Array.copy t.succ;
    pred = Array.copy t.pred;
    relations = t.relations;
  }

let merge_into ~dst src =
  if dst.n <> src.n then invalid_arg "Relation_table.merge_into: size mismatch";
  let fresh = ref 0 in
  Array.iteri
    (fun i js -> List.iter (fun j -> if set dst i j then incr fresh) js)
    src.succ;
  !fresh

let merge a b =
  let t = copy a in
  ignore (merge_into ~dst:t b);
  t

let iter_new ~base f t =
  if base.n <> t.n then invalid_arg "Relation_table.iter_new: size mismatch";
  Array.iteri
    (fun i js -> List.iter (fun j -> if not (get base i j) then f i j) js)
    t.succ

let out_degree t i =
  check t i 0;
  List.length t.succ.(i)

let serialize t =
  let buf = Buffer.create (16 * t.relations) in
  Buffer.add_string buf (Printf.sprintf "healer-relations %d\n" t.n);
  List.iter
    (fun (i, j) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" i j))
    (edges t);
  Buffer.contents buf

(* Relation files can arrive truncated or corrupt (a crash mid-write,
   a bad copy): every malformed shape raises {!Codec.Malformed} with
   the offset of the bad line, never a [Scanf] or allocation failure.
   The size cap bounds what a hostile header can make [create]
   allocate (n²/8 bytes: 2 MB at the cap). It covers the paper's
   Syzkaller description set of 3 579 calls. *)
let max_size = 4096

let deserialize s =
  let fail offset reason =
    raise (Healer_util.Codec.Malformed { format = "relations"; offset; reason })
  in
  match String.split_on_char '\n' s with
  | [] -> assert false (* split_on_char never returns [] *)
  | header :: lines ->
    let n =
      match Scanf.sscanf_opt header "healer-relations %d" Fun.id with
      | None -> fail 0 "bad header (expected 'healer-relations <n>')"
      | Some n when n <= 0 || n > max_size ->
        fail 0 (Printf.sprintf "implausible table size %d" n)
      | Some n -> n
    in
    let t = create n in
    let pair offset line =
      (if String.trim line <> "" then
         match Scanf.sscanf_opt line " %d %d %s" (fun i j rest -> (i, j, rest)) with
         | Some (i, j, "") when i >= 0 && i < n && j >= 0 && j < n -> ignore (set t i j)
         | Some (i, j, "") ->
           fail offset (Printf.sprintf "pair (%d, %d) out of range for size %d" i j n)
         | Some _ | None -> fail offset (Printf.sprintf "bad pair line %S" line));
      offset + String.length line + 1
    in
    ignore (List.fold_left pair (String.length header + 1) lines);
    t

let pp_stats ppf t =
  let nonzero = Array.fold_left (fun acc l -> if l = [] then acc else acc + 1) 0 t.succ in
  Fmt.pf ppf "%d relations over %d calls (%d with successors)" t.relations t.n
    nonzero
