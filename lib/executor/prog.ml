module Syscall = Healer_syzlang.Syscall

type call = { syscall : Syscall.t; args : Value.t list }
type t = { calls : call array }

let of_list calls = { calls = Array.of_list calls }
let length p = Array.length p.calls

let call p i =
  if i < 0 || i >= Array.length p.calls then
    invalid_arg (Printf.sprintf "Prog.call: index %d out of range" i);
  p.calls.(i)

let empty = { calls = [||] }

let append p c =
  let n = Array.length p.calls in
  let calls = Array.make (n + 1) c in
  Array.blit p.calls 0 calls 0 n;
  { calls }

let map_call_refs f c =
  let args' = Value.map_shared (Value.map_refs f) c.args in
  if args' == c.args then c else { c with args = args' }

(* remove/insert build the edited call array in one allocation;
   [map_call_refs] keeps untouched calls physically shared with the
   source program, which lets any per-call memoization keyed by [==]
   reuse work across edits. *)
let remove p i =
  if i < 0 || i >= length p then invalid_arg "Prog.remove: index out of range";
  let fix j =
    if j = i then Some (Value.Res_special (-1L))
    else if j > i then Some (Value.Res_ref (j - 1))
    else None
  in
  let n = Array.length p.calls in
  {
    calls =
      Array.init (n - 1) (fun k ->
          if k < i then p.calls.(k) else map_call_refs fix p.calls.(k + 1));
  }

let insert p i c =
  if i < 0 || i > length p then invalid_arg "Prog.insert: index out of range";
  let fix j = if j >= i then Some (Value.Res_ref (j + 1)) else None in
  let n = Array.length p.calls in
  {
    calls =
      Array.init (n + 1) (fun k ->
          if k < i then p.calls.(k)
          else if k = i then c
          else map_call_refs fix p.calls.(k - 1));
  }

let sub p n =
  if n < 0 || n > length p then invalid_arg "Prog.sub: bad length";
  { calls = Array.sub p.calls 0 n }

let refs_of_call c =
  List.sort_uniq Int.compare (List.concat_map Value.refs c.args)

let well_formed p =
  let n = Array.length p.calls in
  let rec go k =
    k >= n
    || (List.for_all (Value.refs_below k) p.calls.(k).args && go (k + 1))
  in
  go 0

let uses_result_of p i =
  let n = Array.length p.calls in
  let rec go k =
    k < n && (List.exists (Value.mem_ref i) p.calls.(k).args || go (k + 1))
  in
  go (i + 1)

(* Growable program under construction: generation and mutation build
   programs by repeated insertion, which on immutable [t] costs a full
   copy per producer call. The builder amortizes that — one mutable
   array with doubling growth, converted to a program once at the
   end. *)
module Builder = struct
  type prog = t
  type t = { mutable arr : call array; mutable len : int }

  let create () = { arr = [||]; len = 0 }
  let of_prog (p : prog) = { arr = Array.copy p.calls; len = Array.length p.calls }
  let length b = b.len

  let call b i =
    if i < 0 || i >= b.len then
      invalid_arg (Printf.sprintf "Prog.Builder.call: index %d out of range" i);
    b.arr.(i)

  let push b c =
    let cap = Array.length b.arr in
    if b.len = cap then begin
      let arr = Array.make (max 8 (2 * cap)) c in
      Array.blit b.arr 0 arr 0 b.len;
      b.arr <- arr
    end;
    b.arr.(b.len) <- c;
    b.len <- b.len + 1

  (* Same semantics as {!insert} (shift up, renumber references), in
     place. *)
  let insert b i c =
    if i < 0 || i > b.len then
      invalid_arg "Prog.Builder.insert: index out of range";
    let fix j = if j >= i then Some (Value.Res_ref (j + 1)) else None in
    push b c;
    for k = b.len - 1 downto i + 1 do
      b.arr.(k) <- map_call_refs fix b.arr.(k - 1)
    done;
    b.arr.(i) <- c

  let to_prog b = { calls = Array.sub b.arr 0 b.len }
end

let pp ppf p =
  Array.iteri
    (fun i c ->
      if i > 0 then Fmt.cut ppf ();
      let produces = c.syscall.Syscall.ret <> None in
      if produces then Fmt.pf ppf "r%d = " i;
      Fmt.pf ppf "%s(%a)" c.syscall.Syscall.name
        Fmt.(list ~sep:(any ", ") Value.pp)
        c.args)
    p.calls

let to_string p = Fmt.str "@[<v>%a@]" pp p
