module K = Healer_kernel
module Syscall = Healer_syzlang.Syscall

(* A compiled call: the argument skeleton is the fully-resolved
   [K.Arg.t] tree the handler consumes, allocated once at compile
   time. Every [Res_ref] in the source lowers to a mutable
   [K.Arg.Slot] cell recorded in [slots]; [producers.(j)] is the index
   of the call whose result fills [slots.(j)]. A reference to a call
   that never ran or failed patches to the invalid resource value
   (-1), how a real executor passes along a failed resource. Patching
   before each execution is two array reads and a field store per
   reference: zero allocation. *)
type ccall = {
  syscall : Syscall.t;
  prep : K.Kernel.prepared;  (* handler + subsystem, resolved once *)
  args : K.Arg.t list;  (* skeleton, shared by every run *)
  slots : K.Arg.slot array;  (* patch points, source traversal order *)
  producers : int array;  (* producer call index per slot; -1 = none *)
}

type t = {
  prog : Prog.t;  (* the source program, kept in lockstep *)
  calls : ccall array;
  (* Per-run scratch: the resource value produced by each call
     (retval on success, -1 otherwise), reset before every run. Owned
     by this form — forms assembled by [of_calls] share [ccall]s but
     never scratch. *)
  resvals : int64 array;
}

let invalid = -1L

let prog t = t.prog
let length t = Array.length t.calls

let call t i =
  if i < 0 || i >= Array.length t.calls then
    invalid_arg (Printf.sprintf "Compiled.call: index %d out of range" i);
  t.calls.(i)

(* Pointer payloads keep their [Rec]-wrapping shape, and a [Res_ref]
   under a [Ptr] lowers to [Rec [Slot]] — read through the [K.Arg]
   accessors exactly like [Rec [Int]]. The test suite's reference
   interpreter resolves values independently, and the
   HEALER_DEBUG_VALIDATE oracle enforces that the two agree. *)
let rec lower patches (v : Value.t) : K.Arg.t =
  match v with
  | Value.Int x -> K.Arg.Int x
  | Value.Res_special x -> K.Arg.Int x
  | Value.Res_ref i ->
    let s = K.Arg.slot invalid in
    patches := (s, i) :: !patches;
    K.Arg.Slot s
  | Value.Str s -> K.Arg.Str s
  | Value.Buf b -> K.Arg.Buf b
  | Value.Group vs -> K.Arg.Rec (List.map (lower patches) vs)
  | Value.Ptr inner -> (
    match lower patches inner with
    | K.Arg.Rec _ as r -> r
    | K.Arg.Str _ as s -> s
    | K.Arg.Buf _ as b -> b
    | K.Arg.Int _ as x -> K.Arg.Rec [ x ]
    | K.Arg.Slot _ as s -> K.Arg.Rec [ s ]
    | K.Arg.Nothing -> K.Arg.Nothing)
  | Value.Null -> K.Arg.Nothing
  | Value.Vma a -> K.Arg.Int a

let compile_call (c : Prog.call) =
  let patches = ref [] in
  let args = List.map (lower patches) c.Prog.args in
  let ps = List.rev !patches in
  {
    syscall = c.Prog.syscall;
    prep = K.Kernel.prepare c.Prog.syscall;
    args;
    slots = Array.of_list (List.map fst ps);
    producers = Array.of_list (List.map snd ps);
  }

let of_calls prog calls =
  if Array.length calls <> Prog.length prog then
    invalid_arg "Compiled.of_calls: call count mismatch";
  { prog; calls; resvals = Array.make (Array.length calls) invalid }

let compile (p : Prog.t) =
  of_calls p (Array.init (Prog.length p) (fun i -> compile_call (Prog.call p i)))

(* ---- run-time patching ---- *)

let reset_resvals t = Array.fill t.resvals 0 (Array.length t.resvals) invalid
let set_resval t i v = t.resvals.(i) <- v

let patch t i =
  let c = Array.unsafe_get t.calls i in
  let slots = c.slots and producers = c.producers in
  let resvals = t.resvals in
  let nr = Array.length resvals in
  for j = 0 to Array.length producers - 1 do
    let p = Array.unsafe_get producers j in
    (Array.unsafe_get slots j).K.Arg.sv <-
      (if p >= 0 && p < nr then Array.unsafe_get resvals p else invalid)
  done
