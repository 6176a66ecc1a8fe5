type fd_kind = ..
type fd_kind += Dead

type fd_entry = {
  fd : int;
  mutable kind : fd_kind;
  mutable refs : int;
  mutable closed : bool;
}

(* A subsystem slot: a dense index into every state's slot array, a
   type witness that lets [get] recover the value's type without [Obj],
   and the pure constructor and deep copy the slot was registered
   with. *)
type 'a slot = {
  index : int;
  name : string;
  id : 'a Type.Id.t;
  create : unit -> 'a;
  copy : 'a -> 'a;
}

type any_slot = Any : 'a slot -> any_slot
type binding = Unset | Set : 'a Type.Id.t * 'a -> binding

(* Every registered slot, in registration order (= index order).
   Filled at module-init time by the subsystems; read-only after. *)
let registry : any_slot array ref = ref [||]

let slot ~name ~create ~copy =
  if Array.exists (fun (Any s) -> String.equal s.name name) !registry then
    invalid_arg ("State.slot: duplicate slot " ^ name);
  let s =
    { index = Array.length !registry; name; id = Type.Id.make (); create; copy }
  in
  registry := Array.append !registry [| Any s |];
  s

type t = {
  kversion : Version.t;
  mutable next_fd : int;
  fds : (int, fd_entry) Hashtbl.t;
  mutable ops : int;
  (* Indexed by [slot.index]; empty until the first install, then
     sized to the registry, so a boot allocates no slot storage. *)
  mutable slots : binding array;
  counters : (string, int) Hashtbl.t;
  (* Lock-acquisition counters, indexed by [Lock]'s dense counter
     slots. A plain int array keeps the per-acquire hook at an array
     increment; grown on demand. *)
  mutable lock_counts : int array;
  (* Effect-access counters (one read + one write counter per [Effect]
     slot, same dense-array scheme) and, under debug validation, the
     current call's observed access trace (encoded [slot*2 + is_write],
     innermost-last). *)
  mutable eff_reads : int array;
  mutable eff_writes : int array;
  mutable eff_trace : int list;
}

let create ~version =
  {
    kversion = version;
    next_fd = 3;
    fds = Hashtbl.create 16;
    ops = 0;
    slots = [||];
    counters = Hashtbl.create 16;
    lock_counts = [||];
    eff_reads = [||];
    eff_writes = [||];
    eff_trace = [];
  }

let version t = t.kversion

let tick t =
  t.ops <- t.ops + 1;
  t.ops

let now t = t.ops

let alloc_fd t kind =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  let entry = { fd; kind; refs = 1; closed = false } in
  Hashtbl.replace t.fds fd entry;
  entry

let lookup_fd_raw t fd = Hashtbl.find_opt t.fds fd

let lookup_fd t fd =
  match lookup_fd_raw t fd with
  | Some e when not e.closed -> Some e
  | Some _ | None -> None

let close_fd t fd =
  match lookup_fd t fd with
  | None -> false
  | Some e ->
    e.refs <- e.refs - 1;
    if e.refs <= 0 then e.closed <- true;
    true

let dup_fd t fd =
  match lookup_fd t fd with
  | None -> None
  | Some e ->
    e.refs <- e.refs + 1;
    let fd' = t.next_fd in
    t.next_fd <- t.next_fd + 1;
    (* The duplicated number aliases the same entry record; lookups on
       either number reach the same object. *)
    Hashtbl.replace t.fds fd' e;
    Some fd'

let live_fds t =
  Hashtbl.fold (fun fd e acc -> if e.closed then acc else (fd, e) :: acc) t.fds []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let exists_fd t pred =
  Hashtbl.fold (fun _ e acc -> acc || ((not e.closed) && pred e)) t.fds false

(* First touch: build the slot's value with its pure constructor. The
   constructor never sees the state, so an install records no effect
   or lock event. *)
let install t s =
  let n = Array.length t.slots in
  if s.index >= n then begin
    let a = Array.make (max (s.index + 1) (Array.length !registry)) Unset in
    Array.blit t.slots 0 a 0 n;
    t.slots <- a
  end;
  let v = s.create () in
  t.slots.(s.index) <- Set (s.id, v);
  v

let get (type a) t (s : a slot) : a =
  if s.index >= Array.length t.slots then install t s
  else
    match Array.unsafe_get t.slots s.index with
    | Unset -> install t s
    | Set (id, v) -> (
      match Type.Id.provably_equal id s.id with
      | Some Type.Equal -> v
      | None -> invalid_arg ("State.get: slot " ^ s.name ^ " holds a foreign value"))

let installed t =
  let out = ref [] in
  Array.iteri
    (fun i b ->
      match (b, !registry.(i)) with
      | Set _, Any s -> out := s.name :: !out
      | Unset, _ -> ())
    t.slots;
  List.rev !out

let copy_binding i b =
  match (b, !registry.(i)) with
  | Unset, _ -> Unset
  | Set (id, v), Any s -> (
    match Type.Id.provably_equal id s.id with
    | Some Type.Equal -> Set (s.id, s.copy v)
    | None -> invalid_arg ("State.copy: slot " ^ s.name ^ " holds a foreign value"))

let copy_tbl copy_v tbl =
  let t = Hashtbl.copy tbl in
  Hashtbl.filter_map_inplace (fun _ v -> Some (copy_v v)) t;
  t

let copy ~copy_kind t =
  let fds = Hashtbl.copy t.fds in
  (* [dup_fd] registers the same entry record under two descriptor
     numbers; preserve that aliasing by memoizing copies on the entry's
     allocation-time [fd] field (unique per record). *)
  let memo = Hashtbl.create (Hashtbl.length fds) in
  Hashtbl.filter_map_inplace
    (fun _num e ->
      match Hashtbl.find_opt memo e.fd with
      | Some e' -> Some e'
      | None ->
        let e' = { e with kind = copy_kind e.kind } in
        Hashtbl.add memo e.fd e';
        Some e')
    fds;
  {
    kversion = t.kversion;
    next_fd = t.next_fd;
    fds;
    ops = t.ops;
    slots = Array.mapi copy_binding t.slots;
    counters = Hashtbl.copy t.counters;
    lock_counts = Array.copy t.lock_counts;
    eff_reads = Array.copy t.eff_reads;
    eff_writes = Array.copy t.eff_writes;
    eff_trace = t.eff_trace;
  }

let incr_counter t name =
  let v = (match Hashtbl.find_opt t.counters name with Some v -> v | None -> 0) + 1 in
  Hashtbl.replace t.counters name v;
  v

let counter t name =
  match Hashtbl.find_opt t.counters name with Some v -> v | None -> 0

let set_counter t name v = Hashtbl.replace t.counters name v
let fold_counters f t init = Hashtbl.fold f t.counters init

let bump_lock t slot =
  let n = Array.length t.lock_counts in
  if slot >= n then begin
    let a = Array.make (max 16 (max (slot + 1) (2 * n))) 0 in
    Array.blit t.lock_counts 0 a 0 n;
    t.lock_counts <- a
  end;
  let a = t.lock_counts in
  Array.unsafe_set a slot (Array.unsafe_get a slot + 1)

let lock_slot_counts t =
  let out = ref [] in
  Array.iteri (fun i n -> if n > 0 then out := (i, n) :: !out) t.lock_counts;
  List.rev !out

(* ---- effect-access recording ----

   Called from the instrumented subsystem accessors. With hooks off
   and validation off this is two ref reads; with hooks on, an array
   increment. Results never depend on it (campaigns are bit-identical
   either way). *)

let grown a slot =
  let n = Array.length a in
  if slot < n then a
  else begin
    let a' = Array.make (max 16 (max (slot + 1) (2 * n))) 0 in
    Array.blit a 0 a' 0 n;
    a'
  end

let record_read t slot =
  if Effect.hooks_enabled () then begin
    let a = grown t.eff_reads slot in
    t.eff_reads <- a;
    Array.unsafe_set a slot (Array.unsafe_get a slot + 1)
  end;
  if Effect.validate_enabled () then t.eff_trace <- (slot * 2) :: t.eff_trace

let record_write t slot =
  if Effect.hooks_enabled () then begin
    let a = grown t.eff_writes slot in
    t.eff_writes <- a;
    Array.unsafe_set a slot (Array.unsafe_get a slot + 1)
  end;
  if Effect.validate_enabled () then
    t.eff_trace <- ((slot * 2) + 1) :: t.eff_trace

let reset_effect_trace t = t.eff_trace <- []

let effect_trace t =
  List.rev_map (fun e -> (e land 1 = 1, e asr 1)) t.eff_trace

let effect_slot_counts t =
  let get a i = if i < Array.length a then Array.unsafe_get a i else 0 in
  let n = max (Array.length t.eff_reads) (Array.length t.eff_writes) in
  let out = ref [] in
  for i = n - 1 downto 0 do
    let r = get t.eff_reads i and w = get t.eff_writes i in
    if r > 0 || w > 0 then out := (i, r, w) :: !out
  done;
  !out
