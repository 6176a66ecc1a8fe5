module K = Healer_kernel

type stats = {
  mutable hits : int;
  mutable full_hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable flushes : int;
  mutable resumed_calls : int;
  mutable executed_calls : int;
  mutable compiled_calls : int;
  mutable reused_ccalls : int;
}

(* One trie node per cached call prefix; the edge label is the call's
   wire encoding ([Serializer.put_call]), so the cache key is
   exactly (boot config, encoded call prefix). [result] is the
   call_result of the prefix's last call; walking a path therefore
   reconstructs the whole per-call result array. [snap] — when present
   — is the kernel state right after that prefix, resumable via
   [Kernel.copy]. *)
type node = {
  children : (string, node) Hashtbl.t;
  result : Exec.call_result;
  mutable snap : K.Kernel.t option;
  mutable stamp : int;  (* LRU clock of the last snapshot use *)
}

type memo_entry = {
  m_prog : Prog.t;
  m_pkey : string;  (* whole-program wire encoding, the [full] key *)
  m_ends : int array;  (* per-call end offsets into [m_pkey] *)
  (* Crash-free per-call results, once known: a repeat probe then
     returns without touching the key at all. *)
  mutable m_calls : Exec.call_result array option;
}

type t = {
  capacity : int;
  node_capacity : int;
  template : K.Kernel.t;  (* encodes the boot config; never executed on *)
  root : (string, node) Hashtbl.t;
  (* Whole-program fast path: encoded program -> its per-call results,
     for crash-free runs. Probes repeated verbatim (Prog_cov.observe,
     warm minimize sweeps) then cost one lookup instead of a trie
     walk. Flushed with the trie. *)
  full : (string, Exec.call_result array) Hashtbl.t;
  (* Per-physical-program memo: probe loops re-run the same [Prog.t]
     values many times (warm minimize sweeps, corpus re-probes), and
     for a full hit the serialization pass plus hashing the multi-KB
     key IS the entire cost. Everything memoized here is
     content-derived — programs are immutable, results deterministic —
     so entries need no invalidation and survive flushes. MRU list,
     newest first. *)
  mutable memo : memo_entry list;
  buf : Buffer.t;  (* scratch for key encoding *)
  st : stats;
  mutable snaps : node list;  (* nodes currently holding a snapshot *)
  mutable nodes : int;
  mutable clock : int;
}

let create ?(capacity = 192) ?(node_capacity = 8192) ?san ?features ~version ()
    =
  if capacity <= 0 then invalid_arg "Exec_cache.create: capacity must be > 0";
  if node_capacity < capacity then
    invalid_arg "Exec_cache.create: node_capacity < capacity";
  {
    capacity;
    node_capacity;
    template = K.Kernel.boot ?san ?features ~version ();
    root = Hashtbl.create 64;
    full = Hashtbl.create 256;
    memo = [];
    buf = Buffer.create 256;
    st =
      {
        hits = 0;
        full_hits = 0;
        misses = 0;
        evictions = 0;
        flushes = 0;
        resumed_calls = 0;
        executed_calls = 0;
        compiled_calls = 0;
        reused_ccalls = 0;
      };
    snaps = [];
    nodes = 0;
    clock = 0;
  }

let stats t = t.st
let snapshot_count t = List.length t.snaps
let node_count t = t.nodes

let hit_rate t =
  let total = t.st.hits + t.st.misses in
  if total = 0 then 0.0 else float_of_int t.st.hits /. float_of_int total

let has_snap node = match node.snap with Some _ -> true | None -> false

let memo_size = 128

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* One serialization pass yields both the whole-program key and — by
   slicing at the recorded call boundaries — the per-call trie edge
   labels. Memoized per physical program (see [memo]). *)
let encode t p n =
  match List.find_opt (fun e -> e.m_prog == p) t.memo with
  | Some e -> e
  | None ->
    let ends = Array.make n 0 in
    Buffer.clear t.buf;
    for i = 0 to n - 1 do
      Serializer.put_call t.buf (Prog.call p i);
      ends.(i) <- Buffer.length t.buf
    done;
    let e =
      { m_prog = p; m_pkey = Buffer.contents t.buf; m_ends = ends;
        m_calls = None }
    in
    t.memo <- take memo_size (e :: t.memo);
    e

let evict_one t =
  match t.snaps with
  | [] -> ()
  | first :: rest ->
    let victim =
      List.fold_left (fun v n -> if n.stamp < v.stamp then n else v) first rest
    in
    victim.snap <- None;
    t.snaps <- List.filter (fun n -> n != victim) t.snaps;
    t.st.evictions <- t.st.evictions + 1

let put_snap t node kernel =
  if not (has_snap node) then begin
    node.snap <- Some kernel;
    node.stamp <- t.clock;
    t.snaps <- node :: t.snaps;
    if List.length t.snaps > t.capacity then evict_one t
  end

(* Dropping the whole trie when the node bound is hit keeps eviction
   trivially correct (results are deterministic, so losing entries
   only costs future hits) and avoids subtree surgery. *)
let flush t =
  Hashtbl.reset t.root;
  Hashtbl.reset t.full;
  t.st.evictions <- t.st.evictions + List.length t.snaps;
  t.snaps <- [];
  t.nodes <- 0;
  t.st.flushes <- t.st.flushes + 1

let clear t = flush t

let run t ?cov (p : Prog.t) : Exec.run_result =
  let n = Prog.length p in
  if n = 0 then snd (Exec.run ?cov t.template p)
  else begin
    t.clock <- t.clock + 1;
    if t.nodes >= t.node_capacity then flush t;
    let entry = encode t p n in
    let pkey = entry.m_pkey and ends = entry.m_ends in
    let full_hit calls =
      t.st.hits <- t.st.hits + 1;
      t.st.full_hits <- t.st.full_hits + 1;
      t.st.resumed_calls <- t.st.resumed_calls + n;
      { Exec.calls = Array.copy calls; crash = None }
    in
    match entry.m_calls with
    | Some calls -> full_hit calls
    | None ->
    match Hashtbl.find_opt t.full pkey with
    | Some calls ->
      entry.m_calls <- Some calls;
      full_hit calls
    | None ->
    let keys =
      Array.init n (fun i ->
          let start = if i = 0 then 0 else ends.(i - 1) in
          String.sub pkey start (ends.(i) - start))
    in
    let path : node option array = Array.make n None in
    let rec walk children i =
      if i >= n then i
      else
        match Hashtbl.find_opt children keys.(i) with
        | Some child ->
          path.(i) <- Some child;
          walk child.children (i + 1)
        | None -> i
    in
    let matched = walk t.root 0 in
    if matched = n then begin
      (* The entire program is cached (nodes exist only for calls that
         completed without crashing, so the run necessarily ended
         crash-free): no execution at all. *)
      t.st.hits <- t.st.hits + 1;
      t.st.full_hits <- t.st.full_hits + 1;
      t.st.resumed_calls <- t.st.resumed_calls + n;
      let calls = Array.init n (fun i -> (Option.get path.(i)).result) in
      let stored = Array.copy calls in
      Hashtbl.replace t.full pkey stored;
      entry.m_calls <- Some stored;
      Array.iter
        (function
          | Some nd when has_snap nd -> nd.stamp <- t.clock
          | Some _ | None -> ())
        path;
      { Exec.calls; crash = None }
    end
    else begin
      let resume = ref 0 in
      for i = 0 to matched - 1 do
        match path.(i) with
        | Some nd when has_snap nd -> resume := i + 1
        | Some _ | None -> ()
      done;
      let k = !resume in
      let kernel =
        if k = 0 then K.Kernel.reboot t.template
        else begin
          let nd = Option.get path.(k - 1) in
          nd.stamp <- t.clock;
          K.Kernel.copy (match nd.snap with Some s -> s | None -> assert false)
        end
      in
      if k > 0 then t.st.hits <- t.st.hits + 1 else t.st.misses <- t.st.misses + 1;
      t.st.resumed_calls <- t.st.resumed_calls + k;
      let prefix = Array.init k (fun i -> (Option.get path.(i)).result) in
      let record idx cr kern =
        t.st.executed_calls <- t.st.executed_calls + 1;
        let children =
          if idx = 0 then t.root else (Option.get path.(idx - 1)).children
        in
        match Hashtbl.find_opt children keys.(idx) with
        | Some child ->
          path.(idx) <- Some child;
          (* Second execution through a known snapshot-less prefix:
             promote it, so the next shared-prefix probe resumes here
             instead of re-running from boot. Depth n is left to the
             free final-state retention below. *)
          if idx < n - 1 && not (has_snap child) then
            put_snap t child (K.Kernel.copy kern)
        | None ->
          let child =
            {
              children = Hashtbl.create 4;
              result = cr;
              snap = None;
              stamp = t.clock;
            }
          in
          Hashtbl.replace children keys.(idx) child;
          t.nodes <- t.nodes + 1;
          path.(idx) <- Some child
      in
      let kernel, r = Exec.run_from ~prefix ?cov ~on_call:record kernel p in
      (* The finished kernel is ours alone — retain it as the
         full-program snapshot without paying a copy. *)
      (match r.Exec.crash with
      | None ->
        let stored = Array.copy r.Exec.calls in
        Hashtbl.replace t.full pkey stored;
        entry.m_calls <- Some stored;
        (match path.(n - 1) with
        | Some nd -> put_snap t nd kernel
        | None -> ())
      | Some _ -> ());
      r
    end
  end
