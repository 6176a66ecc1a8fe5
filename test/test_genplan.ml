(* The generation plan against the name-keyed oracle (gen_oracle.ml):
   both generators start from equal Rng states and must give equal
   programs and end in equal states, over the full target (uniform
   selection, Algorithm 3 on the static table and on a table learned
   by a 1-virtual-hour campaign, mutation of that campaign's corpus)
   and over a fixture with the layouts the descriptions may lack.
   Also: the range walk of Select.select against a walk over every id,
   and the Rng draws' allocation and stream laws. *)

module Rng = Healer_util.Rng
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
open Healer_core
open Helpers

(* A struct that reaches itself through a pointer, a union, a len
   naming a later sibling, a len naming no sibling, two fields with
   the same name, and three levels of resource inheritance. *)
let fixture_src =
  {|
resource fd[int32]: -1
resource fd_sock[fd]
resource fd_tcp[fd_sock]: 0x7fff
flags modes = 0x1 0x2 0x4
struct node { val int32, next ptr[in, node], dlen len[data], data buffer[in], ghost len[nothing] }
union payload { n node, raw buffer[in], name string["a", "bb"] }
struct twin { x buffer[in], x int32, xl len[x] }
open(path filename["/f0", "/f1"], m flags[modes]) fd
socket() fd_sock
socket_tcp(p proc[100, 4]) fd_tcp
accept(s fd_tcp, addr ptr[out, fd_tcp]) fd_tcp
walk(f fd_sock, n ptr[in, node], t ptr[inout, twin])
send(s fd_tcp, plen len[p], p ptr[in, payload], a array[int16[0:9], 1:3])
map(addr vma, f fd)
close(f fd)
|}

let fixture = lazy (Target.of_string ~name:"plan-fixture" fixture_src)

let oracles : (Target.t * Gen_oracle.t) list ref = ref []

let oracle target =
  match List.assq_opt target !oracles with
  | Some o -> o
  | None ->
    let o = Gen_oracle.create target in
    oracles := (target, o) :: !oracles;
    o

(* SplitMix64's step is a bijection of the state, so equal next draws
   mean equal states. *)
let same_state a b = Int64.equal (Rng.bits64 (Rng.copy a)) (Rng.bits64 (Rng.copy b))

let equal_progs (p : Prog.t) (q : Prog.t) =
  Prog.length p = Prog.length q
  && Array.for_all2
       (fun (c : Prog.call) (d : Prog.call) ->
         c.syscall.Syscall.id = d.syscall.Syscall.id && List.equal Value.equal c.args d.args)
       p.calls q.calls

(* [n] programs in a row from one seed. [real rng i] and [model rng i]
   build program [i] from their own copy of one Rng state. *)
let agree ~n ~real ~model seed =
  let a = Rng.create seed in
  let b = Rng.copy a in
  let rec go i =
    if i = n then same_state a b || QCheck2.Test.fail_report "final Rng states differ"
    else begin
      let p = real a i and q = model b i in
      if not (equal_progs p q) then
        QCheck2.Test.fail_reportf "program %d differs:@.%s@.oracle:@.%s" i (Prog.to_string p)
          (Prog.to_string q);
      go (i + 1)
    end
  in
  go 0

let per_seed = 100

let uniform target rng ~sub:_ = Rng.int rng (Target.n_syscalls target)

let generate_uniform target seed =
  let o = oracle target in
  agree ~n:per_seed seed
    ~real:(fun rng _ -> Gen.generate rng target ~select:(uniform target rng) ())
    ~model:(fun rng _ -> Gen_oracle.generate rng o ~select:(uniform target rng) ())

let generate_guided table alpha seed =
  let target = tgt () in
  let o = oracle target in
  agree ~n:per_seed seed
    ~real:(fun rng _ ->
      Gen.generate rng target ~select:(fun ~sub -> (Select.select rng table ~alpha ~sub).id) ())
    ~model:(fun rng _ ->
      Gen_oracle.generate rng o ~select:(fun ~sub -> fst (Gen_oracle.select rng table ~alpha ~sub)) ())

(* Mutation of seed programs [seeds], in turn. *)
let mutate_each target ~select ~oracle_select seeds seed =
  let o = oracle target in
  let seed_prog i = seeds.(i mod Array.length seeds) in
  agree ~n:per_seed seed
    ~real:(fun rng i -> Mutate.mutate rng target ~select:(select rng) (seed_prog i))
    ~model:(fun rng i -> Gen_oracle.mutate rng o ~select:(oracle_select rng) (seed_prog i))

let static_table = lazy (Static_learning.initial_table (tgt ()))

(* A HEALER campaign of one virtual hour: its learned table and its
   corpus. *)
let campaign =
  lazy
    (let f =
       Fuzzer.create (Fuzzer.config ~seed:1 ~tool:Fuzzer.Healer ~version:Healer_kernel.Version.V5_11 ())
     in
     Fuzzer.run_until f 3600.0;
     let progs = ref [] in
     Corpus.iter (fun p -> progs := p :: !progs) (Fuzzer.corpus f);
     (Option.get (Fuzzer.relations f), Array.of_list (List.rev !progs)))

let seeds = QCheck2.Gen.int
let seed_alpha = QCheck2.Gen.(pair int (float_range 0.0 1.0))

let test_uniform =
  qcheck ~count:50 "plan = oracle: uniform select" seeds (generate_uniform (tgt ()))

let test_static =
  qcheck ~count:50 "plan = oracle: Select on the static table" seed_alpha (fun (seed, alpha) ->
      generate_guided (Lazy.force static_table) alpha seed)

let test_learned =
  qcheck ~count:50 "plan = oracle: Select on a learned table" seed_alpha (fun (seed, alpha) ->
      generate_guided (fst (Lazy.force campaign)) alpha seed)

let test_mutate_corpus =
  qcheck ~count:50 "plan = oracle: Mutate on a campaign corpus" seed_alpha
    (fun (seed, alpha) ->
      let table, corpus = Lazy.force campaign in
      mutate_each (tgt ()) corpus seed
        ~select:(fun rng ~sub -> (Select.select rng table ~alpha ~sub).id)
        ~oracle_select:(fun rng ~sub -> fst (Gen_oracle.select rng table ~alpha ~sub)))

let test_fixture_generate =
  qcheck ~count:20 "plan = oracle: fixture generation" seeds (fun seed ->
      generate_uniform (Lazy.force fixture) seed)

let test_fixture_mutate =
  qcheck ~count:20 "plan = oracle: fixture mutation" seeds (fun seed ->
      let target = Lazy.force fixture in
      let rng = Rng.create (seed + 1) in
      let progs = Array.init 8 (fun _ -> Gen.generate rng target ~select:(uniform target rng) ()) in
      mutate_each target progs seed ~select:(uniform target) ~oracle_select:(uniform target))

(* The fixture's plan has the shapes it was written for. *)
let test_fixture_plan () =
  let t = Lazy.force fixture in
  let args name = Target.arg_nodes t (Target.find_exn t name) in
  (match args "walk" with
  | [| Target.Res r; Target.Ptr (Target.Struct node); Target.Ptr (Target.Struct twin) |] ->
    Alcotest.(check string) "resource record" "fd_sock" r.kind;
    (match node.(1) with
    | Target.Ptr (Target.Struct node') ->
      Alcotest.(check bool) "self-reference is a cycle" true (node' == node)
    | _ -> Alcotest.fail "node.next");
    (match (node.(2), node.(4)) with
    | Target.Len 3, Target.Len (-1) -> ()
    | _ -> Alcotest.fail "node lens: later sibling 3, no sibling -1");
    (match twin.(2) with
    | Target.Len 0 -> ()
    | _ -> Alcotest.fail "twin.xl names the first x")
  | _ -> Alcotest.fail "walk's plan");
  (match args "send" with
  | [| _; Target.Len 2; Target.Ptr (Target.Union arms); _ |] ->
    Alcotest.(check int) "union arms" 3 (Array.length arms)
  | _ -> Alcotest.fail "send's plan");
  Alcotest.(check (list string)) "consumed records in consumes order"
    (Target.consumes t (Target.find_exn t "walk"))
    (Array.to_list
       (Array.map (fun (r : Target.resource) -> r.kind)
          (Target.consumed_resources t (Target.find_exn t "walk"))))

(* ---- Select: the range walk against a walk over every id ---- *)

let test_select_range =
  qcheck ~count:300 "select range walk = full walk"
    QCheck2.Gen.(
      quad int (int_range 1 80)
        (list_size (int_range 0 60) (pair nat nat))
        (pair (float_range 0.0 1.0) (list_size (int_range 1 8) (list_size (int_range 0 6) nat))))
    (fun (seed, n, edges, (alpha, subs)) ->
      let table = Relation_table.create n in
      List.iter (fun (i, j) -> ignore (Relation_table.set table (i mod n) (j mod n))) edges;
      let a = Rng.create seed in
      let b = Rng.copy a in
      List.for_all
        (fun sub ->
          let sub = List.map (fun i -> i mod n) sub in
          let o = Select.select a table ~alpha ~sub in
          let id, used_table = Gen_oracle.select b table ~alpha ~sub in
          o.Select.id = id && o.Select.used_table = used_table && Select.scratch_is_clear ())
        subs
      && same_state a b)

(* ---- Rng: draws allocate nothing; stream laws ---- *)

let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 7 in
  let arr = [| 3; 1; 4; 1; 5 |] in
  let cost draws f =
    let before = words () in
    for _ = 1 to draws do
      f ()
    done;
    words () -. before
  in
  List.iter
    (fun (what, f) ->
      ignore (cost 1 f);
      let base = cost 0 f in
      Alcotest.(check (float 0.0)) (what ^ ": words for 10 000 draws") base (cost 10_000 f))
    [
      ("int", fun () -> ignore (Sys.opaque_identity (Rng.int rng 1000)));
      ("chance", fun () -> ignore (Sys.opaque_identity (Rng.chance rng 0.3)));
      ("pick_arr", fun () -> ignore (Sys.opaque_identity (Rng.pick_arr rng arr)));
    ]

let test_rng_stream_laws =
  qcheck ~count:200 "rng copy/split/skip laws"
    QCheck2.Gen.(pair int (int_range 0 50))
    (fun (seed, n) ->
      let t = Rng.create seed in
      ignore (Rng.bits64 t);
      (* copy: an independent generator with the same stream. *)
      let c = Rng.copy t in
      let first = Rng.bits64 (Rng.copy t) in
      for _ = 1 to n do
        ignore (Rng.bits64 t)
      done;
      let copy_ok = Int64.equal (Rng.bits64 c) first in
      (* skip: the state n draws reach, returning the state before. *)
      let d = Rng.copy t in
      let before = Rng.skip (Rng.copy t) 0 in
      let start = Rng.skip t n in
      for _ = 1 to n do
        ignore (Rng.bits64 d)
      done;
      let skip_ok = Int64.equal start before && same_state t d in
      (* split: one draw from the parent, whose output is the child's
         state. *)
      let p = Rng.copy t in
      let x = Rng.bits64 p in
      let child = Rng.split t in
      let split_ok = same_state t p && Int64.equal (Rng.skip child 0) x in
      copy_ok && skip_ok && split_ok)

(* Each pick_arr makes the draw pick makes on the equivalent list. *)
let test_pick_arr_is_pick =
  qcheck ~count:200 "pick_arr = pick"
    QCheck2.Gen.(pair int (list_size (int_range 1 40) nat))
    (fun (seed, xs) ->
      let a = Rng.create seed in
      let b = Rng.copy a in
      let arr = Array.of_list xs in
      List.for_all (fun _ -> Rng.pick_arr a arr = Rng.pick b xs) xs && same_state a b)

let suite =
  [
    test_uniform;
    test_static;
    test_learned;
    test_mutate_corpus;
    test_fixture_generate;
    test_fixture_mutate;
    case "fixture plan shapes" test_fixture_plan;
    test_select_range;
    case "rng draws allocate nothing" test_rng_draws_allocate_nothing;
    test_rng_stream_laws;
    test_pick_arr_is_pick;
  ]
