(* Cross-cutting property tests over randomly generated programs: the
   invariants the whole pipeline rests on. *)

module Prog = Healer_executor.Prog
module Exec = Healer_executor.Exec
module Serializer = Healer_executor.Serializer
module Target = Healer_syzlang.Target
module Rng = Healer_util.Rng
module K = Healer_kernel
open Healer_core
open Helpers

let gen_prog seed =
  let rng = Rng.create seed in
  Gen.generate rng (tgt ())
    ~select:(fun ~sub:_ -> Rng.int rng (Target.n_syscalls (tgt ())))
    ()

(* Execution is a pure function of (program, version, features): the
   reproducibility dynamic learning and triage depend on. *)
let test_exec_deterministic =
  qcheck ~count:100 "execution is deterministic" QCheck2.Gen.small_int
    (fun seed ->
      let p = gen_prog seed in
      let r1 = run p and r2 = run p in
      (match (r1.Exec.crash, r2.Exec.crash) with
      | None, None -> true
      | Some a, Some b -> a.K.Crash.bug_key = b.K.Crash.bug_key
      | _ -> false)
      && Array.for_all2
           (fun (a : Exec.call_result) (b : Exec.call_result) ->
             a.Exec.retval = b.Exec.retval
             && a.Exec.errno = b.Exec.errno
             && Exec.cov_equal a.Exec.cov b.Exec.cov)
           r1.Exec.calls r2.Exec.calls)

(* Serialization round-trips every generator-producible program. *)
let test_serializer_total =
  qcheck ~count:200 "serializer roundtrips generated programs"
    QCheck2.Gen.small_int (fun seed ->
      let p = gen_prog seed in
      let p' = Serializer.decode (tgt ()) (Serializer.encode p) in
      Serializer.encode p = Serializer.encode p')

(* Removing a call never breaks the backwards-reference invariant, for
   any position in any generated program. *)
let test_remove_preserves_wf =
  qcheck ~count:200 "remove keeps programs well-formed"
    QCheck2.Gen.(pair small_int (int_range 0 40))
    (fun (seed, pos) ->
      let p = gen_prog seed in
      if Prog.length p <= 1 then true
      else Prog.well_formed (Prog.remove p (pos mod Prog.length p)))

(* Minimization: the kept subsequence reproduces the target call's
   coverage exactly (Algorithm 1's contract). *)
let test_minimize_contract =
  qcheck ~count:30 "minimization preserves target coverage"
    QCheck2.Gen.small_int (fun seed ->
      let p = gen_prog seed in
      let result = run p in
      if result.Exec.crash <> None then true
      else begin
        let cov =
          Array.map (fun (c : Exec.call_result) -> c.Exec.cov) result.Exec.calls
        in
        let last = Prog.length p - 1 in
        let new_cov = Array.make (Prog.length p) [] in
        new_cov.(last) <- cov.(last);
        let pc = { Prog_cov.prog = p; cov; new_cov } in
        let exec q =
          let kernel = boot () in
          snd (Exec.run kernel q)
        in
        match Minimize.minimize ~target:(tgt ()) ~exec pc with
        | [] -> false
        | m :: _ ->
          let final = Prog_cov.length m - 1 in
          Exec.cov_equal (Prog_cov.call_cov m final) cov.(last)
      end)

(* Dynamic learning only ever adds relations between calls that
   actually appear consecutively in some minimized subsequence. *)
let test_dynamic_edges_plausible =
  qcheck ~count:20 "dynamic learning adds plausible edges"
    QCheck2.Gen.small_int (fun seed ->
      let table = Relation_table.create (Target.n_syscalls (tgt ())) in
      let p = gen_prog seed in
      let result = run p in
      if result.Exec.crash <> None then true
      else begin
        let cov =
          Array.map (fun (c : Exec.call_result) -> c.Exec.cov) result.Exec.calls
        in
        let new_cov = Array.map (fun c -> c) cov in
        let pc = { Prog_cov.prog = p; cov; new_cov } in
        let exec q =
          let kernel = boot () in
          snd (Exec.run kernel q)
        in
        let fresh, minimized = Dynamic_learning.learn_from_run ~exec ~table pc in
        let consecutive_pairs =
          List.concat_map
            (fun (m : Prog_cov.t) ->
              let q = m.Prog_cov.prog in
              List.init
                (max 0 (Prog.length q - 1))
                (fun k ->
                  ( (Prog.call q k).Prog.syscall.Healer_syzlang.Syscall.id,
                    (Prog.call q (k + 1)).Prog.syscall.Healer_syzlang.Syscall.id )))
            minimized
        in
        List.for_all (fun e -> List.mem e consecutive_pairs) fresh
      end)

(* The corpus key (serialized form) is injective enough: two programs
   with equal encodings behave identically under execution. *)
let test_encoding_determines_behavior =
  qcheck ~count:50 "equal encodings, equal behaviour"
    QCheck2.Gen.(pair small_int small_int)
    (fun (s1, s2) ->
      let p1 = gen_prog s1 and p2 = gen_prog s2 in
      if Serializer.encode p1 <> Serializer.encode p2 then true
      else begin
        let r1 = run p1 and r2 = run p2 in
        Exec.cov_equal (Exec.total_cov r1) (Exec.total_cov r2)
      end)

let suite =
  [
    test_exec_deterministic;
    test_serializer_total;
    test_remove_preserves_wf;
    test_minimize_contract;
    test_dynamic_edges_plausible;
    test_encoding_determines_behavior;
  ]
