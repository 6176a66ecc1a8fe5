(* Shared helpers for driving the simulated kernel in tests. *)

module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module K = Healer_kernel
module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Exec = Healer_executor.Exec
module Blob = Healer_util.Blob

let target = lazy (K.Kernel.target ())
let tgt () = Lazy.force target

(* Build a call by name with explicit argument values. *)
let call name args =
  { Prog.syscall = Target.find_exn (tgt ()) name; args }

let prog calls = Prog.of_list calls

let boot ?(version = K.Version.V5_11) ?(san = K.Sanitizer.default)
    ?(features = []) () =
  K.Kernel.boot ~san ~features ~version ()

let run ?version ?san ?features ?fault_call p =
  let kernel = boot ?version ?san ?features () in
  snd (Exec.run ?fault_call kernel p)

(* Common value shorthands. *)
let i v = Value.Int v
let iv v = Value.Int (Int64.of_int v)
let r idx = Value.Res_ref idx
let s str = Value.Str str
let buf n = Value.Buf (Blob.of_bytes (Bytes.make n 'x'))
let ptr v = Value.Ptr v
let group vs = Value.Ptr (Value.Group vs)
let vma = Value.Vma 0x20000000L

let errno_of (res : Exec.call_result) = res.Exec.errno

let check_errno what expected (res : Exec.call_result) =
  Alcotest.(check (option string))
    what
    (Option.map K.Errno.to_string expected)
    (Option.map K.Errno.to_string res.Exec.errno)

let check_ok what (res : Exec.call_result) = check_errno what None res

let crash_key (r : Exec.run_result) =
  Option.map (fun (c : K.Crash.report) -> c.K.Crash.bug_key) r.Exec.crash

let check_crash what expected (r : Exec.run_result) =
  Alcotest.(check (option string)) what expected (crash_key r)

(* Words allocated straight on the major heap so far. Words a minor
   collection promotes count in both the major and the promoted figure
   of [Gc.counters], so the difference is exact. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* Exact allocated words so far: on OCaml 5 the minor figure of
   [Gc.counters] moves only at collections, [Gc.minor_words] anywhere. *)
let words () = Gc.minor_words () +. direct_major_words ()

(* A deterministic RNG for generation-based tests. *)
let rng ?(seed = 42) () = Healer_util.Rng.create seed

let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  (* Fixed generator state: property failures must be reproducible. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x4EA1; count |])
    (QCheck2.Test.make ~name ~count gen prop)
