(* Importing a C interface header (the paper's Section 8 extension).

   Converts an inline device header into Syzlang with
   Cheader.convert, compiles it together with a hand-written resource
   prelude, runs the static analyzer over the result, and shows what
   static relation learning infers for the generated interfaces — the
   workflow the paper proposes for reducing the cost of hand-writing
   descriptions.

   Run with: dune exec examples/header_import.exe *)

module Cheader = Healer_syzlang.Cheader
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
open Healer_core

let header =
  {|
/* drivers/misc/widget.h — a typical device interface header. */
#define WIDGET_MODE_OFF   0x0
#define WIDGET_MODE_SLOW  0x1
#define WIDGET_MODE_FAST  0x2
#define WIDGET_MAX_UNITS  8

struct widget_config {
    __u32 mode;
    __u32 units;
    __u64 period_ns;
    char label[16];
};

struct widget_stats {
    __u64 cycles;
    __u32 faults;
    __u32 pad;
};

#define WIDGET_RESET  _IO('w', 0x00)
#define WIDGET_SETUP  _IOW('w', 0x01, struct widget_config)
#define WIDGET_STATS  _IOR('w', 0x02, struct widget_stats)
|}

(* The manual part the paper keeps: declaring the device's resource and
   its constructor. *)
let prelude =
  {|
resource fd[int32]: -1
resource fd_widget[fd]
flags widget_open_flags = 0x0 0x2
open_widget(flags flags[widget_open_flags]) fd_widget
close_widget(fd fd_widget)
|}

let () =
  let generated = Cheader.convert ~fd_resource:"fd_widget" header in
  Fmt.pr "Generated Syzlang:@.---@.%s---@.@." generated;

  let target = Target.of_string ~name:"widget" (prelude ^ generated) in
  Fmt.pr "Target: %a@.@." Target.pp_summary target;

  let module A = Healer_analysis in
  (match
     A.Analysis.run (A.Analysis.of_source ~name:"widget" (prelude ^ generated))
     |> List.filter (fun (d : A.Diagnostic.t) ->
            d.A.Diagnostic.severity <> A.Diagnostic.Info)
   with
  | [] -> Fmt.pr "Analyzer: clean.@."
  | ds ->
    Fmt.pr "Analyzer:@.";
    List.iter (fun d -> Fmt.pr "  %a@." A.Diagnostic.pp d) ds);

  let table = Static_learning.initial_table target in
  Fmt.pr "@.Static relations inferred for the imported interfaces:@.";
  List.iter
    (fun (a, b) ->
      Fmt.pr "  %-24s -> %s@."
        (Target.syscall target a).Syscall.name
        (Target.syscall target b).Syscall.name)
    (Relation_table.edges table);

  (* The generated calls are immediately generatable. *)
  let rng = Healer_util.Rng.create 1 in
  let prog =
    Gen.generate rng target
      ~select:(fun ~sub:_ -> Healer_util.Rng.int rng (Target.n_syscalls target))
      ()
  in
  Fmt.pr "@.A generated test case over the imported target:@.%s@."
    (Healer_executor.Prog.to_string prog)
