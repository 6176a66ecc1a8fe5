(* The C-header -> Syzlang converter (the paper's Section 8 extension). *)

module Cheader = Healer_syzlang.Cheader
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
open Helpers

let sample_header =
  {|
/* A device interface header. */
#ifndef _FOO_H
#define _FOO_H

#include <linux/types.h>

#define FOO_FLAG_A 0x1
#define FOO_FLAG_B 0x2
#define FOO_FLAG_C (1 << 4)
#define FOO_MAGIC 0xabcd

struct foo_config {
    __u32 mode;
    __u64 offset;
    char name[32];
    unsigned int flags;
};

#define FOO_RESET _IO('f', 0x01)
#define FOO_SETUP _IOW('f', 0x02, struct foo_config)
#define FOO_QUERY _IOR('f', 0x03, struct foo_config)

long foo_submit(int fd, const char *buf, size_t count);

#endif
|}

let test_parse_defines () =
  let items = Cheader.parse sample_header in
  let defines =
    List.filter_map (function Cheader.Define (n, v) -> Some (n, v) | _ -> None) items
  in
  Alcotest.(check int) "four constants" 4 (List.length defines);
  Alcotest.(check int64) "shift evaluated" 16L (List.assoc "FOO_FLAG_C" defines)

let test_parse_struct () =
  let items = Cheader.parse sample_header in
  match
    List.find_opt (function Cheader.Struct_def ("foo_config", _) -> true | _ -> false) items
  with
  | Some (Cheader.Struct_def (_, fields)) ->
    Alcotest.(check (list (pair string string)))
      "field conversion"
      [ ("mode", "int32"); ("offset", "int64"); ("name", "buffer[in]");
        ("flags", "int32") ]
      fields
  | _ -> Alcotest.fail "struct not parsed"

let test_parse_ioctls () =
  let items = Cheader.parse sample_header in
  let ioctls =
    List.filter_map
      (function
        | Cheader.Ioctl { iname; dir; code; arg } -> Some (iname, (dir, code, arg))
        | _ -> None)
      items
  in
  Alcotest.(check int) "three ioctls" 3 (List.length ioctls);
  let dir, code, arg = List.assoc "FOO_SETUP" ioctls in
  Alcotest.(check string) "direction" "in" dir;
  Alcotest.(check (option string)) "struct arg" (Some "foo_config") arg;
  (* code = 'f' * 256 + 2 *)
  Alcotest.(check int64) "number" (Int64.of_int ((Char.code 'f' * 256) + 2)) code

let test_parse_proto () =
  let items = Cheader.parse sample_header in
  match List.find_opt (function Cheader.Proto _ -> true | _ -> false) items with
  | Some (Cheader.Proto { pname; params; _ }) ->
    Alcotest.(check string) "name" "foo_submit" pname;
    Alcotest.(check (list (pair string string)))
      "params"
      [ ("int32", "fd"); ("buffer[in]", "buf"); ("int64", "count") ]
      params
  | _ -> Alcotest.fail "prototype not parsed"

let test_group_defines () =
  let groups =
    Cheader.group_defines
      [ ("FOO_FLAG_A", 1L); ("FOO_FLAG_B", 2L); ("BAR_X", 9L); ("FOO_FLAG_C", 4L) ]
  in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  Alcotest.(check int) "foo group size" 3
    (List.length (List.assoc "FOO_FLAG" groups))

let test_convert_compiles () =
  (* The emitted Syzlang must compile against a resource prelude, and
     the generated interfaces must be queryable. *)
  let generated = Cheader.convert ~fd_resource:"fd_foo" sample_header in
  let src = "resource fd[int32]: -1\nresource fd_foo[fd]\nopen_foo() fd_foo\n" ^ generated in
  let target = Target.of_string src in
  let setup = Target.find_exn target "ioctl$FOO_SETUP" in
  Alcotest.(check (list string)) "consumes the device fd" [ "fd_foo" ]
    (Target.consumes target setup);
  Alcotest.(check bool) "flag set emitted" true
    (Array.length (Target.flag_values target "foo_flag_flags") >= 2);
  Alcotest.(check bool) "prototype emitted" true
    (Target.find target "foo_submit" <> None);
  (* And the producer/consumer index wires the generated calls to the
     prelude's constructor — static learning sees them. *)
  let producers = Target.producers_of target "fd_foo" in
  Alcotest.(check bool) "open_foo produces for the ioctls" true
    (List.exists (fun (c : Syscall.t) -> c.Syscall.name = "open_foo") producers)

let test_convert_generates_fuzzable_target () =
  let generated = Cheader.convert ~fd_resource:"fd_foo" sample_header in
  let src = "resource fd[int32]: -1\nresource fd_foo[fd]\nopen_foo() fd_foo\n" ^ generated in
  let target = Target.of_string src in
  (* Value generation must handle every generated call. *)
  let rng = rng () in
  let ctx = { Healer_core.Value_gen.target; producers = (fun _ -> [||]) } in
  Array.iter
    (fun (c : Syscall.t) ->
      Alcotest.(check int) ("arity of " ^ c.Syscall.name)
        (List.length c.Syscall.args)
        (List.length (Healer_core.Value_gen.gen_args rng ctx c)))
    (Target.syscalls target)

let test_comments_stripped () =
  let items = Cheader.parse "/* #define HIDDEN 1 */\n#define SEEN 2 // tail\n" in
  match items with
  | [ Cheader.Define ("SEEN", 2L) ] -> ()
  | _ -> Alcotest.fail "comment handling"

let test_unsupported_raises () =
  let reject src =
    match Cheader.parse src with
    | exception Cheader.Unsupported _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ src)
  in
  (* A struct that starts like one we support but contains an unknown
     type must fail loudly rather than emit a wrong description. *)
  reject "struct bad {\n    frob_t weird;\n};\n";
  reject "struct unterminated {\n    int x;\n"

(* Every prefix of the sample header either converts or raises
   [Unsupported]: a header cut off anywhere never escapes as another
   exception. *)
let test_header_prefixes () =
  for cut = 0 to String.length sample_header do
    match Cheader.convert (String.sub sample_header 0 cut) with
    | _ | (exception Cheader.Unsupported _) -> ()
    | exception e ->
      Alcotest.failf "the %d-byte prefix escaped %s" cut (Printexc.to_string e)
  done

let test_unknown_struct_in_field () =
  match Cheader.parse "struct a {\n    struct missing m;\n};\n" with
  | exception Cheader.Unsupported _ -> ()
  | _ -> Alcotest.fail "unknown struct reference must be rejected"

let test_struct_ordering () =
  (* A struct may reference an earlier struct. *)
  let items =
    Cheader.parse
      "struct inner {\n    __u32 x;\n};\nstruct outer {\n    struct inner i;\n};\n"
  in
  match
    List.find_opt (function Cheader.Struct_def ("outer", _) -> true | _ -> false) items
  with
  | Some (Cheader.Struct_def (_, [ ("i", "inner") ])) -> ()
  | _ -> Alcotest.fail "nested struct reference"

let test_proto_void_params () =
  match Cheader.parse "long nop(void);\n" with
  | [ Cheader.Proto { pname = "nop"; params = []; _ } ] -> ()
  | _ -> Alcotest.fail "void parameter list"

let test_ioctl_without_struct_arg () =
  match Cheader.parse "#define F_KICK _IOW('f', 9, int)\n" with
  | [ Cheader.Ioctl { arg = None; dir = "in"; _ } ] -> ()
  | _ -> Alcotest.fail "scalar ioctl argument is dropped, not mis-typed"

let suite =
  [
    case "parse defines" test_parse_defines;
    case "parse struct" test_parse_struct;
    case "parse ioctls" test_parse_ioctls;
    case "parse prototype" test_parse_proto;
    case "group defines" test_group_defines;
    case "converted output compiles" test_convert_compiles;
    case "converted target fuzzable" test_convert_generates_fuzzable_target;
    case "comments stripped" test_comments_stripped;
    case "unsupported raises" test_unsupported_raises;
    case "header prefixes fail typed" test_header_prefixes;
    case "unknown struct field" test_unknown_struct_in_field;
    case "struct ordering" test_struct_ordering;
    case "void params" test_proto_void_params;
    case "scalar ioctl arg" test_ioctl_without_struct_arg;
  ]
