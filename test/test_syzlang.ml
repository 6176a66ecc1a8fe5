module Lexer = Healer_syzlang.Lexer
module Parser = Healer_syzlang.Parser
module Target = Healer_syzlang.Target
module Ty = Healer_syzlang.Ty
module Field = Healer_syzlang.Field
module Syscall = Healer_syzlang.Syscall
open Helpers

(* ---- lexer ---- *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lexer_basic () =
  match toks "open(file fd)" with
  | [ Lexer.IDENT "open"; Lexer.LPAREN; Lexer.IDENT "file"; Lexer.IDENT "fd";
      Lexer.RPAREN; Lexer.NEWLINE; Lexer.EOF ] ->
    ()
  | ts -> Alcotest.fail (Printf.sprintf "unexpected tokens (%d)" (List.length ts))

let test_lexer_idents_with_dollar () =
  match toks "ioctl$KVM_RUN" with
  | [ Lexer.IDENT "ioctl$KVM_RUN"; Lexer.NEWLINE; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "specialized name should lex as one ident"

let test_lexer_numbers () =
  match toks "1 0x2a -7 -0x10" with
  | [ Lexer.INT 1L; Lexer.INT 42L; Lexer.INT (-7L); Lexer.INT (-16L);
      Lexer.NEWLINE; Lexer.EOF ] ->
    ()
  | _ -> Alcotest.fail "number lexing"

let test_lexer_strings () =
  match toks {|"/dev/kvm"|} with
  | [ Lexer.STRING "/dev/kvm"; Lexer.NEWLINE; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "string lexing"

let test_lexer_comments () =
  match toks "# a comment\nfoo # trailing\n" with
  | [ Lexer.IDENT "foo"; Lexer.NEWLINE; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "comments should vanish"

let test_lexer_newline_in_brackets () =
  (* Newlines inside brackets do not end the declaration. *)
  let ts = toks "f(a\nint32,\nb int64)" in
  let newlines = List.length (List.filter (fun t -> t = Lexer.NEWLINE) ts) in
  Alcotest.(check int) "only the final newline" 1 newlines

let test_lexer_blank_lines_collapse () =
  let ts = toks "a\n\n\nb\n" in
  let newlines = List.length (List.filter (fun t -> t = Lexer.NEWLINE) ts) in
  Alcotest.(check int) "collapsed" 2 newlines

let test_lexer_errors () =
  let expect_error src =
    match Lexer.tokenize src with
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ src)
  in
  expect_error "\"unterminated";
  expect_error "@";
  expect_error "0x"

(* ---- parser ---- *)

let parse_one src =
  match Parser.parse src with
  | [ d ] -> d
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 decl, got %d" (List.length ds))

let test_parse_resource () =
  match parse_one "resource fd[int32]: -1 0" with
  | Parser.Resource { name = "fd"; parent = "int32"; values = [ -1L; 0L ] } -> ()
  | _ -> Alcotest.fail "resource decl"

let test_parse_flags () =
  match parse_one "flags open_flags = 0x0 0x1 0x2" with
  | Parser.Flagset { name = "open_flags"; values = [ 0L; 1L; 2L ] } -> ()
  | _ -> Alcotest.fail "flags decl"

let test_parse_struct () =
  match parse_one "struct st { a int32, b ptr[in, int64] }" with
  | Parser.Structdef { name = "st"; fields = [ fa; fb ] } -> (
    Alcotest.(check string) "field a" "a" fa.Field.fname;
    match fb.Field.fty with
    | Ty.Ptr { dir = Ty.In; elem = Ty.Int { bits = 64; _ } } -> ()
    | _ -> Alcotest.fail "ptr field type")
  | _ -> Alcotest.fail "struct decl"

let test_parse_call () =
  match parse_one "open(file filename[\"/tmp/x\"], mode const[0x1ff]) fd" with
  | Parser.Call { name = "open"; args = [ _; _ ]; ret = Some "fd" } -> ()
  | _ -> Alcotest.fail "call decl"

let test_parse_type_exprs () =
  match parse_one "f(a int32[0:7], b len[c], c buffer[in], d vma, e proc[100, 4], g array[int8, 2:5])" with
  | Parser.Call { args; _ } -> (
    let types = List.map (fun (f : Field.t) -> f.Field.fty) args in
    match types with
    | [ Ty.Int { bits = 32; range = Some (0L, 7L) }; Ty.Len "c";
        Ty.Buffer { dir = Ty.In }; Ty.Vma; Ty.Proc { start = 100L; step = 4L };
        Ty.Array { elem = Ty.Int { bits = 8; _ }; min_len = 2; max_len = 5 } ] ->
      ()
    | _ -> Alcotest.fail "type expressions")
  | _ -> Alcotest.fail "call decl"

let test_parse_resource_dir_suffix () =
  match parse_one "f(x fd out)" with
  | Parser.Call { args = [ f ]; _ } -> (
    match f.Field.fty with
    | Ty.Res { kind = "fd"; dir = Ty.Out } -> ()
    | _ -> Alcotest.fail "out direction")
  | _ -> Alcotest.fail "call decl"

let test_parse_multiple_decls () =
  let ds = Parser.parse "resource fd[int32]\nopen() fd\nclose(fd fd)\n" in
  Alcotest.(check int) "three declarations" 3 (List.length ds)

let test_parse_errors () =
  let expect_error src =
    match Parser.parse src with
    | exception Parser.Error _ -> ()
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ src)
  in
  expect_error "resource fd";
  expect_error "f(a int32[7:0])";
  expect_error "flags x =";
  expect_error "struct s { }";
  expect_error "f(a ptr[in])";
  expect_error "f(a int32) b c"

(* ---- target compilation ---- *)

let compile src = Target.of_string src

(* Every 17th prefix of the shipped description corpus either compiles
   or fails with one of the front end's typed errors: a description
   file cut off anywhere never escapes as another exception. *)
let test_source_prefixes () =
  let src = K.Kernel.source () in
  let cut = ref 0 in
  while !cut <= String.length src do
    (match compile (String.sub src 0 !cut) with
    | _ | (exception (Parser.Error _ | Lexer.Error _ | Target.Compile_error _)) -> ()
    | exception e ->
      Alcotest.failf "the %d-byte prefix escaped %s" !cut (Printexc.to_string e));
    cut := !cut + 17
  done

let test_compile_minimal () =
  let t =
    compile
      {|
resource fd[int32]: -1
open(path filename["/x"]) fd
close(fd fd)
|}
  in
  Alcotest.(check int) "two syscalls" 2 (Target.n_syscalls t);
  let o = Target.find_exn t "open" in
  Alcotest.(check (list string)) "open produces fd" [ "fd" ] (Target.produces t o);
  let c = Target.find_exn t "close" in
  Alcotest.(check (list string)) "close consumes fd" [ "fd" ] (Target.consumes t c)

let test_compile_struct_expansion () =
  let t =
    compile
      {|
resource fd[int32]
struct req { f fd, n int32 }
submit(r ptr[in, req])
|}
  in
  let s = Target.find_exn t "submit" in
  Alcotest.(check (list string)) "resource inside struct consumed" [ "fd" ]
    (Target.consumes t s)

let test_compile_inheritance () =
  let t =
    compile
      {|
resource fd[int32]
resource fd_kvm[fd]
openkvm() fd_kvm
close(fd fd)
|}
  in
  Alcotest.(check bool) "fd_kvm subtype of fd" true
    (Target.is_subtype t ~sub:"fd_kvm" ~sup:"fd");
  Alcotest.(check bool) "fd not subtype of fd_kvm" false
    (Target.is_subtype t ~sub:"fd" ~sup:"fd_kvm");
  Alcotest.(check bool) "compatible for consumer fd" true
    (Target.compatible t ~consumer:"fd" ~producer:"fd_kvm");
  (* close accepts the kvm fd through inheritance. *)
  let consumers = Target.consumers_of t "fd_kvm" in
  Alcotest.(check bool) "close consumes fd_kvm-compatible" true
    (List.exists (fun (c : Syscall.t) -> c.Syscall.name = "close") consumers)

let test_compile_errors () =
  let expect_error src =
    match compile src with
    | exception Target.Compile_error _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ src)
  in
  expect_error "f(a flags[nope])";
  expect_error "resource a[b]";
  expect_error "f(a unknown_thing)";
  expect_error "resource fd[int32]\nopen() fd\nopen() fd";
  expect_error "f(a len[b])";
  expect_error "resource fd[int32]\nf() nope"

let test_compile_cycle () =
  (* Inheritance cycles must be rejected. Parents must be declared, so
     the cycle is a->b->a. *)
  match
    compile "resource a[int32]\nresource b[a]\n"
  with
  | t ->
    Alcotest.(check (option string)) "b parent" (Some "a") (Target.resource_parent t "b")
  | exception Target.Compile_error _ -> Alcotest.fail "valid chain rejected"

let test_full_target_handlers_align () =
  (* Every syscall described by a subsystem must have a handler, and
     every handler must describe a syscall: the dispatcher can never
     hit ENOSYS for its own descriptions. *)
  let t = tgt () in
  let missing = ref [] in
  Array.iter
    (fun (c : Syscall.t) ->
      if Healer_kernel.Kernel.subsystem_of c.Syscall.name = "?" then
        missing := c.Syscall.name :: !missing)
    (Target.syscalls t);
  Alcotest.(check (list string)) "described calls without handler" [] !missing

let test_full_target_sanity () =
  let t = tgt () in
  Alcotest.(check bool) "has enough interfaces" true (Target.n_syscalls t > 200);
  Alcotest.(check bool) "kvm chain present" true
    (Target.find t "ioctl$KVM_RUN" <> None);
  let kinds = Target.resource_kinds t in
  Alcotest.(check bool) "has resources" true (List.length kinds > 20);
  List.iter
    (fun kind ->
      (* producers_of/consumers_of never raise for declared kinds *)
      ignore (Target.producers_of t kind);
      ignore (Target.consumers_of t kind))
    kinds

(* The compile-time indexes must give exactly the answers of the
   run-time predicates they replace. *)
let check_indexes t =
  let kinds = Target.resource_kinds t in
  Alcotest.(check (list string)) "resource_kinds is sorted, without duplicates"
    (List.sort_uniq String.compare kinds) kinds;
  Array.iter
    (fun (c : Syscall.t) ->
      List.iter
        (fun k ->
          if not (List.mem k kinds) then
            Alcotest.failf "%s uses kind %s, missing from resource_kinds" c.Syscall.name k)
        (Target.produces t c @ Target.consumes t c))
    (Target.syscalls t);
  List.iter
    (fun kind ->
      let mask = Target.producer_mask t kind in
      Alcotest.(check int) "mask covers every syscall" (Target.n_syscalls t)
        (Array.length mask);
      Array.iter
        (fun (c : Syscall.t) ->
          let expected =
            List.exists
              (fun p -> Target.compatible t ~consumer:kind ~producer:p)
              (Target.produces t c)
          in
          if mask.(c.Syscall.id) <> expected then
            Alcotest.failf "producer_mask %s.(%s) = %b" kind c.Syscall.name
              mask.(c.Syscall.id))
        (Target.syscalls t))
    (Target.resource_kinds t);
  (* Consumers come from a walk down each consumed kind's descendants:
     they must be the calls the inheritance predicate accepts, in id
     order, and the record must agree with the name-keyed answers. *)
  let names cs = List.map (fun (c : Syscall.t) -> c.Syscall.name) cs in
  List.iter
    (fun kind ->
      let expected =
        List.filter
          (fun (c : Syscall.t) ->
            List.exists
              (fun cns -> Target.compatible t ~consumer:cns ~producer:kind)
              (Target.consumes t c))
          (Array.to_list (Target.syscalls t))
      in
      Alcotest.(check (list string)) ("consumers_of " ^ kind) (names expected)
        (names (Target.consumers_of t kind));
      let r = Target.resource t kind in
      Alcotest.(check (list string)) ("record producers " ^ kind)
        (names (Target.producers_of t kind))
        (names (Array.to_list r.producers));
      Alcotest.(check bool) ("record mask " ^ kind) true (r.mask == Target.producer_mask t kind))
    (Target.resource_kinds t);
  Alcotest.(check (list string)) "resources in resource_kinds order" (Target.resource_kinds t)
    (Array.to_list (Array.map (fun (r : Target.resource) -> r.kind) (Target.resources t)));
  match Target.producer_mask t "no_such_kind" with
  | exception Target.Compile_error _ -> ()
  | _ -> Alcotest.fail "unknown kind must raise Compile_error"

let chain_fixture =
  {|
resource fd[int32]: -1
resource fd_sock[fd]
resource fd_tcp[fd_sock]
resource unrelated[int64]
struct pair { a fd_tcp, b int32 }
open() fd
socket() fd_sock
socket_tcp() fd_tcp
socketpair_tcp(p ptr[out, pair])
accept(s fd_tcp) fd_tcp
mk_unrelated() unrelated
use(f fd, u unrelated)
|}

let test_indexes_fixture () =
  let t = compile chain_fixture in
  Alcotest.(check (list string)) "sorted kinds"
    [ "fd"; "fd_sock"; "fd_tcp"; "unrelated" ]
    (Target.resource_kinds t);
  check_indexes t;
  let producers kind =
    List.filter
      (fun (c : Syscall.t) -> (Target.producer_mask t kind).(c.Syscall.id))
      (Array.to_list (Target.syscalls t))
    |> List.map (fun (c : Syscall.t) -> c.Syscall.name)
  in
  Alcotest.(check (list string)) "fd accepts the whole chain"
    [ "open"; "socket"; "socket_tcp"; "socketpair_tcp"; "accept" ]
    (producers "fd");
  Alcotest.(check (list string)) "fd_tcp accepts only the leaf"
    [ "socket_tcp"; "socketpair_tcp"; "accept" ]
    (producers "fd_tcp")

let test_indexes_full_target () = check_indexes (tgt ())

let test_specialization () =
  let t = tgt () in
  let c = Target.find_exn t "ioctl$KVM_RUN" in
  Alcotest.(check string) "base" "ioctl" c.Syscall.base;
  Alcotest.(check (option string)) "variant" (Some "KVM_RUN") (Syscall.variant c);
  Alcotest.(check bool) "is specialization" true (Syscall.is_specialization c);
  let o = Target.find_exn t "open" in
  Alcotest.(check bool) "open is not" false (Syscall.is_specialization o)

(* The Target.lint checks moved to the Healer_analysis lint pass; see
   test_analysis.ml for their coverage. *)

let test_decl_positions () =
  let t =
    compile
      {|
resource fd[int32]: -1
flags o_flags = 1 2
struct st { a int32, b flags[o_flags] }
open(p ptr[in, st]) fd
close(fd fd)
|}
  in
  Alcotest.(check (option int)) "resource line" (Some 2)
    (Target.decl_line t `Resource "fd");
  Alcotest.(check (option int)) "flags line" (Some 3)
    (Target.decl_line t `Flags "o_flags");
  Alcotest.(check (option int)) "struct line" (Some 4)
    (Target.decl_line t `Struct "st");
  Alcotest.(check (option int)) "call line" (Some 5) (Target.decl_line t `Call "open");
  Alcotest.(check (option int)) "absent decl" None (Target.decl_line t `Union "st")

let test_parse_located_lines () =
  match Parser.parse_located "resource fd[int32]\n\nopen() fd\n" with
  | [ (Parser.Resource _, 1); (Parser.Call _, 3) ] -> ()
  | _ -> Alcotest.fail "located declarations"

let suite =
  [
    case "source prefixes fail typed" test_source_prefixes;
    case "lexer basic" test_lexer_basic;
    case "lexer $-idents" test_lexer_idents_with_dollar;
    case "lexer numbers" test_lexer_numbers;
    case "lexer strings" test_lexer_strings;
    case "lexer comments" test_lexer_comments;
    case "lexer bracket newlines" test_lexer_newline_in_brackets;
    case "lexer blank lines" test_lexer_blank_lines_collapse;
    case "lexer errors" test_lexer_errors;
    case "parse resource" test_parse_resource;
    case "parse flags" test_parse_flags;
    case "parse struct" test_parse_struct;
    case "parse call" test_parse_call;
    case "parse type exprs" test_parse_type_exprs;
    case "parse dir suffix" test_parse_resource_dir_suffix;
    case "parse multiple" test_parse_multiple_decls;
    case "parse errors" test_parse_errors;
    case "compile minimal" test_compile_minimal;
    case "compile struct expansion" test_compile_struct_expansion;
    case "compile inheritance" test_compile_inheritance;
    case "compile errors" test_compile_errors;
    case "compile chain" test_compile_cycle;
    case "full target: handlers align" test_full_target_handlers_align;
    case "full target: sanity" test_full_target_sanity;
    case "compile-time indexes: chain fixture" test_indexes_fixture;
    case "compile-time indexes: full target" test_indexes_full_target;
    case "specializations" test_specialization;
    case "decl positions" test_decl_positions;
    case "parse_located lines" test_parse_located_lines;
  ]
