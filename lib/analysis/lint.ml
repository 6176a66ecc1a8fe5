(* Pass 5: the legacy Target.lint checks, migrated into the framework
   (the old entry point is deprecated). Same findings, now with stable
   check IDs, severities and positions. *)

module Ty = Healer_syzlang.Ty
module Field = Healer_syzlang.Field
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
open Pass

let checks =
  [
    ("lint-unused-flagset", Diagnostic.Warning, "flag set is never referenced");
    ( "lint-unreachable-struct",
      Diagnostic.Warning,
      "struct is not reachable from any call" );
    ( "lint-unreachable-union",
      Diagnostic.Warning,
      "union is not reachable from any call" );
    ("lint-no-producer", Diagnostic.Warning, "resource has no producer");
    ("lint-no-consumer", Diagnostic.Warning, "resource has no consumer");
    ( "lint-unproducible-consume",
      Diagnostic.Warning,
      "call consumes a resource nothing can produce" );
  ]

let run input =
  match input.target with
  | None -> []
  | Some t ->
    let out = ref [] in
    let emit ?pos ~check ~subject fmt =
      Fmt.kstr
        (fun m ->
          out :=
            Diagnostic.v ?pos ~check ~severity:Diagnostic.Warning ~subject m
            :: !out)
        fmt
    in
    let used_flags = Hashtbl.create 32 in
    let used_structs = Hashtbl.create 32 in
    let used_unions = Hashtbl.create 32 in
    Array.iter
      (fun (c : Syscall.t) ->
        List.iter
          (fun (f : Field.t) ->
            Target.iter_ty t
              (function
                | Ty.Flags name -> Hashtbl.replace used_flags name ()
                | Ty.Struct_ref name -> Hashtbl.replace used_structs name ()
                | Ty.Union_ref name -> Hashtbl.replace used_unions name ()
                | _ -> ())
              f.Field.fty)
          c.Syscall.args)
      (Target.syscalls t);
    List.iter
      (fun name ->
        if not (Hashtbl.mem used_flags name) then
          emit
            ?pos:(decl_pos input `Flags name)
            ~check:"lint-unused-flagset"
            ~subject:("flags " ^ name)
            "flag set is never referenced")
      (Target.flagset_names t);
    List.iter
      (fun name ->
        if not (Hashtbl.mem used_structs name) then
          emit
            ?pos:(decl_pos input `Struct name)
            ~check:"lint-unreachable-struct"
            ~subject:("struct " ^ name)
            "not reachable from any call")
      (Target.struct_names t);
    List.iter
      (fun name ->
        if not (Hashtbl.mem used_unions name) then
          emit
            ?pos:(decl_pos input `Union name)
            ~check:"lint-unreachable-union"
            ~subject:("union " ^ name)
            "not reachable from any call")
      (Target.union_names t);
    let produced_somewhere kind = Array.exists Fun.id (Target.producer_mask t kind) in
    List.iter
      (fun kind ->
        let consumed =
          Array.exists
            (fun (c : Syscall.t) ->
              List.exists
                (fun k -> Target.compatible t ~consumer:k ~producer:kind)
                (Target.consumes t c))
            (Target.syscalls t)
        in
        if not (produced_somewhere kind) then
          emit
            ?pos:(decl_pos input `Resource kind)
            ~check:"lint-no-producer"
            ~subject:("resource " ^ kind)
            "no call produces it (or a compatible subkind)";
        if not consumed then
          emit
            ?pos:(decl_pos input `Resource kind)
            ~check:"lint-no-consumer"
            ~subject:("resource " ^ kind)
            "no call consumes it")
      (Target.resource_kinds t);
    Array.iter
      (fun (c : Syscall.t) ->
        List.iter
          (fun kind ->
            if not (produced_somewhere kind) then
              emit
                ?pos:(decl_pos input `Call c.Syscall.name)
                ~check:"lint-unproducible-consume"
                ~subject:("call " ^ c.Syscall.name)
                "consumes %s, which nothing can produce" kind)
          (Target.consumes t c))
      (Target.syscalls t);
    !out

let pass =
  {
    pass_name = "lint";
    doc = "legacy corpus hygiene checks (migrated from Target.lint)";
    checks;
    run;
  }
