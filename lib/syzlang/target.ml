type resource_info = { parent : string option; special : int64 array }

type t = {
  tname : string;
  calls : Syscall.t array;
  by_name : (string, Syscall.t) Hashtbl.t;
  flagsets : (string, int64 array) Hashtbl.t;
  structs : (string, Field.t list) Hashtbl.t;
  unions : (string, Field.t list) Hashtbl.t;
  resources : (string, resource_info) Hashtbl.t;
  (* Struct-expanded produce/consume sets, per syscall id. *)
  produced : string list array;
  consumed : string list array;
  (* Declared resource kinds, sorted once at compile time. *)
  kinds : string list;
  (* Per consumer kind, [mask.(id)] holds when syscall [id] produces a
     compatible kind: the predicate [producers] is filtered by. *)
  producer_masks : (string, bool array) Hashtbl.t;
  producers : (string, Syscall.t list) Hashtbl.t;
  consumers : (string, Syscall.t list) Hashtbl.t;
  (* Source line of each declaration, keyed by "kind:name" (kinds:
     call, struct, union, flags, resource). Empty when the target was
     compiled from bare declarations without positions. *)
  positions : (string, int) Hashtbl.t;
}

type decl_kind = [ `Call | `Struct | `Union | `Flags | `Resource ]

let decl_key (kind : decl_kind) name =
  let k =
    match kind with
    | `Call -> "call"
    | `Struct -> "struct"
    | `Union -> "union"
    | `Flags -> "flags"
    | `Resource -> "resource"
  in
  k ^ ":" ^ name

exception Compile_error of string

let error fmt = Fmt.kstr (fun s -> raise (Compile_error s)) fmt

let builtin_int_parents = [ "int8"; "int16"; "int32"; "int64"; "intptr" ]

let base_of name =
  match String.index_opt name '$' with
  | None -> name
  | Some i -> String.sub name 0 i

(* Resolve bare-name references left by the parser: a [Res] whose kind
   names a declared struct or union becomes a [Struct_ref]/[Union_ref]. *)
let rec resolve_ty ~where resources structs unions (ty : Ty.t) : Ty.t =
  let resolve = resolve_ty ~where resources structs unions in
  match ty with
  | Ty.Res { kind; dir } ->
    if Hashtbl.mem resources kind then ty
    else if Hashtbl.mem structs kind then
      if dir <> Ty.In then error "%s: struct %s cannot carry a direction" where kind
      else Ty.Struct_ref kind
    else if Hashtbl.mem unions kind then
      if dir <> Ty.In then error "%s: union %s cannot carry a direction" where kind
      else Ty.Union_ref kind
    else error "%s: unknown type or resource %s" where kind
  | Ty.Ptr { dir; elem } -> Ty.Ptr { dir; elem = resolve elem }
  | Ty.Array { elem; min_len; max_len } ->
    Ty.Array { elem = resolve elem; min_len; max_len }
  | Ty.Int _ | Ty.Const _ | Ty.Flags _ | Ty.Len _ | Ty.Proc _ | Ty.Buffer _
  | Ty.Str _ | Ty.Filename _ | Ty.Struct_ref _ | Ty.Union_ref _ | Ty.Vma ->
    ty

let rec validate_ty ~where t (ty : Ty.t) =
  match ty with
  | Ty.Flags name ->
    if not (Hashtbl.mem t.flagsets name) then
      error "%s: unknown flag set %s" where name
  | Ty.Int { bits; _ } ->
    if not (Ty.int_bits_valid bits) then error "%s: invalid int width %d" where bits
  | Ty.Ptr { elem; _ } -> validate_ty ~where t elem
  | Ty.Array { elem; _ } -> validate_ty ~where t elem
  | Ty.Struct_ref name ->
    if not (Hashtbl.mem t.structs name) then error "%s: unknown struct %s" where name
  | Ty.Union_ref name ->
    if not (Hashtbl.mem t.unions name) then error "%s: unknown union %s" where name
  | Ty.Res { kind; _ } ->
    if not (Hashtbl.mem t.resources kind) then
      error "%s: unknown resource %s" where kind
  | Ty.Const _ | Ty.Len _ | Ty.Proc _ | Ty.Buffer _ | Ty.Str _ | Ty.Filename _
  | Ty.Vma ->
    ()

let validate_len_refs ~where (args : Field.t list) =
  let names = List.map (fun (f : Field.t) -> f.fname) args in
  let check (f : Field.t) =
    match f.fty with
    | Ty.Len target ->
      if not (List.mem target names) then
        error "%s: len[%s] does not name a sibling argument" where target
    | _ -> ()
  in
  List.iter check args

let check_resource_cycles resources =
  let rec walk seen kind =
    if List.mem kind seen then
      error "resource inheritance cycle through %s" kind;
    match Hashtbl.find_opt resources kind with
    | Some { parent = Some p; _ } -> walk (kind :: seen) p
    | Some { parent = None; _ } -> ()
    | None -> ()
  in
  Hashtbl.iter (fun kind _ -> walk [] kind) resources

(* Resource kinds reachable through a type, expanding struct/union
   members, keeping only the directions selected by [keep]. A pointer's
   direction overrides the pointee's. [fuel] bounds recursion through
   (potentially cyclic) struct references. *)
let collect_res_deep t ~keep ty =
  let rec go fuel ptr_dir acc (ty : Ty.t) =
    if fuel = 0 then acc
    else
      match ty with
      | Ty.Res { kind; dir } ->
        let dir = match ptr_dir with Some d -> d | None -> dir in
        if keep dir then kind :: acc else acc
      | Ty.Ptr { dir; elem } -> go (fuel - 1) (Some dir) acc elem
      | Ty.Array { elem; _ } -> go (fuel - 1) ptr_dir acc elem
      | Ty.Struct_ref name ->
        let fields = try Hashtbl.find t.structs name with Not_found -> [] in
        List.fold_left
          (fun acc (f : Field.t) -> go (fuel - 1) ptr_dir acc f.fty)
          acc fields
      | Ty.Union_ref name ->
        let fields = try Hashtbl.find t.unions name with Not_found -> [] in
        List.fold_left
          (fun acc (f : Field.t) -> go (fuel - 1) ptr_dir acc f.fty)
          acc fields
      | Ty.Int _ | Ty.Const _ | Ty.Flags _ | Ty.Len _ | Ty.Proc _
      | Ty.Buffer _ | Ty.Str _ | Ty.Filename _ | Ty.Vma ->
        acc
  in
  go 8 None [] ty

let compute_produced t (c : Syscall.t) =
  let keep = function Ty.Out | Ty.In_out -> true | Ty.In -> false in
  let from_args =
    List.concat_map (fun (f : Field.t) -> collect_res_deep t ~keep f.fty) c.args
  in
  let all = match c.ret with Some r -> r :: from_args | None -> from_args in
  List.sort_uniq String.compare all

let compute_consumed t (c : Syscall.t) =
  let keep = function Ty.In | Ty.In_out -> true | Ty.Out -> false in
  List.sort_uniq String.compare
    (List.concat_map (fun (f : Field.t) -> collect_res_deep t ~keep f.fty) c.args)

let is_subtype t ~sub ~sup =
  let rec walk kind =
    if String.equal kind sup then true
    else
      match Hashtbl.find_opt t.resources kind with
      | Some { parent = Some p; _ } -> walk p
      | Some { parent = None; _ } | None -> false
  in
  walk sub

let compatible t ~consumer ~producer = is_subtype t ~sub:producer ~sup:consumer

let sorted_keys tbl =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let compile_located ?(name = "sim") ldecls =
  let flagsets = Hashtbl.create 64 in
  let structs : (string, Field.t list) Hashtbl.t = Hashtbl.create 64 in
  let unions : (string, Field.t list) Hashtbl.t = Hashtbl.create 16 in
  let resources = Hashtbl.create 64 in
  let positions = Hashtbl.create 256 in
  let raw_calls = ref [] in
  let add_unique table what key value =
    if Hashtbl.mem table key then error "duplicate %s %s" what key;
    Hashtbl.add table key value
  in
  let record kind dname line =
    if line > 0 && not (Hashtbl.mem positions (decl_key kind dname)) then
      Hashtbl.add positions (decl_key kind dname) line
  in
  (* Pass 1: collect declarations. *)
  let collect (decl, line) =
    match decl with
    | Parser.Resource { name; parent; values } ->
      let parent_res =
        if List.mem parent builtin_int_parents then None else Some parent
      in
      record `Resource name line;
      add_unique resources "resource" name
        { parent = parent_res; special = Array.of_list values }
    | Parser.Flagset { name; values } ->
      record `Flags name line;
      add_unique flagsets "flag set" name (Array.of_list values)
    | Parser.Structdef { name; fields } ->
      record `Struct name line;
      add_unique structs "struct" name fields
    | Parser.Uniondef { name; fields } ->
      record `Union name line;
      add_unique unions "union" name fields
    | Parser.Call { name; args; ret } ->
      record `Call name line;
      raw_calls := (name, args, ret) :: !raw_calls
  in
  List.iter collect ldecls;
  (* Resource parents must exist. *)
  Hashtbl.iter
    (fun rname { parent; _ } ->
      match parent with
      | Some p when not (Hashtbl.mem resources p) ->
        error "resource %s: unknown parent %s" rname p
      | Some _ | None -> ())
    resources;
  check_resource_cycles resources;
  (* Pass 2: resolve bare references inside structs/unions and calls. *)
  let resolve_fields ~where fields =
    List.map
      (fun (f : Field.t) ->
        Field.v f.fname (resolve_ty ~where resources structs unions f.fty))
      fields
  in
  let structs' = Hashtbl.create (Hashtbl.length structs) in
  Hashtbl.iter
    (fun sname fields ->
      Hashtbl.add structs' sname (resolve_fields ~where:("struct " ^ sname) fields))
    structs;
  let unions' = Hashtbl.create (Hashtbl.length unions) in
  Hashtbl.iter
    (fun uname fields ->
      Hashtbl.add unions' uname (resolve_fields ~where:("union " ^ uname) fields))
    unions;
  let calls_list =
    List.rev !raw_calls
    |> List.mapi (fun id (cname, args, ret) ->
           (match ret with
           | Some r when not (Hashtbl.mem resources r) ->
             error "%s: return type %s is not a resource" cname r
           | Some _ | None -> ());
           let args = resolve_fields ~where:cname args in
           validate_len_refs ~where:cname args;
           { Syscall.id; name = cname; base = base_of cname; args; ret })
  in
  let calls = Array.of_list calls_list in
  let by_name = Hashtbl.create (Array.length calls) in
  Array.iter
    (fun (c : Syscall.t) ->
      if Hashtbl.mem by_name c.name then error "duplicate syscall %s" c.name;
      Hashtbl.add by_name c.name c)
    calls;
  let t =
    {
      tname = name;
      calls;
      by_name;
      flagsets;
      structs = structs';
      unions = unions';
      resources;
      produced = Array.make (Array.length calls) [];
      consumed = Array.make (Array.length calls) [];
      kinds = sorted_keys resources;
      producer_masks = Hashtbl.create 64;
      producers = Hashtbl.create 64;
      consumers = Hashtbl.create 64;
      positions;
    }
  in
  (* Pass 3: validate types now that every table is final. *)
  Array.iter
    (fun (c : Syscall.t) ->
      List.iter (fun (f : Field.t) -> validate_ty ~where:c.name t f.fty) c.args)
    calls;
  Hashtbl.iter
    (fun sname fields ->
      List.iter
        (fun (f : Field.t) -> validate_ty ~where:("struct " ^ sname) t f.fty)
        fields)
    structs';
  Hashtbl.iter
    (fun uname fields ->
      List.iter
        (fun (f : Field.t) -> validate_ty ~where:("union " ^ uname) t f.fty)
        fields)
    unions';
  (* Pass 4: produce/consume indices, inheritance-aware. *)
  Array.iter
    (fun (c : Syscall.t) ->
      t.produced.(c.id) <- compute_produced t c;
      t.consumed.(c.id) <- compute_consumed t c)
    calls;
  (* A call produces for consumer kind [k] when one of its produced
     kinds is [k] or inherits from it: walk each produced kind's
     (acyclic, checked above) parent chain once, marking every
     ancestor. *)
  List.iter
    (fun kind -> Hashtbl.add t.producer_masks kind (Array.make (Array.length calls) false))
    t.kinds;
  Array.iter
    (fun (c : Syscall.t) ->
      let rec mark kind =
        (Hashtbl.find t.producer_masks kind).(c.id) <- true;
        match Hashtbl.find resources kind with
        | { parent = Some p; _ } -> mark p
        | { parent = None; _ } -> ()
      in
      List.iter mark t.produced.(c.id))
    calls;
  List.iter
    (fun kind ->
      let mask = Hashtbl.find t.producer_masks kind in
      let consumes_compatible (c : Syscall.t) =
        List.exists (fun cns -> compatible t ~consumer:cns ~producer:kind) t.consumed.(c.id)
      in
      Hashtbl.add t.producers kind
        (List.filter (fun (c : Syscall.t) -> mask.(c.id)) (Array.to_list calls));
      Hashtbl.add t.consumers kind
        (List.filter consumes_compatible (Array.to_list calls)))
    t.kinds;
  t

let compile ?name decls =
  compile_located ?name (List.map (fun d -> (d, 0)) decls)

let of_string ?name src = compile_located ?name (Parser.parse_located src)

let decl_line t kind dname = Hashtbl.find_opt t.positions (decl_key kind dname)

let name t = t.tname
let n_syscalls t = Array.length t.calls
let syscalls t = t.calls

let syscall t id =
  if id < 0 || id >= Array.length t.calls then
    invalid_arg (Printf.sprintf "Target.syscall: id %d out of range" id);
  t.calls.(id)

let find t name = Hashtbl.find_opt t.by_name name
let find_exn t name = Hashtbl.find t.by_name name

let flag_values t name =
  match Hashtbl.find_opt t.flagsets name with
  | Some vs -> vs
  | None -> error "unknown flag set %s" name

let struct_fields t name =
  match Hashtbl.find_opt t.structs name with
  | Some fs -> fs
  | None -> error "unknown struct %s" name

let union_fields t name =
  match Hashtbl.find_opt t.unions name with
  | Some fs -> fs
  | None -> error "unknown union %s" name

let resource_kinds t = t.kinds

let struct_names t = sorted_keys t.structs
let union_names t = sorted_keys t.unions
let flagset_names t = sorted_keys t.flagsets

let resource_parent t kind =
  match Hashtbl.find_opt t.resources kind with
  | Some { parent; _ } -> parent
  | None -> error "unknown resource %s" kind

let resource_special_values t kind =
  match Hashtbl.find_opt t.resources kind with
  | Some { special; _ } -> special
  | None -> error "unknown resource %s" kind

let produces t (c : Syscall.t) = t.produced.(c.id)
let consumes t (c : Syscall.t) = t.consumed.(c.id)

let producers_of t kind =
  match Hashtbl.find_opt t.producers kind with
  | Some cs -> cs
  | None -> error "unknown resource %s" kind

let producer_mask t kind =
  match Hashtbl.find_opt t.producer_masks kind with
  | Some m -> m
  | None -> error "unknown resource %s" kind

let consumers_of t kind =
  match Hashtbl.find_opt t.consumers kind with
  | Some cs -> cs
  | None -> error "unknown resource %s" kind

(* Collect every type node reachable from a call's arguments. Each
   struct/union body is entered once per traversal, so self-referential
   layouts (legal behind a pointer) terminate. *)
let iter_ty t f ty =
  let seen = Hashtbl.create 8 in
  let enter key = if Hashtbl.mem seen key then false else (Hashtbl.add seen key (); true) in
  let rec go (ty : Ty.t) =
    f ty;
    match ty with
    | Ty.Ptr { elem; _ } -> go elem
    | Ty.Array { elem; _ } -> go elem
    | Ty.Struct_ref name ->
      if enter ("s:" ^ name) then
        List.iter (fun (fl : Field.t) -> go fl.Field.fty) (struct_fields t name)
    | Ty.Union_ref name ->
      if enter ("u:" ^ name) then
        List.iter (fun (fl : Field.t) -> go fl.Field.fty) (union_fields t name)
    | Ty.Int _ | Ty.Const _ | Ty.Flags _ | Ty.Len _ | Ty.Proc _ | Ty.Buffer _
    | Ty.Str _ | Ty.Filename _ | Ty.Res _ | Ty.Vma ->
      ()
  in
  go ty

(* Superseded by the [Healer_analysis] pass framework, which reports
   the same findings with stable check IDs, severities and source
   positions. Kept only for out-of-tree callers. *)
let lint t =
  let warnings = ref [] in
  let warn fmt = Fmt.kstr (fun s -> warnings := s :: !warnings) fmt in
  let used_flags = Hashtbl.create 32 in
  let used_structs = Hashtbl.create 32 in
  let used_unions = Hashtbl.create 32 in
  Array.iter
    (fun (c : Syscall.t) ->
      List.iter
        (fun (f : Field.t) ->
          iter_ty t
            (function
              | Ty.Flags name -> Hashtbl.replace used_flags name ()
              | Ty.Struct_ref name -> Hashtbl.replace used_structs name ()
              | Ty.Union_ref name -> Hashtbl.replace used_unions name ()
              | _ -> ())
            f.Field.fty)
        c.Syscall.args)
    t.calls;
  List.iter
    (fun kind ->
      (* A kind counts as produced when anything produces it or a
         subkind a consumer would accept in its place. *)
      let produced = Array.exists Fun.id (producer_mask t kind) in
      let consumed =
        Array.exists
          (fun (c : Syscall.t) ->
            List.exists
              (fun cns -> compatible t ~consumer:cns ~producer:kind)
              t.consumed.(c.id))
          t.calls
      in
      if not produced then warn "resource %s has no producer" kind;
      if not consumed then warn "resource %s has no consumer" kind)
    t.kinds;
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem used_flags name) then warn "flag set %s is unused" name)
    t.flagsets;
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem used_structs name) then warn "struct %s is unreachable" name)
    t.structs;
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem used_unions name) then warn "union %s is unreachable" name)
    t.unions;
  Array.iter
    (fun (c : Syscall.t) ->
      List.iter
        (fun kind ->
          if not (Array.exists Fun.id (producer_mask t kind)) then
            warn "%s consumes %s, which nothing can produce" c.Syscall.name kind)
        t.consumed.(c.id))
    t.calls;
  List.sort String.compare !warnings
[@@ocaml.deprecated "use the Healer_analysis passes instead"]

let pp_summary ppf t =
  Fmt.pf ppf "target %s: %d syscalls, %d resources, %d flag sets, %d structs"
    t.tname (Array.length t.calls)
    (Hashtbl.length t.resources)
    (Hashtbl.length t.flagsets)
    (Hashtbl.length t.structs)
