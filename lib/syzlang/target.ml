type resource_info = { parent : string option; special : int64 array }

type resource = {
  kind : string;
  parent : string option;
  special : int64 array;
  mask : bool array;
  producers : Syscall.t array;
  consumers : Syscall.t array;
}

type node =
  | Int of { bits : int; range : (int64 * int64) option }
  | Const of int64
  | Flags of int64 array
  | Len of int
  | Proc of { start : int64; step : int64 }
  | Res of resource
  | Ptr of node
  | Buffer
  | Str of string array
  | Filename of string array
  | Array of { elem : node; min_len : int; max_len : int }
  | Struct of node array
  | Union of node array
  | Vma

type t = {
  tname : string;
  calls : Syscall.t array;
  by_name : (string, Syscall.t) Hashtbl.t;
  flagsets : (string, int64 array) Hashtbl.t;
  structs : (string, Field.t list) Hashtbl.t;
  unions : (string, Field.t list) Hashtbl.t;
  (* One record per resource kind, by name and (sorted by name) as an
     array. *)
  resources : (string, resource) Hashtbl.t;
  sorted_resources : resource array;
  (* Struct-expanded produce/consume sets, per syscall id. *)
  produced : string list array;
  consumed : string list array;
  (* Declared resource kinds, sorted once at compile time. *)
  kinds : string list;
  (* The generation plan, per syscall id: argument nodes, and the
     records of the consumed kinds in [consumed]'s order. *)
  arg_nodes : node array array;
  consumed_records : resource array array;
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

let rec validate_ty ~where ~flagsets ~structs ~unions ~resources (ty : Ty.t) =
  let validate = validate_ty ~where ~flagsets ~structs ~unions ~resources in
  match ty with
  | Ty.Flags name ->
    if not (Hashtbl.mem flagsets name) then
      error "%s: unknown flag set %s" where name
  | Ty.Int { bits; _ } ->
    if not (Ty.int_bits_valid bits) then error "%s: invalid int width %d" where bits
  | Ty.Ptr { elem; _ } -> validate elem
  | Ty.Array { elem; _ } -> validate elem
  | Ty.Struct_ref name ->
    if not (Hashtbl.mem structs name) then error "%s: unknown struct %s" where name
  | Ty.Union_ref name ->
    if not (Hashtbl.mem unions name) then error "%s: unknown union %s" where name
  | Ty.Res { kind; _ } ->
    if not (Hashtbl.mem resources kind) then
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

let check_resource_cycles (resources : (string, resource_info) Hashtbl.t) =
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
let collect_res_deep ~structs ~unions ~keep ty =
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
        let fields = try Hashtbl.find structs name with Not_found -> [] in
        List.fold_left
          (fun acc (f : Field.t) -> go (fuel - 1) ptr_dir acc f.fty)
          acc fields
      | Ty.Union_ref name ->
        let fields = try Hashtbl.find unions name with Not_found -> [] in
        List.fold_left
          (fun acc (f : Field.t) -> go (fuel - 1) ptr_dir acc f.fty)
          acc fields
      | Ty.Int _ | Ty.Const _ | Ty.Flags _ | Ty.Len _ | Ty.Proc _
      | Ty.Buffer _ | Ty.Str _ | Ty.Filename _ | Ty.Vma ->
        acc
  in
  go 8 None [] ty

let compute_produced ~structs ~unions (c : Syscall.t) =
  let keep = function Ty.Out | Ty.In_out -> true | Ty.In -> false in
  let from_args =
    List.concat_map
      (fun (f : Field.t) -> collect_res_deep ~structs ~unions ~keep f.fty)
      c.args
  in
  let all = match c.ret with Some r -> r :: from_args | None -> from_args in
  List.sort_uniq String.compare all

let compute_consumed ~structs ~unions (c : Syscall.t) =
  let keep = function Ty.In | Ty.In_out -> true | Ty.Out -> false in
  List.sort_uniq String.compare
    (List.concat_map
       (fun (f : Field.t) -> collect_res_deep ~structs ~unions ~keep f.fty)
       c.args)

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

(* One record per resource kind. Kind [k]'s producers are the calls
   producing [k] or a kind inheriting from it: each produced kind's
   (acyclic, checked) parent chain is walked up once per call. Its
   consumers are the calls consuming [k] or an ancestor of it: each
   consumed kind's descendants are walked down once per call. Calls are
   visited in descending id order, so consing leaves every list in
   ascending id order; [last] drops a second visit from the same call. *)
let build_records ~resources ~calls ~produced ~consumed =
  let kinds = Array.of_list (sorted_keys resources) in
  let nk = Array.length kinds and n = Array.length calls in
  let index = Hashtbl.create nk in
  Array.iteri (fun i k -> Hashtbl.add index k i) kinds;
  let parent =
    Array.map
      (fun k ->
        Option.map (Hashtbl.find index) (Hashtbl.find resources k : resource_info).parent)
      kinds
  in
  let children = Array.make nk [] in
  Array.iteri (fun i p -> Option.iter (fun p -> children.(p) <- i :: children.(p)) p) parent;
  let masks = Array.init nk (fun _ -> Array.make n false) in
  let prods = Array.make nk [] and cons = Array.make nk [] in
  let last_prod = Array.make nk (-1) and last_cons = Array.make nk (-1) in
  for id = n - 1 downto 0 do
    let c = calls.(id) in
    let rec up k =
      if last_prod.(k) <> id then begin
        last_prod.(k) <- id;
        masks.(k).(id) <- true;
        prods.(k) <- c :: prods.(k)
      end;
      Option.iter up parent.(k)
    in
    let rec down k =
      if last_cons.(k) <> id then begin
        last_cons.(k) <- id;
        cons.(k) <- c :: cons.(k)
      end;
      List.iter down children.(k)
    in
    List.iter (fun k -> up (Hashtbl.find index k)) produced.(id);
    List.iter (fun k -> down (Hashtbl.find index k)) consumed.(id)
  done;
  let records = Hashtbl.create nk in
  Array.iteri
    (fun i kind ->
      let ({ parent; special } : resource_info) = Hashtbl.find resources kind in
      Hashtbl.add records kind
        {
          kind;
          parent;
          special;
          mask = masks.(i);
          producers = Array.of_list prods.(i);
          consumers = Array.of_list cons.(i);
        })
    kinds;
  records

(* Argument nodes per syscall id. Every struct and union gets one node
   array, shared by every reference to it, so a layout that reaches
   itself through a pointer is a cycle rather than an unbounded tree.
   A [len] field holds the index of the first sibling it names, or -1;
   a [len] nested below a field is never resolved and holds -1. *)
let build_plan ~flagsets ~structs ~unions ~records calls =
  let shells tbl =
    let shells = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter
      (fun name fields -> Hashtbl.add shells name (Array.make (List.length fields) Vma))
      tbl;
    shells
  in
  let struct_nodes = shells structs and union_nodes = shells unions in
  let rec node (ty : Ty.t) =
    match ty with
    | Ty.Int { bits; range } -> Int { bits; range }
    | Ty.Const v -> Const v
    | Ty.Flags name -> Flags (Hashtbl.find flagsets name)
    | Ty.Len _ -> Len (-1)
    | Ty.Proc { start; step } -> Proc { start; step }
    | Ty.Res { kind; _ } -> Res (Hashtbl.find records kind)
    | Ty.Ptr { elem; _ } -> Ptr (node elem)
    | Ty.Buffer _ -> Buffer
    | Ty.Str lits -> Str (Array.of_list lits)
    | Ty.Filename lits -> Filename (Array.of_list lits)
    | Ty.Array { elem; min_len; max_len } -> Array { elem = node elem; min_len; max_len }
    | Ty.Struct_ref name -> Struct (Hashtbl.find struct_nodes name)
    | Ty.Union_ref name -> Union (Hashtbl.find union_nodes name)
    | Ty.Vma -> Vma
  in
  let fill nodes (fields : Field.t list) =
    let rec sibling name j = function
      | [] -> -1
      | (g : Field.t) :: rest ->
        if String.equal g.fname name then j else sibling name (j + 1) rest
    in
    List.iteri
      (fun i (f : Field.t) ->
        nodes.(i) <-
          (match f.fty with Ty.Len name -> Len (sibling name 0 fields) | ty -> node ty))
      fields;
    nodes
  in
  Hashtbl.iter (fun name fields -> ignore (fill (Hashtbl.find struct_nodes name) fields)) structs;
  Hashtbl.iter (fun name fields -> ignore (fill (Hashtbl.find union_nodes name) fields)) unions;
  Array.map
    (fun (c : Syscall.t) -> fill (Array.make (List.length c.args) Vma) c.args)
    calls

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
        ({ parent = parent_res; special = Array.of_list values } : resource_info)
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
    (fun rname ({ parent; _ } : resource_info) ->
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
  (* From here on, only the resolved layouts. *)
  let structs = structs' and unions = unions' in
  (* Pass 3: validate types now that every table is final. *)
  let validate ~where (fields : Field.t list) =
    List.iter
      (fun (f : Field.t) ->
        validate_ty ~where ~flagsets ~structs ~unions ~resources f.fty)
      fields
  in
  Array.iter (fun (c : Syscall.t) -> validate ~where:c.name c.args) calls;
  Hashtbl.iter (fun sname fields -> validate ~where:("struct " ^ sname) fields) structs;
  Hashtbl.iter (fun uname fields -> validate ~where:("union " ^ uname) fields) unions;
  (* Pass 4: produce/consume indices, inheritance-aware. *)
  let produced = Array.map (compute_produced ~structs ~unions) calls in
  let consumed = Array.map (compute_consumed ~structs ~unions) calls in
  let records = build_records ~resources ~calls ~produced ~consumed in
  let records_of kinds = Array.of_list (List.map (Hashtbl.find records) kinds) in
  (* Pass 5: the generation plan. *)
  let arg_nodes = build_plan ~flagsets ~structs ~unions ~records calls in
  {
    tname = name;
    calls;
    by_name;
    flagsets;
    structs;
    unions;
    resources = records;
    sorted_resources = records_of (sorted_keys resources);
    produced;
    consumed;
    kinds = sorted_keys resources;
    arg_nodes;
    consumed_records = Array.map records_of consumed;
    positions;
  }

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

let resource t kind =
  match Hashtbl.find_opt t.resources kind with
  | Some r -> r
  | None -> error "unknown resource %s" kind

let resources t = t.sorted_resources
let resource_parent t kind = (resource t kind).parent
let resource_special_values t kind = (resource t kind).special
let produces t (c : Syscall.t) = t.produced.(c.id)
let consumes t (c : Syscall.t) = t.consumed.(c.id)
let producers_of t kind = Array.to_list (resource t kind).producers
let producer_mask t kind = (resource t kind).mask
let consumers_of t kind = Array.to_list (resource t kind).consumers
let arg_nodes t (c : Syscall.t) = t.arg_nodes.(c.id)
let consumed_resources t (c : Syscall.t) = t.consumed_records.(c.id)

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
      let consumed = Array.length (resource t kind).consumers > 0 in
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
