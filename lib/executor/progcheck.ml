(* Program-level static validator: typed dataflow checking of Prog.t
   against the compiled target (the IR analogue of syzkaller's
   prog.debugValidate).

   Two layers per program:

   - value conformance: every argument value is checked deeply against
     its declared type — arity, constants, flag subsets, integer
     widths/ranges, proc values, buffer kinds, union arms, array
     bounds, len fields against the sized sibling they name;

   - resource dataflow: every [Res_ref] must point strictly backwards
     to a call producing a compatible resource kind (honouring
     inheritance), with warnings for references in output-only slots,
     for producers nothing ever consumes, and for uses after a closing
     call consumed the resource.

   Severities split along one line: an Error is something the
   generator/mutator/serializer pipeline must never emit (the
   enforcement hooks turn those into immediate failures under
   HEALER_DEBUG_VALIDATE); a Warning is a plausible-but-suspect
   program shape that real fuzzing legitimately explores. *)

module D = Healer_util.Diagnostic
module Ty = Healer_syzlang.Ty
module Field = Healer_syzlang.Field
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall

let checks =
  [
    ( "prog-alien-call",
      D.Error,
      "call's syscall is not the target's syscall with that id" );
    ("prog-arity", D.Error, "argument count differs from the declaration");
    ("prog-type", D.Error, "value shape incompatible with the declared type");
    ("prog-const", D.Error, "constant argument differs from the declared value");
    ("prog-flags", D.Error, "flags value uses bits outside the declared set");
    ( "prog-int-width",
      D.Error,
      "integer value outside the declared width or range" );
    ("prog-proc", D.Error, "per-process value is not start + k*step");
    ( "prog-len",
      D.Error,
      "length field disagrees with the named sibling's byte size" );
    ("prog-array-bounds", D.Error, "array length outside the declared bounds");
    ("prog-union", D.Error, "union value conforms to no declared arm");
    ( "prog-res-dangling",
      D.Error,
      "resource reference does not point strictly backwards" );
    ( "prog-res-kind",
      D.Error,
      "referenced call produces no compatible resource kind" );
    ( "prog-out-ref",
      D.Warning,
      "resource reference in an output-only slot (the call overwrites it)" );
    ( "prog-dead-producer",
      D.Warning,
      "returned resource is never consumed by a later call" );
    ( "prog-use-after-close",
      D.Warning,
      "resource used after a closing call consumed it" );
  ]

(* ---- debug-validation switch (the HEALER_DEBUG_VALIDATE contract) ---- *)

exception Invalid of string

let env_enabled () =
  match Sys.getenv_opt "HEALER_DEBUG_VALIDATE" with
  | None -> false
  | Some v -> (
    match String.lowercase_ascii (String.trim v) with
    | "" | "0" | "false" | "no" | "off" -> false
    | _ -> true)

let debug = ref (env_enabled ())

(* One switch drives the whole debug-validation contract: flipping it
   also arms (or disarms) the runtime lockdep and effect-trace
   validators down in [Kernel.exec], so `Progcheck.set_debug true` —
   what the test suite and the dune @analyze gates do — covers all
   three. *)
let set_debug b =
  debug := b;
  Healer_kernel.Lock.set_validate b;
  Healer_kernel.Effect.set_validate b

let debug_enabled () = !debug

(* ---- the checker ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A call that ends the lifetime of the resources it consumes
   (close(2), io_destroy, timer_delete, ...). Heuristic on the base
   name, mirroring syzkaller's resource-destructor convention. *)
let is_closer (sc : Syscall.t) =
  List.exists (contains sc.Syscall.base) [ "close"; "destroy"; "delete"; "free" ]

let truncate_bits bits v =
  if bits >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)

let consuming = function Ty.In | Ty.In_out -> true | Ty.Out -> false

(* Facts a value walk gathers about resource references: the referenced
   call index and the slot's effective direction (the innermost
   enclosing pointer direction overrides the resource's own, matching
   Syscall.collect_res). *)
type ref_note = { ref_idx : int; ref_dir : Ty.dir }

type sink = { emit : D.t -> unit; note : ref_note -> unit }

let check ?src target (p : Prog.t) =
  let n = Prog.length p in
  let diags = ref [] in
  let used = Array.make (max n 1) false in
  (* producing call index -> index of the call that closed its resource *)
  let closed : (int, int) Hashtbl.t = Hashtbl.create 8 in
  for k = 0 to n - 1 do
    let c = Prog.call p k in
    let sc = c.Prog.syscall in
    let mk ~check ~severity msg =
      D.v
        ~pos:{ D.src; line = k + 1 }
        ~check ~severity
        ~subject:("call " ^ sc.Syscall.name)
        msg
    in
    (* The deep conformance walk. [ptr_dir] is the innermost enclosing
       pointer direction; [path] keeps messages navigable. *)
    let rec walk sink ~path ~ptr_dir (ty : Ty.t) (v : Value.t) =
      let err check fmt =
        Fmt.kstr
          (fun m -> sink.emit (mk ~check ~severity:D.Error (path ^ ": " ^ m)))
          fmt
      in
      let warn check fmt =
        Fmt.kstr
          (fun m -> sink.emit (mk ~check ~severity:D.Warning (path ^ ": " ^ m)))
          fmt
      in
      let shape expected =
        err "prog-type" "expected %s for %s, got %a" expected (Ty.to_string ty)
          Value.pp v
      in
      match (ty, v) with
      | Ty.Const c, Value.Int x ->
        if not (Int64.equal x c) then
          err "prog-const" "declared const 0x%Lx, got 0x%Lx" c x
      | Ty.Const _, _ -> shape "a constant integer"
      | Ty.Int { bits; range }, Value.Int x -> (
        match range with
        | Some (lo, hi) ->
          if Int64.compare x lo < 0 || Int64.compare x hi > 0 then
            err "prog-int-width" "0x%Lx outside declared range [%Ld:%Ld]" x lo
              hi
        | None ->
          if not (Int64.equal (truncate_bits bits x) x) then
            err "prog-int-width" "0x%Lx does not fit int%d" x bits)
      | Ty.Int _, _ -> shape "an integer"
      | Ty.Flags name, Value.Int x ->
        let mask =
          Array.fold_left Int64.logor 0L (Target.flag_values target name)
        in
        if not (Int64.equal (Int64.logand x (Int64.lognot mask)) 0L) then
          err "prog-flags" "0x%Lx uses bits outside flags %s (mask 0x%Lx)" x
            name mask
      | Ty.Flags _, _ -> shape "a flags integer"
      | Ty.Len _, Value.Int _ ->
        (* The value is checked against its sibling at the field-list
           level (walk_fields); here only the shape. *)
        ()
      | Ty.Len _, _ -> shape "a length integer"
      | Ty.Proc { start; step }, Value.Int x ->
        let d = Int64.sub x start in
        let bad =
          Int64.compare d 0L < 0
          ||
          if Int64.equal step 0L then not (Int64.equal d 0L)
          else not (Int64.equal (Int64.rem d step) 0L)
        in
        if bad then err "prog-proc" "0x%Lx is not %Ld + k*%Ld" x start step
      | Ty.Proc _, _ -> shape "a per-process integer"
      | Ty.Res { kind; dir }, v -> (
        let eff_dir = match ptr_dir with Some d -> d | None -> dir in
        match v with
        | Value.Res_ref i ->
          if i < 0 || i >= k then
            err "prog-res-dangling"
              "r%d does not point strictly backwards from call %d" i (k + 1)
          else begin
            sink.note { ref_idx = i; ref_dir = eff_dir };
            let producer = (Prog.call p i).Prog.syscall in
            let produced = Target.produces target producer in
            if
              not
                (List.exists
                   (fun pk ->
                     Target.compatible target ~consumer:kind ~producer:pk)
                   produced)
            then
              err "prog-res-kind" "r%d (%s) produces %s, none compatible with %s"
                i producer.Syscall.name
                (match produced with
                | [] -> "no resource"
                | ks -> String.concat ", " ks)
                kind;
            if eff_dir = Ty.Out then
              warn "prog-out-ref"
                "r%d passed in an output-only %s slot (the call overwrites it)"
                i kind
          end
        | Value.Res_special _ | Value.Int _ ->
          (* Special values and the generator's no-producer integer
             fallback are legitimate resource arguments. *)
          ()
        | _ -> shape ("a " ^ kind ^ " resource"))
      | Ty.Ptr { dir; elem }, Value.Ptr inner ->
        walk sink ~path ~ptr_dir:(Some dir) elem inner
      | Ty.Ptr _, Value.Null -> ()
      | Ty.Ptr _, _ -> shape "a pointer or null"
      | Ty.Buffer _, Value.Buf _ -> ()
      | Ty.Buffer _, _ -> shape "a byte buffer"
      | Ty.Str _, Value.Str _ -> ()
      | Ty.Str _, _ -> shape "a string"
      | Ty.Filename _, Value.Str _ -> ()
      | Ty.Filename _, _ -> shape "a filename string"
      | Ty.Array { elem; min_len; max_len }, Value.Group vs ->
        let len = List.length vs in
        if len < min_len || len > max_len then
          err "prog-array-bounds" "%d elements outside [%d:%d]" len min_len
            max_len;
        List.iteri
          (fun i v -> walk sink ~path:(Fmt.str "%s[%d]" path i) ~ptr_dir elem v)
          vs
      | Ty.Array _, _ -> shape "an array group"
      | Ty.Struct_ref name, Value.Group vs ->
        let fields = Target.struct_fields target name in
        if List.length fields <> List.length vs then
          err "prog-type" "struct %s has %d fields, value has %d" name
            (List.length fields) (List.length vs)
        else walk_fields sink ~path:(path ^ "." ^ name) ~ptr_dir fields vs
      | Ty.Struct_ref _, _ -> shape "a struct group"
      | Ty.Union_ref name, Value.Group [ v ] -> (
        let arms = Target.union_fields target name in
        (* Trial-check each arm silently; accept the first whose shape
           and dataflow are error-free, replaying its findings and
           resource notes into the real sinks. *)
        let try_arm (f : Field.t) =
          let tr_diags = ref [] and tr_notes = ref [] in
          let trial =
            {
              emit = (fun d -> tr_diags := d :: !tr_diags);
              note = (fun nt -> tr_notes := nt :: !tr_notes);
            }
          in
          walk trial
            ~path:(path ^ "." ^ name ^ "." ^ f.Field.fname)
            ~ptr_dir f.Field.fty v;
          if List.exists (fun (d : D.t) -> d.D.severity = D.Error) !tr_diags
          then None
          else Some (List.rev !tr_diags, List.rev !tr_notes)
        in
        match List.find_map try_arm arms with
        | Some (tr_diags, tr_notes) ->
          List.iter sink.emit tr_diags;
          List.iter sink.note tr_notes
        | None ->
          err "prog-union" "value %a conforms to no arm of union %s" Value.pp v
            name)
      | Ty.Union_ref _, _ -> shape "a single-arm union group"
      | Ty.Vma, Value.Vma _ -> ()
      | Ty.Vma, _ -> shape "a vma address"
    (* A named field list (call arguments or a struct body): walk each
       member, then validate direct len[] fields against the sibling
       they name — the same sibling lookup and byte-size model
       Value_gen.resolve_lens uses to produce them. *)
    and walk_fields sink ~path ~ptr_dir (fields : Field.t list) values =
      let pairs = List.combine fields values in
      List.iter
        (fun ((f : Field.t), v) ->
          walk sink ~path:(path ^ "." ^ f.Field.fname) ~ptr_dir f.Field.fty v)
        pairs;
      List.iter
        (fun ((f : Field.t), v) ->
          match (f.Field.fty, v) with
          | Ty.Len name, Value.Int x -> (
            match
              List.find_opt
                (fun ((g : Field.t), _) -> String.equal g.Field.fname name)
                pairs
            with
            | Some (_, sv) ->
              let expected = Int64.of_int (Value.byte_size sv) in
              if not (Int64.equal x expected) then
                sink.emit
                  (mk ~check:"prog-len" ~severity:D.Error
                     (Fmt.str "%s.%s = %Ld but sibling %s is %Ld bytes" path
                        f.Field.fname x name expected))
            | None -> ())
          | _ -> ())
        pairs
    in
    let declared =
      match Target.syscall target sc.Syscall.id with
      | d ->
        if String.equal d.Syscall.name sc.Syscall.name then Some d else None
      | exception Invalid_argument _ -> None
    in
    match declared with
    | None ->
      diags :=
        mk ~check:"prog-alien-call" ~severity:D.Error
          (Fmt.str "syscall id %d (%s) is not in target %s" sc.Syscall.id
             sc.Syscall.name (Target.name target))
        :: !diags
    | Some decl ->
      let nargs = List.length c.Prog.args
      and nfields = List.length decl.Syscall.args in
      if nargs <> nfields then
        diags :=
          mk ~check:"prog-arity" ~severity:D.Error
            (Fmt.str "%d arguments, declaration has %d" nargs nfields)
          :: !diags
      else begin
        let notes = ref [] in
        let sink =
          {
            emit = (fun d -> diags := d :: !diags);
            note = (fun nt -> notes := nt :: !notes);
          }
        in
        walk_fields sink ~path:"arg" ~ptr_dir:None decl.Syscall.args
          c.Prog.args;
        let notes = List.rev !notes in
        List.iter
          (fun { ref_idx = i; ref_dir } ->
            used.(i) <- true;
            if consuming ref_dir then
              match Hashtbl.find_opt closed i with
              | Some j ->
                diags :=
                  mk ~check:"prog-use-after-close" ~severity:D.Warning
                    (Fmt.str "r%d was closed by call %d (%s)" i (j + 1)
                       (Prog.call p j).Prog.syscall.Syscall.name)
                  :: !diags
              | None -> ())
          notes;
        if is_closer sc then
          List.iter
            (fun { ref_idx = i; ref_dir } ->
              if consuming ref_dir && not (Hashtbl.mem closed i) then
                Hashtbl.replace closed i k)
            notes
      end
  done;
  (* Dead producers: calls whose *returned* resource nothing consumes.
     Out-parameter production is deliberately not flagged — a call with
     a [ptr[out, res]] argument produces as a side effect, and leaving
     that untouched is a perfectly ordinary program shape.  Alien calls
     (no valid declaration) were already reported above and are
     skipped here. *)
  for k = 0 to n - 1 do
    let sc = (Prog.call p k).Prog.syscall in
    let declared_ok =
      match Target.syscall target sc.Syscall.id with
      | d -> String.equal d.Syscall.name sc.Syscall.name
      | exception Invalid_argument _ -> false
    in
    match sc.Syscall.ret with
    | Some kind when declared_ok && not used.(k) ->
      diags :=
        D.v
          ~pos:{ D.src; line = k + 1 }
          ~check:"prog-dead-producer" ~severity:D.Warning
          ~subject:("call " ^ sc.Syscall.name)
          (Fmt.str "returns %s but no later call consumes it" kind)
        :: !diags
    | _ -> ()
  done;
  List.sort_uniq D.compare !diags

let errors ?src target p =
  List.filter (fun (d : D.t) -> d.D.severity = D.Error) (check ?src target p)

let is_clean target p = errors target p = []

let debug_check ~what target p =
  if !debug then
    match errors target p with
    | [] -> ()
    | errs ->
      raise
        (Invalid
           (Fmt.str "%s emitted an invalid program:@.%a@.program:@.%s" what
              Fmt.(list ~sep:cut D.pp)
              errs (Prog.to_string p)))
