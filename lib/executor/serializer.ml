module Target = Healer_syzlang.Target
module Codec = Healer_util.Codec
module Blob = Healer_util.Blob

let magic = "HLR1"

let rec put_value buf (v : Value.t) =
  match v with
  | Value.Int x ->
    Buffer.add_char buf '\000';
    Codec.put_svarint buf x
  | Value.Res_ref i ->
    Buffer.add_char buf '\001';
    Codec.put_uint buf i
  | Value.Res_special x ->
    Buffer.add_char buf '\002';
    Codec.put_svarint buf x
  | Value.Str s ->
    Buffer.add_char buf '\003';
    Codec.put_string buf s
  | Value.Buf b ->
    Buffer.add_char buf '\004';
    Codec.put_uint buf (Blob.length b);
    Blob.add_to_buffer buf b
  | Value.Group vs ->
    Buffer.add_char buf '\005';
    Codec.put_list put_value buf vs
  | Value.Ptr inner ->
    Buffer.add_char buf '\006';
    put_value buf inner
  | Value.Null -> Buffer.add_char buf '\007'
  | Value.Vma a ->
    Buffer.add_char buf '\b';
    Codec.put_uvarint buf a

let rec get_value r =
  let at = Codec.offset r in
  match Codec.byte r with
  | 0 -> Value.Int (Codec.svarint r)
  | 1 -> Value.Res_ref (Codec.uint r)
  | 2 -> Value.Res_special (Codec.svarint r)
  | 3 -> Value.Str (Codec.string r)
  | 4 -> Value.Buf (Blob.of_bytes (Codec.bytes r))
  | 5 -> Value.Group (Codec.list ~max:4096 r get_value)
  | 6 -> Value.Ptr (get_value r)
  | 7 -> Value.Null
  | 8 -> Value.Vma (Codec.uvarint r)
  | t -> Codec.fail ~at r (Printf.sprintf "unknown value tag %d" t)

let put_call buf (c : Prog.call) =
  Codec.put_uint buf c.Prog.syscall.Healer_syzlang.Syscall.id;
  Codec.put_list put_value buf c.Prog.args

let encode (p : Prog.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Codec.put_uint buf (Prog.length p);
  Array.iter (put_call buf) p.calls;
  Buffer.contents buf

let get_call target r =
  let at = Codec.offset r in
  let id = Codec.uint r in
  let syscall =
    try Target.syscall target id
    with Invalid_argument _ -> Codec.fail ~at r "unknown syscall id"
  in
  { Prog.syscall; args = Codec.list ~max:64 r get_value }

let read target r =
  let start = Codec.offset r in
  Codec.magic r magic;
  let p = Prog.of_list (Codec.list ~max:4096 r (get_call target)) in
  (* Under HEALER_DEBUG_VALIDATE a syntactically well-formed encoding
     of a type-invalid program is still malformed input: the decoder
     is the trust boundary for persisted corpora. *)
  if Progcheck.debug_enabled () then begin
    match Progcheck.errors target p with
    | [] -> ()
    | errs ->
      Codec.fail ~at:start r
        (Fmt.str "@[<v>decoded program fails validation:@,%a@]"
           Fmt.(list ~sep:cut Healer_util.Diagnostic.pp)
           errs)
  end;
  p

let decode target s = Codec.decode ~format:"program" (read target) s
