type handler = Ctx.t -> Arg.t list -> Ctx.result

type file_op = {
  op_name : string;
  applies : State.fd_kind -> bool;
  run : Ctx.t -> State.fd_entry -> Arg.t list -> Ctx.result;
}

type t = {
  name : string;
  descriptions : string;
  handlers : (string * handler) list;
  file_ops : file_op list;
  copy_kind : State.fd_kind -> State.fd_kind option;
  locks : (string * Lock.spec) list;
  effects : (string * Effect.spec) list;
}

let make ?(handlers = []) ?(file_ops = []) ?(copy_kind = fun _ -> None)
    ?(locks = []) ?(effects = []) ~name ~descriptions () =
  { name; descriptions; handlers; file_ops; copy_kind; locks; effects }

let locked classes h ctx args =
  let rec go = function
    | [] -> h ctx args
    | c :: rest -> Ctx.with_lock ctx c (fun () -> go rest)
  in
  go classes

let registry : t list ref = ref []

let register sub =
  if not (List.exists (fun s -> String.equal s.name sub.name) !registry) then
    registry := !registry @ [ sub ]

let registered () = !registry

let dispatch_file_op ctx op (entry : State.fd_entry) args =
  let rec go = function
    | [] -> None
    | sub :: rest -> (
      let matching =
        List.find_opt
          (fun fo -> String.equal fo.op_name op && fo.applies entry.kind)
          sub.file_ops
      in
      match matching with
      | Some fo -> Some (fo.run ctx entry args)
      | None -> go rest)
  in
  go !registry
