type usbdev = { mutable configured : bool; mutable disconnected : bool }

type State.fd_kind += Usbdev of usbdev

let blk = Coverage.region ~name:"usb" ~size:128
let c ctx o = Ctx.cover ctx (blk + o)

let gated ctx k =
  if not (Ctx.has_feature ctx "usb") then begin
    c ctx 0;
    Ctx.err Errno.ENOSYS
  end
  else k ()

let h_connect ctx args =
  gated ctx (fun () ->
      c ctx 2;
      let desc = Arg.nth args 0 in
      let n = Arg.buf_length desc in
      if n < 18 then begin
        c ctx 3;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 4;
        (* A config descriptor whose declared total length exceeds the
           payload walks past the buffer. *)
        if n >= 20 && Char.code (Arg.buf_get desc 19) > 0x40 then begin
          c ctx 5;
          Ctx.bug ctx "usb_parse_configuration_oob"
        end;
        let entry =
          State.alloc_fd ctx.Ctx.st (Usbdev { configured = true; disconnected = false })
        in
        Ctx.ok (Int64.of_int entry.State.fd)
      end)

let with_usb ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Usbdev u; _ } -> k u
  | Some _ -> (c ctx 7; Ctx.err Errno.ENODEV)
  | None -> (c ctx 8; Ctx.err Errno.EBADF)

let h_disconnect ctx args =
  gated ctx (fun () ->
      c ctx 10;
      with_usb ctx args (fun u ->
          if u.disconnected then begin
            c ctx 11;
            Ctx.err Errno.ENODEV
          end
          else begin
            c ctx 12;
            u.disconnected <- true;
            Ctx.ok0
          end))

let h_control_io ctx args =
  gated ctx (fun () ->
      c ctx 14;
      with_usb ctx args (fun u ->
          if u.disconnected then begin
            (* Port state read after hub teardown (hub_activate). *)
            c ctx 15;
            Ctx.bug ctx "hub_activate_uaf";
            Ctx.err Errno.ENODEV
          end
          else begin
            let req = Arg.nth args 1 in
            let rtype = Arg.as_int (Arg.field req 0) in
            c ctx 16;
            (* A class-specific request before the gadget bound its
               function dereferences the NULL driver data. *)
            if Int64.compare rtype 0x21L = 0 && u.configured then begin
              c ctx 17;
              Ctx.bug ctx "gadget_setup_null"
            end;
            Ctx.ok0
          end))

let descriptions =
  {|
# USB emulation pseudo-calls.
resource fd_usb[fd]
struct usb_ctrl_req { request_type int32, request int32, value int32, index int32 }
syz_usb_connect(desc buffer[in]) fd_usb
syz_usb_disconnect(fd fd_usb)
syz_usb_control_io(fd fd_usb, req ptr[in, usb_ctrl_req])
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Usbdev d -> Some (Usbdev { d with configured = d.configured })
  | _ -> None

let sub =
  Subsystem.make ~name:"usb" ~descriptions ~copy_kind
    ~handlers:
      [
        ("syz_usb_connect", h_connect);
        ("syz_usb_disconnect", h_disconnect);
        ("syz_usb_control_io", h_control_io);
      ]
    ()
