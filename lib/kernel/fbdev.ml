type fb = {
  mutable xres : int64;
  mutable yres : int64;
  mutable bpp : int64;
  mutable pixclock : int64;
  mutable font_height : int64;
  mutable cursor_size : int64;
  mutable panned : bool;
}

type State.fd_kind += Fb of fb

let blk = Coverage.region ~name:"fbdev" ~size:512
let c ctx o = Ctx.cover ctx (blk + o)

let h_open ctx args =
  let path = Arg.as_str (Arg.nth args 1) in
  c ctx 0;
  if path <> "/dev/fb0" then begin
    c ctx 1;
    Ctx.err Errno.ENOENT
  end
  else begin
    c ctx 2;
    let fb =
      {
        xres = 1024L;
        yres = 768L;
        bpp = 32L;
        pixclock = 39721L;
        font_height = 0L;
        cursor_size = 0L;
        panned = false;
      }
    in
    let entry = State.alloc_fd ctx.Ctx.st (Fb fb) in
    Ctx.ok (Int64.of_int entry.State.fd)
  end

let with_fb ctx args k =
  let fd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st fd with
  | Some { kind = Fb fb; _ } -> k fb
  | Some _ ->
    c ctx 4;
    Ctx.err Errno.ENOTTY
  | None ->
    c ctx 5;
    Ctx.err Errno.EBADF

let h_get_vscreeninfo ctx args =
  c ctx 7;
  with_fb ctx args (fun _ ->
      c ctx 8;
      Ctx.ok0)

let h_put_vscreeninfo ctx args =
  c ctx 10;
  with_fb ctx args (fun fb ->
      (* var { xres, yres, bpp, pixclock } *)
      let r = Arg.nth args 2 in
      if Arg.is_null r then begin
        c ctx 11;
        Ctx.err Errno.EFAULT
      end
      else begin
        let xres = Arg.as_int (Arg.field r 0) in
        let yres = Arg.as_int (Arg.field r 1) in
        let bpp = Arg.as_int (Arg.field r 2) in
        let pixclock = Arg.as_int (Arg.field r 3) in
        if Int64.compare xres 0L = 0 || Int64.compare yres 0L = 0 then begin
          (* Zero geometry survives validation and divides the refresh
             computation (fb_set_var). *)
          c ctx 12;
          Ctx.bug ctx "fb_set_var_div";
          Ctx.err Errno.EINVAL
        end
        else if Int64.compare bpp 0L <= 0 || Int64.compare bpp 64L > 0 then begin
          c ctx 13;
          Ctx.err Errno.EINVAL
        end
        else begin
          c ctx 14;
          (* Zero pixclock after a pan: fb_var_to_videomode divides by
             the pixel clock (4.19). *)
          if Int64.compare pixclock 0L = 0 then begin
            c ctx 15;
            if fb.panned then begin
              c ctx 16;
              Ctx.bug ctx "fb_var_to_videomode"
            end
          end
          else fb.pixclock <- pixclock;
          let shrunk = Int64.compare xres fb.xres < 0 in
          fb.xres <- xres;
          fb.yres <- yres;
          fb.bpp <- bpp;
          if shrunk then begin
            c ctx 17;
            (* Shrinking the row while a tall console font is loaded
               leaves the blit stride stale: the next console render
               reads past the glyph map (bit_putcs, 5.4). *)
            if Int64.compare fb.font_height 16L > 0 then begin
              c ctx 18;
              Ctx.bug ctx "bit_putcs"
            end;
            (* 1-bpp fill of the now-misaligned remainder row
               (bitfill_aligned, 4.19). *)
            if Int64.compare bpp 1L = 0 && fb.panned then begin
              c ctx 19;
              Ctx.bug ctx "bitfill_aligned"
            end
          end;
          Ctx.ok0
        end
      end)

let h_pan ctx args =
  c ctx 21;
  with_fb ctx args (fun fb ->
      c ctx 22;
      fb.panned <- true;
      Ctx.ok0)

let h_font_set ctx args =
  c ctx 24;
  with_fb ctx args (fun fb ->
      let op = Arg.nth args 2 in
      let height = Arg.as_int (Arg.field op 1) in
      if Int64.compare height 0L <= 0 || Int64.compare height 64L > 0 then begin
        c ctx 25;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 26;
        fb.font_height <- height;
        if Int64.compare height 32L > 0 then c ctx 27;
        Ctx.ok0
      end)

let h_font_get ctx args =
  c ctx 29;
  with_fb ctx args (fun fb ->
      if Int64.compare fb.font_height 0L = 0 then begin
        c ctx 30;
        Ctx.err Errno.ENODEV
      end
      else if Int64.compare fb.font_height 32L > 0 then begin
        (* The copy-out buffer is sized for 32-pixel glyphs
           (fbcon_get_font, 4.19). *)
        c ctx 31;
        Ctx.bug ctx "fbcon_get_font";
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 32;
        Ctx.ok0
      end)

let h_cursor ctx args =
  c ctx 34;
  with_fb ctx args (fun fb ->
      let cur = Arg.nth args 2 in
      let size = Arg.as_int (Arg.field cur 0) in
      if Int64.compare size 0L < 0 then begin
        c ctx 35;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 36;
        fb.cursor_size <- size;
        (* A cursor larger than the remaining row after a shrink blits
           outside the shadow buffer (soft_cursor, 5.0+). *)
        if
          Int64.compare size 64L > 0
          && Int64.compare fb.xres 512L < 0
          && fb.panned
        then begin
          c ctx 37;
          Ctx.bug ctx "soft_cursor"
        end;
        Ctx.ok0
      end)

let fb_write ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Fb fb ->
    let n = Arg.buf_length (Arg.nth args 1) in
    c ctx 39;
    if Int64.compare fb.font_height 0L > 0 then c ctx 40;
    if n > 4096 then c ctx 41 else c ctx 42;
    let combo =
      (if Int64.compare fb.font_height 0L > 0 then 1 else 0)
      lor (if fb.panned then 2 else 0)
      lor (if Int64.compare fb.bpp 8L <= 0 then 4 else 0)
      lor if Int64.compare fb.xres 512L < 0 then 8 else 0
    in
    c ctx (100 + combo);
    let size_class =
      if n = 0 then 0 else if n <= 256 then 1
      else if n <= 1024 then 2 else if n <= 4096 then 3
      else if n <= 8192 then 4 else 5
    in
    c ctx (128 + (combo * 8) + size_class);
    Ctx.ok (Int64.of_int n)
  | _ -> Ctx.err Errno.EINVAL

let descriptions =
  {|
# Framebuffer and fbcon.
resource fd_fb[fd]
struct fb_var { xres int32, yres int32, bpp int32, pixclock int32 }
struct console_font_op { op int32[0:2], height int32, width int32, data buffer[in] }
struct fb_cursor { size int32, setmode int32, image buffer[in] }
openat$fb0(dirfd fd, file filename["/dev/fb0"], oflags flags[open_flags]) fd_fb
ioctl$FBIOGET_VSCREENINFO(fd fd_fb, cmd const[0x4600], var ptr[out, fb_var])
ioctl$FBIOPUT_VSCREENINFO(fd fd_fb, cmd const[0x4601], var ptr[in, fb_var])
ioctl$FBIOPAN_DISPLAY(fd fd_fb, cmd const[0x4606], var ptr[in, fb_var])
ioctl$KDFONTOP_SET(fd fd_fb, cmd const[0x4b72], op ptr[in, console_font_op])
ioctl$KDFONTOP_GET(fd fd_fb, cmd const[0x4b72], op ptr[out, console_font_op])
ioctl$FBIO_CURSOR(fd fd_fb, cmd const[0x4608], cursor ptr[in, fb_cursor])
|}

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Fb f -> Some (Fb { f with xres = f.xres })
  | _ -> None

let sub =
  Subsystem.make ~name:"fbdev" ~descriptions ~copy_kind
    ~handlers:
      [
        ("openat$fb0", h_open);
        ("ioctl$FBIOGET_VSCREENINFO", h_get_vscreeninfo);
        ("ioctl$FBIOPUT_VSCREENINFO", h_put_vscreeninfo);
        ("ioctl$FBIOPAN_DISPLAY", h_pan);
        ("ioctl$KDFONTOP_SET", h_font_set);
        ("ioctl$KDFONTOP_GET", h_font_get);
        ("ioctl$FBIO_CURSOR", h_cursor);
      ]
    ~file_ops:
      [
        {
          Subsystem.op_name = "write";
          applies = (function Fb _ -> true | _ -> false);
          run = fb_write;
        };
      ]
    ()
