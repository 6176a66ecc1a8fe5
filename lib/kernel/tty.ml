type tty_kind = Ptmx | Vcs | Vcsa | Tpk

type tty = {
  tkind : tty_kind;
  mutable ldisc : int;
  mutable ldisc_switches : int;
  mutable gsm_configured : bool;
  mutable pending_input : int;
  mutable reads : int;
  mutable offset : int64;
}

type console = {
  mutable writes : int;
  mutable active_vt : int;
  mutable deallocated : bool;
  mutable vt_switches : int;
}

type State.fd_kind += Tty of tty

let blk = Coverage.region ~name:"tty" ~size:1024
let c ctx o = Ctx.cover ctx (blk + o)

let n_gsm = 21
let vcs_columns = 80 * 25

let console_slot =
  State.slot ~name:"console"
    ~create:(fun () -> { writes = 0; active_vt = 1; deallocated = false; vt_switches = 0 })
    ~copy:(fun c -> { c with writes = c.writes })

let console_of st = State.get st console_slot

let fresh_tty tkind =
  {
    tkind;
    ldisc = 0;
    ldisc_switches = 0;
    gsm_configured = false;
    pending_input = 0;
    reads = 0;
    offset = 0L;
  }

let open_count_key = function
  | Ptmx -> "tty.ptmx_opens"
  | Vcs -> "tty.vcs_opens"
  | Vcsa -> "tty.vcsa_opens"
  | Tpk -> "tty.tpk_opens"

let h_open kind ctx _args =
  c ctx 0;
  let opens = State.incr_counter ctx.Ctx.st (open_count_key kind) in
  (match kind with
  | Ptmx ->
    c ctx 1;
    (* A re-opened ptmx while a previous instance still exists leaks
       the half-initialized tty (tty_init_dev). *)
    if opens >= 2 then begin
      c ctx 2;
      Ctx.bug ctx "tty_init_dev_leak"
    end
  | Vcs -> c ctx 3
  | Vcsa -> c ctx 4
  | Tpk -> c ctx 5);
  let entry = State.alloc_fd ctx.Ctx.st (Tty (fresh_tty kind)) in
  Ctx.ok (Int64.of_int entry.State.fd)

let with_tty ctx args k =
  let fd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st fd with
  | Some { kind = Tty t; _ } -> k t
  | Some _ ->
    c ctx 7;
    Ctx.err Errno.ENOTTY
  | None ->
    c ctx 8;
    Ctx.err Errno.EBADF

let h_set_ldisc ctx args =
  c ctx 10;
  with_tty ctx args (fun t ->
      let ld = Int64.to_int (Arg.as_int (Arg.field (Arg.nth args 2) 0)) in
      if ld < 0 || ld > 30 then begin
        c ctx 11;
        Ctx.err Errno.EINVAL
      end
      else begin
        let old = t.ldisc in
        t.ldisc <- ld;
        t.ldisc_switches <- t.ldisc_switches + 1;
        if ld = n_gsm then begin
          c ctx 12;
          if old = n_gsm then begin
            (* Re-attaching N_GSM to a tty that already carries a GSM
               mux dereferences the stale gsm->tty (5.11). *)
            c ctx 13;
            Ctx.bug ctx "gsmld_attach_gsm"
          end
        end
        else if old = n_gsm && ld = 0 then begin
          (* Falling back from N_GSM to N_TTY with input pending takes
             the n_tty_open path over freed ldisc data (5.11). *)
          c ctx 14;
          if t.pending_input > 0 then begin
            c ctx 15;
            Ctx.bug ctx "n_tty_open"
          end
        end
        else c ctx 16;
        Ctx.ok0
      end)

let h_get_ldisc ctx args =
  c ctx 18;
  with_tty ctx args (fun t ->
      c ctx 19;
      Ctx.ok (Int64.of_int t.ldisc))

let h_gsm_config ctx args =
  c ctx 21;
  with_tty ctx args (fun t ->
      if t.ldisc <> n_gsm then begin
        c ctx 22;
        Ctx.err Errno.EOPNOTSUPP
      end
      else begin
        c ctx 23;
        t.gsm_configured <- true;
        Ctx.ok0
      end)

let h_sti ctx args =
  c ctx 25;
  with_tty ctx args (fun t ->
      c ctx 26;
      t.pending_input <- t.pending_input + 1;
      (* Injected input flushed into a tty whose reader raced a ldisc
         change lands in a freed buffer (5.0+). *)
      if t.ldisc_switches >= 2 && t.reads >= 1 then begin
        c ctx 27;
        Ctx.bug ctx "n_tty_receive_buf_common"
      end;
      Ctx.ok0)

let h_vt_activate ctx args =
  c ctx 29;
  let vt = Int64.to_int (Arg.as_int (Arg.nth args 2)) in
  let con = console_of ctx.Ctx.st in
  if vt < 1 || vt > 12 then begin
    c ctx 30;
    Ctx.err Errno.ENXIO
  end
  else begin
    c ctx 31;
    con.active_vt <- vt;
    con.deallocated <- false;
    con.vt_switches <- con.vt_switches + 1;
    Ctx.ok0
  end

let h_vt_disallocate ctx args =
  c ctx 33;
  let vt = Int64.to_int (Arg.as_int (Arg.nth args 2)) in
  let con = console_of ctx.Ctx.st in
  if vt < 1 || vt > 12 then begin
    c ctx 34;
    Ctx.err Errno.ENXIO
  end
  else begin
    c ctx 35;
    if vt = con.active_vt then con.deallocated <- true;
    Ctx.ok0
  end

let h_syslog ctx args =
  c ctx 37;
  let cmd = Int64.to_int (Arg.as_int (Arg.nth args 0)) in
  let con = console_of ctx.Ctx.st in
  match cmd with
  | 5 ->
    (* SYSLOG_ACTION_CLEAR while a console-write storm holds the
       console lock across a VT switch self-deadlocks in
       console_unlock (the 18-call Table 4 chain). *)
    c ctx 38;
    if con.writes >= 12 && con.vt_switches >= 1 then begin
      c ctx 39;
      Ctx.bug ctx "console_unlock"
    end;
    con.writes <- 0;
    Ctx.ok0
  | 2 | 3 | 4 ->
    c ctx 40;
    Ctx.ok 0L
  | 9 | 10 ->
    c ctx 41;
    Ctx.ok (Int64.of_int con.writes)
  | _ ->
    c ctx 42;
    Ctx.err Errno.EINVAL

let tty_combo t =
  let kind_idx = match t.tkind with Ptmx -> 0 | Vcs -> 1 | Vcsa -> 2 | Tpk -> 3 in
  (kind_idx * 8)
  lor (if t.ldisc = n_gsm then 4 else 0)
  lor (if t.gsm_configured then 2 else 0)
  lor if t.pending_input > 0 then 1 else 0

let tty_write ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Tty t -> (
    let n = Arg.buf_length (Arg.nth args 1) in
    let con = console_of ctx.Ctx.st in
    c ctx 44;
    c ctx (100 + tty_combo t);
    con.writes <- con.writes + 1;
    (* Console rendering ladder: combo x accumulated console writes. *)
    c ctx (256 + (tty_combo t * 16) + min 15 con.writes);
    match t.tkind with
    | Tpk ->
      c ctx 45;
      (* ttyprintk BUG()s on a line longer than its fixed buffer when
         the tty was switched to a non-default ldisc first. *)
      if n > 512 && t.ldisc_switches >= 1 then begin
        c ctx 46;
        Ctx.bug ctx "tpk_write"
      end;
      Ctx.ok (Int64.of_int n)
    | Vcs | Vcsa ->
      c ctx 47;
      if con.deallocated then begin
        c ctx 48;
        Ctx.err Errno.ENXIO
      end
      else if Int64.compare t.offset (Int64.of_int vcs_columns) > 0 && n > 0
      then begin
        (* Writing past the screen buffer of the current console
           (4.19). *)
        c ctx 49;
        Ctx.bug ctx "vcs_write";
        Ctx.ok (Int64.of_int n)
      end
      else begin
        c ctx 50;
        t.offset <- Int64.add t.offset (Int64.of_int n);
        Ctx.ok (Int64.of_int n)
      end
    | Ptmx ->
      c ctx 51;
      if t.ldisc = n_gsm && not t.gsm_configured then begin
        c ctx 52;
        Ctx.err Errno.EAGAIN
      end
      else begin
        c ctx 53;
        Ctx.ok (Int64.of_int n)
      end)
  | _ -> Ctx.err Errno.EINVAL

let tty_read ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Tty t -> (
    let count = Arg.as_int (Arg.nth args 2) in
    c ctx 55;
    c ctx (140 + tty_combo t);
    t.reads <- t.reads + 1;
    c ctx (768 + (tty_combo t * 4) + min 3 t.reads);
    match t.tkind with
    | Vcs | Vcsa ->
      let con = console_of ctx.Ctx.st in
      if con.deallocated then begin
        (* Screen buffer of the deallocated console is gone; the word
           read walks freed memory (5.0+). *)
        c ctx 56;
        Ctx.bug ctx "vcs_scr_readw";
        Ctx.err Errno.ENXIO
      end
      else begin
        c ctx 57;
        Ctx.ok (min count (Int64.of_int vcs_columns))
      end
    | Ptmx ->
      c ctx 58;
      if t.pending_input > 0 then begin
        c ctx 59;
        let n = min count (Int64.of_int t.pending_input) in
        t.pending_input <- 0;
        Ctx.ok n
      end
      else begin
        c ctx 60;
        Ctx.err Errno.EAGAIN
      end
    | Tpk ->
      c ctx 61;
      Ctx.err Errno.EOPNOTSUPP)
  | _ -> Ctx.err Errno.EINVAL

(* vcs supports lseek to position within the screen buffer. *)
let tty_lseek ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Tty ({ tkind = Vcs | Vcsa; _ } as t) ->
    c ctx 63;
    let offset = Arg.as_int (Arg.nth args 1) in
    if Int64.compare offset 0L < 0 then begin
      c ctx 64;
      Ctx.err Errno.EINVAL
    end
    else begin
      c ctx 65;
      t.offset <- offset;
      if Int64.compare offset (Int64.of_int vcs_columns) > 0 then c ctx 66;
      Ctx.ok offset
    end
  | Tty _ -> Ctx.err Errno.EOPNOTSUPP
  | _ -> Ctx.err Errno.EINVAL

let descriptions =
  {|
# TTY: ptmx, line disciplines, virtual consoles, ttyprintk, console.
resource fd_tty[fd]
resource fd_ptmx[fd_tty]
resource fd_vcs[fd_tty]
resource fd_tpk[fd_tty]
flags tty_ldisc = 0 2 3 21
struct gsm_config { adaption int32, encapsulation int32, mru int32, mtu int32 }
openat$ptmx(dirfd fd, file filename["/dev/ptmx"], oflags flags[open_flags]) fd_ptmx
openat$vcs(dirfd fd, file filename["/dev/vcs"], oflags flags[open_flags]) fd_vcs
openat$vcsa(dirfd fd, file filename["/dev/vcsa"], oflags flags[open_flags]) fd_vcs
openat$ttyprintk(dirfd fd, file filename["/dev/ttyprintk"], oflags flags[open_flags]) fd_tpk
ioctl$TIOCSETD(fd fd_tty, cmd const[0x5423], ldisc ptr[in, flags[tty_ldisc]])
ioctl$TIOCGETD(fd fd_tty, cmd const[0x5424], ldisc ptr[out, int32])
ioctl$GSMIOC_SETCONF(fd fd_ptmx, cmd const[0x40204701], conf ptr[in, gsm_config])
ioctl$TIOCSTI(fd fd_tty, cmd const[0x5412], ch ptr[in, int8])
ioctl$VT_ACTIVATE(fd fd_tty, cmd const[0x5606], vt int32[0:16])
ioctl$VT_DISALLOCATE(fd fd_tty, cmd const[0x5608], vt int32[0:16])
syslog(cmd int32[0:10], buf buffer[out], length len[buf])
|}

let applies_tty = function Tty _ -> true | _ -> false

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Tty t -> Some (Tty { t with ldisc = t.ldisc })
  | _ -> None

let sub =
  Subsystem.make ~name:"tty" ~descriptions ~copy_kind
    ~handlers:
      [
        ("openat$ptmx", h_open Ptmx);
        ("openat$vcs", h_open Vcs);
        ("openat$vcsa", h_open Vcsa);
        ("openat$ttyprintk", h_open Tpk);
        ("ioctl$TIOCSETD", h_set_ldisc);
        ("ioctl$TIOCGETD", h_get_ldisc);
        ("ioctl$GSMIOC_SETCONF", h_gsm_config);
        ("ioctl$TIOCSTI", h_sti);
        ("ioctl$VT_ACTIVATE", h_vt_activate);
        ("ioctl$VT_DISALLOCATE", h_vt_disallocate);
        ("syslog", h_syslog);
      ]
    ~file_ops:
      [
        { Subsystem.op_name = "write"; applies = applies_tty; run = tty_write };
        { Subsystem.op_name = "read"; applies = applies_tty; run = tty_read };
        { Subsystem.op_name = "lseek"; applies = applies_tty; run = tty_lseek };
      ]
    ()
