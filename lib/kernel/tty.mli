(** TTY subsystem: pseudo-terminals, line disciplines (including
    N_GSM), virtual consoles ([/dev/vcs]), the ttyprintk device and the
    console lock.

    Injected bugs: [console_unlock] (the 18-call Table 4 deadlock),
    [tty_init_dev_leak], [tpk_write], [n_tty_open], [gsmld_attach_gsm],
    [n_tty_receive_buf_common], [vcs_scr_readw], [vcs_write]. *)

type tty_kind = Ptmx | Vcs | Vcsa | Tpk

type tty = {
  tkind : tty_kind;
  mutable ldisc : int;  (** 0 = N_TTY, 21 = N_GSM. *)
  mutable ldisc_switches : int;
  mutable gsm_configured : bool;
  mutable pending_input : int;  (** Bytes queued by TIOCSTI. *)
  mutable reads : int;
  mutable offset : int64;
}

type console = {
  mutable writes : int;
  mutable active_vt : int;
  mutable deallocated : bool;  (** Current VT released by VT_DISALLOCATE. *)
  mutable vt_switches : int;
}

type State.fd_kind += Tty of tty

val sub : Subsystem.t
