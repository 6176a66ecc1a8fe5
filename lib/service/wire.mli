(** Length-prefixed binary framing over file descriptors — the
    coordinator/worker pipe protocol, built on {!Healer_util.Codec}'s
    LEB128 varints.

    A frame is one tag byte, a uvarint payload length, then the
    payload. Writers emit a frame with a single buffered write;
    readers block until the full frame arrives. A peer dying mid-frame
    surfaces as [End_of_file] (the pipe drains, then reads return 0),
    which the coordinator treats as worker death. *)

type tag =
  | Epoch  (** coordinator -> worker: epoch index + merged state *)
  | Delta  (** worker -> coordinator: end-of-epoch shard delta *)
  | Quit  (** coordinator -> worker: shut down cleanly *)

(** {2 Endpoints}

    A per-connection handle holding reusable scratch buffers: the
    frame-encode buffer and the assembly/receive bytes persist across
    frames, so the steady-state hot path performs one [write] per sent
    frame and allocates only the decoded payload string per received
    frame. Also counts bytes and frames in each direction — the
    coordinator surfaces these through its outcome and the status
    JSON. *)

type endpoint

val endpoint : Unix.file_descr -> endpoint

val send : endpoint -> tag -> (Buffer.t -> unit) -> unit
(** [send ep tag encode] runs [encode] against the endpoint's reused
    buffer and writes the assembled frame with a single [write].
    Raises [Unix.Unix_error (EPIPE, _, _)] when the peer is gone (the
    service layer disables [SIGPIPE]). *)

val send_string : endpoint -> tag -> string -> unit

val recv : endpoint -> tag * string
(** Blocking. Raises [End_of_file] on a closed peer, and
    {!Healer_util.Codec.Malformed} (format ["frame"]) on an unknown
    tag, an overlong length varint or a length above 1 GiB. *)

val bytes_out : endpoint -> int
val bytes_in : endpoint -> int
val frames_out : endpoint -> int
val frames_in : endpoint -> int

(** {2 One-shot framing}

    Conveniences over a throwaway endpoint — shutdown paths and tests;
    hot loops should hold an {!endpoint}. *)

val send_frame : Unix.file_descr -> tag -> string -> unit
val recv_frame : Unix.file_descr -> tag * string
