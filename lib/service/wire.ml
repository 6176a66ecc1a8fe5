module Codec = Healer_util.Codec

type tag = Epoch | Delta | Quit

let tag_byte = function Epoch -> 'E' | Delta -> 'D' | Quit -> 'Q'

let malformed offset reason =
  raise (Codec.Malformed { format = "frame"; offset; reason })

let tag_of_byte = function
  | 'E' -> Epoch
  | 'D' -> Delta
  | 'Q' -> Quit
  | c -> malformed 0 (Printf.sprintf "unknown frame tag %C" c)

(* A corrupt length prefix must not turn into a giant allocation. *)
let max_payload = 1 lsl 30

(* ---- endpoints: reusable scratch per connection ---- *)

(* One endpoint per pipe end. The encode buffer and the frame-assembly
   bytes are reused across frames ([Buffer.clear] keeps the storage),
   so the steady-state hot path allocates only the decoded payload
   string — no per-frame [Buffer.create]/[Bytes.create]/[to_bytes]
   copies. Counters make the comms cost of a campaign observable. *)
type endpoint = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* payload encoding, cleared (not reset) per frame *)
  hdr : Buffer.t;  (* tag byte and length varint *)
  mutable scratch : Bytes.t;  (* assembled outgoing / incoming frame *)
  byte1 : Bytes.t;  (* single-byte header reads *)
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable frames_out : int;
  mutable frames_in : int;
}

let endpoint fd =
  {
    fd;
    buf = Buffer.create 4096;
    hdr = Buffer.create 16;
    scratch = Bytes.create 4096;
    byte1 = Bytes.create 1;
    bytes_out = 0;
    bytes_in = 0;
    frames_out = 0;
    frames_in = 0;
  }

let ensure ep n =
  if Bytes.length ep.scratch < n then
    ep.scratch <- Bytes.create (max n (2 * Bytes.length ep.scratch))

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (off + n) (len - n)
  end

let send ep tag encode =
  Buffer.clear ep.buf;
  encode ep.buf;
  let len = Buffer.length ep.buf in
  Buffer.clear ep.hdr;
  Buffer.add_char ep.hdr (tag_byte tag);
  Codec.put_uint ep.hdr len;
  let hdr = Buffer.length ep.hdr in
  ensure ep (hdr + len);
  Buffer.blit ep.hdr 0 ep.scratch 0 hdr;
  Buffer.blit ep.buf 0 ep.scratch hdr len;
  write_all ep.fd ep.scratch 0 (hdr + len);
  ep.bytes_out <- ep.bytes_out + hdr + len;
  ep.frames_out <- ep.frames_out + 1

let send_string ep tag payload =
  send ep tag (fun buf -> Buffer.add_string buf payload)

let read_byte ep =
  let rec go () =
    match Unix.read ep.fd ep.byte1 0 1 with
    | 0 -> raise End_of_file
    | _ -> Bytes.get ep.byte1 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_exact_into ep n =
  ensure ep n;
  let off = ref 0 in
  while !off < n do
    match Unix.read ep.fd ep.scratch !off (n - !off) with
    | 0 -> raise End_of_file
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* The length varint is read byte-by-byte: its size is unknown until
   the continuation bit clears, and over-reading would steal the next
   frame's bytes. Five bytes hold any length up to [max_payload]. *)
let recv ep =
  let tag = tag_of_byte (read_byte ep) in
  let len = ref 0 and shift = ref 0 and continue = ref true in
  let hdr = ref 1 in
  while !continue do
    if !shift > 28 then malformed 1 "frame length varint too long";
    let b = Char.code (read_byte ep) in
    incr hdr;
    len := !len lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  if !len > max_payload then malformed 1 "frame payload too large";
  read_exact_into ep !len;
  ep.bytes_in <- ep.bytes_in + !hdr + !len;
  ep.frames_in <- ep.frames_in + 1;
  (tag, Bytes.sub_string ep.scratch 0 !len)

let bytes_out ep = ep.bytes_out
let bytes_in ep = ep.bytes_in
let frames_out ep = ep.frames_out
let frames_in ep = ep.frames_in

(* ---- one-shot framing (shutdown paths, tests) ---- *)

let send_frame fd tag payload = send_string (endpoint fd) tag payload
let recv_frame fd = recv (endpoint fd)
