module Serializer = Healer_executor.Serializer
module Codec = Healer_util.Codec

let magic = "HLRDB1\n"

let corpus_to_string progs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  List.iter (fun p -> Codec.put_string buf (Serializer.encode p)) progs;
  Buffer.contents buf

let corpus_of_string target s =
  let rec entries acc r =
    if Codec.at_end r then List.rev acc
    else entries (Codec.sub r (Serializer.read target) :: acc) r
  in
  Codec.decode ~format:"corpus"
    (fun r ->
      Codec.magic r magic;
      entries [] r)
    s

(* All persisted state goes through write-to-temp-then-rename: a crash
   mid-write leaves the previous file intact (the temp is garbage the
   next writer overwrites), never a truncated archive. [Sys.rename] is
   atomic within a filesystem and the temp lives next to the target. *)
let write_atomic ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save_corpus ~path progs = write_atomic ~path (corpus_to_string progs)
let load_corpus target ~path = corpus_of_string target (read_file path)
let save_relations ~path table = write_atomic ~path (Relation_table.serialize table)
let load_relations ~path = Relation_table.deserialize (read_file path)
