(** Crash-safe snapshot files (see the interface for the format). *)

module Trace = Magis_obs.Trace
module Metrics = Magis_obs.Metrics

let saves_total = Metrics.counter "checkpoint.saves"
let loads_total = Metrics.counter "checkpoint.loads"

exception Incompatible of string

let () =
  Printexc.register_printer (function
    | Incompatible msg ->
        Some (Printf.sprintf "Magis_resilience.Checkpoint.Incompatible(%s)" msg)
    | _ -> None)

let magic = "MAGISCKP"

type header = {
  h_version : int;
  h_fingerprint : int64;
  h_digest : Digest.t;
  h_length : int;
}

let save ~path ~version ~fingerprint payload =
  Trace.with_span ~cat:"resilience" ~args:[ ("path", path) ] "checkpoint-save"
  @@ fun () ->
  Metrics.incr saves_total;
  let body = Marshal.to_string payload [] in
  let header =
    {
      h_version = version;
      h_fingerprint = fingerprint;
      h_digest = Digest.string body;
      h_length = String.length body;
    }
  in
  (* temp file in the same directory, so the rename is atomic *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc magic;
      Marshal.to_channel oc header [];
      output_string oc body;
      flush oc;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
  Sys.rename tmp path

let incompatible fmt = Printf.ksprintf (fun s -> raise (Incompatible s)) fmt

let load ~path ~version ~fingerprint =
  Trace.with_span ~cat:"resilience" ~args:[ ("path", path) ] "checkpoint-load"
  @@ fun () ->
  Metrics.incr loads_total;
  if not (Sys.file_exists path) then incompatible "%s: no such file" path;
  let ic =
    try open_in_bin path
    with Sys_error msg -> incompatible "%s: %s" path msg
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let fail fmt = incompatible ("%s: " ^^ fmt) path in
  let m = Bytes.create (String.length magic) in
  (try really_input ic m 0 (String.length magic)
   with End_of_file -> fail "truncated before the magic");
  if Bytes.to_string m <> magic then
    fail "not a MAGIS checkpoint (bad magic)";
  let header : header =
    try Marshal.from_channel ic
    with End_of_file | Failure _ -> fail "corrupt header"
  in
  if header.h_version <> version then
    fail "format version %d, expected %d" header.h_version version;
  if header.h_fingerprint <> fingerprint then
    fail
      "fingerprint mismatch (saved for another model, hardware, mode or \
       search configuration)";
  let body = Bytes.create header.h_length in
  (try really_input ic body 0 header.h_length
   with End_of_file -> fail "truncated payload");
  let body = Bytes.unsafe_to_string body in
  if Digest.string body <> header.h_digest then fail "payload digest mismatch";
  try Marshal.from_string body 0
  with Failure msg -> fail "unreadable payload (%s)" msg

let exists path = Sys.file_exists path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
