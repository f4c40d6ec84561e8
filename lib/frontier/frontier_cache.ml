(** On-disk frontier persistence (see the interface).

    Files reuse {!Magis_resilience.Checkpoint}'s container — magic,
    version, fingerprint, payload length and digest, written
    tmp+fsync+rename — and its payload is the {!Frontier.t} itself, as
    the search's snapshot is its loop state: a load is one unmarshal,
    with no document to decode and no point to re-insert.  The trust
    model is the snapshot's: the files live in the directory the
    caller owns, and the container's checks turn a stale, foreign or
    corrupt file into a miss before anything is unmarshalled.  The
    trajectory fingerprint is stored both in the header (as the
    checkpoint fingerprint) and in the file name, so one directory
    holds many frontiers and lookup is a stat, not a scan. *)

module Checkpoint = Magis_resilience.Checkpoint

(* Bump when [Frontier.t]'s representation changes.  Version 1 held the
   frontier's JSON document, version 2 a frontier with no baseline,
   version 3 points that carried their schedule; such a file is now a
   miss. *)
let version = 4

let path ~dir ~key =
  Filename.concat dir (Printf.sprintf "frontier-%016Lx.ckpt" key)

let save ~dir ~key (frontier : Frontier.t) =
  Checkpoint.mkdir_p dir;
  Checkpoint.save ~path:(path ~dir ~key) ~version ~fingerprint:key frontier

let load ~dir ~key =
  let p = path ~dir ~key in
  if not (Checkpoint.exists p) then None
  else
    match (Checkpoint.load ~path:p ~version ~fingerprint:key : Frontier.t) with
    | fr -> Some fr
    | exception Checkpoint.Incompatible _ ->
        (* stale / foreign / corrupt file: a miss, not an error — the
           caller rebuilds and overwrites it *)
        None
