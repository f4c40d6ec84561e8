(** On-disk frontier persistence (see the interface).

    Files reuse {!Magis_resilience.Checkpoint}'s container — magic,
    version, fingerprint, digested Marshal payload, written
    tmp+fsync+rename — so a cached frontier inherits the checkpoint
    subsystem's crash-atomicity and staleness detection.  The payload is
    the frontier's JSON document ({!Frontier.to_json}), which
    round-trips points and counters exactly; reloading re-delta-encodes
    the schedules, so the on-disk format is independent of the codec's
    internals.  The trajectory fingerprint is stored both in the header
    (as the checkpoint fingerprint) and in the file name, so one
    directory holds many frontiers and lookup is a stat, not a scan. *)

module Checkpoint = Magis_resilience.Checkpoint

(* Bump when the payload representation changes. *)
let version = 1

let path ~dir ~key =
  Filename.concat dir (Printf.sprintf "frontier-%016Lx.ckpt" key)

let save ~dir ~key frontier =
  Checkpoint.mkdir_p dir;
  Checkpoint.save
    ~path:(path ~dir ~key)
    ~version ~fingerprint:key
    (Frontier.to_json frontier)

let load ~dir ~key =
  let p = path ~dir ~key in
  if not (Checkpoint.exists p) then None
  else
    match
      Frontier.of_json (Checkpoint.load ~path:p ~version ~fingerprint:key)
    with
    | fr -> Some fr
    | exception (Checkpoint.Incompatible _ | Frontier.Invalid _) ->
        (* stale / foreign / corrupt file: a miss, not an error — the
           caller rebuilds and overwrites it *)
        None
