(** Dominance-pruned memory–latency Pareto frontier (see the interface
    for the contract).

    Representation: a sorted array of points, peak ascending — the
    dominance invariant then forces latency strictly descending, so a
    budget query is one binary search for the rightmost point with
    [peak <= budget].  Inserts are O(n) (frontiers stay small: one per
    workload × hardware × config), queries O(log n). *)

module Json = Magis_obs.Json

type point = {
  peak : int;
  latency : float;
  iteration : int;
  sched : int list;
}

type counters = {
  harvested : int;
  pruned : int;
  evicted : int;
  queries : int;
  hits : int;
}

type t = {
  mutable pts : point array;  (** peak ascending, latency descending *)
  mutable harvested : int;
  mutable pruned : int;
  mutable evicted : int;
  mutable queries : int;
  mutable hits : int;
}

let create () =
  {
    pts = [||];
    harvested = 0;
    pruned = 0;
    evicted = 0;
    queries = 0;
    hits = 0;
  }

let size t = Array.length t.pts

let counters t =
  {
    harvested = t.harvested;
    pruned = t.pruned;
    evicted = t.evicted;
    queries = t.queries;
    hits = t.hits;
  }

let points t = Array.to_list t.pts

let peak_range t =
  match Array.length t.pts with
  | 0 -> None
  | n -> Some (t.pts.(0).peak, t.pts.(n - 1).peak)

(* Deterministic tie-break on exact (peak, latency) collisions: the
   earlier iteration wins, then the lexicographically smaller schedule —
   an order-independent rule, so merges commute. *)
let insert t ~peak ~latency ~iteration sched =
  t.harvested <- t.harvested + 1;
  let keep_existing =
    Array.exists
      (fun p ->
        if p.peak = peak && p.latency = latency then
          (p.iteration, p.sched) <= (iteration, sched)
        else p.peak <= peak && p.latency <= latency)
      t.pts
  in
  if keep_existing then begin
    t.pruned <- t.pruned + 1;
    false
  end
  else begin
    (* the candidate enters; evict everything it (weakly) dominates *)
    let survivors =
      List.filter
        (fun p -> not (peak <= p.peak && latency <= p.latency))
        (Array.to_list t.pts)
    in
    t.evicted <- t.evicted + (Array.length t.pts - List.length survivors);
    t.pts <-
      Array.of_list
        (List.sort
           (fun a b -> compare (a.peak, b.latency) (b.peak, a.latency))
           ({ peak; latency; iteration; sched } :: survivors));
    true
  end

let insert_point t (p : point) =
  insert t ~peak:p.peak ~latency:p.latency ~iteration:p.iteration p.sched

let query t ~budget =
  t.queries <- t.queries + 1;
  (* rightmost point with peak <= budget: by the dominance invariant it
     is also the lowest-latency feasible point *)
  let n = Array.length t.pts in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.pts.(mid).peak <= budget then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then None
  else begin
    t.hits <- t.hits + 1;
    Some t.pts.(!lo - 1)
  end

let merge a b =
  let m = create () in
  List.iter (fun p -> ignore (insert_point m p)) (points a);
  List.iter (fun p -> ignore (insert_point m p)) (points b);
  m

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization                                              *)
(* ------------------------------------------------------------------ *)

exception Invalid of string

let () =
  Printexc.register_printer (function
    | Invalid msg ->
        Some (Printf.sprintf "Magis_frontier.Frontier.Invalid(%s)" msg)
    | _ -> None)

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let json_version = 1

let point_to_json (p : point) =
  Json.Obj
    [
      ("peak", Json.Int p.peak);
      ("latency", Json.Float p.latency);
      ("iteration", Json.Int p.iteration);
      ("sched", Json.List (List.map (fun i -> Json.Int i) p.sched));
    ]

let to_json t =
  Json.Obj
    [
      ("version", Json.Int json_version);
      ("points", Json.List (List.map point_to_json (points t)));
      ("harvested", Json.Int t.harvested);
      ("pruned", Json.Int t.pruned);
      ("evicted", Json.Int t.evicted);
      ("queries", Json.Int t.queries);
      ("hits", Json.Int t.hits);
    ]

let req_int doc key =
  match Option.bind (Json.member key doc) Json.to_int with
  | Some i -> i
  | None -> invalid "missing integer field %S" key

let req_float doc key =
  match Option.bind (Json.member key doc) Json.to_float with
  | Some f -> f
  | None -> invalid "missing number field %S" key

let point_of_json doc =
  let sched =
    match Json.member "sched" doc with
    | Some (Json.List l) ->
        List.map
          (fun v ->
            match Json.to_int v with
            | Some i -> i
            | None -> invalid "field \"sched\" must hold integers")
          l
    | _ -> invalid "missing list field \"sched\""
  in
  {
    peak = req_int doc "peak";
    latency = req_float doc "latency";
    iteration = req_int doc "iteration";
    sched;
  }

let of_json doc =
  (match Json.member "version" doc with
  | Some (Json.Int v) when v = json_version -> ()
  | Some (Json.Int v) -> invalid "frontier version %d, expected %d" v
                           json_version
  | _ -> invalid "missing integer field \"version\"");
  let t = create () in
  (match Json.member "points" doc with
  | Some (Json.List l) ->
      List.iter (fun d -> ignore (insert_point t (point_of_json d))) l
  | _ -> invalid "missing list field \"points\"");
  (* inserting replayed the points; the recorded counters are the
     original frontier's history, so restore them verbatim *)
  t.harvested <- req_int doc "harvested";
  t.pruned <- req_int doc "pruned";
  t.evicted <- req_int doc "evicted";
  t.queries <- req_int doc "queries";
  t.hits <- req_int doc "hits";
  t

let pp ppf t =
  Fmt.pf ppf "frontier(%d points%a, %d harvested, %d pruned, %d evicted)"
    (size t)
    (fun ppf () ->
      match peak_range t with
      | None -> ()
      | Some (lo, hi) ->
          Fmt.pf ppf ", %.1f-%.1f MB" (float_of_int lo /. 1e6)
            (float_of_int hi /. 1e6))
    () t.harvested t.pruned t.evicted
