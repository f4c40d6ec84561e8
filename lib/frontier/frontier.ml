(** Dominance-pruned memory–latency Pareto frontier (see the interface
    for the contract).

    Representation: a sorted array of points, peak ascending — the
    dominance invariant then forces latency strictly descending, so a
    budget query is one binary search for the rightmost point with
    [peak <= budget].  Inserts are O(n) (frontiers stay small: one per
    workload × hardware × config), queries O(log n). *)

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
  baseline : int * float;
  mutable pts : point array;  (** peak ascending, latency descending *)
  mutable harvested : int;
  mutable pruned : int;
  mutable evicted : int;
  mutable queries : int;
  mutable hits : int;
}

let create ~baseline =
  {
    baseline;
    pts = [||];
    harvested = 0;
    pruned = 0;
    evicted = 0;
    queries = 0;
    hits = 0;
  }

let baseline t = t.baseline
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
   an order-independent rule, so the resident set ignores insert order. *)
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
