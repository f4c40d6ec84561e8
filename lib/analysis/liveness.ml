(** Schedule-independent liveness (see the interface).

    One {!Graph_index} of the graph answers everything: reachability is
    its {!Reach} closure over its topological order (one
    ancestor/descendant bit matrix, so [must_precede] is a bit test and
    [earliest]/[latest] are row popcounts), consumers are its adjacency
    arrays and operators its node records, and sizes sit in an
    id-indexed side table, so the cut scan of [always_live_bytes]
    touches no map; residency is {!Lifetime.pinned_by}. *)

open Magis_ir
open Magis_cost

type t = {
  ix : Graph_index.t;
  sizes : int array;  (** device bytes, by node id *)
  weight_bytes : int;
  pinned_bytes : int;
}

let is_weight ix v = Op.is_weight (Graph_index.node ix v).op

let pinned_in ix v =
  Lifetime.pinned_by (Graph_index.node ix v).op
    ~consumed:(Graph_index.succs ix v <> [||])

let compute ?size_of (g : Graph.t) : t =
  let size_of =
    match size_of with Some f -> f | None -> Lifetime.default_size g
  in
  let ix = Graph_index.of_graph g in
  let sizes = Array.make (Graph_index.bound ix) 0 in
  let weight_bytes = ref 0 and pinned_bytes = ref 0 in
  Array.iter
    (fun v ->
      sizes.(v) <- size_of v;
      if is_weight ix v then weight_bytes := !weight_bytes + sizes.(v);
      if pinned_in ix v then pinned_bytes := !pinned_bytes + sizes.(v))
    (Reach.order (Graph_index.reach ix));
  {
    ix;
    sizes;
    weight_bytes = !weight_bytes;
    pinned_bytes = !pinned_bytes;
  }

let graph t = Graph_index.graph t.ix
let reach t = Graph_index.reach t.ix
let length t = Reach.length (reach t)
let size t v = t.sizes.(v)
let weight_bytes t = t.weight_bytes
let pinned_bytes t = t.pinned_bytes
let pinned t v = pinned_in t.ix v
let must_precede t u v = Reach.precedes (reach t) u v
let earliest t v = Reach.n_anc (reach t) v
let latest t v = length t - 1 - Reach.n_des (reach t) v
let mobility t v = latest t v - earliest t v

let envelope t v =
  let lo = earliest t v in
  let hi =
    if pinned t v then length t - 1
    else
      Array.fold_left (fun acc c -> max acc (latest t c)) lo (Graph_index.succs t.ix v)
  in
  (lo, hi)

(** The cut at [v] (see the interface): weights, [v]'s own output, and
    ancestors [w] with a consumer forced at-or-after [v].  Every term is
    live at [v]'s step in every schedule — the bound is admissible. *)
let always_live_bytes t v =
  let acc = ref t.weight_bytes and r = reach t in
  if not (is_weight t.ix v) then acc := !acc + t.sizes.(v);
  let at_or_below c = c = v || Reach.precedes r v c in
  Reach.iter_anc
    (fun w ->
      if
        (not (is_weight t.ix w))
        && Array.exists at_or_below (Graph_index.succs t.ix w)
      then acc := !acc + t.sizes.(w))
    r v;
  !acc

let fold f t init =
  Array.fold_left (fun acc v -> f v acc) init (Reach.order (reach t))
