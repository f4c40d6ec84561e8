(** Schedule-independent liveness (see the interface).

    Reachability is the {!Reach} closure over {!Graph.topo_order}: one
    ancestor/descendant bit matrix, so [must_precede] is a bit test and
    [earliest]/[latest] are row popcounts.  Sizes, weight flags and
    consumer lists sit in id-indexed side tables, so the cut scan of
    [always_live_bytes] touches no map; residency is {!Lifetime.pinned}. *)

open Magis_ir
open Magis_cost

type t = {
  g : Graph.t;
  reach : Reach.t;
  sizes : int array;  (** device bytes, by node id *)
  is_weight : bool array;  (** by node id *)
  consumers : int array array;  (** by node id *)
  weight_bytes : int;
  pinned_bytes : int;
}

let compute ?size_of (g : Graph.t) : t =
  let size_of =
    match size_of with Some f -> f | None -> Lifetime.default_size g
  in
  let reach = Reach.compute g in
  let sizes = Array.make (Graph.id_bound g) 0 in
  let is_weight = Array.make (Graph.id_bound g) false in
  let consumers = Array.make (Graph.id_bound g) [||] in
  let weight_bytes = ref 0 and pinned_bytes = ref 0 in
  Array.iter
    (fun v ->
      sizes.(v) <- size_of v;
      is_weight.(v) <- Op.is_weight (Graph.op g v);
      consumers.(v) <- Array.of_list (Graph.suc g v);
      if is_weight.(v) then weight_bytes := !weight_bytes + sizes.(v);
      if Lifetime.pinned g v then pinned_bytes := !pinned_bytes + sizes.(v))
    (Reach.order reach);
  {
    g;
    reach;
    sizes;
    is_weight;
    consumers;
    weight_bytes = !weight_bytes;
    pinned_bytes = !pinned_bytes;
  }

let graph t = t.g
let length t = Reach.length t.reach
let size t v = t.sizes.(v)
let weight_bytes t = t.weight_bytes
let pinned_bytes t = t.pinned_bytes
let pinned t v = Lifetime.pinned t.g v
let must_precede t u v = Reach.precedes t.reach u v
let earliest t v = Reach.n_anc t.reach v
let latest t v = length t - 1 - Reach.n_des t.reach v
let mobility t v = latest t v - earliest t v

let envelope t v =
  let lo = earliest t v in
  let hi =
    if pinned t v then length t - 1
    else Array.fold_left (fun acc c -> max acc (latest t c)) lo t.consumers.(v)
  in
  (lo, hi)

(** The cut at [v] (see the interface): weights, [v]'s own output, and
    ancestors [w] with a consumer forced at-or-after [v].  Every term is
    live at [v]'s step in every schedule — the bound is admissible. *)
let always_live_bytes t v =
  let acc = ref t.weight_bytes in
  if not t.is_weight.(v) then acc := !acc + t.sizes.(v);
  let at_or_below c = c = v || Reach.precedes t.reach v c in
  Reach.iter_anc
    (fun w ->
      if
        (not t.is_weight.(w))
        && Array.exists at_or_below t.consumers.(w)
      then acc := !acc + t.sizes.(w))
    t.reach v;
  !acc

let fold f t init =
  Array.fold_left (fun acc v -> f v acc) init (Reach.order t.reach)
