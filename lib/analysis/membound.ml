(** Peak-memory bounds (see the interface for the bound catalogue and
    the admissibility argument of each term). *)

open Magis_ir
open Magis_cost

let pass = "membound"

type t = {
  lb_workset : int;
  lb_cut : int;
  lb_dom : int;
  lb_pinned : int;
  lower : int;
  ub_greedy : int;
  ub_total : int;
  cut_node : int;
}

(* ------------------------------------------------------------------ *)
(* Lower-bound terms                                                   *)
(* ------------------------------------------------------------------ *)

(** Working set of one operator: pinned weights + distinct non-weight
    operands + its own output.  All of it is live while [v] runs. *)
let workset (lv : Liveness.t) g v =
  if Op.is_weight (Graph.op g v) then Liveness.weight_bytes lv
  else
    List.fold_left
      (fun acc p ->
        if Op.is_weight (Graph.op g p) then acc else acc + Liveness.size lv p)
      (Liveness.weight_bytes lv + Liveness.size lv v)
      (Graph.pre g v)

(** [(lb_workset, lb_cut, cut_node)] in one sweep.  [cut_node] attains
    the largest cut, ties going to the larger working set and then the
    smaller id; [-1] when no cut is positive. *)
let workset_and_cut (lv : Liveness.t) g : int * int * int =
  let lb_workset = ref 0 and lb_cut = ref 0 in
  let cut_ws = ref 0 and cut_node = ref (-1) in
  Liveness.fold
    (fun v () ->
      let ws = workset lv g v and c = Liveness.always_live_bytes lv v in
      lb_workset := max !lb_workset ws;
      if
        c > !lb_cut
        || c = !lb_cut && c > 0
           && (ws > !cut_ws || (ws = !cut_ws && v < !cut_node))
      then begin
        lb_cut := c;
        cut_ws := ws;
        cut_node := v
      end)
    lv ();
  (!lb_workset, !lb_cut, !cut_node)

(** [lower] without the dominator term, which {!check} verifies never
    exceeds [lb_cut]: the [lower] of {!of_liveness} at a fraction of the
    cost (no dominator tree, no greedy schedule). *)
let lower_of (lv : Liveness.t) : int =
  let lb_workset, lb_cut, _ = workset_and_cut lv (Liveness.graph lv) in
  max (max lb_workset lb_cut) (Liveness.pinned_bytes lv)

let total_bytes (lv : Liveness.t) : int =
  Liveness.fold (fun v acc -> acc + Liveness.size lv v) lv 0

(** The dominator-tree relaxation of the cut: only ancestors that are
    dominators of [v], held only by consumers [v] dominates.  A strict
    subset of the exact cut's terms, hence [lb_dom <= lb_cut]; disagreement
    the other way indicts one of the two reachability structures. *)
let dom_cut (lv : Liveness.t) g : int =
  let t = Dominator.compute g in
  let in_tree = List.filter (fun v -> Dominator.idom t v <> None) (Graph.node_ids g) in
  let cut v =
    let base =
      Liveness.weight_bytes lv
      + (if Op.is_weight (Graph.op g v) then 0 else Liveness.size lv v)
    in
    let rec climb u acc =
      match Dominator.idom t u with
      | None -> acc
      | Some d when d = Dominator.virtual_root -> acc
      | Some d ->
          let held =
            (not (Op.is_weight (Graph.op g d)))
            && List.exists (fun c -> Dominator.dominates t v c) (Graph.suc g d)
          in
          climb d (if held then acc + Liveness.size lv d else acc)
    in
    climb v base
  in
  List.fold_left (fun acc v -> max acc (cut v)) 0 in_tree

(* ------------------------------------------------------------------ *)
(* Bound records                                                       *)
(* ------------------------------------------------------------------ *)

let of_liveness (lv : Liveness.t) : t =
  let g = Liveness.graph lv in
  let size_of v = Liveness.size lv v in
  let lb_workset, lb_cut, cut_node = workset_and_cut lv g in
  let lb_dom = dom_cut lv g in
  let lb_pinned = Liveness.pinned_bytes lv in
  let ub_greedy =
    if Liveness.length lv = 0 then 0
    else
      let order = Magis_sched.Reorder.schedule ~max_states:0 ~size_of g in
      Lifetime.peak_memory (Lifetime.analyze ~size_of g order)
  in
  {
    lb_workset;
    lb_cut;
    lb_dom;
    lb_pinned;
    lower = max (max lb_workset lb_cut) (max lb_dom lb_pinned);
    ub_greedy;
    ub_total = total_bytes lv;
    cut_node;
  }

let compute ?size_of (g : Graph.t) : t =
  of_liveness (Liveness.compute ?size_of g)

let lower_bound ?size_of (g : Graph.t) : int =
  lower_of (Liveness.compute ?size_of g)

(* The two diagnostics {!check} and {!quick_check} share. *)
let peak_diags ?node ~lower ~ub_total peak =
  let err ~check fmt = Diagnostic.errorf ?node ~pass ~check fmt in
  List.concat
    [
      (if lower > peak then
         [
           err ~check:"lb-exceeds-peak"
             "lower bound %d exceeds the simulated peak %d (inadmissible \
              bound or broken cost model)"
             lower peak;
         ]
       else []);
      (if peak > ub_total then
         [
           err ~check:"peak-exceeds-total"
             "simulated peak %d exceeds the total-bytes upper bound %d" peak
             ub_total;
         ]
       else []);
    ]

let quick_check ?size_of (g : Graph.t) ~peak : Diagnostic.t list =
  let lv = Liveness.compute ?size_of g in
  peak_diags ~lower:(lower_of lv) ~ub_total:(total_bytes lv) peak

let latency_lower_bound ~(cost_of : int -> float) (g : Graph.t) : float =
  Graph.fold
    (fun (n : Graph.node) acc ->
      match n.op with
      | Op.Input _ | Op.Store | Op.Load -> acc
      | _ -> acc +. cost_of n.id)
    g 0.0

(* ------------------------------------------------------------------ *)
(* Invariant checking and printing                                     *)
(* ------------------------------------------------------------------ *)

let check ?node (t : t) ~peak : Diagnostic.t list =
  let err ~check fmt = Diagnostic.errorf ?node ~pass ~check fmt in
  List.concat
    [
      peak_diags ?node ~lower:t.lower ~ub_total:t.ub_total peak;
      (if t.lower > t.ub_greedy then
         [
           err ~check:"lb-exceeds-greedy"
             "lower bound %d exceeds the greedy-schedule peak %d \
              (inadmissible bound caught by a concrete schedule)"
             t.lower t.ub_greedy;
         ]
       else []);
      (if t.lb_dom > t.lb_cut then
         [
           err ~check:"dom-exceeds-cut"
             "dominator cut %d exceeds the exact reachability cut %d" t.lb_dom
             t.lb_cut;
         ]
       else []);
    ]

let pp ppf (t : t) =
  Fmt.pf ppf
    "bounds(lower=%.1fMB [workset=%.1f cut=%.1f@%d dom=%.1f pinned=%.1f], \
     ub_greedy=%.1fMB, ub_total=%.1fMB)"
    (float_of_int t.lower /. 1e6)
    (float_of_int t.lb_workset /. 1e6)
    (float_of_int t.lb_cut /. 1e6)
    t.cut_node
    (float_of_int t.lb_dom /. 1e6)
    (float_of_int t.lb_pinned /. 1e6)
    (float_of_int t.ub_greedy /. 1e6)
    (float_of_int t.ub_total /. 1e6)
