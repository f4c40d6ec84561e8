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

(** Nodes ordered by decreasing working set (ties by id, so sampling is
    deterministic); the max cut is overwhelmingly attained at one of the
    fattest worksets, so they are the sampling candidates. *)
let cut_candidates lv g =
  Liveness.fold (fun v acc -> (workset lv g v, v) :: acc) lv []
  |> List.sort (fun (wa, va) (wb, vb) -> compare (wb, va) (wa, vb))
  |> List.map snd

let max_cut ?sample (lv : Liveness.t) g : int * int =
  let candidates =
    match sample with
    | None -> cut_candidates lv g
    | Some k -> Util.take k (cut_candidates lv g)
  in
  List.fold_left
    (fun ((best, _) as acc) v ->
      let c = Liveness.always_live_bytes lv v in
      if c > best then (c, v) else acc)
    (0, -1) candidates

(** The dominator-tree relaxation of the cut: only ancestors that are
    dominators of [v], held only by consumers [v] dominates.  A strict
    subset of the exact cut's terms, hence [lb_dom <= lb_cut]; disagreement
    the other way indicts one of the two reachability structures. *)
let dom_cut (lv : Liveness.t) g : int =
  let t = Dominator.compute g in
  (* O(1) dominance via an Euler interval labelling of the tree *)
  let tin = Hashtbl.create 64 and tout = Hashtbl.create 64 in
  let clock = ref 0 in
  let rec dfs v =
    Hashtbl.replace tin v !clock;
    incr clock;
    Util.Int_set.iter dfs (Dominator.children t v);
    Hashtbl.replace tout v !clock
  in
  let in_tree = List.filter (fun v -> Dominator.idom t v <> None) (Graph.node_ids g) in
  List.iter
    (fun v ->
      if Dominator.idom t v = Some Dominator.virtual_root then dfs v)
    in_tree;
  let dominates u v =
    match (Hashtbl.find_opt tin u, Hashtbl.find_opt tin v) with
    | Some tu, Some tv -> tu <= tv && tv < Hashtbl.find tout u
    | _ -> false
  in
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
            && List.exists (fun c -> c = v || dominates v c) (Graph.suc g d)
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
  let lb_workset = Liveness.fold (fun v acc -> max acc (workset lv g v)) lv 0 in
  let lb_cut, cut_node = max_cut lv g in
  let lb_dom = dom_cut lv g in
  let lb_pinned = Liveness.pinned_bytes lv in
  let ub_total = Liveness.fold (fun v acc -> acc + size_of v) lv 0 in
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
    ub_total;
    cut_node;
  }

let compute ?size_of (g : Graph.t) : t =
  of_liveness (Liveness.compute ?size_of g)

(* ------------------------------------------------------------------ *)
(* Sampled lower bound                                                 *)
(* ------------------------------------------------------------------ *)

(** Dense scratch representation for the sampled lower bound, which
    [quick_check] runs on every state the search simulates under
    [verify_states]: one pass over the node map into flat arrays, then
    array-only arithmetic — no [Liveness] bitsets, no per-query
    [Graph.pre]/[Graph.suc] list allocation. *)
type dense = {
  n : int;
  size : int array;
  d_is_weight : bool array;
  preds : int list array;  (** distinct operand indices *)
  succs : int list array;
  d_weight_bytes : int;
  d_pinned_bytes : int;
  total_bytes : int;
}

let densify ?size_of (g : Graph.t) : dense =
  let size_of =
    match size_of with Some f -> f | None -> Lifetime.default_size g
  in
  let n = Graph.n_nodes g in
  let index = Hashtbl.create n in
  let next = ref 0 in
  Graph.iter
    (fun nd ->
      Hashtbl.replace index nd.Graph.id !next;
      incr next)
    g;
  let size = Array.make n 0 in
  let d_is_weight = Array.make n false in
  let is_input = Array.make n false in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  Graph.iter
    (fun nd ->
      let i = Hashtbl.find index nd.Graph.id in
      size.(i) <- size_of nd.Graph.id;
      d_is_weight.(i) <- Op.is_weight nd.Graph.op;
      is_input.(i) <- Op.is_input nd.Graph.op;
      Array.iter
        (fun p ->
          let pi = Hashtbl.find index p in
          if not (List.mem pi preds.(i)) then begin
            preds.(i) <- pi :: preds.(i);
            succs.(pi) <- i :: succs.(pi)
          end)
        nd.Graph.inputs)
    g;
  let d_weight_bytes = ref 0 and d_pinned_bytes = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + size.(i);
    if d_is_weight.(i) then d_weight_bytes := !d_weight_bytes + size.(i);
    if d_is_weight.(i) || (succs.(i) = [] && not is_input.(i)) then
      d_pinned_bytes := !d_pinned_bytes + size.(i)
  done;
  {
    n;
    size;
    d_is_weight;
    preds;
    succs;
    d_weight_bytes = !d_weight_bytes;
    d_pinned_bytes = !d_pinned_bytes;
    total_bytes = !total;
  }

let dense_workset (d : dense) i =
  if d.d_is_weight.(i) then d.d_weight_bytes
  else
    List.fold_left
      (fun acc p -> if d.d_is_weight.(p) then acc else acc + d.size.(p))
      (d.d_weight_bytes + d.size.(i))
      d.preds.(i)

(** The cut at candidate [v], from two stamped graph walks: descendants
    of [v] (forward over [succs]) and ancestors (backward over [preds]).
    Same value as {!Liveness.always_live_bytes}, without the bitsets. *)
let dense_cut (d : dense) ~des_stamp ~anc_stamp ~stamp v =
  let rec walk adj stamps acc = function
    | [] -> acc
    | u :: rest ->
        let acc, rest =
          List.fold_left
            (fun (acc, rest) w ->
              if stamps.(w) = stamp then (acc, rest)
              else begin
                stamps.(w) <- stamp;
                (w :: acc, w :: rest)
              end)
            (acc, rest) adj.(u)
        in
        walk adj stamps acc rest
  in
  des_stamp.(v) <- stamp;
  ignore (walk d.succs des_stamp [] [ v ]);
  let ancs = walk d.preds anc_stamp [] [ v ] in
  let base =
    d.d_weight_bytes + (if d.d_is_weight.(v) then 0 else d.size.(v))
  in
  List.fold_left
    (fun acc w ->
      if
        (not d.d_is_weight.(w))
        && List.exists (fun c -> des_stamp.(c) = stamp) d.succs.(w)
      then acc + d.size.(w)
      else acc)
    base ancs

let dense_lower ?sample (d : dense) : int =
  if d.n = 0 then 0
  else begin
    let worksets = Array.init d.n (fun i -> dense_workset d i) in
    let lb_workset = Array.fold_left max 0 worksets in
    (* candidates by decreasing working set, ties by dense index *)
    let by_workset = Array.init d.n (fun i -> i) in
    Array.sort
      (fun a b -> compare (worksets.(b), a) (worksets.(a), b))
      by_workset;
    let k = match sample with None -> d.n | Some k -> min k d.n in
    let des_stamp = Array.make d.n (-1) and anc_stamp = Array.make d.n (-1) in
    let lb_cut = ref 0 in
    for c = 0 to k - 1 do
      let cut =
        dense_cut d ~des_stamp ~anc_stamp ~stamp:c by_workset.(c)
      in
      if cut > !lb_cut then lb_cut := cut
    done;
    max (max lb_workset !lb_cut) d.d_pinned_bytes
  end

let lower_bound ?size_of ?sample (g : Graph.t) : int =
  dense_lower ?sample (densify ?size_of g)

let quick_check ?size_of ?sample (g : Graph.t) ~peak : Diagnostic.t list =
  let d = densify ?size_of g in
  let lower = dense_lower ?sample d in
  let err ~check fmt = Diagnostic.errorf ~pass ~check fmt in
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
      (if peak > d.total_bytes then
         [
           err ~check:"peak-exceeds-total"
             "simulated peak %d exceeds the total-bytes upper bound %d" peak
             d.total_bytes;
         ]
       else []);
    ]

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
      (if t.lower > peak then
         [
           err ~check:"lb-exceeds-peak"
             "lower bound %d exceeds the simulated peak %d (inadmissible \
              bound or broken cost model)"
             t.lower peak;
         ]
       else []);
      (if peak > t.ub_total then
         [
           err ~check:"peak-exceeds-total"
             "simulated peak %d exceeds the total-bytes upper bound %d" peak
             t.ub_total;
         ]
       else []);
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
