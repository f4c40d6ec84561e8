(** Weisfeiler–Lehman-style graph hashing (Algorithm 3, lines 3–6).

    Every node receives a label combining its operator fingerprint, output
    shape and the (ordered) labels of its operands; the graph hash is a
    commutative combination of all node labels, so two graphs that are equal
    up to node renumbering hash identically.  Used by the optimizer to
    filter duplicate search states. *)

module Int_map = Util.Int_map

(* WL labels in an array indexed by node id, filled in topological
   order so every operand's label is ready before its consumer's. *)
let label_array (g : Graph.t) (order : int list) : int64 array =
  let labels = Array.make (Graph.id_bound g) 0L in
  List.iter
    (fun v ->
      let n = Graph.node g v in
      let h0 = Util.hash_combine (Op.fingerprint n.op) (Shape.hash n.shape) in
      let h =
        Array.fold_left (fun h p -> Util.hash_combine h labels.(p)) h0 n.inputs
      in
      labels.(v) <- Util.mix64 h)
    order;
  labels

(** Per-node WL labels in topological order. *)
let node_labels (g : Graph.t) : int64 Int_map.t =
  let order = Graph.topo_order g in
  let labels = label_array g order in
  List.fold_left (fun acc v -> Int_map.add v labels.(v) acc) Int_map.empty order

(** Structural hash of the whole graph (invariant under node renumbering):
    the mixed wrap-around sum of the node labels.  [order] is a
    topological order of [g] the caller already has; by default
    {!Graph.topo_order}. *)
let hash ?order (g : Graph.t) : int64 =
  let order = match order with Some o -> o | None -> Graph.topo_order g in
  let labels = label_array g order in
  Util.mix64 (List.fold_left (fun acc v -> Int64.add acc labels.(v)) 0L order)

let equal_structure a b = Int64.equal (hash a) (hash b)
