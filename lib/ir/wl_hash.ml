(** Weisfeiler–Lehman-style graph hashing (Algorithm 3, lines 3–6).

    Every node receives a label combining its operator fingerprint, output
    shape and the (ordered) labels of its operands; the graph hash is a
    commutative combination of all node labels, so two graphs that are equal
    up to node renumbering hash identically.  Used by the optimizer to
    filter duplicate search states.  Labels are read from a {!Graph_index}. *)

module Int_map = Util.Int_map

(* WL labels in an array indexed by node id, filled in topological
   order so every operand's label is ready before its consumer's. *)
let label_array (ix : Graph_index.t) : int64 array =
  let labels = Array.make (Graph_index.bound ix) 0L in
  Array.iter
    (fun v ->
      let n = Graph_index.node ix v in
      let h0 = Util.hash_combine (Op.fingerprint n.op) (Shape.hash n.shape) in
      let h =
        Array.fold_left (fun h p -> Util.hash_combine h labels.(p)) h0 n.inputs
      in
      labels.(v) <- Util.mix64 h)
    (Graph_index.order ix);
  labels

(** Per-node WL labels in topological order. *)
let node_labels (g : Graph.t) : int64 Int_map.t =
  let ix = Graph_index.of_graph g in
  let labels = label_array ix in
  Array.fold_left
    (fun acc v -> Int_map.add v labels.(v) acc)
    Int_map.empty (Graph_index.order ix)

(** Structural hash of the indexed graph (invariant under node
    renumbering): the mixed wrap-around sum of the node labels. *)
let hash_on (ix : Graph_index.t) : int64 =
  let labels = label_array ix in
  Util.mix64
    (Array.fold_left (fun acc v -> Int64.add acc labels.(v)) 0L (Graph_index.order ix))

let hash (g : Graph.t) : int64 = hash_on (Graph_index.of_graph g)
let equal_structure a b = Int64.equal (hash a) (hash b)
