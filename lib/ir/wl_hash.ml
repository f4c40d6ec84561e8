(** Weisfeiler–Lehman-style graph hashing (Algorithm 3, lines 3–6).

    Every node receives a label combining its operator fingerprint, output
    shape and the (ordered) labels of its operands; the graph hash is a
    commutative combination of all node labels, so two graphs that are equal
    up to node renumbering hash identically.  Used by the optimizer to
    filter duplicate search states.  Labels are read from a {!Graph_index}.

    Labels live unboxed, eight bytes per node id, so filling a label
    array stores no pointer.  {!relabel_on} computes a rewritten graph's
    labels from its parent's: a node whose record is physically the
    parent's record at its id reads the same operator, shape and operand
    ids, so when every operand also kept its label, the node's label is
    the parent's, and only the other nodes are hashed again. *)

type labels = { hash : int64; words : Bytes.t  (** label of id [v] at [8 * v] *) }

let get = Bytes.get_int64_ne
let set = Bytes.set_int64_ne

let label (l : labels) v = get l.words (8 * v)
let hash_of (l : labels) = l.hash

(* the label of [n] from the labels of its operands in [words] *)
let fresh words (n : Graph.node) =
  let h = ref (Util.hash_combine (Op.fingerprint n.op) (Shape.hash n.shape)) in
  let ins = n.inputs in
  for k = 0 to Array.length ins - 1 do
    h := Util.hash_combine !h (get words (8 * ins.(k)))
  done;
  Util.mix64 !h

(* Labels in topological order, so every operand's label is ready
   before its consumer's; [label_of words v n] is node [v]'s.  The
   hash is the mixed wrap-around sum of the labels. *)
let fill ix label_of =
  let words = Bytes.make (8 * Graph_index.bound ix) '\000' in
  let nodes = Graph_index.nodes ix in
  let sum = ref 0L in
  Array.iter
    (fun v ->
      let l = label_of words v nodes.(v) in
      set words (8 * v) l;
      sum := Int64.add !sum l)
    (Graph_index.order ix);
  { hash = Util.mix64 !sum; words }

let labels_on ix = fill ix (fun words _ n -> fresh words n)

let relabel_on ~parent_nodes ~(parent : labels) ix =
  let pbound = Array.length parent_nodes and pw = parent.words in
  (* every operand of a parent record is a parent node, below [pbound] *)
  let rec kept words (ins : int array) k =
    k < 0
    || (Int64.equal (get words (8 * ins.(k))) (get pw (8 * ins.(k)))
       && kept words ins (k - 1))
  in
  fill ix (fun words v n ->
      if
        v < pbound
        && parent_nodes.(v) == n
        && kept words n.inputs (Array.length n.inputs - 1)
      then get pw (8 * v)
      else fresh words n)

let hash_on ix = (labels_on ix).hash
let hash (g : Graph.t) : int64 = hash_on (Graph_index.of_graph g)
let equal_structure a b = Int64.equal (hash a) (hash b)
