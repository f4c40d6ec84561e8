(** Dominator trees over computation graphs.

    Implements the Cooper–Harvey–Kennedy iterative algorithm.  Because a
    computation graph has many entry nodes (inputs, weights, labels), we
    dominate from a *virtual root* that feeds every zero-predecessor node,
    matching §2.1 of the paper ("the dominator tree we use here usually
    takes the input tensor as the entry").

    Everything runs on arrays indexed by member-local index.  The tree
    maps each node to its immediate dominator; nodes whose immediate
    dominator is the virtual root are roots of the forest.  A preorder
    with Euler intervals ([tin], [tout]) turns [T.des(v)] into one slice
    of that preorder. *)

module Int_map = Util.Int_map
module Int_set = Util.Int_set

type t = {
  ids : int array;  (** members, increasing: local index -> node id *)
  idom : int array;  (** local immediate dominator; [-1] root, [-2] absent *)
  order : int array;  (** reverse postorder used to build the tree (ids) *)
  preorder : int array;  (** tree nodes, local, depth-first preorder *)
  tin : int array;  (** local -> position in [preorder]; [-1] absent *)
  tout : int array;  (** local -> one past the end of its subtree *)
}

let virtual_root = -1

let local t v = Graph_index.local_of t.ids v

let in_tree t v =
  let k = local t v in
  if k >= 0 && t.tin.(k) >= 0 then k else -1

let idom t v =
  let k = local t v in
  if k < 0 then None
  else
    match t.idom.(k) with
    | -2 -> None
    | -1 -> Some virtual_root
    | p -> Some t.ids.(p)

(** All nodes strictly dominated by [v] ([T.des(v)] in the paper). *)
let strict_subtree t v =
  match in_tree t v with
  | -1 -> Int_set.empty
  | k ->
      let acc = ref Int_set.empty in
      for i = t.tin.(k) + 1 to t.tout.(k) - 1 do
        acc := Int_set.add t.ids.(t.preorder.(i)) !acc
      done;
      !acc

(** [subtree t v] = strict_subtree + v. *)
let subtree t v = Int_set.add v (strict_subtree t v)

(** [dominates t u v] iff [u] dominates [v] (reflexive). *)
let dominates t u v =
  u = v
  ||
  let ku = in_tree t u and kv = in_tree t v in
  ku >= 0 && kv >= 0 && t.tin.(ku) < t.tin.(kv) && t.tin.(kv) < t.tout.(ku)

let rpo t = Array.copy t.order
let preorder t = t.preorder
let tin t k = t.tin.(k)
let tout t k = t.tout.(k)

(** [of_induced ?entries idx sub] builds the dominator tree of the
    sub-graph [sub] (edges to/from outside nodes are ignored).

    [entries] selects the roots.  Per §2.1 of the paper, the tree "usually
    takes the input tensor as the entry": by default we root at the
    *primary* inputs — placeholders, excluding weights and labels (the
    gradient seed of a training graph is a label-kind input).  This is
    what lets a layer's input dominate both its forward remainder and the
    corresponding backward operators.  Falls back to all zero-predecessor
    members when no primary input exists.  Nodes unreachable from the
    entries are absent from the tree. *)
let of_induced ?entries (idx : Graph_index.t) (sub : Graph_index.induced) : t =
  let ids = sub.ids in
  let m = Array.length ids in
  let pre = sub.local_preds and suc = sub.local_succs in
  let entry_nodes =
    match entries with
    | Some e ->
        List.filter_map
          (fun v -> match Graph_index.local_of ids v with -1 -> None | k -> Some k)
          e
    | None -> (
        let zero_pred = List.filter (fun k -> pre.(k) = [||]) (List.init m Fun.id) in
        let primary =
          List.filter
            (fun k ->
              match (Graph_index.node idx ids.(k)).op with
              | Op.Input Op.Placeholder -> true
              | _ -> false)
            zero_pred
        in
        match primary with [] -> zero_pred | _ -> primary)
  in
  (* reverse postorder of a depth-first search from the entries *)
  let visited = Bytes.make m '\000' in
  let post = Array.make m 0 and n_post = ref 0 in
  let rec dfs k =
    if Bytes.get visited k = '\000' then begin
      Bytes.set visited k '\001';
      Array.iter dfs suc.(k);
      post.(!n_post) <- k;
      incr n_post
    end
  in
  List.iter dfs entry_nodes;
  let n = !n_post in
  let order = Array.init n (fun i -> post.(n - 1 - i)) in
  let rpo_index = Array.make m (-1) in
  Array.iteri (fun i k -> rpo_index.(k) <- i) order;
  (* idom over rpo indices; -2 = undefined, -1 = virtual root *)
  let idom = Array.make n (-2) in
  let rec intersect a b =
    (* walk up the tree: smaller rpo index = higher in the order *)
    if a = b then a else if a > b then intersect idom.(a) b else intersect a idom.(b)
  in
  (* Entry-adjacent nodes (graph inputs) get the virtual root directly. *)
  List.iter (fun k -> if rpo_index.(k) >= 0 then idom.(rpo_index.(k)) <- -1) entry_nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let preds = pre.(order.(i)) in
      (* fold the processed predecessors, in increasing id *)
      let acc = ref (-2) in
      Array.iter
        (fun p ->
          let r = rpo_index.(p) in
          if r >= 0 && idom.(r) <> -2 then
            acc := if !acc = -2 then r else if !acc = -1 then -1 else intersect !acc r)
        preds;
      if !acc <> -2 && idom.(i) <> !acc then begin
        idom.(i) <- !acc;
        changed := true
      end
    done
  done;
  let local_idom = Array.make m (-2) in
  Array.iteri
    (fun i k -> local_idom.(k) <- (if idom.(i) < 0 then -1 else order.(idom.(i))))
    order;
  (* Euler intervals: children in compressed rows, then an explicit-stack
     preorder from the roots *)
  let n_children = Array.make (m + 1) 0 in
  Array.iter (fun p -> if p >= 0 then n_children.(p + 1) <- n_children.(p + 1) + 1) local_idom;
  for k = 1 to m do
    n_children.(k) <- n_children.(k) + n_children.(k - 1)
  done;
  let child = Array.make n_children.(m) 0 and fill = Array.sub n_children 0 m in
  Array.iter
    (fun k ->
      let p = local_idom.(k) in
      if p >= 0 then begin
        child.(fill.(p)) <- k;
        fill.(p) <- fill.(p) + 1
      end)
    order;
  let preorder = Array.make n 0 and tin = Array.make m (-1) and tout = Array.make m (-1) in
  let pos = ref 0 in
  let rec visit = function
    | [] -> ()
    | k :: rest ->
        tin.(k) <- !pos;
        preorder.(!pos) <- k;
        incr pos;
        let stack = ref rest in
        for j = fill.(k) - 1 downto n_children.(k) do
          stack := child.(j) :: !stack
        done;
        visit !stack
  in
  Array.iter (fun k -> if local_idom.(k) = -1 then visit [ k ]) order;
  (* subtree sizes, children (later in the preorder) before parents *)
  let size = Array.make m 1 in
  for i = n - 1 downto 0 do
    let k = preorder.(i) in
    let p = local_idom.(k) in
    if p >= 0 then size.(p) <- size.(p) + size.(k)
  done;
  Array.iter (fun k -> tout.(k) <- tin.(k) + size.(k)) preorder;
  { ids; idom = local_idom; order = Array.map (fun k -> ids.(k)) order; preorder; tin; tout }

(** [compute ?members ?entries g]: {!of_induced} on a fresh index of
    [g], over [members] (default: every node). *)
let compute ?members ?entries (g : Graph.t) : t =
  let idx = Graph_index.of_graph g in
  let ids =
    match members with
    | None -> Array.of_list (Graph.node_ids g)
    | Some s -> Array.of_list (Int_set.elements s)
  in
  of_induced ?entries idx (Graph_index.induced idx ids)
