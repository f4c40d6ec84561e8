(** Computation graphs.

    A graph is a DAG of operator nodes.  Each node has an ordered array of
    input node ids (the operand slots) and an inferred output shape.  The
    representation is persistent (balanced maps), so the optimizer can hold
    thousands of candidate graphs cheaply — mutations share structure.

    The operations mirror Table 1 of the paper: [pre]/[suc],
    [anc]/[des], [inps_of]/[outs_of] for node subsets, induced sub-graphs,
    topological orders, weak connectivity and convexity tests. *)

module Int_map = Util.Int_map
module Int_set = Util.Int_set

type node = {
  id : int;
  op : Op.kind;
  shape : Shape.t;
  label : string;  (** human-readable name, for debugging/printing *)
  inputs : int array;  (** operand slots, in order *)
}

type t = {
  nodes : node Int_map.t;
  succs : Int_set.t Int_map.t;  (** consumers of each node *)
  next_id : int;
}

let empty = { nodes = Int_map.empty; succs = Int_map.empty; next_id = 0 }

let n_nodes g = Int_map.cardinal g.nodes
let mem g id = Int_map.mem id g.nodes

let node g id =
  match Int_map.find_opt id g.nodes with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Graph.node: unknown id %d" id)

let node_opt g id = Int_map.find_opt id g.nodes
let shape g id = (node g id).shape
let op g id = (node g id).op
let size_bytes g id = Shape.size_bytes (node g id).shape

let nodes g = Int_map.fold (fun _ n acc -> n :: acc) g.nodes [] |> List.rev
let node_ids g = Int_map.fold (fun id _ acc -> id :: acc) g.nodes [] |> List.rev
let fold f g acc = Int_map.fold (fun _ n acc -> f n acc) g.nodes acc
let iter f g = Int_map.iter (fun _ n -> f n) g.nodes

let succ_set g id =
  match Int_map.find_opt id g.succs with Some s -> s | None -> Int_set.empty

let suc g id = Int_set.elements (succ_set g id)

let pre g id =
  let n = node g id in
  Array.to_list n.inputs |> List.sort_uniq compare

let in_degree g id = Array.length (node g id).inputs
let out_degree g id = Int_set.cardinal (succ_set g id)

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let add_succ succs src dst =
  let s =
    match Int_map.find_opt src succs with
    | Some s -> s
    | None -> Int_set.empty
  in
  Int_map.add src (Int_set.add dst s) succs

let remove_succ succs src dst =
  match Int_map.find_opt src succs with
  | None -> succs
  | Some s ->
      let s = Int_set.remove dst s in
      if Int_set.is_empty s then Int_map.remove src succs
      else Int_map.add src s succs

(** [add_input g kind shape] adds a graph input (placeholder / weight /
    label) and returns the extended graph and the new node id. *)
let add_input ?(label = "") g kind shape =
  let id = g.next_id in
  let n = { id; op = Op.Input kind; shape; label; inputs = [||] } in
  ({ g with nodes = Int_map.add id n g.nodes; next_id = id + 1 }, id)

(* the node record [add] and [add_copy] insert, with its consumer edges *)
let insert g op shape label ins =
  let id = g.next_id in
  let n = { id; op; shape; label; inputs = ins } in
  let succs = Array.fold_left (fun s src -> add_succ s src id) g.succs ins in
  ({ nodes = Int_map.add id n g.nodes; succs; next_id = id + 1 }, id)

(** [add g op inputs] adds an operator node; the output shape is inferred
    from the input shapes.  Raises [Invalid_argument] on malformed use. *)
let add ?(label = "") g op inputs =
  let ins = Array.of_list inputs in
  let fail msg =
    invalid_arg
      (Printf.sprintf "Graph.add: %s: %s"
         (if label = "" then Op.name op
          else Printf.sprintf "%s(%s)" (Op.name op) label)
         msg)
  in
  let in_shapes =
    Array.map
      (fun i ->
        match Int_map.find_opt i g.nodes with
        | Some n -> n.shape
        | None -> fail (Printf.sprintf "unknown input id %d" i))
      ins
  in
  match Op.infer op in_shapes with
  | Error msg -> fail msg
  | Ok shape -> insert g op shape label ins

(** [add_copy ?label g v inputs] adds a node with [v]'s operator and
    output shape over [inputs], each of which has the shape of [v]'s
    operand in its slot: the node {!add} would add, without inferring
    its shape again. *)
let add_copy ?(label = "") g v inputs =
  let n = node g v in
  let ins = Array.of_list inputs in
  if
    Array.length ins <> Array.length n.inputs
    || not
         (Array.for_all2
            (fun i j -> i = j || Shape.equal (shape g i) (shape g j))
            ins n.inputs)
  then invalid_arg "Graph.add_copy: operand shapes differ";
  insert g n.op n.shape label ins

(** Remove a node with no consumers. *)
let remove g id =
  let n = node g id in
  let consumers = succ_set g id in
  if not (Int_set.is_empty consumers) then
    invalid_arg
      (Printf.sprintf
         "Graph.remove: node %d:%s%s still has consumers [%s]" id
         (Op.name n.op)
         (if n.label = "" then "" else "(" ^ n.label ^ ")")
         (String.concat ","
            (List.map string_of_int (Int_set.elements consumers))));
  let succs = Array.fold_left (fun s src -> remove_succ s src id) g.succs n.inputs in
  { g with nodes = Int_map.remove id g.nodes; succs = Int_map.remove id succs }

(** [redirect g ~from_ ~to_] rewires every consumer of [from_] to consume
    [to_] instead.  Shapes must match. *)
let redirect g ~from_ ~to_ =
  if not (Shape.equal_dims (shape g from_) (shape g to_)) then
    invalid_arg "Graph.redirect: shape mismatch";
  let consumers = succ_set g from_ in
  Int_set.fold
    (fun c g ->
      let n = node g c in
      let inputs =
        Array.map (fun i -> if i = from_ then to_ else i) n.inputs
      in
      let nodes = Int_map.add c { n with inputs } g.nodes in
      let succs = remove_succ g.succs from_ c in
      let succs = add_succ succs to_ c in
      { g with nodes; succs })
    consumers g

(** Replace one operand slot of [node_id]: the occurrence(s) of [old_src]
    become [new_src]. *)
let replace_input g ~node_id ~old_src ~new_src =
  let n = node g node_id in
  if not (Array.exists (( = ) old_src) n.inputs) then
    invalid_arg "Graph.replace_input: not an input";
  let inputs =
    Array.map (fun i -> if i = old_src then new_src else i) n.inputs
  in
  let nodes = Int_map.add node_id { n with inputs } g.nodes in
  let succs = remove_succ g.succs old_src node_id in
  let succs = add_succ succs new_src node_id in
  { g with nodes; succs }

(** [prune_dead ~keep g] removes consumer-less operator nodes except graph
    inputs and the protected [keep] set (pass the intended graph outputs —
    losses, gradients — or they would be swept away). *)
let prune_dead ~keep g =
  let rec loop g =
    let dead =
      Int_map.fold
        (fun id n acc ->
          if
            Int_set.is_empty (succ_set g id)
            && (not (Op.is_input n.op))
            && not (Int_set.mem id keep)
          then id :: acc
          else acc)
        g.nodes []
    in
    match dead with
    | [] -> g
    | _ -> loop (List.fold_left (fun g id -> remove g id) g dead)
  in
  loop g

(** [prune_from ~keep g roots] removes, from [roots] upward, the
    consumer-less operator nodes outside [keep]: each removal exposes
    the removed node's operands.  Equal to {!prune_dead} when only
    [roots] can have lost their last consumer since every consumer-less
    operator node outside [keep] was last pruned. *)
let prune_from ~keep g roots =
  let rec go g = function
    | [] -> g
    | v :: rest -> (
        match node_opt g v with
        | Some n
          when Int_set.is_empty (succ_set g v)
               && (not (Op.is_input n.op))
               && not (Int_set.mem v keep) ->
            go (remove g v) (Array.fold_right List.cons n.inputs rest)
        | _ -> go g rest)
  in
  go g roots

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

(** Graph inputs: nodes with no operands. *)
let inputs g =
  Int_map.fold
    (fun id n acc -> if Array.length n.inputs = 0 then id :: acc else acc)
    g.nodes []
  |> List.rev

(** Graph outputs: nodes with no consumers. *)
let outputs g =
  Int_map.fold
    (fun id _ acc -> if Int_set.is_empty (succ_set g id) then id :: acc else acc)
    g.nodes []
  |> List.rev

let reachable step start =
  let rec go visited frontier =
    match frontier with
    | [] -> visited
    | v :: rest ->
        let nexts = step v in
        let visited, frontier =
          List.fold_left
            (fun (vis, fr) u ->
              if Int_set.mem u vis then (vis, fr) else (Int_set.add u vis, u :: fr))
            (visited, rest) nexts
        in
        go visited frontier
  in
  go (Int_set.of_list start) start

(** Strict ancestors of [id] (everything it transitively depends on). *)
let anc g id = reachable (pre g) (pre g id)

(** Strict descendants of [id]. *)
let des g id = reachable (suc g) (suc g id)

(** Descendants of a set (union of strict descendants, minus the set). *)
let des_of_set g set =
  let start = Int_set.fold (fun v acc -> suc g v @ acc) set [] in
  Int_set.diff (reachable (suc g) start) set

(** [G.inps(S)]: nodes outside [S] consumed by members of [S]. *)
let inps_of g set =
  Int_set.fold
    (fun v acc ->
      List.fold_left
        (fun acc p -> if Int_set.mem p set then acc else Int_set.add p acc)
        acc (pre g v))
    set Int_set.empty

(** [G.outs(S)]: members of [S] whose value is consumed outside [S] (or is a
    graph output). *)
let outs_of g set =
  Int_set.filter
    (fun v ->
      let succs = succ_set g v in
      Int_set.is_empty succs
      || Int_set.exists (fun s -> not (Int_set.mem s set)) succs)
    set

(** Weak connectivity of the sub-graph induced by [set]. *)
let is_weakly_connected g set =
  match Int_set.choose_opt set with
  | None -> true
  | Some seed ->
      let neighbors v =
        List.filter (fun u -> Int_set.mem u set) (pre g v @ suc g v)
      in
      let visited = reachable neighbors [ seed ] in
      Int_set.subset set visited

(** Convexity: no path from an output of [S] back into [S] through outside
    nodes ([G.inps(S) ∩ ⋃_{v∈outs(S)} des(v) = ∅]). *)
let is_convex g set =
  let outs = outs_of g set in
  let desc = des_of_set g outs in
  let inps = inps_of g set in
  Int_set.is_empty (Int_set.inter inps desc)

(** Weakly-connected components of the sub-graph induced by [set], in
    order of their smallest member: one depth-first sweep over arrays
    indexed by node id. *)
let components_of g set =
  (* 0: outside [set]; 1: member not yet reached; 2: reached.  An id
     that is not a node raises, through [node], as before. *)
  let mark = Array.make g.next_id 0 in
  Int_set.iter
    (fun v ->
      if v >= 0 && v < g.next_id then mark.(v) <- 1
      else ignore (node g v : node))
    set;
  let stack = ref [] in
  let visit comp u =
    if mark.(u) = 1 then begin
      mark.(u) <- 2;
      stack := u :: !stack;
      comp := Int_set.add u !comp
    end
  in
  let rec drain comp =
    match !stack with
    | [] -> !comp
    | v :: rest ->
        stack := rest;
        Array.iter (visit comp) (node g v).inputs;
        Int_set.iter (visit comp) (succ_set g v);
        drain comp
  in
  Int_set.fold
    (fun seed comps ->
      if mark.(seed) = 1 then begin
        let comp = ref Int_set.empty in
        visit comp seed;
        drain comp :: comps
      end
      else comps)
    set []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Topological order                                                  *)
(* ------------------------------------------------------------------ *)

(** Every node id is below [id_bound g]: arrays of this length can be
    indexed by node id. *)
let id_bound g = g.next_id

(* Number of distinct member operands of [n]: operand arrays are a
   handful of slots, so a quadratic scan beats building a set. *)
let n_distinct_preds g n =
  let ins = n.inputs in
  let count = ref 0 in
  Array.iteri
    (fun i p ->
      let seen = ref false in
      for j = 0 to i - 1 do
        if ins.(j) = p then seen := true
      done;
      if (not !seen) && mem g p then incr count)
    ins;
  !count

(** Deterministic Kahn topological order (smallest ready id first): an
    in-degree array indexed by node id and a binary min-heap of ready
    ids. *)
let topo_order g =
  let n = n_nodes g in
  let indeg = Array.make g.next_id 0 in
  let heap = Util.Int_heap.create n in
  iter
    (fun nd ->
      let d = n_distinct_preds g nd in
      indeg.(nd.id) <- d;
      if d = 0 then Util.Int_heap.push heap nd.id)
    g;
  let order = ref [] and placed = ref 0 in
  while not (Util.Int_heap.is_empty heap) do
    let v = Util.Int_heap.pop heap in
    order := v :: !order;
    incr placed;
    Int_set.iter
      (fun s ->
        let d = indeg.(s) - 1 in
        indeg.(s) <- d;
        if d = 0 then Util.Int_heap.push heap s)
      (succ_set g v)
  done;
  if !placed <> n then invalid_arg "Graph.topo_order: graph has a cycle";
  List.rev !order

(** The unoptimized baseline's execution order: the deterministic Kahn
    order of {!topo_order} (smallest ready id first).  Builders number
    nodes as a define-by-run program creates them, so this replays
    construction order wherever the dependencies allow it. *)
let program_order g = topo_order g

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let pp_node g ppf id =
  let n = node g id in
  Fmt.pf ppf "%d:%s%s %a <- [%a]" n.id (Op.name n.op)
    (if n.label = "" then "" else "(" ^ n.label ^ ")")
    Shape.pp n.shape
    Fmt.(array ~sep:(any ",") int)
    n.inputs

let pp ppf g =
  List.iter (fun id -> Fmt.pf ppf "%a@." (pp_node g) id) (topo_order g)

let to_string g = Fmt.str "%a" pp g

(** Total bytes of all weight tensors (always-resident memory). *)
let weight_bytes g =
  fold
    (fun n acc -> if Op.is_weight n.op then acc + Shape.size_bytes n.shape else acc)
    g 0
