(** Dimension graphs (D-Graphs, §4.1 of the paper).

    For a computation graph [G], the D-Graph [D(G)] has a node [⟨v,i⟩] for
    every operator [v] and every dimension of its output tensor
    ([i = 1 … s_v], 1-based) as well as every reduce axis of its
    computation ([i = -1 … -r_v]).  There is an edge [⟨u,i⟩ → ⟨v,j⟩]
    whenever the [i]-th dimension of [u]'s output and the [j]-th dimension
    (or [-j]-th reduce axis) of [v] correspond to the same spatial axis.

    Connected components of the D-Graph identify graph-level dimensions
    (batch, heads, sequence, …) along which a sub-graph can be split by the
    fission transformation.

    The D-nodes are numbered in {!compare_dnode} order (node id, then
    reduce axes [-r_v … -1], then output dims [1 … s_v]), and a
    union-find over those numbers along the dimension links gives the
    components; numbering them by their smallest D-node keeps the order
    in which a scan of the sorted D-nodes would meet them. *)

open Magis_ir
module Int_map = Util.Int_map

type dnode = { node : int; dim : int }
(** [dim > 0]: output dimension [dim] (1-based).
    [dim < 0]: reduce axis [-dim] (1-based). *)

let compare_dnode a b =
  match Int.compare a.node b.node with 0 -> Int.compare a.dim b.dim | c -> c

(* D-node numbering, shared by every component of one D-graph *)
type numbering = {
  base : int array;  (** node id -> number of its first D-node; [-1] absent *)
  n_reduce : int array;  (** node id -> [r_v] *)
  rank : int array;  (** node id -> [s_v] *)
  label : int array;  (** D-node -> component number *)
}

type component = {
  num : numbering;
  id : int;  (** component number *)
  nodes : int array;  (** graph nodes, increasing *)
  dims : int array;  (** dim of [nodes.(k)]; [0]: several D-nodes *)
}

type t = component list

let pp_dnode ppf d =
  if d.dim > 0 then Fmt.pf ppf "<%d,%d>" d.node d.dim
  else Fmt.pf ppf "<%d,-%d>" d.node (-d.dim)

let in_shapes g (n : Graph.node) =
  Array.map (fun i -> Graph.shape g i) n.inputs

(** All D-nodes of one graph node. *)
let dnodes_of (g : Graph.t) (v : int) : dnode list =
  let n = Graph.node g v in
  let s = Shape.rank n.shape in
  let r = Op.reduce_arity n.op (in_shapes g n) in
  List.init s (fun i -> { node = v; dim = i + 1 })
  @ List.init r (fun i -> { node = v; dim = -(i + 1) })

(* number of a D-node, or [-1] when the graph node has no such dim *)
let number num { node; dim } =
  if node < 0 || node >= Array.length num.base || num.base.(node) < 0 then -1
  else
    let r = num.n_reduce.(node) in
    if dim < 0 && -dim <= r then num.base.(node) + r + dim
    else if dim > 0 && dim <= num.rank.(node) then num.base.(node) + r + dim - 1
    else -1

let of_index (idx : Graph_index.t) : t =
  let bound = Graph_index.bound idx in
  let base = Array.make bound (-1) in
  let n_reduce = Array.make bound 0 and rank = Array.make bound 0 in
  let total = ref 0 in
  for v = 0 to bound - 1 do
    if Graph_index.mem idx v then begin
      let n = Graph_index.node idx v in
      base.(v) <- !total;
      n_reduce.(v) <- Op.reduce_arity n.op (Graph_index.in_shapes idx v);
      rank.(v) <- Shape.rank n.shape;
      total := !total + n_reduce.(v) + rank.(v)
    end
  done;
  let num = { base; n_reduce; rank; label = Array.make !total (-1) } in
  let uf = Util.Union_find.create !total in
  for v = 0 to bound - 1 do
    if Graph_index.mem idx v then begin
      let inputs = (Graph_index.node idx v).inputs in
      List.iter
        (fun (slot, in_dim, link) ->
          let src = number num { node = inputs.(slot); dim = in_dim + 1 } in
          let dst =
            number num
              (match link with
              | Op.To_out j -> { node = v; dim = j + 1 }
              | Op.To_reduce j -> { node = v; dim = -(j + 1) })
          in
          if src >= 0 && dst >= 0 then Util.Union_find.union uf src dst)
        (Graph_index.links idx v)
    end
  done;
  (* number the components by first D-node, count their distinct graph
     nodes (a node's D-nodes are consecutive) *)
  let n_comps = ref 0 in
  let by_root = Array.make !total (-1) in
  for i = 0 to !total - 1 do
    let r = Util.Union_find.find uf i in
    if by_root.(r) < 0 then begin
      by_root.(r) <- !n_comps;
      incr n_comps
    end;
    num.label.(i) <- by_root.(r)
  done;
  let count = Array.make !n_comps 0 and last = Array.make !n_comps (-1) in
  let each_dnode f =
    for v = 0 to bound - 1 do
      if base.(v) >= 0 then
        let r = n_reduce.(v) in
        for j = 0 to r + rank.(v) - 1 do
          f v (if j < r then j - r else j - r + 1) num.label.(base.(v) + j)
        done
    done
  in
  each_dnode (fun v _ c ->
      if last.(c) <> v then begin
        last.(c) <- v;
        count.(c) <- count.(c) + 1
      end);
  let comps =
    Array.init !n_comps (fun c ->
        if count.(c) >= 2 then
          { num; id = c; nodes = Array.make count.(c) 0; dims = Array.make count.(c) 0 }
        else { num; id = c; nodes = [||]; dims = [||] })
  in
  Array.fill count 0 !n_comps 0;
  Array.fill last 0 !n_comps (-1);
  each_dnode (fun v dim c ->
      let comp = comps.(c) in
      if Array.length comp.nodes > 0 then
        if last.(c) = v then comp.dims.(count.(c) - 1) <- 0
        else begin
          last.(c) <- v;
          comp.nodes.(count.(c)) <- v;
          comp.dims.(count.(c)) <- dim;
          count.(c) <- count.(c) + 1
        end);
  Array.to_list comps |> List.filter (fun c -> Array.length c.nodes > 0)

let build (g : Graph.t) : t = of_index (Graph_index.of_graph g)
let components (t : t) : component list = t
let nodes c = c.nodes

let mem c d =
  let i = number c.num d in
  i >= 0 && c.num.label.(i) = c.id

(** Restrict a component to a node subset [s]; gives the dimension
    assignment used by a fission candidate.  Returns [None] if some node of
    [s] covered by the component has *more than one* D-node in it (the
    paper's constraint (3): exactly one ⟨v,i⟩ per v — e.g. a softmax whose
    normalized axis couples two dims of one node) — such sub-graphs cannot
    split along this dimension. *)
let restrict (c : component) (s : Util.Int_set.t) : int Int_map.t option =
  let exception Conflict in
  try
    Some
      (Util.Int_set.fold
         (fun v acc ->
           match Graph_index.local_of c.nodes v with
           | -1 -> acc
           | k -> if c.dims.(k) = 0 then raise Conflict else Int_map.add v c.dims.(k) acc)
         s Int_map.empty)
  with Conflict -> None
