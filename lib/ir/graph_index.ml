(** Id-indexed arrays over one graph (see the interface).

    One pass over the graph's node map fills the node array; an id that
    is not a node holds a placeholder whose [id] is [-1], which is how
    {!mem} tells the two apart.  Everything else is derived from the
    node array on first use: the consumers by operand slot (one flat
    array in compressed rows, whose row lengths are the read counts),
    the topological order walked over them, the adjacency arrays, each
    node's links, the {!Reach} closure over that order and the scratch
    array of {!with_locals}. *)

type adjacency = { preds : int array array; succs : int array array }

type link_memo = {
  links : (int * int * Op.dim_link) list array;  (** valid where [linked] is set *)
  linked : Bytes.t;
}

(* Consumers by operand slot: [ids.(k)] for [k] from [row.(v)] below
   [row.(v + 1)] are the nodes reading [v], increasing, a node once per
   slot that reads [v]. *)
type csr = { row : int array; ids : int array }

type t = {
  graph : Graph.t;
  nodes : Graph.node array;
  csr : csr Lazy.t;
  order : int array Lazy.t;  (** {!Graph.topo_order}'s order *)
  adjacency : adjacency Lazy.t;
  memo : link_memo Lazy.t;
  reach : Reach.t Lazy.t;
  slot : int array Lazy.t;
      (** scratch of {!with_locals}: member id -> local index, [-1]
          elsewhere; restored before [with_locals] returns *)
}

let absent : Graph.node =
  { id = -1; op = Op.Input Op.Placeholder; shape = Shape.create [ 1 ];
    label = ""; inputs = [||] }

let adjacency_of (nodes : Graph.node array) : adjacency =
  let bound = Array.length nodes in
  let preds =
    Array.map
      (fun (n : Graph.node) ->
        let p = Array.copy n.inputs in
        Array.sort Int.compare p;
        (* drop repeated operands in place, then cut the tail *)
        let k = ref 0 in
        Array.iteri
          (fun i v -> if i = 0 || v <> p.(!k - 1) then begin p.(!k) <- v; incr k end)
          p;
        if !k = Array.length p then p else Array.sub p 0 !k)
      nodes
  in
  (* consumers by inverting [preds]: visiting consumers in increasing id
     fills each row in increasing order *)
  let n_succs = Array.make bound 0 in
  Array.iter (Array.iter (fun p -> n_succs.(p) <- n_succs.(p) + 1)) preds;
  let succs = Array.map (fun c -> if c = 0 then [||] else Array.make c 0) n_succs in
  Array.fill n_succs 0 bound 0;
  Array.iteri
    (fun v ->
      Array.iter (fun p ->
          succs.(p).(n_succs.(p)) <- v;
          n_succs.(p) <- n_succs.(p) + 1))
    preds;
  { preds; succs }

let csr_of (nodes : Graph.node array) : csr =
  let bound = Array.length nodes in
  (* [row.(p)] counts the slots reading [p], then, summed, ends [p]'s
     row; filling each row from its end, consumers by decreasing id,
     leaves it increasing and moves [row.(p)] to the row's start *)
  let row = Array.make (bound + 1) 0 in
  Array.iter
    (fun (n : Graph.node) -> Array.iter (fun p -> row.(p) <- row.(p) + 1) n.inputs)
    nodes;
  for v = 1 to bound do
    row.(v) <- row.(v) + row.(v - 1)
  done;
  let ids = Array.make row.(bound) 0 in
  for v = bound - 1 downto 0 do
    Array.iter
      (fun p ->
        row.(p) <- row.(p) - 1;
        ids.(row.(p)) <- v)
      nodes.(v).inputs
  done;
  { row; ids }

(* The Kahn walk of {!Graph.topo_order}, smallest ready id first, over
   slot counts: a node is ready once all its operand slots are
   released, which is when all its distinct operands are placed, so
   the ready sets, and the order, are those of the walk over distinct
   operands. *)
let order_of (nodes : Graph.node array) n { row; ids } : int array =
  let indeg = Array.map (fun (n : Graph.node) -> Array.length n.inputs) nodes in
  let heap = Util.Int_heap.create n in
  Array.iteri
    (fun v (nd : Graph.node) ->
      if nd.id = v && indeg.(v) = 0 then Util.Int_heap.push heap v)
    nodes;
  let order = Array.make n 0 and placed = ref 0 in
  while not (Util.Int_heap.is_empty heap) do
    let v = Util.Int_heap.pop heap in
    order.(!placed) <- v;
    incr placed;
    for k = row.(v) to row.(v + 1) - 1 do
      let c = ids.(k) in
      indeg.(c) <- indeg.(c) - 1;
      if indeg.(c) = 0 then Util.Int_heap.push heap c
    done
  done;
  if !placed <> n then invalid_arg "Graph_index.order: graph has a cycle";
  order

let of_graph (g : Graph.t) : t =
  let bound = Graph.id_bound g in
  let nodes = Array.make bound absent in
  Graph.iter (fun n -> nodes.(n.id) <- n) g;
  let csr = lazy (csr_of nodes) in
  let order = lazy (order_of nodes (Graph.n_nodes g) (Lazy.force csr)) in
  let reach =
    lazy
      (let { row; ids } = Lazy.force csr in
       Reach.of_arrays ~order:(Lazy.force order) ~nodes ~consumer_row:row
         ~consumers:ids)
  in
  { graph = g; nodes; csr; order; adjacency = lazy (adjacency_of nodes);
    memo = lazy { links = Array.make bound []; linked = Bytes.make bound '\000' };
    reach; slot = lazy (Array.make bound (-1)) }

let graph t = t.graph
let bound t = Array.length t.nodes
let order t = Lazy.force t.order
let nodes t = t.nodes
let mem t v = v >= 0 && v < Array.length t.nodes && t.nodes.(v).id = v
let node t v = t.nodes.(v)
let shape t v = t.nodes.(v).shape
let size_bytes t v = Shape.size_bytes t.nodes.(v).shape
let preds t v = (Lazy.force t.adjacency).preds.(v)
let succs t v = (Lazy.force t.adjacency).succs.(v)
let csr t = Lazy.force t.csr

let n_reads t v =
  let { row; _ } = csr t in
  row.(v + 1) - row.(v)

let has_consumers t v = n_reads t v > 0
let in_shapes t v = Array.map (fun i -> t.nodes.(i).shape) t.nodes.(v).inputs

let links t v =
  let m = Lazy.force t.memo in
  if Bytes.get m.linked v = '\000' then begin
    let n = t.nodes.(v) in
    m.links.(v) <- Op.links n.op (in_shapes t v) n.shape;
    Bytes.set m.linked v '\001'
  end;
  m.links.(v)

let reach t = Lazy.force t.reach

let is_valid_order t (order : int list) =
  let pos = Array.make (bound t) (-1) and placed = ref 0 in
  List.for_all
    (fun v -> mem t v && pos.(v) < 0 && (pos.(v) <- !placed; incr placed; true))
    order
  && !placed = Graph.n_nodes t.graph
  && Array.for_all
       (fun (n : Graph.node) ->
         n.id < 0 || Array.for_all (fun p -> pos.(p) < pos.(n.id)) n.inputs)
       t.nodes

(* refs, not a local recursive function: that allocates a closure per call *)
let lower_bound (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let local_of (ids : int array) v =
  let k = lower_bound ids v in
  if k < Array.length ids && ids.(k) = v then k else -1

type induced = {
  ids : int array;
  local_preds : int array array;
  local_succs : int array array;
}

let with_locals t (ids : int array) f =
  let slot = Lazy.force t.slot in
  Array.iteri (fun k v -> slot.(v) <- k) ids;
  let restore () = Array.iter (fun v -> slot.(v) <- -1) ids in
  match f slot with
  | r ->
      restore ();
      r
  | exception e ->
      restore ();
      raise e

let induced t (ids : int array) : induced =
  with_locals t ids @@ fun slot ->
  (* the adjacency arrays are increasing in id, and local indices are
     increasing in id, so the filtered arrays stay increasing *)
  let local adj v =
    let a = adj.(v) in
    let n = Array.fold_left (fun acc u -> if slot.(u) >= 0 then acc + 1 else acc) 0 a in
    if n = 0 then [||]
    else begin
      let out = Array.make n 0 and k = ref 0 in
      Array.iter
        (fun u ->
          let l = slot.(u) in
          if l >= 0 then begin
            out.(!k) <- l;
            incr k
          end)
        a;
      out
    end
  in
  let { preds; succs } = Lazy.force t.adjacency in
  let local_preds = Array.map (local preds) ids in
  let local_succs = Array.map (local succs) ids in
  { ids; local_preds; local_succs }
