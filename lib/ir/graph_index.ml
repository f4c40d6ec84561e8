(** Id-indexed arrays over one graph (see the interface).

    One pass over the graph's node map fills the node array; an id that
    is not a node holds a placeholder whose [id] is [-1], which is how
    {!mem} tells the two apart.  Everything else is derived from the
    node array on first use: the topological order, the adjacency
    arrays, the read counts, each node's links, the {!Reach} closure
    over that order and the scratch array of {!induced}. *)

type adjacency = { preds : int array array; succs : int array array }

type link_memo = {
  links : (int * int * Op.dim_link) list array;  (** valid where [linked] is set *)
  linked : Bytes.t;
}

type t = {
  graph : Graph.t;
  nodes : Graph.node array;
  order : int array Lazy.t;  (** {!Graph.topo_order} *)
  adjacency : adjacency Lazy.t;
  reads : int array Lazy.t;  (** operand slots, over all nodes, reading the id *)
  memo : link_memo Lazy.t;
  reach : Reach.t Lazy.t;
  slot : int array Lazy.t;
      (** scratch of {!induced}: member id -> local index, [-1]
          elsewhere; restored before [induced] returns *)
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

let of_graph (g : Graph.t) : t =
  let bound = Graph.id_bound g in
  let nodes = Array.make bound absent in
  Graph.iter (fun n -> nodes.(n.id) <- n) g;
  let order = lazy (Array.of_list (Graph.topo_order g)) in
  let reads =
    lazy
      (let c = Array.make bound 0 in
       Array.iter (fun (n : Graph.node) -> Array.iter (fun p -> c.(p) <- c.(p) + 1) n.inputs) nodes;
       c)
  in
  { graph = g; nodes; order; adjacency = lazy (adjacency_of nodes); reads;
    memo = lazy { links = Array.make bound []; linked = Bytes.make bound '\000' };
    reach = lazy (Reach.compute ~order:(Lazy.force order) g);
    slot = lazy (Array.make bound (-1)) }

let graph t = t.graph
let bound t = Array.length t.nodes
let order t = Lazy.force t.order
let mem t v = v >= 0 && v < Array.length t.nodes && t.nodes.(v).id = v
let node t v = t.nodes.(v)
let shape t v = t.nodes.(v).shape
let size_bytes t v = Shape.size_bytes t.nodes.(v).shape
let preds t v = (Lazy.force t.adjacency).preds.(v)
let succs t v = (Lazy.force t.adjacency).succs.(v)
let n_reads t v = (Lazy.force t.reads).(v)
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

let induced t (ids : int array) : induced =
  let slot = Lazy.force t.slot in
  Array.iteri (fun k v -> slot.(v) <- k) ids;
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
  Array.iter (fun v -> slot.(v) <- -1) ids;
  { ids; local_preds; local_succs }
