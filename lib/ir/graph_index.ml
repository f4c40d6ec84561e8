(** Id-indexed arrays over one graph (see the interface).

    One pass over the graph's node map fills the node array, and the
    adjacency arrays follow from it; an id that is not a node holds a
    placeholder whose [id] is [-1], which is how {!mem} tells the two
    apart.  Links are filled per node on first use. *)

type t = {
  graph : Graph.t;
  nodes : Graph.node array;
  preds : int array array;
  succs : int array array;
  links : (int * int * Op.dim_link) list array;  (** valid where [linked] is set *)
  linked : Bytes.t;
  reach : Reach.t Lazy.t;
  slot : int array;
      (** scratch of {!induced}: member id -> local index, [-1]
          elsewhere; restored before [induced] returns *)
}

let absent : Graph.node =
  { id = -1; op = Op.Input Op.Placeholder; shape = Shape.create [ 1 ];
    label = ""; inputs = [||] }

let of_graph (g : Graph.t) : t =
  let bound = Graph.id_bound g in
  let nodes = Array.make bound absent in
  Graph.iter (fun n -> nodes.(n.id) <- n) g;
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
  { graph = g; nodes; preds; succs; links = Array.make bound [];
    linked = Bytes.make bound '\000'; reach = lazy (Reach.compute g);
    slot = Array.make bound (-1) }

let graph t = t.graph
let bound t = Array.length t.nodes
let mem t v = v >= 0 && v < Array.length t.nodes && t.nodes.(v).id = v
let node t v = t.nodes.(v)
let shape t v = t.nodes.(v).shape
let size_bytes t v = Shape.size_bytes t.nodes.(v).shape
let preds t v = t.preds.(v)
let succs t v = t.succs.(v)
let in_shapes t v = Array.map (fun i -> t.nodes.(i).shape) t.nodes.(v).inputs

let links t v =
  if Bytes.get t.linked v = '\000' then begin
    let n = t.nodes.(v) in
    t.links.(v) <- Op.links n.op (in_shapes t v) n.shape;
    Bytes.set t.linked v '\001'
  end;
  t.links.(v)

let reach t = Lazy.force t.reach

let lower_bound (a : int array) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let local_of (ids : int array) v =
  let k = lower_bound ids v in
  if k < Array.length ids && ids.(k) = v then k else -1

type induced = {
  ids : int array;
  local_preds : int array array;
  local_succs : int array array;
}

let induced t (ids : int array) : induced =
  Array.iteri (fun k v -> t.slot.(v) <- k) ids;
  (* the adjacency arrays are increasing in id, and local indices are
     increasing in id, so the filtered arrays stay increasing *)
  let local adj v =
    let a = adj.(v) in
    let n = Array.fold_left (fun acc u -> if t.slot.(u) >= 0 then acc + 1 else acc) 0 a in
    if n = 0 then [||]
    else begin
      let out = Array.make n 0 and k = ref 0 in
      Array.iter
        (fun u ->
          let l = t.slot.(u) in
          if l >= 0 then begin
            out.(!k) <- l;
            incr k
          end)
        a;
      out
    end
  in
  let local_preds = Array.map (local t.preds) ids in
  let local_succs = Array.map (local t.succs) ids in
  Array.iter (fun v -> t.slot.(v) <- -1) ids;
  { ids; local_preds; local_succs }
