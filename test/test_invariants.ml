(** Graph invariants on the per-candidate path must equal the code they
    replaced.

    The reference implementations below are the set- and hashtable-based
    routines that {!Graph.topo_order}, {!Graph.components_of},
    {!Graph_index.is_valid_order}, {!Wl_hash.hash}, {!Partition.nw_on},
    {!Partition.partition} and {!Reorder.greedy_schedule} used before
    they moved onto arrays, bitsets and binary heaps, and the per-child
    path {!Incremental.reschedule} took before its parent context.  They
    live only here, as oracles.  The shared
    {!Reach} closure is checked against the set-based {!Graph.anc} /
    {!Graph.des}, and the layers built on it against each other.  Subjects are
    QCheck-drawn Randnets after a seeded chain of rewrites (rewrites add
    nodes with high ids, so id order stops being a topological order)
    plus every zoo model at [Quick] scale.

    Algorithm 1 has its own oracles in [Ref_algorithm1]: the Set/Map
    D-graph, the Hashtbl dominator tree, the map-walking fission check
    and the F-Tree construction that re-validated each candidate at
    every fission number, which {!Dgraph}, {!Dominator},
    {!Fission.structure} and {!Ftree.construct} replaced.  Trees are
    compared entry by entry (members, dims, [n], parent, children):
    {!Ftree.fingerprint} sees only enabled entries, and a constructed
    tree has none.

    Candidate simulation has its oracles in [Ref_simulate]: the
    simulator, lifetime analysis and fission accounting that read the
    graph's maps node by node, which {!Simulator.run_on},
    {!Lifetime.analyze_on} and {!Ftree.accounting} on one
    {!Graph_index} replaced.  Results are compared bit for bit, along
    with the [simulator.runs] counter and the fault-site visits (the
    [op_cost] site's count is the number of operator-cost queries).

    A candidate evaluated as a delta of its parent
    ({!Wl_hash.relabel_on}, {!Op_cost.inherited_cost_on}) is checked
    against full recomputation: [ref_wl_hash], the full labels and a
    fresh {!Op_cost.node_cost_on} per node, on the search's rewrites of
    every zoo model's initial state and along QCheck chains of rewrites
    in which every step is the delta of its own delta parent.

    Window scheduling on one member table ({!Members.of_index},
    {!Partition.blocks} and the one-pass greedy) is checked against
    [ref_reschedule] and [ref_schedule_members], both composed of
    oracles only, on the indexes the search builds (a rewrite's, with
    its order forced by {!Wl_hash.relabel_on}, and a mutation's, over a
    view's shared arrays), on random windows of Randnets, one of them
    with an operand read twice, and on a graph built to hold both a
    repeated operand and a consumer in a later block.

    The DP on the same member table ({!Reorder.dp_schedule},
    {!Reorder.schedule_members} and {!Reorder.schedule} with a state
    budget) is checked against [Ref_dp.ref_dp_schedule], the DP that
    walked the graph's maps over [Int_set] states, alone and composed
    with the oracle partition and greedy, at budgets from 1 to 4,000:
    on every block of the zoo and of Randnets, and on a graph whose
    equal-peak alternatives leave the choice to the order ready members
    are visited in and the order a bucket is popped in.

    The rewrite rules, split into a site pass over one {!Rule.view} and
    a build of the sites their cap keeps, are checked against
    [Ref_rules], the rules that built every match by walking the
    graph's maps and then capped: the same rewrites (name, node map,
    id bound, outputs, touched nodes) in the same order, and no site
    built that the cap drops, on the zoo's initial states and every
    state an 8-iteration search evaluates, on Randnets under drawn
    contexts, and on a planted graph with more matches than the cap. *)

open Magis
open Helpers
module Int_set = Util.Int_set
module Int_map = Util.Int_map

(* ------------------------------------------------------------------ *)
(* Reference implementations                                           *)
(* ------------------------------------------------------------------ *)

let reachable step start =
  let rec go visited frontier =
    match frontier with
    | [] -> visited
    | v :: rest ->
        let visited, frontier =
          List.fold_left
            (fun (vis, fr) u ->
              if Int_set.mem u vis then (vis, fr) else (Int_set.add u vis, u :: fr))
            (visited, rest) (step v)
        in
        go visited frontier
  in
  go (Int_set.of_list start) start

let ref_topo_order g =
  let indeg = Hashtbl.create (Graph.n_nodes g) in
  Graph.iter
    (fun n ->
      Hashtbl.replace indeg n.id
        (List.length (List.filter (fun p -> Graph.mem g p) (Graph.pre g n.id))))
    g;
  let module Pq = Set.Make (Int) in
  let ready =
    Hashtbl.fold (fun id d acc -> if d = 0 then Pq.add id acc else acc) indeg Pq.empty
  in
  let rec go ready acc =
    match Pq.min_elt_opt ready with
    | None -> List.rev acc
    | Some v ->
        let ready = Pq.remove v ready in
        let ready =
          List.fold_left
            (fun r s ->
              let d = Hashtbl.find indeg s - 1 in
              Hashtbl.replace indeg s d;
              if d = 0 then Pq.add s r else r)
            ready (Graph.suc g v)
        in
        go ready (v :: acc)
  in
  go ready []

let ref_components_of g set =
  let rec all acc remaining =
    match Int_set.choose_opt remaining with
    | None -> List.rev acc
    | Some seed ->
        let neighbors v =
          List.filter (fun u -> Int_set.mem u remaining) (Graph.pre g v @ Graph.suc g v)
        in
        let comp = Int_set.add seed (reachable neighbors [ seed ]) in
        all (comp :: acc) (Int_set.diff remaining comp)
  in
  all [] set

(* the old check compared the count of distinct positions with the node
   count, so it accepted repeated nodes; the length test is the fix *)
let ref_is_valid_order g order =
  let pos = Hashtbl.create (List.length order) in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  Hashtbl.length pos = Graph.n_nodes g
  && List.for_all (fun v -> Graph.mem g v) order
  && List.for_all
       (fun v ->
         List.for_all (fun p -> Hashtbl.find pos p < Hashtbl.find pos v) (Graph.pre g v))
       order
  && List.length order = Graph.n_nodes g

let ref_wl_hash g =
  let labels =
    List.fold_left
      (fun acc v ->
        let n = Graph.node g v in
        let h0 =
          Util.hash_combine (Util.hash_string (Op.name n.op)) (Shape.hash n.shape)
        in
        let h =
          Array.fold_left (fun h p -> Util.hash_combine h (Int_map.find p acc)) h0 n.inputs
        in
        Int_map.add v (Util.mix64 h) acc)
      Int_map.empty (ref_topo_order g)
  in
  Util.mix64 (Int_map.fold (fun _ h acc -> Int64.add acc h) labels 0L)

(* one breadth-first search per direction and node *)
let ref_nw g v =
  let bfs step =
    let rec go visited frontier =
      match frontier with
      | [] -> visited
      | u :: rest ->
          let nexts = List.filter (fun w -> not (Int_set.mem w visited)) (step u) in
          go (List.fold_left (fun acc w -> Int_set.add w acc) visited nexts) (nexts @ rest)
    in
    go Int_set.empty [ v ]
  in
  let anc = bfs (Graph.pre g) and des = bfs (Graph.suc g) in
  Graph.n_nodes g - Int_set.cardinal anc - Int_set.cardinal des - 1

let ref_partition ?(max_crossing = 1) g members =
  let topo = ref_topo_order g in
  let topo_pos = Hashtbl.create (List.length topo) in
  List.iteri (fun i v -> Hashtbl.replace topo_pos v i) topo;
  let blocks =
    List.concat_map
      (fun comp ->
        let ordered = List.filter (fun v -> Int_set.mem v comp) topo in
        let n = List.length ordered in
        let pos_in = Hashtbl.create n in
        List.iteri (fun i v -> Hashtbl.replace pos_in v i) ordered;
        let last_use = Hashtbl.create n in
        List.iter
          (fun v ->
            let i = Hashtbl.find pos_in v in
            let l =
              List.fold_left
                (fun acc s ->
                  match Hashtbl.find_opt pos_in s with Some j -> max acc j | None -> acc)
                i (Graph.suc g v)
            in
            Hashtbl.replace last_use v l)
          ordered;
        let crossing = Array.make (max n 1) 0 in
        List.iter
          (fun v ->
            let i = Hashtbl.find pos_in v in
            let l = Hashtbl.find last_use v in
            if l > i && not (Lifetime.pinned g v) then begin
              crossing.(i) <- crossing.(i) + 1;
              if l < n then crossing.(l) <- crossing.(l) - 1
            end)
          ordered;
        let segments = ref [] and current = ref [] in
        let open_count = ref 0 in
        List.iteri
          (fun i v ->
            current := v :: !current;
            open_count := !open_count + crossing.(i);
            if !open_count <= max_crossing then begin
              segments := List.rev !current :: !segments;
              current := []
            end)
          ordered;
        if !current <> [] then segments := List.rev !current :: !segments;
        List.rev_map Int_set.of_list !segments)
      (ref_components_of g members)
  in
  List.sort
    (fun a b ->
      let key s = Int_set.fold (fun v acc -> min acc (Hashtbl.find topo_pos v)) s max_int in
      compare (key a) (key b))
    blocks

(* the memory-greedy list scheduler before it moved onto member-indexed
   arrays and a binary heap: hashtables and a polymorphic-compare map *)
let ref_greedy_schedule ~size_of (g : Graph.t) (members : Int_set.t) : int list =
  let module Km = Map.Make (struct
    type t = int * int * int

    let compare = compare
  end) in
  (* remaining in-member consumers; a tensor with an out-of-member consumer
     or pinned never dies inside this block *)
  let remaining = Hashtbl.create 64 in
  let freeable = Hashtbl.create 64 in
  Int_set.iter
    (fun v ->
      let succs = Graph.succ_set g v in
      let in_members = Int_set.filter (fun s -> Int_set.mem s members) succs in
      Hashtbl.replace remaining v (Int_set.cardinal in_members);
      Hashtbl.replace freeable v
        (Int_set.cardinal in_members = Int_set.cardinal succs
        && not (Lifetime.pinned g v)))
    members;
  let in_member_preds v =
    List.filter (fun u -> Int_set.mem u members) (Graph.pre g v)
  in
  let missing = Hashtbl.create 64 in
  Int_set.iter
    (fun v -> Hashtbl.replace missing v (List.length (in_member_preds v)))
    members;
  (* net bytes freed if v ran now *)
  let potential_freed v =
    let from_preds =
      List.fold_left
        (fun acc u ->
          if Hashtbl.find remaining u = 1 && Hashtbl.find freeable u then
            acc + size_of u
          else acc)
        0
        (List.sort_uniq compare (in_member_preds v))
    in
    if Hashtbl.find remaining v = 0 && Hashtbl.find freeable v then
      from_preds + size_of v
    else from_preds
  in
  let key v = (size_of v - potential_freed v, size_of v, v) in
  let current_key = Hashtbl.create 64 in
  let q = ref Km.empty in
  let enqueue v =
    let k = key v in
    (match Hashtbl.find_opt current_key v with
    | Some old -> q := Km.remove old !q
    | None -> ());
    Hashtbl.replace current_key v k;
    q := Km.add k v !q
  in
  Int_set.iter
    (fun v -> if Hashtbl.find missing v = 0 then enqueue v)
    members;
  let acc = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match Km.min_binding_opt !q with
    | None -> continue_ := false
    | Some (k, v) ->
        q := Km.remove k !q;
        Hashtbl.remove current_key v;
        acc := v :: !acc;
        (* consume operands *)
        let touched = ref [] in
        List.iter
          (fun u ->
            let r = Hashtbl.find remaining u - 1 in
            Hashtbl.replace remaining u r;
            if r = 1 then
              (* u's last consumer becomes the one that frees it: re-key
                 u's remaining ready consumer *)
              Int_set.iter
                (fun c ->
                  if Hashtbl.mem current_key c then touched := c :: !touched)
                (Graph.succ_set g u))
          (List.sort_uniq compare (in_member_preds v));
        (* release newly ready successors *)
        List.iter
          (fun s ->
            if Int_set.mem s members then begin
              let m = Hashtbl.find missing s - 1 in
              Hashtbl.replace missing s m;
              if m = 0 then enqueue s
            end)
          (Graph.suc g v);
        List.iter (fun c -> if Hashtbl.mem current_key c then enqueue c) !touched
  done;
  List.rev !acc

(* greedy-only scheduling of a member set before the member table: the
   oracle partition, each block by the oracle greedy scheduler *)
let ref_schedule_members ~size_of g members =
  List.concat_map (ref_greedy_schedule ~size_of g) (ref_partition g members)

(* greedy-only incremental rescheduling before the parent context and
   the member table: one narrow-waist table per child, positions by a
   list scan, the kept set by unions, the window and the fallback by
   [ref_schedule_members] *)
let ref_reschedule ~old_graph ~new_graph ~old_schedule ~mutated_old ~size_of =
  let full ?attempted () =
    let order =
      ref_schedule_members ~size_of new_graph (Int_set.of_list (Graph.node_ids new_graph))
    in
    let interval =
      match attempted with Some w -> w | None -> (0, List.length order)
    in
    (order, { Incremental.interval; rescheduled = List.length order; fallback = true })
  in
  let psi = Array.of_list old_schedule in
  let positions =
    List.mapi (fun i v -> (i, v)) old_schedule
    |> List.filter_map (fun (i, v) -> if Int_set.mem v mutated_old then Some i else None)
  in
  if positions = [] || Array.length psi = 0 then full ()
  else
    let nw = Partition.nw_on (Graph_index.of_graph old_graph) in
    let lo = List.fold_left min max_int positions in
    let hi = List.fold_left max min_int positions in
    let beg = Incremental.extend_bound ~nw psi lo (-1) in
    let end_ = Incremental.extend_bound ~nw psi hi 1 + 1 in
    let keep v = Graph.mem new_graph v in
    let prefix = Array.to_list (Array.sub psi 0 beg) |> List.filter keep in
    let suffix =
      Array.to_list (Array.sub psi end_ (Array.length psi - end_)) |> List.filter keep
    in
    let kept = Int_set.union (Int_set.of_list prefix) (Int_set.of_list suffix) in
    let s_new =
      List.filter (fun v -> not (Int_set.mem v kept)) (Graph.node_ids new_graph)
      |> Int_set.of_list
    in
    let middle = ref_schedule_members ~size_of new_graph s_new in
    let order = prefix @ middle @ suffix in
    if is_valid_order new_graph order then
      ( order,
        { Incremental.interval = (beg, end_); rescheduled = Int_set.cardinal s_new;
          fallback = false } )
    else full ~attempted:(beg, end_) ()

(* ------------------------------------------------------------------ *)
(* Subjects                                                            *)
(* ------------------------------------------------------------------ *)

let rewrites ?(max_per_rule = 2) g =
  let ctx =
    {
      Rule.hotspots = Int_set.of_list (Graph.node_ids g);
      frozen = Int_set.empty;
      schedule_pos = (fun _ -> None);
      max_per_rule;
      restrict_to_hotspots = false;
    }
  in
  List.concat_map (fun (r : Rule.t) -> Rule.apply r ctx g) (Sched_rules.all @ Taso_rules.all)

(** [steps] seeded rewrites away from [g]. *)
let rec rewritten g ~seed ~steps =
  if steps = 0 then g
  else
    match rewrites g with
    | [] -> g
    | l ->
        let rw : Rule.rewrite = List.nth l (seed mod List.length l) in
        rewritten rw.graph ~seed:((seed * 7) + 3) ~steps:(steps - 1)

let gen_graph =
  QCheck2.Gen.(
    let* cells = int_range 1 3 in
    let* nodes_per_cell = int_range 2 5 in
    let* seed = int_range 0 10_000 in
    let* steps = int_range 0 3 in
    return (cells, nodes_per_cell, seed, steps))

let build_graph (cells, nodes_per_cell, seed, steps) =
  let cfg =
    { Randnet.cells; nodes_per_cell; channels = 8; image = 8; batch = 2; seed }
  in
  rewritten (Randnet.build ~cfg ()) ~seed ~steps

let print_graph (cells, nodes_per_cell, seed, steps) =
  Printf.sprintf "randnet cells=%d nodes_per_cell=%d seed=%d, %d rewrites" cells
    nodes_per_cell seed steps

(** Node subsets of [g] drawn from [seed]: everything, a contiguous
    window of the topological order (what incremental rescheduling
    partitions), and a sparse random subset. *)
let member_sets g seed =
  let topo = Array.of_list (Graph.topo_order g) in
  let n = Array.length topo in
  let rng = Random.State.make [| seed |] in
  let lo = Random.State.int rng n in
  let hi = lo + Random.State.int rng (n - lo) in
  let all = Array.to_list topo in
  let window = Array.to_list (Array.sub topo lo (hi - lo + 1)) in
  let sparse = List.filter (fun _ -> Random.State.int rng 3 = 0) all in
  List.map Int_set.of_list [ all; window; sparse ]

(** A topological order other than the smallest-id one: Kahn with a
    seeded random choice among the ready nodes. *)
let random_topo_order g seed =
  let rng = Random.State.make [| seed |] in
  let indeg = Hashtbl.create 64 in
  Graph.iter (fun n -> Hashtbl.replace indeg n.id (List.length (Graph.pre g n.id))) g;
  let ready = ref (List.filter (fun v -> Hashtbl.find indeg v = 0) (Graph.node_ids g)) in
  let out = ref [] in
  while !ready <> [] do
    let v = List.nth !ready (Random.State.int rng (List.length !ready)) in
    ready := List.filter (( <> ) v) !ready;
    out := v :: !out;
    List.iter
      (fun s ->
        let d = Hashtbl.find indeg s - 1 in
        Hashtbl.replace indeg s d;
        if d = 0 then ready := s :: !ready)
      (Graph.suc g v)
  done;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Equalities                                                          *)
(* ------------------------------------------------------------------ *)

let same_sets a b = List.equal Int_set.equal a b

(** {!Reach.of_arrays} over a random topological order against
    {!Graph.anc} / {!Graph.des}, {!Partition.nw_on} against
    [Liveness.mobility], and the
    [quick_check] verdicts against [check] at both edges of the bound
    interval; [Error what] names the first disagreement. *)
let check_closure g seed =
  let order = random_topo_order g seed in
  let ix = Graph_index.of_graph g in
  let { Graph_index.row; ids = readers } = Graph_index.csr ix in
  let r =
    Reach.of_arrays ~order ~nodes:(Graph_index.nodes ix) ~consumer_row:row
      ~consumers:readers
  in
  let ids = Graph.node_ids g in
  let reach_ok r v =
    let anc = Graph.anc g v and des = Graph.des g v in
    Reach.n_anc r v = Int_set.cardinal anc
    && Reach.n_des r v = Int_set.cardinal des
    && List.for_all (fun u -> Reach.precedes r u v = Int_set.mem u anc) ids
  in
  if Reach.order r <> order then Error "Reach.order"
  else if not (List.for_all (reach_ok r) ids) then Error "Reach"
  else if Reach.order (Graph_index.reach ix) != Graph_index.order ix then
    Error "Graph_index.reach walks its own order"
  else if not (List.for_all (reach_ok (Graph_index.reach ix)) ids) then
    Error "Graph_index.reach"
  else
    let lv = Liveness.compute g and nw = Partition.nw_on ix in
    if not (List.for_all (fun v -> nw.(v) = Liveness.mobility lv v) ids) then
      Error "nw_on = mobility"
    else
      let b = Membound.compute g in
      let verdicts diags =
        List.filter_map
          (fun (d : Diagnostic.t) ->
            if List.mem d.check [ "lb-exceeds-peak"; "peak-exceeds-total" ] then
              Some (Diagnostic.to_string d)
            else None)
          diags
      in
      let agree peak =
        verdicts (Membound.quick_check g ~peak) = verdicts (Membound.check b ~peak)
      in
      if List.for_all agree [ b.lower - 1; b.lower; b.ub_total; b.ub_total + 1 ]
      then Ok ()
      else Error "quick_check verdicts"

(** The greedy scheduler against its oracle on every member set and on
    every block {!Partition.partition} cuts from it (the blocks of the
    initial schedule among them), and greedy-only
    {!Reorder.schedule_members}, which runs one greedy pass over the
    blocks of one member table, against the oracles composed. *)
let check_greedy g sets =
  let size_of = Lifetime.default_size g in
  let greedy_matches s =
    Reorder.greedy_schedule ~size_of g s = ref_greedy_schedule ~size_of g s
  in
  let rec go = function
    | [] -> Ok ()
    | s :: rest ->
        if not (List.for_all greedy_matches (s :: Partition.partition g s)) then
          Error "greedy_schedule"
        else if
          Reorder.schedule_members ~max_states:0 ~size_of (Graph_index.of_graph g)
            (Array.of_list (Int_set.elements s))
          <> ref_schedule_members ~size_of g s
        then Error "schedule_members"
        else go rest
  in
  go sets

(** Every entry of two trees, in order: members, dims, fission number,
    parent and children. *)
let entries t = List.init (Ftree.n_entries t) (Ftree.entry t)

let same_entries =
  List.equal (fun (x : Ftree.entry) (y : Ftree.entry) ->
      Int_set.equal x.fission.members y.fission.members
      && Int_map.equal Int.equal x.fission.dims y.fission.dims
      && x.fission.n = y.fission.n && x.parent = y.parent && x.children = y.children)

let same_tree a b = same_entries (entries a) (entries b)

(** Hot-spots of [g]'s smallest-id topological schedule. *)
let hotspots_of g =
  (Mstate.evaluate (cache ()) g Ftree.empty (Graph.topo_order g)).hotspots

(** The dominator tree against its oracle: immediate dominators, strict
    subtrees and reverse postorder, node by node. *)
let same_dominators g ?members () =
  let t = Dominator.compute ?members g and r = Ref_algorithm1.Dominator.compute ?members g in
  Dominator.rpo t = Ref_algorithm1.Dominator.rpo r
  && List.for_all
       (fun v ->
         Dominator.idom t v = Ref_algorithm1.Dominator.idom r v
         && Int_set.equal (Dominator.strict_subtree t v)
              (Ref_algorithm1.Dominator.strict_subtree r v))
       (Graph.node_ids g)

(** The D-graph's components against the oracle's, in order: the same
    graph nodes, the same D-nodes, the same restriction to all their
    nodes. *)
let same_components g =
  let comps = Dgraph.components (Dgraph.build g) in
  let refs = Ref_algorithm1.Dgraph.(components (build g)) in
  List.length comps = List.length refs
  && List.for_all2
       (fun c r ->
         let nodes = Int_set.of_list (Array.to_list (Dgraph.nodes c)) in
         let dnodes = List.concat_map (Dgraph.dnodes_of g) (Array.to_list (Dgraph.nodes c)) in
         Int_set.equal nodes (Ref_algorithm1.Dgraph.graph_nodes_of_component r)
         && List.for_all
              (fun d -> Dgraph.mem c d = Ref_algorithm1.Dgraph.Dnode_set.mem d r)
              dnodes
         && Option.equal (Int_map.equal Int.equal) (Dgraph.restrict c nodes)
              (Ref_algorithm1.Dgraph.restrict r nodes))
       comps refs

(** Hot-spot sets for [g]: its schedule's, every node, and two seeded
    random subsets (so that inputs outside the hot-spots weigh on the
    scores). *)
let hotspot_sets g =
  let rng = Random.State.make [| Graph.n_nodes g |] in
  let ids = Graph.node_ids g in
  let random k = Int_set.of_list (List.filter (fun _ -> Random.State.int rng k = 0) ids) in
  [ hotspots_of g; Int_set.of_list ids; random 2; random 4 ]

(** Algorithm 1 against its oracles on [g]: the D-graph, the whole-graph
    dominator tree and one per D-graph component, and the tree
    {!Ftree.construct} returns for each of {!hotspot_sets}. *)
let check_algorithm1 g =
  if not (same_components g) then Error "Dgraph.components"
  else if not (same_dominators g ()) then Error "Dominator (whole graph)"
  else if
    not
      (List.for_all
         (fun c ->
           same_dominators g ~members:(Int_set.of_list (Array.to_list (Dgraph.nodes c))) ())
         (Dgraph.components (Dgraph.build g)))
  then Error "Dominator (per component)"
  else if
    not
      (List.for_all
         (fun hotspots ->
           same_tree (Ftree.construct g ~hotspots) (Ref_algorithm1.construct g ~hotspots))
         (hotspot_sets g))
  then Error "Ftree.construct"
  else Ok ()

(* operand slots reading each id, by a fold over the graph's map *)
let ref_reads g =
  let c = Array.make (Graph.id_bound g) 0 in
  Graph.iter (fun n -> Array.iter (fun p -> c.(p) <- c.(p) + 1) n.inputs) g;
  c

(** Every invariant against its oracle on [g]; [Error what] names the
    first disagreement. *)
let check_graph g seed =
  let topo = Graph.topo_order g in
  let ix = Graph_index.of_graph g in
  let reads = ref_reads g in
  if topo <> ref_topo_order g then Error "topo_order"
  else if Array.to_list (Graph_index.order ix) <> topo then Error "Graph_index.order"
  else if not (List.for_all (fun v -> Graph_index.n_reads ix v = reads.(v)) topo) then
    Error "Graph_index.n_reads"
  else if not (Int64.equal (Wl_hash.hash g) (ref_wl_hash g)) then Error "Wl_hash.hash"
  else if not (Int64.equal (Wl_hash.hash_on ix) (ref_wl_hash g)) then Error "Wl_hash.hash_on"
  else
    let nw = Partition.nw_on ix in
    if not (List.for_all (fun v -> nw.(v) = ref_nw g v) topo) then Error "nw_on"
    else
      let sets = member_sets g seed in
      if not (List.for_all (fun s -> same_sets (Graph.components_of g s) (ref_components_of g s)) sets)
      then Error "components_of"
      else if
        not
          (List.for_all
             (fun s ->
               same_sets (Partition.partition g s) (ref_partition g s)
               && same_sets
                    (Partition.partition ~max_crossing:3 g s)
                    (ref_partition ~max_crossing:3 g s))
             sets)
      then Error "partition"
      else
        match check_greedy g sets with
        | Error _ as e -> e
        | Ok () ->
        let orders =
          match topo with
          | a :: b :: rest ->
              [
                topo; b :: a :: rest; a :: topo; topo @ [ b ]; a :: b :: b :: rest;
                a :: a :: rest; List.rev topo; rest;
              ]
          | _ -> [ topo; [] ]
        in
        if
          not
            (List.for_all
               (fun o -> is_valid_order g o = ref_is_valid_order g o)
               orders)
        then Error "is_valid_order"
        else
          match check_closure g seed with
          | Error _ as e -> e
          | Ok () -> check_algorithm1 g

let prop_randnets =
  QCheck2.Test.make ~name:"invariants equal their oracles on rewritten randnets"
    ~count:40 ~print:print_graph gen_graph (fun params ->
      let _, _, seed, _ = params in
      match check_graph (build_graph params) seed with
      | Ok () -> true
      | Error what -> QCheck2.Test.fail_report what)

let test_zoo () =
  let renumbered = ref 0 in
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let g' = rewritten g ~seed:5 ~steps:2 in
      (* the subjects must include graphs whose ids are not already in
         topological order, or the heap order is never exercised *)
      if Graph.topo_order g' <> Graph.node_ids g' then incr renumbered;
      List.iteri
        (fun i g ->
          match check_graph g (17 + i) with
          | Ok () -> ()
          | Error what -> Alcotest.failf "%s (%d): %s" w.name i what)
        [ g; g' ])
    Zoo.all;
  Alcotest.(check bool) "some rewritten graph leaves id order" true
    (!renumbered > 0)

(** A node that reads one operand twice and, through a redirected slot,
    another operand with a higher id than its own: the walk over
    consumers by slot must release it only after both. *)
let repeated_operand_graph () =
  let b = Builder.create () in
  let x = Builder.input b [ 4; 8 ] ~dtype:Shape.F32 in
  let a = Builder.relu b x in
  let t = Builder.tanh_ b x in
  let c = Builder.concat b ~axis:0 [ a; a; t ] in
  let u = Builder.tanh_ b (Builder.relu b a) in
  let _ = Builder.relu b c in
  Graph.replace_input (Builder.finish b) ~node_id:c ~old_src:t ~new_src:u

let test_repeated_operand () =
  let g = repeated_operand_graph () in
  Alcotest.(check bool) "a consumer precedes an operand in id order" true
    (Graph.topo_order g <> Graph.node_ids g);
  match check_graph g 3 with
  | Ok () -> ()
  | Error what -> Alcotest.failf "operand read twice: %s" what

(* ------------------------------------------------------------------ *)
(* Candidates as deltas of their parent                                *)
(* ------------------------------------------------------------------ *)

(* what a rewritten graph carries to its own children: its node array,
   labels and base costs *)
type delta_parent = {
  d_nodes : Graph.node array;
  d_labels : Wl_hash.labels;
  d_costs : float array;
}

let charged (n : Graph.node) =
  match n.op with Op.Input _ | Op.Store | Op.Load -> false | _ -> true

(** The full evaluation of [g] as a root: labels and costs from scratch. *)
let delta_root cache g =
  let ix = Graph_index.of_graph g in
  { d_nodes = Graph_index.nodes ix; d_labels = Wl_hash.labels_on ix;
    d_costs = Op_cost.costs_on cache ix }

(** [g] as a delta of [parent], against full recomputation: the delta
    hash equals [ref_wl_hash], every delta label the one a fresh
    labelling gives, and every inherited base cost is bit-equal to a
    fresh {!Op_cost.node_cost_on}.  [Ok d] carries the delta labels and
    inherited costs on, as the parent of [g]'s own children. *)
let check_delta cache (parent : delta_parent) g =
  let ix = Graph_index.of_graph g in
  let labels =
    Wl_hash.relabel_on ~parent_nodes:parent.d_nodes ~parent:parent.d_labels ix
  in
  let fresh = Graph_index.of_graph g in
  let full = Wl_hash.labels_on fresh in
  let cost =
    Op_cost.inherited_cost_on cache ~parent_nodes:parent.d_nodes
      ~parent_costs:parent.d_costs ix
  in
  let costs =
    Array.mapi
      (fun v (n : Graph.node) -> if n.id = v && charged n then cost v else 0.0)
      (Graph_index.nodes ix)
  in
  let ids = Graph.node_ids g in
  if not (Int64.equal (Wl_hash.hash_of labels) (ref_wl_hash g)) then
    Error "delta WL hash"
  else if
    not (List.for_all (fun v -> Int64.equal (Wl_hash.label labels v) (Wl_hash.label full v)) ids)
  then Error "delta WL labels"
  else if
    not
      (List.for_all
         (fun v ->
           (not (charged (Graph.node g v)))
           || Int64.equal (Int64.bits_of_float costs.(v))
                (Int64.bits_of_float (Op_cost.node_cost_on cache fresh v)))
         ids)
  then Error "inherited base costs"
  else Ok { d_nodes = Graph_index.nodes ix; d_labels = labels; d_costs = costs }

(** The rewrites the search proposes from a state (its rule context). *)
let state_rewrites (s : Mstate.t) =
  let pos = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) s.schedule;
  let ctx =
    {
      Rule.hotspots = s.hotspots;
      frozen = Ftree.frozen_region s.ftree;
      schedule_pos = Hashtbl.find_opt pos;
      max_per_rule = Search.max_per_rule;
      restrict_to_hotspots = true;
    }
  in
  List.concat_map (fun (r : Rule.t) -> Rule.apply r ctx s.graph) (Sched_rules.all @ Taso_rules.all)

(** Every rewrite the search proposes from every zoo model's initial
    state, as a delta of that state, and the state itself (what an
    F-Tree mutation keeps). *)
let test_delta_zoo () =
  let n = ref 0 in
  List.iter
    (fun (w : Zoo.workload) ->
      let cache = Op_cost.create Hardware.default in
      let s = Mstate.init ~sched_states:0 cache (w.build Zoo.Quick) in
      let root = delta_root cache s.graph in
      List.iter
        (fun (rw : Rule.rewrite) ->
          incr n;
          match check_delta cache root rw.graph with
          | Ok _ -> ()
          | Error what -> Alcotest.failf "%s, rewrite %s: %s" w.name rw.rule what)
        (state_rewrites s);
      match check_delta cache root s.graph with
      | Ok _ -> ()
      | Error what -> Alcotest.failf "%s, unchanged graph: %s" w.name what)
    Zoo.all;
  Alcotest.(check bool) (Printf.sprintf "%d rewrites checked" !n) true (!n >= 100)

let gen_chain =
  QCheck2.Gen.(
    let* cells = int_range 1 3 in
    let* nodes_per_cell = int_range 2 5 in
    let* seed = int_range 0 10_000 in
    let* steps = int_range 3 5 in
    return (cells, nodes_per_cell, seed, steps))

(** A chain of seeded rewrites from a Randnet, each candidate taken as a
    delta of its own parent: the labels and costs a step checks are the
    parent of the next, so an error carried down the chain shows. *)
let prop_delta_chains =
  QCheck2.Test.make ~name:"delta labels and costs equal full recomputation on rewrite chains"
    ~count:30 ~print:print_graph gen_chain
    (fun (cells, nodes_per_cell, seed, steps) ->
      let cfg =
        { Randnet.cells; nodes_per_cell; channels = 8; image = 8; batch = 2; seed }
      in
      let cache = Op_cost.create Hardware.default in
      let rec go g parent ~seed ~steps =
        if steps = 0 then true
        else
          match rewrites g with
          | [] -> true
          | l -> (
              let rw : Rule.rewrite = List.nth l (seed mod List.length l) in
              match check_delta cache parent rw.graph with
              | Error what -> QCheck2.Test.fail_reportf "step %s: %s" rw.rule what
              | Ok d -> go rw.graph d ~seed:((seed * 7) + 3) ~steps:(steps - 1))
      in
      let g = Randnet.build ~cfg () in
      go g (delta_root cache g) ~seed ~steps)

(** The parent context against the per-child path it replaced, on the
    first 20 rewrites of every zoo model's initial state, all sharing
    one context: same order, same stats, on a fresh index of the
    candidate and on one the WL hash has already read, as the search
    hands it on.  Greedy only, as the search schedules by default. *)
let test_reschedule_zoo () =
  let compared = ref 0 and spliced = ref 0 in
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let schedule = Reorder.schedule ~max_states:0 g in
      let parent = Incremental.parent (Graph_index.of_graph g) schedule in
      List.iteri
        (fun i (rw : Rule.rewrite) ->
          if i < 20 then begin
            let size_of = Lifetime.default_size rw.graph in
            let expected =
              ref_reschedule ~old_graph:g ~new_graph:rw.graph
                ~old_schedule:schedule ~mutated_old:rw.touched_old ~size_of
            in
            incr compared;
            if not (snd expected).fallback then incr spliced;
            let hashed = Graph_index.of_graph rw.graph in
            ignore (Wl_hash.hash_on hashed);
            List.iter
              (fun new_index ->
                if
                  Incremental.reschedule ~max_states:0 ~parent ~new_index
                    ~mutated_old:rw.touched_old ~size_of ()
                  <> expected
                then Alcotest.failf "%s: rewrite %d (%s)" w.name i rw.rule)
              [ Graph_index.of_graph rw.graph; hashed ]
          end)
        (rewrites ~max_per_rule:6 g))
    Zoo.all;
  Alcotest.(check bool)
    (Printf.sprintf "most of %d rewrites spliced (%d)" !compared !spliced)
    true
    (!compared = 20 * List.length Zoo.all && 2 * !spliced > !compared)

(* ------------------------------------------------------------------ *)
(* Window scheduling on one member table                              *)
(* ------------------------------------------------------------------ *)

(** A popped state's view as the search builds it: one index of its
    graph, its order forced, and its labels. *)
let pop_view g =
  let ix = Graph_index.of_graph g in
  ignore (Graph_index.order ix : int array);
  (ix, Wl_hash.labels_on ix)

(** {!Incremental.reschedule} on [new_index] against [ref_reschedule]. *)
let check_window ~old_graph ~old_schedule ~parent ~new_index ~mutated_old =
  let new_graph = Graph_index.graph new_index in
  let size_of = Lifetime.default_size new_graph in
  let expected =
    ref_reschedule ~old_graph ~new_graph ~old_schedule ~mutated_old ~size_of
  in
  let got =
    Incremental.reschedule ~max_states:0 ~parent ~new_index ~mutated_old ~size_of ()
  in
  if got <> expected then Error "reschedule" else Ok (snd got).fallback

(** Greedy-only {!Reorder.schedule_members} on [ix] against the oracles
    composed, for each member set in turn on the same index (so its
    slot scratch must come back clean after each). *)
let check_members ix sets =
  let g = Graph_index.graph ix in
  let size_of = Lifetime.default_size g in
  List.for_all
    (fun s ->
      Reorder.schedule_members ~max_states:0 ~size_of ix
        (Array.of_list (Int_set.elements s))
      = ref_schedule_members ~size_of g s)
    sets

(** Every rewrite the search proposes from every zoo model's initial
    state, on the index the search builds (its order forced by
    {!Wl_hash.relabel_on} from the state's labels), and every F-Tree
    entry's members as a mutation, all on the state's one index that
    the parent context is built on, as the search reschedules a pop's
    mutations: its {!Graph_index.with_locals} scratch must come back
    clean from each. *)
let test_window_zoo () =
  let windows = ref 0 and spliced = ref 0 in
  List.iter
    (fun (w : Zoo.workload) ->
      let cache = Op_cost.create Hardware.default in
      let s = Mstate.init ~sched_states:0 cache (w.build Zoo.Quick) in
      let pix, labels = pop_view s.graph in
      let parent = Incremental.parent pix s.schedule in
      let check what new_index mutated_old =
        incr windows;
        match
          check_window ~old_graph:s.graph ~old_schedule:s.schedule ~parent
            ~new_index ~mutated_old
        with
        | Ok fallback -> if not fallback then incr spliced
        | Error e -> Alcotest.failf "%s, %s: %s" w.name what e
      in
      List.iter
        (fun (rw : Rule.rewrite) ->
          let ix = Graph_index.of_graph rw.graph in
          ignore
            (Wl_hash.relabel_on ~parent_nodes:(Graph_index.nodes pix) ~parent:labels ix);
          check ("rewrite " ^ rw.rule) ix rw.touched_old)
        (state_rewrites s);
      for i = 0 to Ftree.n_entries s.ftree - 1 do
        check
          (Printf.sprintf "F-Tree entry %d" i)
          pix
          (Fission.members (Ftree.fission_at s.ftree i))
      done;
      Graph_index.with_locals pix [||] (fun slot ->
          if Array.exists (fun k -> k <> -1) slot then
            Alcotest.failf "%s: the pop index's scratch is not clean" w.name))
    Zoo.all;
  Alcotest.(check bool)
    (Printf.sprintf "most of %d windows spliced (%d)" !windows !spliced)
    true
    (!windows >= 100 && 2 * !spliced > !windows)

(** Node subsets of [g] drawn from [seed] beyond {!member_sets}: two
    more contiguous windows of the topological order and a denser
    random subset. *)
let random_windows g seed =
  let topo = Array.of_list (Graph.topo_order g) in
  let n = Array.length topo in
  let rng = Random.State.make [| seed; n |] in
  let window () =
    let lo = Random.State.int rng n in
    let hi = lo + Random.State.int rng (n - lo) in
    Int_set.of_list (Array.to_list (Array.sub topo lo (hi - lo + 1)))
  in
  let dense =
    Int_set.of_list (List.filter (fun _ -> Random.State.int rng 3 > 0) (Array.to_list topo))
  in
  member_sets g seed @ [ window (); window (); dense ]

(** Window scheduling on [g] against the oracles: random windows on one
    index of [g], then, on that same index, a reschedule of [g] around
    each of a few seeded nodes, as the search reschedules a pop's
    mutations. *)
let check_windows g seed =
  let ix = Graph_index.of_graph g in
  if not (check_members ix (random_windows g seed)) then Error "schedule_members"
  else
    let schedule = Reorder.schedule ~max_states:0 g in
    let parent = Incremental.parent ix schedule in
    let ids = Array.of_list (Graph.node_ids g) in
    let rng = Random.State.make [| seed |] in
    let rec go k =
      if k = 0 then Ok ()
      else
        let mutated_old =
          Int_set.of_list
            (List.init 2 (fun _ -> ids.(Random.State.int rng (Array.length ids))))
        in
        match
          check_window ~old_graph:g ~old_schedule:schedule ~parent
            ~new_index:ix ~mutated_old
        with
        | Ok _ -> go (k - 1)
        | Error _ as e -> e
    in
    go 4

(** [g] with the seeded one of its binary adds over two same-shaped
    operands made to read its first operand twice (the second loses
    that consumer), or [g] when it has none. *)
let with_repeat g seed =
  let adds =
    List.filter_map
      (fun v ->
        match (Graph.node g v : Graph.node) with
        | { op = Op.Binary Op.Add; inputs = [| a; b |]; _ }
          when a <> b && Shape.equal (Graph.node g a).shape (Graph.node g b).shape ->
            Some (v, a, b)
        | _ -> None)
      (Graph.node_ids g)
  in
  match adds with
  | [] -> g
  | l ->
      let v, a, b = List.nth l (seed mod List.length l) in
      Graph.replace_input g ~node_id:v ~old_src:b ~new_src:a

let prop_windows =
  QCheck2.Test.make ~name:"window scheduling equals the oracles on rewritten randnets"
    ~count:40 ~print:print_graph gen_graph (fun params ->
      let _, _, seed, _ = params in
      let g = build_graph params in
      match
        Result.bind (check_windows g seed) (fun () ->
            check_windows (with_repeat g seed) seed)
      with
      | Ok () -> true
      | Error what -> QCheck2.Test.fail_report what)

(** Two shapes the member table must get right.  [wide] reads [x]
    twice and is cut off from its consumer [late]: after the unconsumed
    [out] only [wide] is live, so the partition cuts there, and [wide]
    must not die in its own block, where it is larger than its
    competitor [narrow].  In the block after the weight [z], [q] reads
    [p] twice and frees it when it runs, which is what makes it beat
    [r], whose size lies between [q]'s net delta with [p] freed and
    without. *)
let window_graph () =
  let b = Builder.create () in
  let x = Builder.input b [ 8; 16 ] ~dtype:Shape.F32 in
  let wide = Builder.concat b ~axis:0 [ x; x ] in
  let narrow = Builder.tanh_ b x in
  let _out = Builder.sigmoid b narrow in
  let late = Builder.relu b wide in
  let z = Builder.weight b [ 24; 16 ] ~dtype:Shape.F32 in
  let r = Builder.tanh_ b z in
  let p = Builder.relu b late in
  let q = Builder.concat b ~axis:0 [ p; p ] in
  let _ = Builder.concat b ~axis:0 [ q; r ] in
  Builder.finish b

(* every contiguous window of [g]'s topological order *)
let contiguous_windows g =
  let topo = Array.of_list (Graph.topo_order g) in
  let n = Array.length topo in
  List.concat_map
    (fun lo ->
      List.init (n - lo) (fun len ->
          Int_set.of_list (Array.to_list (Array.sub topo lo (len + 1)))))
    (List.init n Fun.id)

let test_window_shapes () =
  let g = window_graph () in
  let blocks = Partition.partition g (Int_set.of_list (Graph.node_ids g)) in
  let block_of v =
    let rec go k = function
      | [] -> -1
      | s :: rest -> if Int_set.mem v s then k else go (k + 1) rest
    in
    go 0 blocks
  in
  let later_consumer v = List.exists (fun c -> block_of c > block_of v) (Graph.suc g v) in
  let read_twice (n : Graph.node) =
    Array.length n.inputs > List.length (Graph.pre g n.id)
    && List.exists (fun u -> block_of u = block_of n.id) (Graph.pre g n.id)
  in
  Alcotest.(check bool) "a member's consumer lies in a later block" true
    (List.exists
       (fun v -> later_consumer v && not (Lifetime.pinned g v) && Int_set.cardinal (List.nth blocks (block_of v)) > 1)
       (Graph.node_ids g));
  Alcotest.(check bool) "a node reads an operand of its own block twice" true
    (List.exists (fun v -> read_twice (Graph.node g v)) (Graph.node_ids g));
  (* every contiguous window of the order, on one index *)
  Alcotest.(check bool) "every window equals the oracles" true
    (check_members (Graph_index.of_graph g) (contiguous_windows g));
  match check_windows g 7 with
  | Ok () -> ()
  | Error what -> Alcotest.failf "window graph: %s" what

(* ------------------------------------------------------------------ *)
(* The DP on the member table                                          *)
(* ------------------------------------------------------------------ *)

let dp_budgets = [ 1; 3; 64; 600; 4_000 ]

(** At every budget of [dp_budgets]: {!Reorder.dp_schedule} against
    [ref_dp_schedule] on every block {!Partition.partition} cuts from
    each of [sets], {!Reorder.schedule_members} on one index of [g]
    against the oracles composed on each of [sets], and
    {!Reorder.schedule} against the oracles composed on the whole graph.
    Same order or same
    [None]; [Error what] names the first disagreement.  [tally] counts
    the blocks the DP completed and gave up on. *)
let check_dp ?(tally = fun _ _ -> ()) g sets =
  let size_of = Lifetime.default_size g in
  let ix = Graph_index.of_graph g in
  let all = Int_set.of_list (Graph.node_ids g) in
  let blocks = List.concat_map (Partition.partition g) sets in
  (* each block's oracle DP is run once per budget *)
  let memo = Hashtbl.create 64 in
  let ref_dp max_states block =
    let key = (max_states, Int_set.elements block) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
        let r = Ref_dp.ref_dp_schedule ~max_states ~size_of g block in
        Hashtbl.replace memo key r;
        r
  in
  (* the oracle partition, each block by the oracle DP with the
     oracle greedy as its fallback *)
  let oracle max_states s =
    List.concat_map
      (fun block ->
        match ref_dp max_states block with
        | Some order -> order
        | None -> ref_greedy_schedule ~size_of g block)
      (ref_partition g s)
  in
  let same_dp max_states block =
    let got = Reorder.dp_schedule ~max_states ~size_of g block in
    tally block got;
    got = ref_dp max_states block
  in
  let same_members max_states s =
    Reorder.schedule_members ~max_states ~size_of ix (Array.of_list (Int_set.elements s))
    = oracle max_states s
  in
  let rec go = function
    | [] -> Ok ()
    | max_states :: rest ->
        let fail what = Error (Printf.sprintf "%s at budget %d" what max_states) in
        if not (List.for_all (same_dp max_states) blocks) then fail "dp_schedule"
        else if not (List.for_all (same_members max_states) sets) then
          fail "schedule_members"
        else if Reorder.schedule ~max_states g <> oracle max_states all then fail "schedule"
        else go rest
  in
  go dp_budgets

(** Every block of every zoo model's whole graph (one block each holds
    all but the first and last node, and the DP gives up on it at every
    budget) and of the seeded {!member_sets} beside it.  The comparisons
    must see the DP both complete a block of several members and give
    up on one, or they show nothing. *)
let test_dp_zoo () =
  let completed = ref 0 and gave_up = ref 0 in
  let tally block = function
    | Some _ -> if Int_set.cardinal block > 1 then incr completed
    | None -> incr gave_up
  in
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      match check_dp ~tally g (member_sets g 11) with
      | Ok () -> ()
      | Error what -> Alcotest.failf "%s: %s" w.name what)
    Zoo.all;
  Alcotest.(check bool)
    (Printf.sprintf "the DP completes (%d) and gives up on (%d) blocks" !completed !gave_up)
    true
    (!completed > 0 && !gave_up > 0)

let prop_dp =
  QCheck2.Test.make ~name:"the DP on the member table equals its oracle on rewritten randnets"
    ~count:20 ~print:print_graph gen_graph (fun params ->
      let _, _, seed, _ = params in
      let g = build_graph params in
      match check_dp g (member_sets g seed) with
      | Ok () -> true
      | Error what -> QCheck2.Test.fail_report what)

(** Equal-peak alternatives: three same-sized branches of [x], joined
    pairwise, and a two-node chain beside them.  Many orders reach the
    smallest peak, so which one the DP returns is decided by the order
    it visits ready members in (increasing id) and pops a bucket in
    (last pushed first). *)
let tie_graph () =
  let b = Builder.create () in
  let x = Builder.input b [ 16 ] ~dtype:Shape.F32 in
  let a = Builder.relu b x and c = Builder.tanh_ b x and d = Builder.sigmoid b x in
  let j = Builder.add b (Builder.add b a c) d in
  let y = Builder.input b [ 16 ] ~dtype:Shape.F32 in
  let _ = Builder.add b j (Builder.relu b y) in
  Builder.finish b

(* orders of [g] reaching the smallest {!Lifetime} peak *)
let min_peak_orders g =
  let best = ref max_int and count = ref 0 in
  let rec go placed rev_order =
    let ready =
      List.filter
        (fun v ->
          (not (Int_set.mem v placed))
          && List.for_all (fun p -> Int_set.mem p placed) (Graph.pre g v))
        (Graph.node_ids g)
    in
    if ready = [] then begin
      let p = Lifetime.peak_memory (Lifetime.analyze g (List.rev rev_order)) in
      if p < !best then begin
        best := p;
        count := 1
      end
      else if p = !best then incr count
    end
    else List.iter (fun v -> go (Int_set.add v placed) (v :: rev_order)) ready
  in
  go Int_set.empty [];
  !count

(** The tie graph; every contiguous window of {!window_graph}; and two
    rewritten Randnets whose member sets hold an operand that is also
    read by a later block, where the DP's order changes if that
    operand dies in its own block. *)
let test_dp_ties () =
  let g = tie_graph () in
  Alcotest.(check bool) "several orders reach the smallest peak" true (min_peak_orders g > 1);
  let check what g sets =
    match check_dp g sets with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  check "tie graph" g [ Int_set.of_list (Graph.node_ids g) ];
  let g = window_graph () in
  check "window graph" g (contiguous_windows g);
  List.iter
    (fun ((_, _, seed, _) as params) ->
      let g = build_graph params in
      check (print_graph params) g (member_sets g seed))
    [ (2, 4, 1841, 3); (2, 3, 2194, 2) ]

(** [Ftree.refresh_on] against the refresh built on the oracle
    construction, on the first 5 rewrites of every zoo model's initial
    state, with the state's first Enable applied so that an enabled
    fission survives into the refreshed tree (matched by member set, or
    appended as a root).  Also checks that the zoo's trees are not
    empty, so the comparisons above compare something. *)
let test_refresh_zoo () =
  let n_entries = ref 0 in
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let s = Mstate.init ~sched_states:0 (cache ()) g in
      if not (same_tree s.ftree (Ref_algorithm1.construct g ~hotspots:s.hotspots)) then
        Alcotest.failf "%s: initial tree" w.name;
      n_entries := !n_entries + Ftree.n_entries s.ftree;
      let old_tree =
        match Ftree.mutations_on (Graph_index.of_graph g) s.ftree with
        | (Ftree.Enable _, Some t) :: _ -> t
        | _ -> Alcotest.failf "%s: no Enable on the initial tree" w.name
      in
      List.iteri
        (fun i (rw : Rule.rewrite) ->
          if i < 5 then begin
            let g' = rw.graph in
            let hotspots = hotspots_of g' in
            let fresh = Ref_algorithm1.construct g' ~hotspots in
            (* a surviving enabled fission sets [n] on the last fresh
               entry with its member set, or is appended as a bare root *)
            let expected =
              List.fold_left
                (fun es j ->
                  let f = Ftree.fission_at old_tree j in
                  if Ref_algorithm1.Validate.is_valid g' f then
                    let last =
                      List.fold_left max (-1)
                        (List.mapi
                           (fun k (e : Ftree.entry) ->
                             if Int_set.equal e.fission.members f.members then k else -1)
                           es)
                    in
                    if last < 0 then es @ [ { Ftree.fission = f; parent = -1; children = [] } ]
                    else
                      List.mapi
                        (fun k (e : Ftree.entry) ->
                          if k = last then { e with fission = Fission.with_n e.fission f.n } else e)
                        es
                  else es)
                (entries fresh) (Ftree.enabled_indices old_tree)
            in
            if not (same_tree (Ftree.construct g' ~hotspots) fresh) then
              Alcotest.failf "%s: rewrite %d (%s): construct" w.name i rw.rule;
            let refreshed =
              Ftree.refresh_on (Graph_index.of_graph g') ~old_tree ~hotspots
            in
            if not (same_entries (entries refreshed) expected) then
              Alcotest.failf "%s: rewrite %d (%s): refresh" w.name i rw.rule
          end)
        (rewrites ~max_per_rule:6 g))
    Zoo.all;
  Alcotest.(check bool) "the zoo's initial trees have entries" true (!n_entries > 0)

(** Only the 96 hottest nodes of a component are scored, so the order
    of equal heats decides which candidates exist.  120 weight inputs
    each feed two ReLUs, and an addition chain joins the branches: with
    no placeholder, every weight roots its own dominator subtree of
    equal heat, and every one of them reaches the top band. *)
let test_heat_ties () =
  let b = Builder.create () in
  let branch () =
    let w = Builder.weight b [ 8; 16 ] ~dtype:Shape.F32 in
    Builder.relu b (Builder.relu b w)
  in
  ignore (List.fold_left (fun acc _ -> Builder.add b acc (branch ())) (branch ()) (List.init 119 Fun.id));
  let g = Builder.finish b in
  let hotspots = Int_set.of_list (Graph.node_ids g) in
  let t = Ftree.construct g ~hotspots in
  Alcotest.(check bool) "more tied branches than scored nodes" true (Ftree.n_entries t >= 96);
  Alcotest.(check bool) "construct equals the oracle" true
    (same_tree t (Ref_algorithm1.construct g ~hotspots))

(* ------------------------------------------------------------------ *)
(* The fission check against Ref_algorithm1.Validate                   *)
(* ------------------------------------------------------------------ *)

(** Variants of the candidate [f] of [g] that each break one constraint:
    a member with a member operand and a member consumer dropped (the
    rest is disconnected or not convex), a node that touches no member
    added (disconnected), a dim dropped or one added for a non-member
    (the dims do not cover the members), a member that is not a node,
    a dim past the rank, a reduce axis, every positive dim moved to the
    next one (unlinked edges), and fission numbers 0 to 5, the modulus
    and one past it (divisibility). *)
let broken_variants g (f : Fission.t) : Fission.t list =
  let members = f.members and dims = f.dims in
  let mem v = Int_set.mem v members in
  let touches v = List.exists mem (Graph.pre g v @ Graph.suc g v) in
  let last p = List.find_opt p (List.rev (Graph.node_ids g)) in
  let rank v = Shape.rank (Graph.shape g v) in
  let v0 = Int_set.min_elt members in
  let add v d = { f with members = Int_set.add v members; dims = Int_map.add v d dims } in
  let drop v = { f with members = Int_set.remove v members; dims = Int_map.remove v dims } in
  let middle =
    Int_set.choose_opt
      (Int_set.filter
         (fun v -> List.exists mem (Graph.pre g v) && List.exists mem (Graph.suc g v))
         members)
  in
  let modulus =
    match Ref_algorithm1.Validate.structure g f with Ok m -> [ m; m + 1 ] | Error _ -> []
  in
  List.concat
    [
      Option.to_list (Option.map drop middle);
      Option.to_list (Option.map (fun x -> add x 1) (last (fun v -> not (mem v || touches v))));
      [ { f with dims = Int_map.remove v0 dims } ];
      Option.to_list
        (Option.map
           (fun x -> { f with dims = Int_map.add x 1 dims })
           (last (fun v -> not (mem v))));
      [ add (Graph.id_bound g) 1 ];
      [ { f with dims = Int_map.add v0 (rank v0 + 1) dims } ];
      [ { f with dims = Int_map.add v0 (-1) dims } ];
      [ { f with dims = Int_map.mapi (fun v d -> if d > 0 then (d mod rank v) + 1 else d) dims } ];
      List.map (Fission.with_n f) ([ 0; 1; 2; 3; 4; 5 ] @ modulus);
    ]

(** Small connected member sets of [g] drawn from [seed], grown from a
    node through operands and consumers, with a random dim per member
    (a reduce axis one time in four). *)
let random_candidates g seed : Fission.t list =
  let rng = Random.State.make [| seed |] in
  let ids = Array.of_list (Graph.node_ids g) in
  List.init 16 (fun _ ->
      let size = 1 + Random.State.int rng 6 in
      let rec grow members = function
        | v :: rest when Int_set.cardinal members < size ->
            let next =
              List.filter (fun u -> not (Int_set.mem u members)) (Graph.pre g v @ Graph.suc g v)
            in
            grow (Int_set.union members (Int_set.of_list next)) (rest @ next)
        | _ -> members
      in
      let start = ids.(Random.State.int rng (Array.length ids)) in
      let members = grow (Int_set.singleton start) [ start ] in
      let dims =
        Int_set.fold
          (fun v acc ->
            let d =
              if Random.State.int rng 4 = 0 then -1
              else 1 + Random.State.int rng (max 1 (Shape.rank (Graph.shape g v)))
            in
            Int_map.add v d acc)
          members Int_map.empty
      in
      { Fission.members; dims; n = 1 + Random.State.int rng 4 })

(** The answers of a fission check, by a phrase of each error message
    {!check_fissions} must reach. *)
let verdicts =
  [ "valid"; "not weakly connected"; "not convex"; "must cover"; "not in graph";
    "out of range"; "not linked"; "not divisible"; "number < 1" ]

let verdict = function
  | Ok () -> "valid"
  | Error e -> Option.value ~default:"other" (List.find_opt (contains e) verdicts)

(** Every distinct candidate of [g]'s trees (one per {!hotspot_sets}), its
    {!broken_variants} and {!random_candidates}, checked on one index
    of [g] against the map-walking oracle: the same modulus or error
    from [structure], the same answer from [validate], and on a valid
    structure the same input roles.  On agreement, the oracle's
    verdicts. *)
let check_fissions g seed : (string list, string) result =
  let ix = Graph_index.of_graph g in
  let candidates =
    List.concat_map
      (fun hotspots ->
        List.map (fun (e : Ftree.entry) -> e.fission) (entries (Ftree.construct g ~hotspots)))
      (hotspot_sets g)
    |> List.sort_uniq (fun (a : Fission.t) (b : Fission.t) ->
           match Int_set.compare a.members b.members with
           | 0 -> Int_map.compare Int.compare a.dims b.dims
           | c -> c)
  in
  let cases =
    candidates @ List.concat_map (broken_variants g) candidates @ random_candidates g seed
  in
  let module V = Ref_algorithm1.Validate in
  let roles r = Result.map Int_map.bindings r in
  List.fold_left
    (fun acc (f : Fission.t) ->
      Result.bind acc (fun verdicts ->
          let fail what = Error (Fmt.str "%s of %a" what Fission.pp f) in
          let structure = Fission.structure ix f in
          if structure <> V.structure g f then fail "structure"
          else if Fission.validate ix f <> V.validate g f then fail "validate"
          else if Fission.is_valid ix f <> V.is_valid g f then fail "is_valid"
          else if
            Result.is_ok structure && roles (Fission.input_roles ix f) <> roles (V.input_roles g f)
          then fail "input_roles"
          else Ok (verdict (V.validate g f) :: verdicts)))
    (Ok []) cases

let prop_fission_randnets =
  QCheck2.Test.make ~name:"the fission check equals its oracle on rewritten randnets"
    ~count:30 ~print:print_graph gen_graph (fun params ->
      let _, _, seed, _ = params in
      match check_fissions (build_graph params) seed with
      | Ok _ -> true
      | Error what -> QCheck2.Test.fail_report what)

(** The zoo, with a check that the cases reach every verdict. *)
let test_fission_zoo () =
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun i (w : Zoo.workload) ->
      match check_fissions (w.build Zoo.Quick) i with
      | Ok verdicts -> List.iter (fun v -> Hashtbl.replace seen v ()) verdicts
      | Error what -> Alcotest.failf "%s: %s" w.name what)
    Zoo.all;
  List.iter
    (fun v -> Alcotest.(check bool) (Printf.sprintf "some case is %s" v) true (Hashtbl.mem seen v))
    verdicts

(* ------------------------------------------------------------------ *)
(* Candidate simulation against Ref_simulate                           *)
(* ------------------------------------------------------------------ *)

let sim_runs = Metrics.counter "simulator.runs"

(** [f c] on a fresh operator-cost model [c], with metrics on and the
    fault injector observing: its result, and what the two sides of a
    comparison must share — the [simulator.runs] delta and the
    [op_cost] and [simulator] site visits (one [op_cost] visit per
    operator-cost query). *)
let observed f =
  let metrics = Metrics.enabled () in
  Metrics.set_enabled true;
  Fault.observe ();
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Metrics.set_enabled metrics)
    (fun () ->
      let c = cache () and runs = Metrics.counter_value sim_runs in
      let r = f c in
      ( r,
        ( Metrics.counter_value sim_runs - runs,
          Fault.visits "op_cost",
          Fault.visits "simulator" ) ))

let bits = Int64.bits_of_float

(** Lifetime analyses, position by position and id by id, over every id
    below the bound and one on each side of it. *)
let same_lifetime g (a : Lifetime.t) (r : Ref_simulate.Lifetime.t) =
  let module R = Ref_simulate.Lifetime in
  a.order = r.order && a.sizes = r.sizes
  && Lifetime.peak_memory a = R.peak_memory r
  && Int_set.equal (Lifetime.hotspots a) (R.hotspots r)
  && Lifetime.timeline a = R.timeline r
  && Lifetime.hotspot_bytes a = R.hotspot_bytes r
  && List.for_all
       (fun i -> Lifetime.interval a i = R.interval r i)
       (List.init (Array.length r.order) Fun.id)
  && List.for_all
       (fun v -> Lifetime.position a v = R.position r v)
       (List.init (Graph.id_bound g + 2) (fun v -> v - 1))

let same_result g (a : Simulator.result) (r : Ref_simulate.Simulator.result) =
  bits a.latency = bits r.latency
  && a.peak_mem = r.peak_mem
  && bits a.compute_busy = bits r.compute_busy
  && bits a.copy_busy = bits r.copy_busy
  && same_lifetime g a.analysis r.analysis

let same_events a r =
  List.compare_lengths a r = 0
  && List.for_all2
       (fun (a : Simulator.event) (r : Ref_simulate.Simulator.event) ->
         a.ev_node = r.ev_node && a.ev_copy = r.ev_copy
         && bits a.ev_start = bits r.ev_start
         && bits a.ev_finish = bits r.ev_finish)
       a r

(** One candidate through both paths: the accounting of [tree] with the
    simulation of [order] under it (the search's evaluation, on the
    accounting's index), and the plain simulation with its events. *)
let check_simulation g tree order =
  let (r_extra, r_acc, (r_plain, r_events)), r_seen =
    observed (fun c ->
        let acc = Ref_simulate.accounting c g tree in
        ( acc.extra_latency,
          Ref_simulate.Simulator.run ~size_of:acc.size_of ~cost_of:acc.cost_of c g order,
          Ref_simulate.Simulator.run_events c g order ))
  in
  let (a_extra, a_acc, (a_plain, a_events)), a_seen =
    observed (fun c ->
        let acc = Ftree.accounting c (Graph_index.of_graph g) tree in
        ( acc.extra_latency,
          Simulator.run_on ~size_of:acc.size_of ~cost_of:acc.cost_of c acc.index order,
          Simulator.run_events c g order ))
  in
  if bits a_extra <> bits r_extra then Error "extra_latency"
  else if not (same_result g a_acc r_acc) then Error "simulation under the accounting"
  else if not (same_result g a_plain r_plain) then Error "plain simulation"
  else if not (same_events a_events r_events) then Error "run_events"
  else if a_seen <> r_seen then Error "simulator.runs or fault-site visits"
  else Ok ()

(** Orders of [g] to simulate: its greedy schedule, its smallest-id
    topological order, and the first half of the schedule (a partial
    order: consumers outside it do not extend a lifetime). *)
let sim_orders g =
  let schedule = Reorder.schedule ~max_states:0 g in
  [ schedule; Graph.topo_order g; Util.take (List.length schedule / 2) schedule ]

(** [tree] with two nested entries enabled, a child and then its parent,
    when some Enable of a child is followed by an Enable of its parent. *)
let nested g tree =
  List.find_map
    (function
      | Ftree.Enable c, Some t when (Ftree.entry t c).parent >= 0 ->
          let p = (Ftree.entry t c).parent in
          List.find_map
            (function Ftree.Enable p', Some t' when p' = p -> Some t' | _ -> None)
            (Ftree.mutations_on (Graph_index.of_graph g) t)
      | _ -> None)
    (Ftree.mutations_on (Graph_index.of_graph g) tree)

let first_enable g tree =
  List.find_map
    (function Ftree.Enable _, t -> t | _ -> None)
    (Ftree.mutations_on (Graph_index.of_graph g) tree)

(** Trees to account [g] under: none enabled, the first Enable, and a
    nested pair when [g]'s tree has one. *)
let sim_trees g tree =
  Ftree.empty :: List.filter_map Fun.id [ first_enable g tree; nested g tree ]

let check_simulations g trees =
  List.fold_left
    (fun acc tree ->
      Result.bind acc (fun () ->
          List.fold_left
            (fun acc order -> Result.bind acc (fun () -> check_simulation g tree order))
            (Ok ()) (sim_orders g)))
    (Ok ()) trees

(** The index a search candidate carries — hashed, then read by
    {!Ftree.prune} — gives [prune] and {!Ftree.accounting} what a fresh
    index of the same graph gives: the same entries, and bit-equal
    sizes, costs and boundary latency. *)
let check_carried g tree =
  let c = cache () in
  let carried = Graph_index.of_graph g in
  ignore (Wl_hash.hash_on carried);
  let pruned = Ftree.prune carried tree in
  if not (same_tree pruned (Ftree.prune (Graph_index.of_graph g) tree)) then
    Error "Ftree.prune on a carried index"
  else
    let a = Ftree.accounting c carried pruned
    and b = Ftree.accounting c (Graph_index.of_graph g) pruned in
    let same v = a.size_of v = b.size_of v && bits (a.cost_of v) = bits (b.cost_of v) in
    if bits a.extra_latency <> bits b.extra_latency
       || not (List.for_all same (Graph.node_ids g))
    then Error "Ftree.accounting on a carried index"
    else Ok ()

let check_all_carried g trees =
  List.fold_left (fun acc tree -> Result.bind acc (fun () -> check_carried g tree)) (Ok ()) trees

let prop_simulate_randnets =
  QCheck2.Test.make ~name:"simulation equals its oracle on rewritten randnets"
    ~count:30 ~print:print_graph gen_graph (fun params ->
      let g = build_graph params in
      let s = Mstate.init ~sched_states:0 (cache ()) g in
      let trees = sim_trees g s.ftree in
      match Result.bind (check_simulations g trees) (fun () -> check_all_carried g trees) with
      | Ok () -> true
      | Error what -> QCheck2.Test.fail_report what)

(** The first 20 rewrites of every zoo model's initial state, accounted
    under the initial tree pruned to the rewritten graph with its first
    Enable applied, and the initial graph itself under nested enabled
    entries.  Checks that some nested pair was compared. *)
let test_simulate_zoo () =
  let nested_pairs = ref 0 in
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let s = Mstate.init ~sched_states:0 (cache ()) g in
      let fail what = Alcotest.failf "%s: %s" w.name what in
      if Option.is_some (nested g s.ftree) then incr nested_pairs;
      let trees = sim_trees g s.ftree in
      Result.iter_error fail (check_simulations g trees);
      Result.iter_error fail (check_all_carried g trees);
      let enabled = Option.value ~default:s.ftree (first_enable g s.ftree) in
      List.iteri
        (fun i (rw : Rule.rewrite) ->
          if i < 20 then
            Result.iter_error
              (fun what -> fail (Printf.sprintf "rewrite %d (%s): %s" i rw.rule what))
              (Result.bind
                 (check_simulations rw.graph
                    [ Ftree.empty; Ftree.prune (Graph_index.of_graph rw.graph) enabled ])
                 (fun () -> check_carried rw.graph enabled)))
        (rewrites ~max_per_rule:6 g))
    Zoo.all;
  Alcotest.(check bool) "some zoo tree has nested enabled entries" true (!nested_pairs > 0)

(* ------------------------------------------------------------------ *)
(* Simulation failures against Ref_simulate                            *)
(* ------------------------------------------------------------------ *)

(** Exceptions of one kind, with the same payload where the two sides
    share one: a scheduled id that is not a node raises
    [Invalid_argument] on both sides (the messages name different
    lookups), a non-finite duration the same [Non_finite]. *)
let same_failure a r =
  match (a, r) with
  | Invalid_argument _, Invalid_argument _ -> true
  | Op_cost.Non_finite a, Op_cost.Non_finite r ->
      a.what = r.what && bits a.value = bits r.value
  | _ -> false

(** [order] simulated on [g] by both sides, with [cost_of] when given
    and the default costs otherwise: the same result, or the same
    exception, after the same [simulator.runs] and fault-site visits. *)
let check_failure ?cost_of g order =
  let attempt f c = match f c with r -> Ok r | exception e -> Error e in
  let r, r_seen = observed (attempt (fun c -> Ref_simulate.Simulator.run ?cost_of c g order)) in
  let a, a_seen = observed (attempt (fun c -> Simulator.run ?cost_of c g order)) in
  if a_seen <> r_seen then Error "simulator.runs or fault-site visits"
  else
    match (a, r) with
    | Ok a, Ok r -> if same_result g a r then Ok `Ran else Error "result"
    | Error a, Error r ->
        if same_failure a r then Ok `Raised
        else Error (Printf.sprintf "%s, oracle %s" (Printexc.to_string a) (Printexc.to_string r))
    | Ok _, Error e -> Error ("only the oracle raised " ^ Printexc.to_string e)
    | Error e, Ok _ -> Error ("only the simulator raised " ^ Printexc.to_string e)

(** [l] with [x] inserted before its [k]-th element. *)
let insert_at k x l = List.filteri (fun i _ -> i < k) l @ (x :: List.filteri (fun i _ -> i >= k) l)

(** On every zoo model: its order holding a removed id (a graph output
    removed; ids are never reused, so it stays below the bound), an id
    at the bound, a
    duplicated id, and a [cost_of] hook that returns NaN at one
    compute node.  Both sides raise or both return, alike. *)
let test_simulate_failures () =
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let order = Graph.topo_order g in
      let mid = List.length order / 2 in
      let compute =
        List.find
          (fun v -> not (Op.is_input (Graph.op g v) || Op.is_swap (Graph.op g v)))
          (List.filteri (fun i _ -> i >= mid) order)
      in
      let nan_at v = if v = compute then Float.nan else 1e-6 in
      let cases =
        [ ("a removed id", Graph.remove g (List.hd (Graph.outputs g)), order, None, `Raised);
          ("an id at the bound", g, insert_at mid (Graph.id_bound g) order, None, `Raised);
          ("a duplicated id", g, insert_at mid (List.nth order (mid / 2)) order, None, `Ran);
          ("a NaN cost hook", g, order, Some nan_at, `Raised) ]
      in
      List.iter
        (fun (what, g, order, cost_of, expected) ->
          match check_failure ?cost_of g order with
          | Ok got when got = expected -> ()
          | Ok _ -> Alcotest.failf "%s, %s: both sides agree, not as expected" w.name what
          | Error e -> Alcotest.failf "%s, %s: %s" w.name what e)
        cases)
    Zoo.all

(* ------------------------------------------------------------------ *)
(* The window-local splice check against Graph_index.is_valid_order    *)
(* ------------------------------------------------------------------ *)

(** {!Incremental.splice}'s verdict on [new_index] against
    {!Graph_index.is_valid_order} on its order: [Ok None] when there is
    no window, [Ok (Some ok)] when the two agree. *)
let check_splice ~parent ~new_index ~mutated_old =
  let size_of = Lifetime.default_size (Graph_index.graph new_index) in
  match Incremental.splice ~max_states:0 ~parent ~new_index ~mutated_old ~size_of () with
  | None -> Ok None
  | Some (order, _, ok) ->
      let valid = Graph_index.is_valid_order new_index order in
      if ok = valid then Ok (Some ok)
      else Error (Printf.sprintf "window check %b, is_valid_order %b" ok valid)

(** Splices of [g] around its scheduled node [m] with one node rewired
    onto another, each acyclic, with the verdict both checks must give:
    a prefix node onto a window node, a suffix node onto a later suffix
    node and a window node onto a suffix node (invalid); a prefix node
    onto an earlier prefix node and a suffix node onto a prefix node
    (valid).  A kind with no such pair in [g] is left out. *)
let planted_splices g schedule ~parent m =
  let psi = Array.of_list schedule in
  let pos = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) psi;
  let beg, end_ = Incremental.get_reschedule_interval ~nw:parent.Incremental.nw psi [ Hashtbl.find pos m ] in
  let range lo hi = List.filter (fun v -> v <> m) (Array.to_list (Array.sub psi lo (hi - lo))) in
  let prefix = range 0 beg and window = range beg end_ and suffix = range end_ (Array.length psi) in
  let later u l = List.filter (fun w -> Hashtbl.find pos w > Hashtbl.find pos u) l in
  let earlier u l = List.filter (fun w -> Hashtbl.find pos w < Hashtbl.find pos u) l in
  (* [u] rewired from its first operand onto the first [w] of [targets u]
     that [u] does not reach or read *)
  let rewire us targets =
    List.find_map
      (fun u ->
        let n = Graph.node g u in
        if Array.length n.inputs = 0 then None
        else
          let des = Graph.des g u in
          List.find_map
            (fun w ->
              if Int_set.mem w des || Array.mem w n.inputs then None
              else Some (Graph.replace_input g ~node_id:u ~old_src:n.inputs.(0) ~new_src:w))
            (targets u))
      us
  in
  List.filter_map
    (fun (what, g', valid) -> Option.map (fun g' -> (what, g', valid)) g')
    [ ("prefix onto window", rewire prefix (fun _ -> window), false);
      ("suffix onto later suffix", rewire suffix (fun u -> later u suffix), false);
      ("window onto suffix", rewire window (fun _ -> suffix), false);
      ("prefix onto earlier prefix", rewire prefix (fun u -> earlier u prefix), true);
      ("suffix onto prefix", rewire suffix (fun _ -> prefix), true) ]

(** The two checks on every rewrite the search proposes from [g]'s
    initial state, on the index the search builds, and on the planted
    splices around the node in the middle of its schedule: the counts
    of splices each check accepted and rejected, and of planted kinds. *)
let check_splices ~rewrites_of g =
  let s = Mstate.init ~sched_states:0 (cache ()) g in
  let pix, labels = pop_view s.graph in
  let parent = Incremental.parent pix s.schedule in
  let accepted = ref 0 and rejected = ref 0 in
  let count ok = incr (if ok then accepted else rejected) in
  let check what new_index mutated_old =
    match check_splice ~parent ~new_index ~mutated_old with
    | Ok (Some ok) -> count ok; Ok ok
    | Ok None -> Ok true
    | Error e -> Error (what ^ ": " ^ e)
  in
  let rec all = function
    | [] -> Ok ()
    | (what, ix, mutated_old, expected) :: rest ->
        Result.bind (check what ix mutated_old) (fun ok ->
            match expected with
            | Some e when e <> ok -> Error (Printf.sprintf "%s: verdict %b, planted %b" what ok e)
            | _ -> all rest)
  in
  let rewrites =
    List.map
      (fun (rw : Rule.rewrite) ->
        let ix = Graph_index.of_graph rw.graph in
        ignore (Wl_hash.relabel_on ~parent_nodes:(Graph_index.nodes pix) ~parent:labels ix);
        ("rewrite " ^ rw.rule, ix, rw.touched_old, None))
      (rewrites_of s)
  in
  let m = List.nth s.schedule (List.length s.schedule / 2) in
  let planted =
    List.map
      (fun (what, g', valid) -> ("planted " ^ what, Graph_index.of_graph g', Int_set.singleton m, Some valid))
      (planted_splices s.graph s.schedule ~parent m)
  in
  Result.map (fun () -> (!accepted, !rejected, List.length planted)) (all (rewrites @ planted))

let test_splice_zoo () =
  let accepted = ref 0 and rejected = ref 0 and planted = ref 0 in
  List.iter
    (fun (w : Zoo.workload) ->
      match check_splices ~rewrites_of:state_rewrites (w.build Zoo.Quick) with
      | Ok (a, r, p) ->
          accepted := !accepted + a;
          rejected := !rejected + r;
          planted := !planted + p
      | Error e -> Alcotest.failf "%s, %s" w.name e)
    Zoo.all;
  Alcotest.(check bool)
    (Printf.sprintf "splices accepted (%d) and rejected (%d), kinds planted (%d)" !accepted
       !rejected !planted)
    true
    (!accepted >= 100 && !rejected >= List.length Zoo.all && !planted >= 3 * List.length Zoo.all)

let prop_splice_randnets =
  QCheck2.Test.make ~name:"the window-local splice check equals is_valid_order on rewritten randnets"
    ~count:40 ~print:print_graph gen_graph (fun params ->
      let g = build_graph params in
      match check_splices ~rewrites_of:(fun s -> rewrites s.graph) g with
      | Ok _ -> true
      | Error what -> QCheck2.Test.fail_report what)

(* ------------------------------------------------------------------ *)
(* Rule sites against the eager rules                                  *)
(* ------------------------------------------------------------------ *)

let same_rewrite (a : Rule.rewrite) (b : Rule.rewrite) =
  String.equal a.rule b.rule
  && Graph.id_bound a.graph = Graph.id_bound b.graph
  && Graph.nodes a.graph = Graph.nodes b.graph
  && Graph.outputs a.graph = Graph.outputs b.graph
  && Int_set.equal a.touched_old b.touched_old

(** The split rules against [Ref_rules] on one graph and context: per
    rule, the same rewrites (name, node map, id bound, outputs,
    [touched_old]) in the same order, through {!Rule.apply} and through
    one view shared by every rule, as the search matches; and a rule
    builds no site its cap drops.  The number of rewrites compared, or
    what differed. *)
let check_rules ctx g =
  let view = Rule.view ctx (Graph_index.of_graph g) in
  List.fold_left2
    (fun acc (r : Rule.t) (o : Ref_rules.t) ->
      Result.bind acc @@ fun n ->
      let built = ref 0 in
      let counted =
        { r with sites = (fun v -> List.map (fun s () -> incr built; s ()) (r.sites v)) }
      in
      let expected = o.apply ctx g in
      let shared = Rule.rewrites view counted in
      let same = List.equal same_rewrite expected in
      if not (String.equal r.name o.name) then Error ("rule order at " ^ r.name)
      else if not (same shared) then
        Error
          (Printf.sprintf "%s on a shared view: %d rewrites, the oracle's %d" r.name
             (List.length shared) (List.length expected))
      else if not (same (Rule.apply r ctx g)) then Error (r.name ^ " through Rule.apply")
      else if !built <> List.length shared then
        Error (Printf.sprintf "%s built %d sites for %d rewrites" r.name !built (List.length shared))
      else Ok (n + List.length expected))
    (Ok 0)
    (Sched_rules.all @ Taso_rules.all)
    Ref_rules.all

(** The rule context the search gives a state. *)
let state_ctx (s : Mstate.t) =
  let pos = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) s.schedule;
  {
    Rule.hotspots = s.hotspots;
    frozen = Ftree.frozen_region s.ftree;
    schedule_pos = Hashtbl.find_opt pos;
    max_per_rule = Search.max_per_rule;
    restrict_to_hotspots = true;
  }

(** The rules on every zoo model's initial state and on every state an
    8-iteration search evaluates (which holds every state it pops). *)
let test_rules_zoo () =
  let n = ref 0 and states = ref 0 in
  List.iter
    (fun (w : Zoo.workload) ->
      let cost = Op_cost.create Hardware.default in
      let g = w.build Zoo.Quick in
      let s0 = Mstate.init ~sched_states:0 cost g in
      let seen = ref [ s0 ] in
      let config =
        { Search.default_config with
          max_iterations = 8; time_budget = 3600.0;
          harvest =
            Some
              (fun ~iteration:_ ~peak:_ ~latency:_ ~state ->
                seen := state () :: !seen) }
      in
      let _ : Search.result =
        Search.run ~config cost (Search.Min_memory { lat_limit = s0.latency *. 1.1 }) g
      in
      List.iter
        (fun (s : Mstate.t) ->
          incr states;
          match check_rules (state_ctx s) s.graph with
          | Ok k -> n := !n + k
          | Error what -> Alcotest.failf "%s: %s" w.name what)
        (List.rev !seen))
    Zoo.all;
  Alcotest.(check bool)
    (Printf.sprintf "%d rewrites on %d states" !n !states)
    true
    (!n >= 1000 && !states >= 100)

(** A Randnet after a chain of rewrites, under a drawn context: a cap of
    1 to 3, hot-spots restricted or not, schedule positions from the
    topological order, some nodes frozen. *)
let prop_rules_randnets =
  QCheck2.Test.make ~name:"rule sites and builds equal the eager rules on rewritten randnets"
    ~count:40 ~print:print_graph gen_graph
    (fun ((_, _, seed, _) as p) ->
      let g = build_graph p in
      let rng = Random.State.make [| seed |] in
      let ids = Graph.node_ids g in
      let pos = Hashtbl.create 64 in
      List.iteri (fun i v -> Hashtbl.replace pos v i) (Graph.topo_order g);
      let ctx =
        {
          Rule.hotspots = Int_set.of_list (List.filter (fun _ -> Random.State.bool rng) ids);
          frozen = Int_set.of_list (List.filter (fun _ -> Random.State.int rng 8 = 0) ids);
          schedule_pos = Hashtbl.find_opt pos;
          max_per_rule = 1 + Random.State.int rng 3;
          restrict_to_hotspots = Random.State.bool rng;
        }
      in
      match check_rules ctx g with
      | Ok _ -> true
      | Error what -> QCheck2.Test.fail_report what)

(** Four matches of every capped rule, under a cap of 2: Store/Load
    pairs, duplicates, transpose pairs, add chains, concats of slices,
    parallel dense pairs and tensors whose second consumer sits far
    behind a chain. *)
let planted_matches () =
  let b = Builder.create () in
  let x = Builder.input b [ 8; 16 ] ~dtype:Shape.F32 in
  for i = 1 to 4 do
    (* a far consumer: [a] feeds a chain and, at its end, an add *)
    let a = Builder.relu b (Builder.scale b (float_of_int i) x) in
    let c = ref a in
    for _ = 1 to 5 do
      c := Builder.tanh_ b !c
    done;
    ignore (Builder.add b a !c);
    let st = Builder.op b Op.Store [ Builder.sigmoid b x ] in
    ignore (Builder.relu b (Builder.op b Op.Load [ st ]));
    let d1 = Builder.scale b (float_of_int (10 + i)) x in
    let d2 = Builder.scale b (float_of_int (10 + i)) x in
    ignore (Builder.add b d1 d2);
    let t = Builder.transpose b ~perm:[| 1; 0 |] (Builder.transpose b ~perm:[| 1; 0 |] a) in
    ignore (Builder.relu b t);
    ignore (Builder.relu b (Builder.add b (Builder.add b a d1) d2));
    let s1 = Builder.slice b ~axis:1 ~lo:0 ~hi:8 d1 in
    let s2 = Builder.slice b ~axis:1 ~lo:8 ~hi:16 d1 in
    ignore (Builder.relu b (Builder.concat b ~axis:1 [ s1; s2 ]));
    let w () = Builder.weight b [ 16; 16 ] ~dtype:Shape.F32 in
    ignore (Builder.add b (Builder.dense b d2 (w ())) (Builder.dense b d2 (w ())))
  done;
  Builder.finish b

let test_rules_planted () =
  let g = planted_matches () in
  let pos = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) (Graph.topo_order g);
  let ctx =
    { Rule.default_ctx with
      hotspots = Int_set.of_list (Graph.node_ids g);
      schedule_pos = Hashtbl.find_opt pos;
      max_per_rule = 2 }
  in
  let view = Rule.view ctx (Graph_index.of_graph g) in
  List.iter
    (fun (r : Rule.t) ->
      if r.capped then
        Alcotest.(check bool)
          (Printf.sprintf "%s matches more sites than the cap" r.name)
          true
          (List.length (r.sites view) > ctx.max_per_rule))
    (Sched_rules.all @ Taso_rules.all);
  match check_rules ctx g with
  | Ok n -> Alcotest.(check bool) (Printf.sprintf "%d rewrites" n) true (n > 0)
  | Error what -> Alcotest.fail what

let suite =
  [
    QCheck_alcotest.to_alcotest prop_randnets;
    tc "construct keeps the order of equal heats" test_heat_ties;
    tc "invariants equal their oracles on the zoo" test_zoo;
    tc "an operand read twice" test_repeated_operand;
    tc "delta labels and costs equal full recomputation on the zoo" test_delta_zoo;
    QCheck_alcotest.to_alcotest prop_delta_chains;
    tc "parent-context reschedule equals the per-child path" test_reschedule_zoo;
    tc "window scheduling on the search's indexes equals the oracles on the zoo" test_window_zoo;
    QCheck_alcotest.to_alcotest prop_windows;
    tc "window scheduling: an operand read twice, a consumer in a later block" test_window_shapes;
    tc "the DP on the member table equals its oracle on the zoo" test_dp_zoo;
    QCheck_alcotest.to_alcotest prop_dp;
    tc "the DP on the member table: equal-peak alternatives, operands read by a later block" test_dp_ties;
    tc "construct and refresh equal the oracle construction on the zoo" test_refresh_zoo;
    QCheck_alcotest.to_alcotest prop_simulate_randnets;
    tc "simulation equals its oracle on the zoo" test_simulate_zoo;
    QCheck_alcotest.to_alcotest prop_fission_randnets;
    tc "the fission check equals its oracle on the zoo" test_fission_zoo;
    tc "simulation failures equal the oracle's on the zoo" test_simulate_failures;
    tc "the window-local splice check equals is_valid_order on the zoo" test_splice_zoo;
    QCheck_alcotest.to_alcotest prop_splice_randnets;
    tc "rule sites and builds equal the eager rules on the zoo and its searches" test_rules_zoo;
    QCheck_alcotest.to_alcotest prop_rules_randnets;
    tc "rule sites and builds: more matches than the cap" test_rules_planted;
  ]
