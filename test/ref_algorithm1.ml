(** Algorithm 1 as it stood before it moved onto arrays: the
    Set/Map-based D-graph, the Hashtbl-based dominator tree, the
    map-walking fission check, and the F-Tree construction that
    re-validated every candidate at each fission number it tried.  They
    live only here, as oracles for {!Dgraph}, {!Dominator},
    {!Fission.structure} and {!Ftree.construct} in
    [test_invariants.ml]. *)

open Magis
module Int_map = Util.Int_map
module Int_set = Util.Int_set

module Dominator = struct
  type t = {
    idom : int Int_map.t;  (** immediate dominator; virtual root = -1 *)
    children : Int_set.t Int_map.t;
    order : int array;  (** reverse postorder used to build the tree *)
  }

  let virtual_root = -1

  let idom t v = Int_map.find_opt v t.idom

  let children t v =
    match Int_map.find_opt v t.children with
    | Some s -> s
    | None -> Int_set.empty

  (** All nodes strictly dominated by [v] ([T.des(v)] in the paper). *)
  let strict_subtree t v =
    let rec go acc frontier =
      match frontier with
      | [] -> acc
      | u :: rest ->
          let cs = children t u in
          let acc = Int_set.union acc cs in
          go acc (Int_set.elements cs @ rest)
    in
    go Int_set.empty [ v ]

  (** [subtree t v] = strict_subtree + v. *)
  let subtree t v = Int_set.add v (strict_subtree t v)

  (** [dominates t u v] iff [u] dominates [v] (reflexive). *)
  let dominates t u v =
    let rec climb x = if x = u then true
      else match Int_map.find_opt x t.idom with
        | None -> false
        | Some p -> p <> virtual_root && climb p
    in
    u = v || climb v

  (** [compute ?members ?entries g] builds the dominator tree of [g], or of
      the sub-graph induced by [members] when given (edges to/from outside
      nodes are ignored).

      [entries] selects the roots.  Per §2.1 of the paper, the tree "usually
      takes the input tensor as the entry": by default we root at the
      *primary* inputs — placeholders, excluding weights and labels (the
      gradient seed of a training graph is a label-kind input).  This is
      what lets a layer's input dominate both its forward remainder and the
      corresponding backward operators.  Falls back to all zero-predecessor
      nodes when no primary input exists.  Nodes unreachable from the
      entries are absent from the tree. *)
  let compute ?members ?entries (g : Graph.t) : t =
    let keep =
      match members with
      | None -> fun _ -> true
      | Some s -> fun v -> Int_set.mem v s
    in
    let pre g v = List.filter keep (Graph.pre g v) in
    let suc g v = List.filter keep (Graph.suc g v) in
    let entry_nodes =
      match entries with
      | Some e -> List.filter keep e
      | None -> (
          let zero_pred =
            match members with
            | None -> Graph.inputs g
            | Some s ->
                Int_set.elements (Int_set.filter (fun v -> pre g v = []) s)
          in
          let primary =
            List.filter
              (fun v ->
                match (Graph.node g v).op with
                | Op.Input Op.Placeholder -> true
                | _ -> false)
              zero_pred
          in
          match primary with [] -> zero_pred | _ -> primary)
    in
    let visited = Hashtbl.create (Graph.n_nodes g) in
    let post = ref [] in
    let rec dfs v =
      if not (Hashtbl.mem visited v) then begin
        Hashtbl.replace visited v ();
        List.iter dfs (suc g v);
        post := v :: !post
      end
    in
    List.iter dfs entry_nodes;
    let order = Array.of_list !post in
    let n = Array.length order in
    let rpo_index = Hashtbl.create n in
    Array.iteri (fun i v -> Hashtbl.replace rpo_index v i) order;
    (* idom as array over rpo indices; -2 = undefined, -1 = virtual root *)
    let idom = Array.make n (-2) in
    let intersect a b =
      (* walk up the tree: smaller rpo index = higher in the order *)
      let rec go a b =
        if a = b then a
        else if a > b then go idom.(a) b
        else go a idom.(b)
      in
      go a b
    in
    let changed = ref true in
    (* Entry-adjacent nodes (graph inputs) get the virtual root directly. *)
    List.iter
      (fun v ->
        match Hashtbl.find_opt rpo_index v with
        | Some i -> idom.(i) <- -1
        | None -> ())
      entry_nodes;
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        let v = order.(i) in
        if not (pre g v = []) then begin
          let preds =
            List.filter_map (fun p -> Hashtbl.find_opt rpo_index p) (pre g v)
          in
          let processed = List.filter (fun p -> idom.(p) <> -2) preds in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom =
                List.fold_left
                  (fun acc p -> if acc = -1 || p = -1 then -1 else intersect acc p)
                  first rest
              in
              if idom.(i) <> new_idom then begin
                idom.(i) <- new_idom;
                changed := true
              end
        end
      done
    done;
    let idom_map =
      Array.to_seq order
      |> Seq.mapi (fun i v ->
             (v, if idom.(i) < 0 then virtual_root else order.(idom.(i))))
      |> Int_map.of_seq
    in
    let children =
      Int_map.fold
        (fun v p acc ->
          if p = virtual_root then acc
          else
            let s =
              match Int_map.find_opt p acc with
              | Some s -> s
              | None -> Int_set.empty
            in
            Int_map.add p (Int_set.add v s) acc)
        idom_map Int_map.empty
    in
    { idom = idom_map; children; order }

  (** Nodes in reverse postorder (useful for deterministic traversals). *)
  let rpo t = Array.copy t.order
end

module Dgraph = struct
  type dnode = Magis.Dgraph.dnode = { node : int; dim : int }
  (** [dim > 0]: output dimension [dim] (1-based).
      [dim < 0]: reduce axis [-dim] (1-based). *)

  let compare_dnode a b =
    match compare a.node b.node with 0 -> compare a.dim b.dim | c -> c

  module Dnode_set = Set.Make (struct
    type t = dnode

    let compare = compare_dnode
  end)

  module Dnode_map = Map.Make (struct
    type t = dnode

    let compare = compare_dnode
  end)

  type t = {
    nodes : Dnode_set.t;
    adj : Dnode_set.t Dnode_map.t;  (** undirected adjacency *)
  }

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

  let add_edge adj a b =
    let get k m =
      match Dnode_map.find_opt k m with Some s -> s | None -> Dnode_set.empty
    in
    let adj = Dnode_map.add a (Dnode_set.add b (get a adj)) adj in
    Dnode_map.add b (Dnode_set.add a (get b adj)) adj

  let build (g : Graph.t) : t =
    let nodes =
      Graph.fold
        (fun n acc ->
          List.fold_left (fun s d -> Dnode_set.add d s) acc (dnodes_of g n.id))
        g Dnode_set.empty
    in
    let adj =
      Graph.fold
        (fun n adj ->
          let ins = in_shapes g n in
          let links = Op.links n.op ins n.shape in
          List.fold_left
            (fun adj (slot, in_dim, link) ->
              let u = n.inputs.(slot) in
              let src = { node = u; dim = in_dim + 1 } in
              let dst =
                match link with
                | Op.To_out j -> { node = n.id; dim = j + 1 }
                | Op.To_reduce j -> { node = n.id; dim = -(j + 1) }
              in
              add_edge adj src dst)
            adj links)
        g Dnode_map.empty
    in
    { nodes; adj }

  let neighbors t d =
    match Dnode_map.find_opt d t.adj with
    | Some s -> s
    | None -> Dnode_set.empty

  (** Connected components with at least two distinct graph nodes (singleton
      dimension components cannot drive a fission).  Deterministic order. *)
  let components (t : t) : Dnode_set.t list =
    let visited = ref Dnode_set.empty in
    let comps = ref [] in
    Dnode_set.iter
      (fun seed ->
        if not (Dnode_set.mem seed !visited) then begin
          let rec bfs acc frontier =
            match frontier with
            | [] -> acc
            | d :: rest ->
                let next =
                  Dnode_set.filter
                    (fun x -> not (Dnode_set.mem x acc))
                    (neighbors t d)
                in
                bfs (Dnode_set.union acc next) (Dnode_set.elements next @ rest)
          in
          let comp = bfs (Dnode_set.singleton seed) [ seed ] in
          visited := Dnode_set.union !visited comp;
          let distinct_nodes =
            Dnode_set.fold
              (fun d acc -> Util.Int_set.add d.node acc)
              comp Util.Int_set.empty
          in
          if Util.Int_set.cardinal distinct_nodes >= 2 then
            comps := comp :: !comps
        end)
      t.nodes;
    List.rev !comps

  (** Graph nodes touched by a component. *)
  let graph_nodes_of_component (comp : Dnode_set.t) : Util.Int_set.t =
    Dnode_set.fold
      (fun d acc -> Util.Int_set.add d.node acc)
      comp Util.Int_set.empty

  (** Restrict a component to a node subset [s]; gives the dimension
      assignment used by a fission candidate.  Returns [None] if some node of
      [s] covered by the component has *more than one* D-node in it (the
      paper's constraint (3): exactly one ⟨v,i⟩ per v — e.g. a softmax whose
      normalized axis couples two dims of one node) — such sub-graphs cannot
      split along this dimension. *)
  let restrict (comp : Dnode_set.t) (s : Util.Int_set.t) :
      int Int_map.t option =
    let exception Conflict in
    try
      Some
        (Dnode_set.fold
           (fun d acc ->
             if not (Util.Int_set.mem d.node s) then acc
             else if Int_map.mem d.node acc then raise Conflict
             else Int_map.add d.node d.dim acc)
           comp Int_map.empty)
    with Conflict -> None
end

(** Heat of every node (Eq. (3)) in one bottom-up pass over the dominator
    tree: [heat(v) = Σ_{w ∈ H ∩ T.des(v)} |w|]. *)
let heat_all (g : Graph.t) (dom : Dominator.t) (hotspots : Int_set.t)
    (members : Int_set.t) : int Int_map.t =
  let rec go v acc =
    let children = Dominator.children dom v in
    let acc = Int_set.fold go children acc in
    let own =
      Int_set.fold
        (fun c total ->
          total
          + (match Int_map.find_opt c acc with Some h -> h | None -> 0)
          + (if Int_set.mem c hotspots then Graph.size_bytes g c else 0))
        children 0
    in
    Int_map.add v own acc
  in
  (* roots: members whose idom is the virtual root or absent *)
  Int_set.fold
    (fun v acc ->
      match Dominator.idom dom v with
      | Some p when p = Dominator.virtual_root -> go v acc
      | _ -> acc)
    members Int_map.empty

(** Exact score of Eq. (4) for one node (needs its subtree's inputs). *)
let score_of (g : Graph.t) (dom : Dominator.t) (hotspots : Int_set.t)
    ~(heat : int) (v : int) : int =
  let sub = Dominator.strict_subtree dom v in
  let input_cost =
    Int_set.fold
      (fun u acc ->
        if Int_set.mem u hotspots then acc else acc + Graph.size_bytes g u)
      (Graph.inps_of g sub) 0
  in
  (* n = 2 in Eq. (4): (1 - 1/2) heat - Σ inputs *)
  (heat / 2) - input_cost

(** The fission check as it stood before it moved onto one
    {!Graph_index}: connectivity by [Graph.is_weakly_connected],
    convexity by [Graph.is_convex], and links, shapes and input sets read
    from the graph's persistent maps.  The oracle of {!Fission.structure},
    {!Fission.validate} and {!Fission.input_roles}. *)
module Validate = struct
  let in_shapes g (n : Graph.node) =
    Array.map (fun i -> Graph.shape g i) n.inputs

  (** All (slot, input-dim, link) triples of node [v]. *)
  let links_of g v =
    let n = Graph.node g v in
    Op.links n.op (in_shapes g n) n.shape

  (** Signed dim targeted by a link. *)
  let link_target = function
    | Op.To_out j -> j + 1
    | Op.To_reduce j -> -(j + 1)

  (* Inputs of [S] that feed an assigned dim, each with the one dim
     (1-based) it is sliced along; [Error] when one is asked for two. *)
  let sliced_inputs g (f : Fission.t) : (int Int_map.t, string) result =
    let exception Conflict of string in
    try
      Ok
        (Int_set.fold
           (fun v acc ->
             match Int_map.find_opt v f.dims with
             | None -> acc
             | Some d ->
                 let inputs = (Graph.node g v).inputs in
                 List.fold_left
                   (fun acc (slot, in_dim, link) ->
                     let u = inputs.(slot) in
                     if link_target link <> d || Int_set.mem u f.members then acc
                     else
                       match Int_map.find_opt u acc with
                       | Some i when i <> in_dim + 1 ->
                           raise
                             (Conflict
                                (Printf.sprintf "input %d sliced along both dim %d and %d" u i
                                   (in_dim + 1)))
                       | _ -> Int_map.add u (in_dim + 1) acc)
                   acc (links_of g v))
           f.members Int_map.empty)
    with Conflict msg -> Error msg

  let input_roles (g : Graph.t) (f : Fission.t) :
      (Fission.input_role Int_map.t, string) result =
    Result.map
      (fun sliced ->
        (* remaining inputs are shared *)
        Int_set.fold
          (fun u acc -> if Int_map.mem u acc then acc else Int_map.add u Fission.Shared acc)
          (Graph.inps_of g f.members)
          (Int_map.map (fun i -> Fission.Sliced i) sliced))
      (sliced_inputs g f)

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)

  let split_extents (g : Graph.t) (f : Fission.t) :
      ((string * int * int) list, string) result =
    let ( let* ) r k = match r with Error _ as e -> e | Ok x -> k x in
    let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let node = Graph.node g in
    if Int_set.is_empty f.members then err "empty member set"
    else if not (Int_set.for_all (Graph.mem g) f.members) then err "members not in graph"
    else if
      not (Int_set.for_all (fun v -> Int_map.mem v f.dims) f.members)
      || Int_map.cardinal f.dims <> Int_set.cardinal f.members
    then err "dimension assignment must cover exactly the members"
    else
      (* members and their dims as aligned arrays: the dims cover exactly
         the members, so their bindings come in the same order *)
      let ids = Array.of_list (Int_set.elements f.members) in
      let dims = Array.of_list (List.map snd (Int_map.bindings f.dims)) in
      if not (Graph.is_weakly_connected g f.members) then err "sub-graph not weakly connected"
      else if not (Graph.is_convex g f.members) then err "sub-graph not convex"
      else
        (* is there a link from operand [slot]'s dim [in_dim] (1-based) to
           [v]'s signed dim [d]? *)
        let linked v slot in_dim d =
          List.exists
            (fun (s, i, l) -> s = slot && i + 1 = in_dim && link_target l = d)
            (links_of g v)
        in
        (* member-level checks; the extents are collected in reverse *)
        let rec members i extents =
          if i = Array.length ids then Ok extents
          else
            let v = ids.(i) and d = dims.(i) in
            let node = node v in
            let extent () = ("node", v, Shape.dim node.shape (d - 1)) :: extents in
            if Op.is_input node.op then
              if d <= 0 then err "input node assigned a reduce axis"
              else if d > Shape.rank node.shape then err "node %d: dim %d out of range" v d
              else members (i + 1) (extent ())
            else if d > 0 then
              if List.mem (d - 1) (Op.unsplittable_out_dims node.op (in_shapes g node) node.shape)
              then err "node %d: dim %d not splittable for %s" v d (Op.name node.op)
              else if d > Shape.rank node.shape then err "node %d: dim %d out of range" v d
              else members (i + 1) (extent ())
            else if Op.reduce_merge node.op = `No_merge then
              err "node %d: %s cannot merge partial results" v (Op.name node.op)
            else members (i + 1) extents
        in
        let* member_extents = members 0 [] in
        (* every internal edge must link the two assigned dims *)
        let rec edges i =
          if i = Array.length ids then Ok ()
          else
            let v = ids.(i) and d = dims.(i) in
            let inputs = (node v).inputs in
            let rec slots slot =
              if slot = Array.length inputs then edges (i + 1)
              else
                let u = inputs.(slot) in
                match Graph_index.local_of ids u with
                | -1 -> slots (slot + 1)
                | j ->
                    let du = dims.(j) in
                    if du <= 0 then err "edge %d->%d: producer merged by reduction" u v
                    else if linked v slot du d then slots (slot + 1)
                    else err "edge %d->%d: dims %d/%d not linked" u v du d
            in
            if Op.is_input (node v).op then edges (i + 1) else slots 0
        in
        let* () = edges 0 in
        (* inputs of S feeding an assigned dim are sliced along one dim each *)
        let* sliced = sliced_inputs g f in
        Ok
          (List.rev_append member_extents
             (Int_map.fold
                (fun u i acc -> ("input", u, Shape.dim (node u).shape (i - 1)) :: acc)
                sliced []
             |> List.rev))

  let structure g f =
    Result.map (List.fold_left (fun m (_, _, e) -> gcd m e) 0) (split_extents g f)

  let validate (g : Graph.t) (f : Fission.t) : (unit, string) result =
    if Int_set.is_empty f.members then Error "empty member set"
    else if f.n < 1 then Error "fission number < 1"
    else
      match split_extents g f with
      | Error _ as e -> e
      | Ok extents -> (
          match List.find_opt (fun (_, _, e) -> e mod f.n <> 0) extents with
          | None -> Ok ()
          | Some (what, id, e) ->
              Error (Printf.sprintf "%s %d: extent %d not divisible by %d" what id e f.n))

  let is_valid g (f : Fission.t) =
    f.n >= 1 && match structure g f with Ok m -> m mod f.n = 0 | Error _ -> false
end

(** Smallest [n >= 2] for which the candidate validates, if any. *)
let smallest_valid_n (g : Graph.t) (f : Fission.t) : int option =
  let extent =
    Int_set.fold
      (fun v acc ->
        match Int_map.find_opt v (f : Fission.t).dims with
        | Some d when d > 0 -> (
            let e = Shape.dim (Graph.shape g v) (d - 1) in
            match acc with Some a -> Some (min a e) | None -> Some e)
        | _ -> acc)
      (Fission.members f) None
  in
  match extent with
  | None -> None
  | Some e ->
      let rec try_n n =
        if n > e then None
        else if e mod n = 0 && Validate.is_valid g (Fission.with_n f n) then
          Some n
        else try_n (n + 1)
      in
      try_n 2

(** Algorithm 1: construct the fission candidates for [g], given the
    memory hot-spots of its current schedule.  [max_level] is the paper's
    [L] hyper-parameter (default {!Ftree.default_max_level}). *)
let construct ?(max_level = Ftree.default_max_level) (g : Graph.t)
    ~(hotspots : Int_set.t) : Ftree.t =
  let dg = Dgraph.build g in
  let candidates = ref [] in
  List.iter
    (fun comp ->
      let gn = Dgraph.graph_nodes_of_component comp in
      if Util.Int_set.cardinal gn >= 2 then begin
        let dom = Dominator.compute ~members:gn g in
        let heats = heat_all g dom hotspots gn in
        (* exact scores only for the hottest nodes: score <= heat/2, so
           cool nodes cannot enter any band *)
        let by_heat =
          Int_map.bindings heats
          |> List.filter (fun (_, h) -> h > 0)
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        let scores =
          List.fold_left
            (fun acc (v, heat) ->
              Int_map.add v (score_of g dom hotspots ~heat v) acc)
            Int_map.empty
            (Util.take 96 by_heat)
        in
        let smax = Int_map.fold (fun _ s acc -> max s acc) scores 0 in
        if smax > 0 then
          for i = 1 to max_level do
            let in_band v =
              match Int_map.find_opt v scores with
              | None -> false
              | Some s ->
                  let lo = float_of_int i /. float_of_int max_level in
                  let hi = float_of_int (i + 1) /. float_of_int max_level in
                  let r = float_of_int s /. float_of_int smax in
                  r >= lo && r < hi
            in
            let band = Int_set.filter in_band gn in
            Int_set.iter
              (fun vdom ->
                let sub = Dominator.strict_subtree dom vdom in
                let deeper = Int_set.inter sub band in
                if Int_set.is_empty deeper && not (Int_set.is_empty sub)
                then
                  match Dgraph.restrict comp sub with
                  | None -> ()
                  | Some dims ->
                      if Int_map.cardinal dims = Int_set.cardinal sub then
                        let f : Fission.t = { members = sub; dims; n = 1 } in
                        if smallest_valid_n g f <> None then
                          candidates := f :: !candidates)
              band
          done
      end)
    (Dgraph.components dg);
  Ftree.of_fissions !candidates

