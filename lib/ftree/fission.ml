(** Fission transformation (F-Trans, §4.2 of the paper).

    An F-Trans [f = (S, D, n)] splits the sub-graph induced by [S] along a
    graph-level dimension [D] (a connected component of the D-Graph
    restricted to [S], represented as a per-node dimension assignment) into
    [n] parts executed sequentially:

    - inputs of [S] whose dims link into the split dimension are sliced per
      part, the others are shared;
    - outputs assigned a positive (spatial) dimension are merged by
      concatenation; outputs assigned a reduce axis are merged by the
      operator's reduction (e.g. partial weight-gradients are added);
    - intermediates live only during their part, which is where the memory
      saving comes from (Eq. (1)).

    [validate] checks the paper's constraints (weak connectivity,
    convexity, exactly one assigned dim per member, dimension links along
    every internal edge) plus the semantic side-conditions (splittable
    axes, divisibility, consistent input slicing).  All of it but
    divisibility is independent of [n]: [structure] runs it once and
    returns the gcd of the split extents, so a candidate is valid at
    exactly the [n] that divide that modulus.  Every check reads the
    graph through one {!Graph_index}: connectivity is a union-find over
    the members' operand edges, convexity a bit test on the index's
    {!Reach} closure, and the links are memoized per node.  [expand]
    performs the real graph rewrite; the optimizer instead uses the
    *virtual* accounting in {!Ftree} and only expands the final
    result. *)

open Magis_ir
module Int_map = Util.Int_map
module Int_set = Util.Int_set

type t = {
  members : Int_set.t;  (** S *)
  dims : int Int_map.t;  (** node -> signed assigned dim (1-based) *)
  n : int;  (** fission number; 1 = candidate not yet applied *)
}

let members f = f.members
let fission_number f = f.n
let with_n f n = { f with n }

(* ------------------------------------------------------------------ *)
(* Dimension-link helpers                                             *)
(* ------------------------------------------------------------------ *)

(** Signed dim targeted by a link. *)
let link_target = function
  | Op.To_out j -> j + 1
  | Op.To_reduce j -> -(j + 1)

(* ------------------------------------------------------------------ *)
(* Input slicing map                                                  *)
(* ------------------------------------------------------------------ *)

(** How each input of [S] participates: [Sliced dim] (1-based) or
    [Shared].  Fails on inconsistent requirements. *)
type input_role = Sliced of int | Shared

(* Inputs of [S] that feed an assigned dim, each with the one dim
   (1-based) it is sliced along; [Error] when one is asked for two. *)
let sliced_inputs ix (f : t) : (int Int_map.t, string) result =
  let exception Conflict of string in
  try
    Ok
      (Int_set.fold
         (fun v acc ->
           match Int_map.find_opt v f.dims with
           | None -> acc
           | Some d ->
               let inputs = (Graph_index.node ix v).inputs in
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
                 acc (Graph_index.links ix v))
         f.members Int_map.empty)
  with Conflict msg -> Error msg

let input_roles ix (f : t) : (input_role Int_map.t, string) result =
  Result.map
    (fun sliced ->
      (* the other inputs of S are shared *)
      Int_set.fold
        (fun v acc ->
          Array.fold_left
            (fun acc u ->
              if Int_set.mem u f.members || Int_map.mem u acc then acc
              else Int_map.add u Shared acc)
            acc (Graph_index.node ix v).inputs)
        f.members
        (Int_map.map (fun i -> Sliced i) sliced))
    (sliced_inputs ix f)

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* [G.outs(S)] as flags over [ids]: members not read by members alone.
   Like the checks below, it reads operands only, so it builds none of
   the index's adjacency. *)
let outputs ix ids =
  let inside = Array.make (Array.length ids) 0 in
  Array.iter
    (fun w ->
      Array.iter
        (fun p ->
          let k = Graph_index.local_of ids p in
          if k >= 0 then inside.(k) <- inside.(k) + 1)
        (Graph_index.node ix w).inputs)
    ids;
  Array.mapi
    (fun k v ->
      let n = Graph_index.n_reads ix v in
      n = 0 || inside.(k) < n)
    ids

(* Weak connectivity of the members [ids]: their classes joined along
   every edge between two members. *)
let connected ix ids =
  let uf = Util.Union_find.create (Array.length ids) in
  Array.iteri
    (fun i v ->
      Array.iter
        (fun p ->
          let j = Graph_index.local_of ids p in
          if j >= 0 then Util.Union_find.union uf i j)
        (Graph_index.node ix v).inputs)
    ids;
  let rec joined i =
    i = Array.length ids || (Util.Union_find.find uf i = 0 && joined (i + 1))
  in
  joined 0

(* Convexity of the members [ids]: no input of S descends from an
   output of S, in the index's reachability closure. *)
let convex ix ids =
  let is_out = outputs ix ids in
  let outs = List.filteri (fun k _ -> is_out.(k)) (Array.to_list ids) in
  let outside v = Graph_index.local_of ids v < 0 in
  let inps =
    Array.fold_left
      (fun acc v ->
        Array.fold_left (fun acc p -> if outside p then p :: acc else acc) acc
          (Graph_index.node ix v).inputs)
      [] ids
  in
  let r = Graph_index.reach ix in
  not (List.exists (fun o -> List.exists (fun u -> Reach.precedes r o u) inps) outs)

(** Everything {!validate} checks that does not depend on [f.n]; on
    success, the extents the split divides as [(what, id, extent)] for
    error messages: members' assigned output dims first (["node"]), then
    sliced inputs (["input"]). *)
let split_extents ix (f : t) : ((string * int * int) list, string) result =
  let ( let* ) r k = match r with Error _ as e -> e | Ok x -> k x in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let node = Graph_index.node ix in
  if Int_set.is_empty f.members then err "empty member set"
  else if not (Int_set.for_all (Graph_index.mem ix) f.members) then err "members not in graph"
  else if
    not (Int_set.for_all (fun v -> Int_map.mem v f.dims) f.members)
    || Int_map.cardinal f.dims <> Int_set.cardinal f.members
  then err "dimension assignment must cover exactly the members"
  else
    (* members and their dims as aligned arrays: the dims cover exactly
       the members, so their bindings come in the same order *)
    let ids = Array.of_list (Int_set.elements f.members) in
    let dims = Array.of_list (List.map snd (Int_map.bindings f.dims)) in
    if not (connected ix ids) then err "sub-graph not weakly connected"
    else if not (convex ix ids) then err "sub-graph not convex"
    else
      (* is there a link from operand [slot]'s dim [in_dim] (1-based) to
         [v]'s signed dim [d]? *)
      let linked v slot in_dim d =
        List.exists
          (fun (s, i, l) -> s = slot && i + 1 = in_dim && link_target l = d)
          (Graph_index.links ix v)
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
            if
              List.mem (d - 1)
                (Op.unsplittable_out_dims node.op (Graph_index.in_shapes ix v) node.shape)
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
      let* sliced = sliced_inputs ix f in
      Ok
        (List.rev_append member_extents
           (Int_map.fold
              (fun u i acc -> ("input", u, Shape.dim (node u).shape (i - 1)) :: acc)
              sliced []
           |> List.rev))

let structure ix f =
  Result.map (List.fold_left (fun m (_, _, e) -> gcd m e) 0) (split_extents ix f)

let validate ix (f : t) : (unit, string) result =
  if Int_set.is_empty f.members then Error "empty member set"
  else if f.n < 1 then Error "fission number < 1"
  else
    match split_extents ix f with
    | Error _ as e -> e
    | Ok extents -> (
        match List.find_opt (fun (_, _, e) -> e mod f.n <> 0) extents with
        | None -> Ok ()
        | Some (what, id, e) ->
            Error (Printf.sprintf "%s %d: extent %d not divisible by %d" what id e f.n))

let is_valid ix f =
  f.n >= 1 && match structure ix f with Ok m -> m mod f.n = 0 | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Expansion: the real graph rewrite                                  *)
(* ------------------------------------------------------------------ *)

(** Shape-bearing operator attributes must shrink along the assigned
    dimension of a split copy (a reshape's target dims, a broadcast's
    target dims); every other attribute is extent-free. *)
let split_op_attrs (op : Op.kind) ~(d : int) ~(n : int) : Op.kind =
  match op with
  | Op.Reshape dims when d >= 1 && d <= Array.length dims && dims.(d - 1) mod n = 0 ->
      let dims = Array.copy dims in
      dims.(d - 1) <- dims.(d - 1) / n;
      Op.Reshape dims
  | Op.Broadcast { dims; axes }
    when d >= 1 && d <= Array.length dims && dims.(d - 1) mod n = 0 ->
      let dims = Array.copy dims in
      dims.(d - 1) <- dims.(d - 1) / n;
      Op.Broadcast { dims; axes }
  | op -> op

type expansion = {
  graph : Graph.t;
  replacements : int Int_map.t;
      (** original output node -> merged replacement node *)
  part_nodes : int list array;  (** nodes of each sequential part *)
}

(** [expand g f] rewrites [g], really splitting the sub-graph into [f.n]
    sequentially executed parts.  Raises [Invalid_argument] if [f] does not
    validate. *)
let expand (g : Graph.t) (f : t) : expansion =
  let ix = Graph_index.of_graph g in
  (match validate ix f with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fission.expand: " ^ msg));
  if f.n = 1 then
    { graph = g; replacements = Int_map.empty; part_nodes = [| [] |] }
  else
    let roles =
      match input_roles ix f with Ok r -> r | Error m -> invalid_arg m
    in
    let outs = Graph.outs_of g f.members in
    (* members in topological order *)
    let member_order =
      List.filter (fun v -> Int_set.mem v f.members) (Graph.topo_order g)
    in
    let graph = ref g in
    (* slices of sliced inputs, per part *)
    let input_slices : (int, int array) Hashtbl.t = Hashtbl.create 8 in
    Int_map.iter
      (fun u role ->
        match role with
        | Shared -> ()
        | Sliced i ->
            let extent = Shape.dim (Graph.shape g u) (i - 1) in
            let step = extent / f.n in
            let ids =
              Array.init f.n (fun p ->
                  let g', id =
                    Graph.add !graph
                      (Op.Slice { axis = i - 1; lo = p * step; hi = (p + 1) * step })
                      [ u ]
                  in
                  graph := g';
                  id)
            in
            Hashtbl.replace input_slices u ids)
      roles;
    (* copy members per part *)
    let copies : (int, int array) Hashtbl.t = Hashtbl.create 16 in
    let part_nodes = Array.make f.n [] in
    List.iter
      (fun v ->
        let node = Graph.node !graph v in
        let ids =
          Array.init f.n (fun p ->
              if Op.is_input node.op then begin
                (* an input node *inside* S: split it by slicing itself *)
                let d = Int_map.find v f.dims in
                let extent = Shape.dim node.shape (d - 1) in
                let step = extent / f.n in
                let g', id =
                  Graph.add !graph
                    (Op.Slice { axis = d - 1; lo = p * step; hi = (p + 1) * step })
                    [ v ]
                in
                graph := g';
                id
              end
              else begin
                let map_input u =
                  if Int_set.mem u f.members then (Hashtbl.find copies u).(p)
                  else
                    match Hashtbl.find_opt input_slices u with
                    | Some ids -> ids.(p)
                    | None -> u
                in
                let inputs =
                  Array.to_list (Array.map map_input node.inputs)
                in
                let d = Int_map.find v f.dims in
                let op =
                  if d > 0 then split_op_attrs node.op ~d ~n:f.n else node.op
                in
                let g', id = Graph.add ~label:node.label !graph op inputs in
                graph := g';
                id
              end)
        in
        Hashtbl.replace copies v ids;
        Array.iteri (fun p id -> part_nodes.(p) <- id :: part_nodes.(p)) ids)
      member_order;
    Array.iteri (fun p l -> part_nodes.(p) <- List.rev l) part_nodes;
    (* merge outputs and redirect consumers *)
    let replacements = ref Int_map.empty in
    Int_set.iter
      (fun v ->
        let d = Int_map.find v f.dims in
        let parts = Array.to_list (Hashtbl.find copies v) in
        let merged =
          if d > 0 then begin
            let g', id = Graph.add !graph (Op.Concat (d - 1)) parts in
            graph := g';
            id
          end
          else
            let merge_op =
              match Op.reduce_merge (Graph.op g v) with
              | `Sum -> Op.Binary Op.Add
              | `Max -> Op.Binary Op.Max
              | `No_merge -> assert false (* excluded by validate *)
            in
            List.fold_left
              (fun acc p ->
                let g', id = Graph.add !graph merge_op [ acc; p ] in
                graph := g';
                id)
              (List.hd parts) (List.tl parts)
        in
        replacements := Int_map.add v merged !replacements;
        graph := Graph.redirect !graph ~from_:v ~to_:merged)
      outs;
    (* remove the original member nodes (reverse topological order) *)
    List.iter
      (fun v ->
        if not (Op.is_input (Graph.op !graph v)) then graph := Graph.remove !graph v)
      (List.rev member_order);
    let keep =
      Int_set.union
        (Int_map.fold (fun _ id acc -> Int_set.add id acc) !replacements
           Int_set.empty)
        (Int_set.of_list
           (List.filter (fun v -> Graph.mem !graph v) (Graph.outputs g)))
    in
    graph := Graph.prune_dead ~keep !graph;
    { graph = !graph; replacements = !replacements; part_nodes }

(* ------------------------------------------------------------------ *)
(* Virtual (analytic) accounting helpers                              *)
(* ------------------------------------------------------------------ *)

(** [scaled_shapes ix f v (ins, out)]: member [v]'s share of one part of
    [f], starting from the given operand and output shapes — the assigned
    output dim and the operand dims feeding it are divided by [f.n] where
    they divide.  Feeding one entry's result to the next composes nested
    fissions.  Used for the per-part cost estimate. *)
let scaled_shapes ix (f : t) (v : int) ((ins, out) : Shape.t array * Shape.t) :
    Shape.t array * Shape.t =
  let d = Int_map.find v f.dims in
  (* [(slot, input_dim_1based)] pairs whose input dims feed [d] *)
  let feeding =
    List.filter_map
      (fun (slot, in_dim, link) ->
        if link_target link = d then Some (slot, in_dim + 1) else None)
      (Graph_index.links ix v)
  in
  let ins =
    Array.mapi
      (fun slot s ->
        List.fold_left
          (fun s (sl, i) ->
            if sl = slot && Shape.dim s (i - 1) mod f.n = 0 then
              Shape.split_dim s (i - 1) f.n
            else s)
          s feeding)
      ins
  in
  let out =
    if d > 0 && Shape.dim out (d - 1) mod f.n = 0 then
      Shape.split_dim out (d - 1) f.n
    else out
  in
  (ins, out)

let pp ppf f =
  Fmt.pf ppf "fission(n=%d, S={%a})" f.n
    Fmt.(list ~sep:(any ",") int)
    (Int_set.elements f.members)
