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
    axes, divisibility, consistent input slicing).  [expand] performs the
    real graph rewrite; the optimizer instead uses the *virtual*
    accounting in {!Ftree} and only expands the final result. *)

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

(** For node [v] with assigned signed dim [d], the input slicing it
    requires: [(slot, input_dim_1based)] pairs whose input dims feed [d]. *)
let feeding_slots g v d =
  List.filter_map
    (fun (slot, in_dim, link) ->
      if link_target link = d then Some (slot, in_dim + 1) else None)
    (links_of g v)

(** Extent of the assigned dimension of [v] (positive assignments only). *)
let assigned_extent g v d =
  if d > 0 then Some (Shape.dim (Graph.shape g v) (d - 1)) else None

(* ------------------------------------------------------------------ *)
(* Input slicing map                                                  *)
(* ------------------------------------------------------------------ *)

(** How each input of [S] participates: [Sliced dim] (1-based) or
    [Shared].  Fails on inconsistent requirements. *)
type input_role = Sliced of int | Shared

let input_roles (g : Graph.t) (f : t) : (input_role Int_map.t, string) result
    =
  let exception Conflict of string in
  try
    let roles =
      Int_set.fold
        (fun v acc ->
          match Int_map.find_opt v f.dims with
          | None -> acc
          | Some d ->
              let node = Graph.node g v in
              List.fold_left
                (fun acc (slot, in_dim) ->
                  let u = node.inputs.(slot) in
                  if Int_set.mem u f.members then acc
                  else
                    match Int_map.find_opt u acc with
                    | Some (Sliced i) when i <> in_dim ->
                        raise
                          (Conflict
                             (Printf.sprintf
                                "input %d sliced along both dim %d and %d" u
                                i in_dim))
                    | _ -> Int_map.add u (Sliced in_dim) acc)
                acc (feeding_slots g v d))
        f.members Int_map.empty
    in
    (* remaining inputs are shared *)
    let all =
      Int_set.fold
        (fun u acc ->
          if Int_map.mem u acc then acc else Int_map.add u Shared acc)
        (Graph.inps_of g f.members)
        roles
    in
    Ok all
  with Conflict msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

let validate (g : Graph.t) (f : t) : (unit, string) result =
  let ( let* ) r k = match r with Error _ as e -> e | Ok x -> k x in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Int_set.is_empty f.members then err "empty member set"
  else if f.n < 1 then err "fission number < 1"
  else if not (Int_set.for_all (fun v -> Graph.mem g v) f.members) then
    err "members not in graph"
  else if
    not (Int_set.for_all (fun v -> Int_map.mem v f.dims) f.members)
    || Int_map.cardinal f.dims <> Int_set.cardinal f.members
  then err "dimension assignment must cover exactly the members"
  else if not (Graph.is_weakly_connected g f.members) then
    err "sub-graph not weakly connected"
  else if not (Graph.is_convex g f.members) then err "sub-graph not convex"
  else
    (* member-level checks *)
    let* () =
      Int_set.fold
        (fun v acc ->
          let* () = acc in
          let node = Graph.node g v in
          let d = Int_map.find v f.dims in
          if Op.is_input node.op then
            if d > 0 then Ok () else err "input node assigned a reduce axis"
          else if d > 0 then begin
            let ins = in_shapes g node in
            let bad = Op.unsplittable_out_dims node.op ins node.shape in
            if List.mem (d - 1) bad then
              err "node %d: dim %d not splittable for %s" v d
                (Op.name node.op)
            else if d > Shape.rank node.shape then
              err "node %d: dim %d out of range" v d
            else if Shape.dim node.shape (d - 1) mod f.n <> 0 then
              err "node %d: extent %d not divisible by %d" v
                (Shape.dim node.shape (d - 1))
                f.n
            else Ok ()
          end
          else if Op.reduce_merge node.op = `No_merge then
            err "node %d: %s cannot merge partial results" v
              (Op.name node.op)
          else Ok ())
        f.members (Ok ())
    in
    (* every internal edge must link the two assigned dims *)
    let* () =
      Int_set.fold
        (fun v acc ->
          let* () = acc in
          let node = Graph.node g v in
          if Op.is_input node.op then Ok ()
          else
            let d = Int_map.find v f.dims in
            let feeding = feeding_slots g v d in
            Array.to_list node.inputs
            |> List.mapi (fun slot u -> (slot, u))
            |> List.fold_left
                 (fun acc (slot, u) ->
                   let* () = acc in
                   if not (Int_set.mem u f.members) then Ok ()
                   else
                     let du = Int_map.find u f.dims in
                     if du <= 0 then
                       err "edge %d->%d: producer merged by reduction" u v
                     else if
                       List.exists
                         (fun (s, i) -> s = slot && i = du)
                         feeding
                     then Ok ()
                     else
                       err "edge %d->%d: dims %d/%d not linked" u v du d)
                 (Ok ())
        )
        f.members (Ok ())
    in
    (* input slicing must be consistent and divisible *)
    let* roles = input_roles g f in
    Int_map.fold
      (fun u role acc ->
        let* () = acc in
        match role with
        | Shared -> Ok ()
        | Sliced i ->
            let s = Graph.shape g u in
            if Shape.dim s (i - 1) mod f.n <> 0 then
              err "input %d: extent %d not divisible by %d" u
                (Shape.dim s (i - 1))
                f.n
            else Ok ())
      roles (Ok ())

let is_valid g f = match validate g f with Ok () -> true | Error _ -> false

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
  (match validate g f with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fission.expand: " ^ msg));
  if f.n = 1 then
    { graph = g; replacements = Int_map.empty; part_nodes = [| [] |] }
  else
    let roles =
      match input_roles g f with Ok r -> r | Error m -> invalid_arg m
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

(** [scaled_shapes g f v (ins, out)]: member [v]'s share of one part of
    [f], starting from the given operand and output shapes — the assigned
    output dim and the operand dims feeding it are divided by [f.n] where
    they divide.  Feeding one entry's result to the next composes nested
    fissions.  Used for the per-part cost estimate. *)
let scaled_shapes (g : Graph.t) (f : t) (v : int)
    ((ins, out) : Shape.t array * Shape.t) : Shape.t array * Shape.t =
  let d = Int_map.find v f.dims in
  let feeding = feeding_slots g v d in
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
