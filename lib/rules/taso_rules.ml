(** TASO-style transformation rules (§5, Fig. 1 (a)(b)).

    Aggregation transformations (A-Trans) merge parallel operators that
    share an input into one bigger operator — better hardware utilization,
    temporarily higher memory.  Interim transformations (I-Trans) are
    algebraic rewrites that enable other transformations or remove
    redundant data movement. *)

open Magis_ir
module Int_set = Util.Int_set
module S = Rule.Spec

(* ------------------------------------------------------------------ *)
(* A-Trans: merge parallel Dense / Matmul / Conv sharing an input      *)
(* ------------------------------------------------------------------ *)

(** Siblings of [x]: consumers with the same mergeable operator kind that
    take [x] as their first operand. *)
let mergeable_siblings (view : Rule.view) x =
  let nodes = Graph_index.nodes view.ix in
  let same_kind a b =
    match (a, b) with
    | Op.Dense { trans_w = ta }, Op.Dense { trans_w = tb } -> ta = tb
    | Op.Matmul { trans_a = a1; trans_b = b1 }, Op.Matmul { trans_a = a2; trans_b = b2 }
      ->
        a1 = a2 && b1 = b2
    | Op.Conv2d a, Op.Conv2d b -> a = b
    | _ -> false
  in
  let consumers =
    Rule.consumers view x
    |> List.filter (fun c ->
           Rule.unfrozen view.ctx c
           &&
           let n = nodes.(c) in
           Array.length n.inputs = 2
           && n.inputs.(0) = x
           && (match n.op with
              | Op.Dense { trans_w = false } | Op.Matmul { trans_a = false; trans_b = false }
              | Op.Conv2d _ ->
                  true
              | _ -> false))
  in
  (* group by kind *)
  let rec group = function
    | [] -> []
    | c :: rest ->
        let kind = nodes.(c).op in
        let same, other =
          List.partition (fun d -> same_kind kind nodes.(d).op) rest
        in
        (c :: same) :: group other
  in
  List.filter (fun l -> List.length l >= 2) (group consumers)

(** The concat axis of the weights and the output-feature axis of a
    mergeable operator; [Invalid_argument] for another operator. *)
let merge_axes (first : Graph.node) =
  match first.op with
  | Op.Dense { trans_w = false } -> (1, Shape.rank first.shape - 1)
  | Op.Matmul _ -> (1, 1)
  | Op.Conv2d _ -> (0, 1)
  | _ -> invalid_arg "merge_group: not mergeable"

(** Does {!merge_group} build: do the concat, the merged operator and
    each slice infer, and does each slice have its original's shape?
    The site pass asks this instead of building and catching the
    failure. *)
let mergeable (view : Rule.view) x group =
  let node = Graph_index.node view.ix in
  let shape v = (node v).shape and weight c = (node c).inputs.(1) in
  let infer op ins =
    match Op.infer op (Array.of_list ins) with Ok s -> s | Error _ -> raise Exit
  in
  let first = node (List.hd group) in
  try
    let axis, out_axis = merge_axes first in
    let cat = infer (Op.Concat axis) (List.map (fun c -> shape (weight c)) group) in
    let merged = infer first.op [ shape x; cat ] in
    ignore
      (List.fold_left
         (fun lo c ->
           let hi = lo + Shape.dim (shape (weight c)) axis in
           let sl = infer (Op.Slice { axis = out_axis; lo; hi }) [ merged ] in
           if not (Shape.equal_dims sl (shape c)) then raise Exit;
           hi)
         0 group);
    true
  with Exit | Invalid_argument _ -> false

(** Merge a group of parallel ops [y_i = op(x, w_i)] into
    [y = op(x, concat(w_i))] followed by slices (Fig. 1 (a) — the QKV
    aggregation).  The concat axis is the output-feature axis of the
    weight. *)
let merge_group (view : Rule.view) x group =
  let nodes = Graph_index.nodes view.ix in
  let first = nodes.(List.hd group) in
  let weights = List.map (fun c -> nodes.(c).inputs.(1)) group in
  let axis, out_axis = merge_axes first in
  let g = Graph_index.graph view.ix in
  let g, wcat = Graph.add g (Op.Concat axis) weights in
  let g, merged = Graph.add g first.op [ x; wcat ] in
  let g, _ =
    List.fold_left
      (fun (g, lo) c ->
        let extent = Shape.dim nodes.(nodes.(c).inputs.(1)).shape axis in
        let g, sl =
          Graph.add g
            (Op.Slice { axis = out_axis; lo; hi = lo + extent })
            [ merged ]
        in
        let g = Graph.redirect g ~from_:c ~to_:sl in
        let g = Graph.remove g c in
        (g, lo + extent))
      (g, 0) group
  in
  g

(** Shared spec shape of the three merge variants: [y1 = op(x, w1)],
    [y2 = op(x, w2)] becomes one [op(x, concat(w1, w2))] followed by
    slices along the output-feature axis.  [p]/[q] are the two weights'
    output-feature extents throughout. *)
let merge_template ~t_name ~op ~x_dims ~w_dims_of ~axis ~out_axis ~guards
    ~delta ~ground =
  let open S in
  {
    t_name;
    t_sources =
      [
        src 0 x_dims;
        src ~kind:Op.Weight 1 (w_dims_of (V "p"));
        src ~kind:Op.Weight 2 (w_dims_of (V "q"));
      ];
    t_lhs = [ node 10 (Fixed op) [ 0; 1 ]; node 11 (Fixed op) [ 0; 2 ] ];
    t_rhs =
      [
        node 20 (Fixed (Op.Concat axis)) [ 1; 2 ];
        node 21 (Fixed op) [ 0; 20 ];
        node ~same_as:10 22
          (Slice_s { axis = out_axis; lo = K 0; hi = V "p" })
          [ 21 ];
        node ~same_as:11 23
          (Slice_s { axis = out_axis; lo = V "p"; hi = Add (V "p", V "q") })
          [ 21 ];
      ];
    t_guards = guards;
    t_keep = [];
    t_out = [ (10, 22); (11, 23) ];
    t_delta = delta;
    t_ground = ground;
  }

let merge_parallel : Rule.t =
  {
    name = "a-trans-merge";
    spec =
      S.Sound
        [
          (* y[b,p|q] = x[b,k] * w[k,p|q]; the merged operator adds
             k*(p+q) (concat) + b*(p+q) (merged output), the slices
             replace the removed originals one for one *)
          merge_template ~t_name:"dense"
            ~op:(Op.Dense { trans_w = false })
            ~x_dims:[ S.V "b"; S.V "k" ]
            ~w_dims_of:(fun n -> [ S.V "k"; n ])
            ~axis:1 ~out_axis:1 ~guards:[]
            ~delta:(S.Mul (S.Add (S.V "k", S.V "b"), S.Add (S.V "p", S.V "q")))
            ~ground:[ ("b", 2); ("k", 3); ("p", 2); ("q", 3) ];
          merge_template ~t_name:"matmul"
            ~op:(Op.Matmul { trans_a = false; trans_b = false })
            ~x_dims:[ S.V "m"; S.V "k" ]
            ~w_dims_of:(fun n -> [ S.V "k"; n ])
            ~axis:1 ~out_axis:1 ~guards:[]
            ~delta:(S.Mul (S.Add (S.V "k", S.V "m"), S.Add (S.V "p", S.V "q")))
            ~ground:[ ("m", 2); ("k", 3); ("p", 2); ("q", 3) ];
          (* x[n,c,h,w], w[p|q,c,r,s], stride 1, no padding:
             H' = h-r+1, W' = w-s+1 (positive by the guards); the
             concat adds (p+q)*c*r*s, the merged output n*(p+q)*H'*W' *)
          merge_template ~t_name:"conv2d"
            ~op:(Op.Conv2d { stride = 1; padding = 0 })
            ~x_dims:[ S.V "n"; S.V "c"; S.V "h"; S.V "w" ]
            ~w_dims_of:(fun k -> [ k; S.V "c"; S.V "r"; S.V "s" ])
            ~axis:0 ~out_axis:1
            ~guards:[ S.Ge (S.V "h", S.V "r"); S.Ge (S.V "w", S.V "s") ]
            ~delta:
              (S.Mul
                 ( S.Add (S.V "p", S.V "q"),
                   S.Add
                     ( S.Mul (S.V "c", S.Mul (S.V "r", S.V "s")),
                       S.Mul
                         ( S.V "n",
                           S.Mul
                             ( S.Add (S.Sub (S.V "h", S.V "r"), S.K 1),
                               S.Add (S.Sub (S.V "w", S.V "s"), S.K 1) ) ) ) ))
            ~ground:
              [ ("n", 1); ("c", 2); ("h", 4); ("w", 4); ("p", 2); ("q", 3);
                ("r", 3); ("s", 3) ];
        ];
    capped = true;
    sites =
      (fun view ->
        (* by decreasing id, and a node's groups in reverse *)
        Array.fold_left
          (fun acc (n : Graph.node) ->
            if n.id < 0 || Rule.n_consumers view n.id < 2 then acc
            else
              List.fold_left
                (fun acc group ->
                  if not (mergeable view n.id group) then acc
                  else
                    (* the group's consumers are rewired onto the new
                       slices — part of the touched region *)
                    let rewired = List.concat_map (Rule.consumers view) group in
                    (fun () ->
                      {
                        Rule.rule = "a-trans-merge";
                        graph = merge_group view n.id group;
                        touched_old = Int_set.of_list ((n.id :: group) @ rewired);
                      })
                    :: acc)
                acc
                (mergeable_siblings view n.id))
          [] (Graph_index.nodes view.ix));
  }

(* ------------------------------------------------------------------ *)
(* I-Trans: algebraic clean-ups                                        *)
(* ------------------------------------------------------------------ *)

(** concat(slice(x, 0..a), slice(x, a..b)) = slice(x, 0..b); a full cover
    collapses to x itself. *)
let concat_of_slices : Rule.t =
  {
    name = "i-trans-concat-slice";
    spec =
      S.Sound
        [
          (* the two slices cover x[p+q, m] exactly: the concat IS x *)
          {
            S.t_name = "full-cover";
            t_sources = [ S.src 0 [ S.Add (S.V "p", S.V "q"); S.V "m" ] ];
            t_lhs =
              [
                S.node 10 (S.Slice_s { axis = 0; lo = S.K 0; hi = S.V "p" }) [ 0 ];
                S.node 11
                  (S.Slice_s { axis = 0; lo = S.V "p"; hi = S.Add (S.V "p", S.V "q") })
                  [ 0 ];
                S.node 12 (S.Fixed (Op.Concat 0)) [ 10; 11 ];
              ];
            t_rhs = [];
            t_guards = [];
            t_keep = [];
            t_out = [ (12, 0) ];
            t_delta =
              S.Sub (S.K 0, S.Mul (S.K 2, S.Mul (S.Add (S.V "p", S.V "q"), S.V "m")));
            t_ground = [ ("p", 2); ("q", 3); ("m", 2) ];
          };
          (* partial cover of x[p+q+r, m]: the concat becomes one slice *)
          {
            S.t_name = "partial-cover";
            t_sources =
              [ S.src 0 [ S.Add (S.Add (S.V "p", S.V "q"), S.V "r"); S.V "m" ] ];
            t_lhs =
              [
                S.node 10 (S.Slice_s { axis = 0; lo = S.K 0; hi = S.V "p" }) [ 0 ];
                S.node 11
                  (S.Slice_s { axis = 0; lo = S.V "p"; hi = S.Add (S.V "p", S.V "q") })
                  [ 0 ];
                S.node 12 (S.Fixed (Op.Concat 0)) [ 10; 11 ];
              ];
            t_rhs =
              [
                S.node ~same_as:12 20
                  (S.Slice_s { axis = 0; lo = S.K 0; hi = S.Add (S.V "p", S.V "q") })
                  [ 0 ];
              ];
            t_guards = [];
            t_keep = [];
            t_out = [ (12, 20) ];
            t_delta = S.Sub (S.K 0, S.Mul (S.Add (S.V "p", S.V "q"), S.V "m"));
            t_ground = [ ("p", 2); ("q", 2); ("r", 1); ("m", 3) ];
          };
        ];
    capped = true;
    sites =
      (fun view ->
        let ctx = view.ctx and nodes = Graph_index.nodes view.ix in
        (* by decreasing id *)
        Array.fold_left
          (fun acc (n : Graph.node) ->
            match n.op with
            | Op.Concat axis when n.id >= 0 ->
                let parts =
                  Array.to_list n.inputs
                  |> List.map (fun u ->
                         match nodes.(u).op with
                         | Op.Slice { axis = a; lo; hi } when a = axis ->
                             Some (u, nodes.(u).inputs.(0), lo, hi)
                         | _ -> None)
                in
                if List.exists (( = ) None) parts then acc
                else
                  let parts = List.filter_map Fun.id parts in
                  let srcs =
                    List.sort_uniq compare (List.map (fun (_, s, _, _) -> s) parts)
                  in
                  let contiguous =
                    let rec chk = function
                      | (_, _, _, h) :: ((_, _, lo, _) :: _ as rest) ->
                          h = lo && chk rest
                      | _ -> true
                    in
                    chk parts
                  in
                  if
                    List.length srcs = 1 && contiguous
                    && List.for_all (fun (u, _, _, _) -> Rule.unfrozen ctx u) parts
                    && Rule.unfrozen ctx n.id
                  then
                    let src = List.hd srcs in
                    let lo = match parts with (_, _, l, _) :: _ -> l | [] -> 0 in
                    let hi =
                      match List.rev parts with (_, _, _, h) :: _ -> h | [] -> 0
                    in
                    let src_shape = nodes.(src).shape in
                    let whole = lo = 0 && hi = Shape.dim src_shape axis in
                    let slice = Op.Slice { axis; lo; hi } in
                    let same_shape =
                      if whole then Shape.equal_dims src_shape n.shape
                      else
                        match Op.infer slice [| src_shape |] with
                        | Ok s -> Shape.equal_dims s n.shape
                        | Error _ | (exception Invalid_argument _) -> false
                    in
                    if same_shape then
                      let rewired = Rule.consumers view n.id in
                      (fun () ->
                        let g = Graph_index.graph view.ix in
                        let g, repl =
                          if whole then (g, src) else Graph.add g slice [ src ]
                        in
                        (* [repl], the source or a new slice, may be
                           left consumer-less when [n] is a sink; it
                           carries the result, so protect it *)
                        let g = Graph.redirect g ~from_:n.id ~to_:repl in
                        let g = Graph.remove g n.id in
                        let g =
                          Graph.prune_from ~keep:(Int_set.singleton repl) g
                            (Array.to_list n.inputs)
                        in
                        {
                          Rule.rule = "i-trans-concat-slice";
                          graph = g;
                          touched_old =
                            Int_set.of_list
                              ((n.id :: rewired) @ List.map (fun (u, _, _, _) -> u) parts);
                        })
                      :: acc
                    else acc
                  else acc
            | _ -> acc)
          [] nodes);
  }

(** transpose(transpose(x)) with inverse permutations collapses to x. *)
let transpose_pairs : Rule.t =
  {
    name = "i-trans-transpose";
    spec =
      S.Sound
        [
          (* inverse rank-3 rotations: t2(t1(x)) = x for all extents *)
          {
            S.t_name = "inverse-rotation";
            t_sources = [ S.src 0 [ S.V "a"; S.V "b"; S.V "c" ] ];
            t_lhs =
              [
                S.node 10 (S.Fixed (Op.Transpose [| 1; 2; 0 |])) [ 0 ];
                S.node 11 (S.Fixed (Op.Transpose [| 2; 0; 1 |])) [ 10 ];
              ];
            t_rhs = [];
            t_guards = [];
            t_keep = [];
            t_out = [ (11, 0) ];
            t_delta =
              S.Sub
                (S.K 0, S.Mul (S.K 2, S.Mul (S.V "a", S.Mul (S.V "b", S.V "c"))));
            t_ground = [ ("a", 2); ("b", 3); ("c", 4) ];
          };
        ];
    capped = true;
    sites =
      (fun view ->
        let ctx = view.ctx and nodes = Graph_index.nodes view.ix in
        (* by decreasing id *)
        Array.fold_left
          (fun acc (n : Graph.node) ->
            match n.op with
            | Op.Transpose p2 when n.id >= 0 -> (
                let u = n.inputs.(0) in
                match nodes.(u).op with
                | Op.Transpose p1
                  when Rule.unfrozen ctx n.id && Rule.unfrozen ctx u
                       && Array.length p1 = Array.length p2
                       && Array.for_all2 ( = )
                            (Array.init (Array.length p1) (fun i -> p1.(p2.(i))))
                            (Array.init (Array.length p1) Fun.id) ->
                    let src = nodes.(u).inputs.(0) in
                    let rewired = Rule.consumers view n.id in
                    (fun () ->
                      let g = Graph_index.graph view.ix in
                      let g = Graph.redirect g ~from_:n.id ~to_:src in
                      let g = Graph.remove g n.id in
                      (* [src] may be left consumer-less when [n] is a
                         sink; it carries the result, so protect it *)
                      let g =
                        Graph.prune_from ~keep:(Int_set.singleton src) g
                          (Array.to_list n.inputs)
                      in
                      {
                        Rule.rule = "i-trans-transpose";
                        graph = g;
                        touched_old = Int_set.of_list (n.id :: u :: rewired);
                      })
                    :: acc
                | _ -> acc)
            | _ -> acc)
          [] nodes);
  }

(** add re-association: (a + b) + c -> a + (b + c), enabling different
    lifetime orders for long residual chains. *)
let add_reassociate : Rule.t =
  {
    name = "i-trans-add-assoc";
    spec =
      S.Sound
        [
          (* (a + b) + c = a + (b + c); same two adds either way *)
          {
            S.t_name = "reassociate";
            t_sources =
              [
                S.src 0 [ S.V "m"; S.V "n" ];
                S.src 1 [ S.V "m"; S.V "n" ];
                S.src 2 [ S.V "m"; S.V "n" ];
              ];
            t_lhs =
              [
                S.node 10 (S.Fixed (Op.Binary Op.Add)) [ 0; 1 ];
                S.node 11 (S.Fixed (Op.Binary Op.Add)) [ 10; 2 ];
              ];
            t_rhs =
              [
                S.node 20 (S.Fixed (Op.Binary Op.Add)) [ 1; 2 ];
                S.node ~same_as:11 21 (S.Fixed (Op.Binary Op.Add)) [ 0; 20 ];
              ];
            t_guards = [];
            t_keep = [];
            t_out = [ (11, 21) ];
            t_delta = S.K 0;
            t_ground = [ ("m", 2); ("n", 3) ];
          };
        ];
    capped = true;
    sites =
      (fun view ->
        let ctx = view.ctx and nodes = Graph_index.nodes view.ix in
        (* by decreasing id *)
        Array.fold_left
          (fun acc (n : Graph.node) ->
            match n.op with
            | Op.Binary Op.Add when n.id >= 0 -> (
                let l = n.inputs.(0) and r = n.inputs.(1) in
                match nodes.(l).op with
                | Op.Binary Op.Add
                  when Rule.n_consumers view l = 1 && Rule.unfrozen ctx n.id
                       && Rule.unfrozen ctx l ->
                    let a = nodes.(l).inputs.(0) and b = nodes.(l).inputs.(1) in
                    let rewired = Rule.consumers view n.id in
                    (fun () ->
                      let g = Graph_index.graph view.ix in
                      let g, bc = Graph.add g (Op.Binary Op.Add) [ b; r ] in
                      let g, abc = Graph.add g (Op.Binary Op.Add) [ a; bc ] in
                      let g = Graph.redirect g ~from_:n.id ~to_:abc in
                      let g = Graph.remove g n.id in
                      (* protect the replacement: when [n] is a sink,
                         nothing is rewired onto [abc] and pruning would
                         otherwise sweep the new chain away with it *)
                      let g =
                        Graph.prune_from ~keep:(Int_set.singleton abc) g
                          (Array.to_list n.inputs)
                      in
                      {
                        Rule.rule = "i-trans-add-assoc";
                        graph = g;
                        touched_old = Int_set.of_list (n.id :: l :: rewired);
                      })
                    :: acc
                | _ -> acc)
            | _ -> acc)
          [] nodes);
  }

let a_trans = [ merge_parallel ]
let i_trans = [ concat_of_slices; transpose_pairs; add_reassociate ]
let all = a_trans @ i_trans
