(** The rewrite rules as they stood before each rule was split into a
    site pass over one {!Rule.view} and a build of the sites its cap
    keeps: every rule built a complete rewritten graph for every match
    by walking the graph's persistent maps ([Graph.fold], [Graph.suc],
    [Graph.op]), then kept the first [max_per_rule] with {!Rule.cap};
    the add re-association, concat-of-slices and transpose rules pruned
    with a whole-graph [Graph.prune_dead].  They live only here, as the
    oracles of [test_invariants]; the code below is the old code as it
    was, with the rules' declarative specs left out (the split does not
    touch them) and the record type and rule lists renamed. *)

open Magis_ir
open Magis_rules
module Int_set = Util.Int_set

type t = { name : string; apply : Rule.ctx -> Graph.t -> Rule.rewrite list }

let tensor_bytes g v = Shape.size_bytes (Graph.shape g v)

(** Candidate hot tensors, largest first, excluding frozen/swap/input
    nodes.  When [restrict_to_hotspots] is off (ablation), every tensor
    with more than a threshold size qualifies. *)
let hot_candidates (ctx : Rule.ctx) g =
  (* Fission regions do not block swapping/re-materialization: inserting a
     Store/Load or a re-computed copy rewires a region's *boundary* (the
     new nodes stay outside the member set), and the F-Tree re-validates
     enabled fissions after every rewrite ({!Magis_ftree.Ftree.prune}). *)
  let _ = ctx.Rule.frozen in
  let eligible v =
    let n = Graph.node g v in
    (not (Op.is_swap n.op))
    && (not (Op.is_input n.op))
    && Graph.out_degree g v >= 1
  in
  let pool =
    if ctx.restrict_to_hotspots then Int_set.elements ctx.hotspots
    else Graph.node_ids g
  in
  List.filter eligible pool
  |> List.sort (fun a b -> compare (tensor_bytes g b) (tensor_bytes g a))

(** Schedule distance between a producer and a consumer — swapping only
    pays off when the gap is large. *)
let distance (ctx : Rule.ctx) u v =
  match (ctx.schedule_pos u, ctx.schedule_pos v) with
  | Some a, Some b -> abs (b - a)
  | _ -> max_int

(* ------------------------------------------------------------------ *)
(* Swapping                                                           *)
(* ------------------------------------------------------------------ *)

(** Fig. 8 (e): insert Store/Load between a producer and its most distant
    consumer, so the tensor's device copy can be freed in between. *)
let swapping : t =
  {
    name = "swap";
    apply =
      (fun ctx g ->
        let rewrites =
          List.concat_map
            (fun v ->
              (* pick the most distant eligible consumer *)
              let consumers =
                Graph.suc g v
                |> List.filter (fun c -> not (Op.is_swap (Graph.op g c)))
                |> List.sort (fun a b ->
                       compare (distance ctx v b) (distance ctx v a))
              in
              match consumers with
              | c :: _ when distance ctx v c > 3 ->
                  let g, store = Graph.add g Op.Store [ v ] in
                  let g, load = Graph.add g Op.Load [ store ] in
                  let g = Graph.replace_input g ~node_id:c ~old_src:v ~new_src:load in
                  [ { Rule.rule = "swap"; graph = g;
                      touched_old = Int_set.of_list [ v; c ] } ]
              | _ -> [])
            (hot_candidates ctx g)
        in
        Rule.cap ctx rewrites);
  }

(** Fig. 8 (f): remove a Store/Load pair, reconnecting the consumer
    directly. *)
let de_swapping : t =
  {
    name = "de-swap";
    apply =
      (fun ctx g ->
        let rewrites =
          Graph.fold
            (fun n acc ->
              match n.op with
              | Op.Load ->
                  let store = n.inputs.(0) in
                  let src = (Graph.node g store).inputs.(0) in
                  if Graph.out_degree g store = 1 then
                    (* the Load's consumers are rewired onto [src]:
                       their operand slots change, so they belong to the
                       touched region Algorithm 2 re-schedules around *)
                    let rewired = Graph.suc g n.id in
                    let g = Graph.redirect g ~from_:n.id ~to_:src in
                    let g = Graph.remove g n.id in
                    let g = Graph.remove g store in
                    { Rule.rule = "de-swap"; graph = g;
                      touched_old =
                        Int_set.of_list (n.id :: store :: src :: rewired) }
                    :: acc
                  else acc
              | _ -> acc)
            g []
        in
        Rule.cap ctx rewrites);
  }

(* ------------------------------------------------------------------ *)
(* Re-materialization                                                 *)
(* ------------------------------------------------------------------ *)

(** Fig. 8 (a)(b): give one consumer of a multi-consumer operator its own
    re-computed copy, so the original tensor can die earlier. *)
let rematerialization : t =
  {
    name = "remat";
    apply =
      (fun ctx g ->
        let rewrites =
          List.concat_map
            (fun v ->
              let n = Graph.node g v in
              if Op.is_input n.op || Graph.out_degree g v < 2 then []
              else
                (* detach the most distant consumer onto a re-computed copy *)
                let consumers =
                  Graph.suc g v
                  |> List.sort (fun a b ->
                         compare (distance ctx v b) (distance ctx v a))
                in
                match consumers with
                | c :: _ when distance ctx v c > 3 ->
                    let g, copy =
                      Graph.add ~label:(n.label ^ "'") g n.op
                        (Array.to_list n.inputs)
                    in
                    let g =
                      Graph.replace_input g ~node_id:c ~old_src:v ~new_src:copy
                    in
                    [ { Rule.rule = "remat"; graph = g;
                        touched_old = Int_set.of_list [ v; c ] } ]
                | _ -> [])
            (hot_candidates ctx g)
        in
        Rule.cap ctx rewrites);
  }

(** Fig. 8 (c)(d): merge two same-op same-input operators back into one. *)
let de_rematerialization : t =
  {
    name = "de-remat";
    apply =
      (fun ctx g ->
        (* group nodes by (op fingerprint, inputs) *)
        let tbl = Hashtbl.create 64 in
        Graph.iter
          (fun n ->
            if not (Op.is_input n.op) then
              let key = (Op.name n.op, Array.to_list n.inputs) in
              Hashtbl.replace tbl key
                (n.id :: (try Hashtbl.find tbl key with Not_found -> [])))
          g;
        let rewrites =
          Hashtbl.fold
            (fun _ ids acc ->
              match List.sort compare ids with
              | a :: b :: _ when Rule.unfrozen ctx a && Rule.unfrozen ctx b ->
                  let rewired = Graph.suc g b in
                  let g = Graph.redirect g ~from_:b ~to_:a in
                  let g = Graph.remove g b in
                  { Rule.rule = "de-remat"; graph = g;
                    touched_old = Int_set.of_list (a :: b :: rewired) }
                  :: acc
              | _ -> acc)
            tbl []
        in
        Rule.cap ctx rewrites);
  }

(* ------------------------------------------------------------------ *)
(* Compound (sweep) rules                                             *)
(* ------------------------------------------------------------------ *)

(** Producer is memory-bound: recomputing it is almost free (elementwise,
    normalization, view ops — the tensors activation checkpointing always
    recomputes). *)
let cheap_to_recompute g v =
  let n = Graph.node g v in
  let ins = Array.map (fun i -> Graph.shape g i) n.inputs in
  let fl = Op.flops n.op ins n.shape in
  let by = Op.bytes_moved n.op ins n.shape in
  by > 0.0 && fl /. by < 16.0

(** One rewrite that re-materializes *every* cheap hot tensor at once:
    each distant consumer gets a recomputed copy.  A single application
    performs what would otherwise take dozens of single-tensor steps —
    the granularity at which checkpointing decisions are really taken. *)
let sweep_rematerialization : t =
  {
    name = "sweep-remat";
    apply =
      (fun ctx g0 ->
        let targets =
          List.filter
            (fun v ->
              cheap_to_recompute g0 v
              && (not (Op.is_view (Graph.op g0 v)))
              && Graph.out_degree g0 v >= 1)
            (hot_candidates ctx g0)
        in
        if targets = [] then []
        else begin
          (* Copies consume copies: recompute whole cheap sub-chains,
             anchored on the expensive tensors that stay resident — the
             structure activation checkpointing produces.  Without the
             chaining, every copy would pin its original operands and no
             memory would be freed. *)
          let target_set = Int_set.of_list targets in
          let in_topo =
            List.filter (fun v -> Int_set.mem v target_set) (Graph.topo_order g0)
          in
          let g = ref g0 and touched = ref Int_set.empty in
          let copies = Hashtbl.create 16 in
          List.iter
            (fun v ->
              let n = Graph.node g0 v in
              let far =
                List.filter (fun c -> distance ctx v c > 8) (Graph.suc g0 v)
              in
              if far <> [] then begin
                let mapped u =
                  match Hashtbl.find_opt copies u with
                  | Some c -> c
                  | None -> u
                in
                let g', copy =
                  Graph.add ~label:(n.label ^ "'") !g n.op
                    (List.map mapped (Array.to_list n.inputs))
                in
                g := g';
                Hashtbl.replace copies v copy;
                List.iter
                  (fun c ->
                    g := Graph.replace_input !g ~node_id:c ~old_src:v ~new_src:copy)
                  far;
                touched :=
                  Int_set.add v (Int_set.union !touched (Int_set.of_list far))
              end)
            in_topo;
          if Int_set.is_empty !touched then []
          else [ { Rule.rule = "sweep-remat"; graph = !g; touched_old = !touched } ]
        end);
  }

(** Swap the [k] largest hot tensors in one rewrite, for a few values of
    [k] — the coarse-grained counterpart of {!swapping}. *)
let sweep_swapping : t =
  {
    name = "sweep-swap";
    apply =
      (fun ctx g0 ->
        let candidates =
          List.filter
            (fun v ->
              List.exists
                (fun c ->
                  distance ctx v c > 8 && not (Op.is_swap (Graph.op g0 c)))
                (Graph.suc g0 v))
            (hot_candidates ctx g0)
        in
        List.filter_map
          (fun k ->
            let chosen = Util.take k candidates in
            if List.length chosen < k then None
            else
              let g = ref g0 and touched = ref Int_set.empty in
              List.iter
                (fun v ->
                  let far =
                    List.filter
                      (fun c ->
                        distance ctx v c > 8
                        && not (Op.is_swap (Graph.op g0 c)))
                      (Graph.suc g0 v)
                  in
                  match
                    List.sort
                      (fun a b -> compare (distance ctx v b) (distance ctx v a))
                      far
                  with
                  | [] -> ()
                  | c :: _ ->
                      let g', store = Graph.add !g Op.Store [ v ] in
                      let g', load = Graph.add g' Op.Load [ store ] in
                      g :=
                        Graph.replace_input g' ~node_id:c ~old_src:v
                          ~new_src:load;
                      touched := Int_set.add v (Int_set.add c !touched))
                chosen;
              if Int_set.is_empty !touched then None
              else
                Some
                  { Rule.rule = Printf.sprintf "sweep-swap(%d)" k;
                    graph = !g; touched_old = !touched })
          [ 2; 4; 8 ]);
  }

(** The paper's four scheduling-based rules (Fig. 8). *)
let sched_basic = [ swapping; de_swapping; rematerialization; de_rematerialization ]

(** Basic rules plus the compound sweep rules. *)
let sched_all = sched_basic @ [ sweep_rematerialization; sweep_swapping ]

(* ------------------------------------------------------------------ *)
(* A-Trans: merge parallel Dense / Matmul / Conv sharing an input      *)
(* ------------------------------------------------------------------ *)

(** Siblings of [x]: consumers with the same mergeable operator kind that
    take [x] as their first operand. *)
let mergeable_siblings ctx g x =
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
    Graph.suc g x
    |> List.filter (fun c ->
           Rule.unfrozen ctx c
           &&
           let n = Graph.node g c in
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
        let kind = Graph.op g c in
        let same, other =
          List.partition (fun d -> same_kind kind (Graph.op g d)) rest
        in
        (c :: same) :: group other
  in
  List.filter (fun l -> List.length l >= 2) (group consumers)

(** Merge a group of parallel ops [y_i = op(x, w_i)] into
    [y = op(x, concat(w_i))] followed by slices (Fig. 1 (a) — the QKV
    aggregation).  The concat axis is the output-feature axis of the
    weight. *)
let merge_group g x group =
  let first = Graph.node g (List.hd group) in
  let weights = List.map (fun c -> (Graph.node g c).inputs.(1)) group in
  let axis, out_axis =
    match first.op with
    | Op.Dense { trans_w = false } -> (1, Shape.rank first.shape - 1)
    | Op.Matmul _ -> (1, 1)
    | Op.Conv2d _ -> (0, 1)
    | _ -> invalid_arg "merge_group: not mergeable"
  in
  let g, wcat = Graph.add g (Op.Concat axis) weights in
  let g, merged = Graph.add g first.op [ x; wcat ] in
  let g, _ =
    List.fold_left
      (fun (g, lo) c ->
        let extent = Shape.dim (Graph.shape g (Graph.node g c).inputs.(1)) axis in
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

let merge_parallel : t =
  {
    name = "a-trans-merge";
    apply =
      (fun ctx g ->
        let rewrites =
          Graph.fold
            (fun n acc ->
              if Graph.out_degree g n.id < 2 then acc
              else
                List.fold_left
                  (fun acc group ->
                    match merge_group g n.id group with
                    | g' ->
                        (* the group's consumers are rewired onto the new
                           slices — part of the touched region *)
                        let rewired = List.concat_map (Graph.suc g) group in
                        {
                          Rule.rule = "a-trans-merge";
                          graph = g';
                          touched_old =
                            Int_set.of_list ((n.id :: group) @ rewired);
                        }
                        :: acc
                    | exception Invalid_argument _ -> acc)
                  acc
                  (mergeable_siblings ctx g n.id))
            g []
        in
        Rule.cap ctx rewrites);
  }

(* ------------------------------------------------------------------ *)
(* I-Trans: algebraic clean-ups                                        *)
(* ------------------------------------------------------------------ *)

(** concat(slice(x, 0..a), slice(x, a..b)) = slice(x, 0..b); a full cover
    collapses to x itself. *)
let concat_of_slices : t =
  {
    name = "i-trans-concat-slice";
    apply =
      (fun ctx g ->
        let rewrites =
          Graph.fold
            (fun n acc ->
              match n.op with
              | Op.Concat axis ->
                  let parts =
                    Array.to_list n.inputs
                    |> List.map (fun u ->
                           match Graph.op g u with
                           | Op.Slice { axis = a; lo; hi } when a = axis ->
                               Some (u, (Graph.node g u).inputs.(0), lo, hi)
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
                      let full = Shape.dim (Graph.shape g src) axis in
                      let rewired = Graph.suc g n.id in
                      let g, repl =
                        if lo = 0 && hi = full then (g, src)
                        else Graph.add g (Op.Slice { axis; lo; hi }) [ src ]
                      in
                      if Shape.equal_dims (Graph.shape g repl) n.shape then
                        let keep = Int_set.of_list (Graph.outputs g) in
                        let g = Graph.redirect g ~from_:n.id ~to_:repl in
                        let g = Graph.remove g n.id in
                        let g = Graph.prune_dead ~keep g in
                        {
                          Rule.rule = "i-trans-concat-slice";
                          graph = g;
                          touched_old =
                            Int_set.of_list
                              ((n.id :: rewired)
                              @ List.map (fun (u, _, _, _) -> u) parts);
                        }
                        :: acc
                      else acc
                    else acc
              | _ -> acc)
            g []
        in
        Rule.cap ctx rewrites);
  }

(** transpose(transpose(x)) with inverse permutations collapses to x. *)
let transpose_pairs : t =
  {
    name = "i-trans-transpose";
    apply =
      (fun ctx g ->
        let rewrites =
          Graph.fold
            (fun n acc ->
              match n.op with
              | Op.Transpose p2 -> (
                  let u = n.inputs.(0) in
                  match Graph.op g u with
                  | Op.Transpose p1
                    when Rule.unfrozen ctx n.id && Rule.unfrozen ctx u
                         && Array.length p1 = Array.length p2
                         && Array.for_all2 ( = )
                              (Array.init (Array.length p1) (fun i -> p1.(p2.(i))))
                              (Array.init (Array.length p1) Fun.id) ->
                      let src = (Graph.node g u).inputs.(0) in
                      (* [src] may be left consumer-less when [n] is a
                         sink; it carries the result, so protect it *)
                      let keep = Int_set.add src (Int_set.of_list (Graph.outputs g)) in
                      let rewired = Graph.suc g n.id in
                      let g = Graph.redirect g ~from_:n.id ~to_:src in
                      let g = Graph.remove g n.id in
                      let g = Graph.prune_dead ~keep g in
                      {
                        Rule.rule = "i-trans-transpose";
                        graph = g;
                        touched_old = Int_set.of_list (n.id :: u :: rewired);
                      }
                      :: acc
                  | _ -> acc)
              | _ -> acc)
            g []
        in
        Rule.cap ctx rewrites);
  }

(** add re-association: (a + b) + c -> a + (b + c), enabling different
    lifetime orders for long residual chains. *)
let add_reassociate : t =
  {
    name = "i-trans-add-assoc";
    apply =
      (fun ctx g ->
        let rewrites =
          Graph.fold
            (fun n acc ->
              match n.op with
              | Op.Binary Op.Add -> (
                  let l = n.inputs.(0) and r = n.inputs.(1) in
                  match Graph.op g l with
                  | Op.Binary Op.Add
                    when Graph.out_degree g l = 1 && Rule.unfrozen ctx n.id
                         && Rule.unfrozen ctx l ->
                      let a = (Graph.node g l).inputs.(0) in
                      let b = (Graph.node g l).inputs.(1) in
                      let rewired = Graph.suc g n.id in
                      let g', bc = Graph.add g (Op.Binary Op.Add) [ b; r ] in
                      let g', abc = Graph.add g' (Op.Binary Op.Add) [ a; bc ] in
                      (* protect the replacement: when [n] is a sink,
                         nothing is rewired onto [abc] and pruning would
                         otherwise sweep the new chain away with it *)
                      let keep = Int_set.add abc (Int_set.of_list (Graph.outputs g)) in
                      let g' = Graph.redirect g' ~from_:n.id ~to_:abc in
                      let g' = Graph.remove g' n.id in
                      let g' = Graph.prune_dead ~keep g' in
                      {
                        Rule.rule = "i-trans-add-assoc";
                        graph = g';
                        touched_old = Int_set.of_list (n.id :: l :: rewired);
                      }
                      :: acc
                  | _ -> acc)
              | _ -> acc)
            g []
        in
        Rule.cap ctx rewrites);
  }

let a_trans = [ merge_parallel ]
let i_trans = [ concat_of_slices; transpose_pairs; add_reassociate ]
let taso_all = a_trans @ i_trans

let all = sched_all @ taso_all
