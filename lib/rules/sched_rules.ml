(** Scheduling-based transformation rules (§5.2, Fig. 8).

    Re-materialization and swapping are expressed as graph rewrites —
    Store/Load are ordinary operators — so that the subsequent scheduling
    phase only has to re-order.  Per the paper's heuristic, the generative
    rules (Re-mat., Swapping) only target memory hot-spots; the reductive
    duals (De-re-mat., De-swapping) always apply. *)

open Magis_ir
module Int_set = Util.Int_set
module S = Rule.Spec

(* Hot candidates ({!Rule.hot}) come first: swapping and
   re-materialization only target tensors live at the memory peak.
   Fission regions do not block them: inserting a Store/Load or a
   re-computed copy rewires a region's *boundary* (the new nodes stay
   outside the member set), and the F-Tree re-validates enabled
   fissions after every rewrite ({!Magis_ftree.Ftree.prune}). *)

let node (view : Rule.view) v = Graph_index.node view.ix v
let is_swap view c = Op.is_swap (node view c).op

(* ------------------------------------------------------------------ *)
(* Swapping                                                           *)
(* ------------------------------------------------------------------ *)

(** Fig. 8 (e): insert Store/Load between a producer and its most distant
    consumer, so the tensor's device copy can be freed in between. *)
let swapping : Rule.t =
  {
    name = "swap";
    spec =
      S.Sound
        [
          (* the consumer survives, rewired onto a Load whose value is
             the producer's; only the Load's device copy (m*n elements)
             is new — the Store output lives host-side and counts 0 *)
          {
            S.t_name = "store-load";
            t_sources = [ S.src ~mat:true 0 [ S.V "m"; S.V "n" ] ];
            t_lhs = [ S.node 10 (S.Fixed (Op.Unary Op.Relu)) [ 0 ] ];
            t_rhs =
              [
                S.node 20 (S.Fixed Op.Store) [ 0 ];
                S.node ~same_as:0 21 (S.Fixed Op.Load) [ 20 ];
                S.node 22 (S.Fixed (Op.Unary Op.Relu)) [ 21 ];
              ];
            t_guards = [];
            t_keep = [ (10, 22) ];
            t_out = [ (10, 22) ];
            t_delta = S.Mul (S.V "m", S.V "n");
            t_ground = [ ("m", 2); ("n", 3) ];
          };
        ];
    capped = true;
    sites =
      (fun view ->
        List.filter_map
          (fun v ->
            (* the most distant eligible consumer *)
            match Rule.farthest view v (fun c -> not (is_swap view c)) with
            | Some c when Rule.distance view v c > 3 ->
                Some
                  (fun () ->
                    let g = Graph_index.graph view.ix in
                    let g, store = Graph.add g Op.Store [ v ] in
                    let g, load = Graph.add g Op.Load [ store ] in
                    let g = Graph.replace_input g ~node_id:c ~old_src:v ~new_src:load in
                    { Rule.rule = "swap"; graph = g;
                      touched_old = Int_set.of_list [ v; c ] })
            | _ -> None)
          (Rule.hot view));
  }

(** Fig. 8 (f): remove a Store/Load pair, reconnecting the consumer
    directly. *)
let de_swapping : Rule.t =
  {
    name = "de-swap";
    spec =
      S.Sound
        [
          (* inverse of swap: drop the Store/Load pair, reconnect the
             consumer to the producer it was reading through the pair *)
          {
            S.t_name = "drop-store-load";
            t_sources = [ S.src ~mat:true 0 [ S.V "m"; S.V "n" ] ];
            t_lhs =
              [
                S.node 10 (S.Fixed Op.Store) [ 0 ];
                S.node 11 (S.Fixed Op.Load) [ 10 ];
                S.node 12 (S.Fixed (Op.Unary Op.Relu)) [ 11 ];
              ];
            t_rhs = [ S.node 20 (S.Fixed (Op.Unary Op.Relu)) [ 0 ] ];
            t_guards = [];
            t_keep = [ (12, 20) ];
            t_out = [ (12, 20) ];
            t_delta = S.Sub (S.K 0, S.Mul (S.V "m", S.V "n"));
            t_ground = [ ("m", 2); ("n", 3) ];
          };
        ];
    capped = true;
    sites =
      (fun view ->
        (* by decreasing id *)
        Array.fold_left
          (fun acc (n : Graph.node) ->
            match n.op with
            | Op.Load when n.id >= 0 ->
                let store = n.inputs.(0) in
                let src = (node view store).inputs.(0) in
                if Rule.n_consumers view store = 1 then
                  (* the Load's consumers are rewired onto [src]: their
                     operand slots change, so they belong to the touched
                     region Algorithm 2 re-schedules around *)
                  let rewired = Rule.consumers view n.id in
                  (fun () ->
                    let g = Graph_index.graph view.ix in
                    let g = Graph.redirect g ~from_:n.id ~to_:src in
                    let g = Graph.remove g n.id in
                    let g = Graph.remove g store in
                    { Rule.rule = "de-swap"; graph = g;
                      touched_old = Int_set.of_list (n.id :: store :: src :: rewired) })
                  :: acc
                else acc
            | _ -> acc)
          [] (Graph_index.nodes view.ix));
  }

(* ------------------------------------------------------------------ *)
(* Re-materialization                                                 *)
(* ------------------------------------------------------------------ *)

(** Fig. 8 (a)(b): give one consumer of a multi-consumer operator its own
    re-computed copy, so the original tensor can die earlier. *)
let rematerialization : Rule.t =
  {
    name = "remat";
    spec =
      S.Sound
        [
          (* v = exp(x) with two consumers; the distant one (neg) moves
             onto a recomputed copy v' = exp(x).  v -> neg is replaced
             by v' -> neg with v' recomputing v — exactly what the
             [same_as] clause of the refinement obligation admits *)
          {
            S.t_name = "detach-consumer";
            t_sources = [ S.src 0 [ S.V "m"; S.V "n" ] ];
            t_lhs =
              [
                S.node 10 (S.Fixed (Op.Unary Op.Exp)) [ 0 ];
                S.node 11 (S.Fixed (Op.Unary Op.Relu)) [ 10 ];
                S.node 12 (S.Fixed (Op.Unary Op.Neg)) [ 10 ];
              ];
            t_rhs =
              [
                S.node 20 (S.Fixed (Op.Unary Op.Exp)) [ 0 ];
                S.node 21 (S.Fixed (Op.Unary Op.Relu)) [ 20 ];
                S.node ~same_as:10 22 (S.Fixed (Op.Unary Op.Exp)) [ 0 ];
                S.node 23 (S.Fixed (Op.Unary Op.Neg)) [ 22 ];
              ];
            t_guards = [];
            t_keep = [ (10, 20); (11, 21); (12, 23) ];
            t_out = [ (11, 21); (12, 23) ];
            t_delta = S.Mul (S.V "m", S.V "n");
            t_ground = [ ("m", 2); ("n", 3) ];
          };
        ];
    capped = true;
    sites =
      (fun view ->
        List.filter_map
          (fun v ->
            let n = node view v in
            if Op.is_input n.op || Rule.n_consumers view v < 2 then None
            else
              (* detach the most distant consumer onto a re-computed copy *)
              match Rule.farthest view v (fun _ -> true) with
              | Some c when Rule.distance view v c > 3 ->
                  Some
                    (fun () ->
                      let g, copy =
                        Graph.add_copy ~label:(n.label ^ "'") (Graph_index.graph view.ix)
                          v (Array.to_list n.inputs)
                      in
                      let g =
                        Graph.replace_input g ~node_id:c ~old_src:v ~new_src:copy
                      in
                      { Rule.rule = "remat"; graph = g;
                        touched_old = Int_set.of_list [ v; c ] })
              | _ -> None)
          (Rule.hot view));
  }

(** Nodes grouped by (operator name, operands), each group's members
    increasing, groups in the order a [Hashtbl.create 64] keyed by
    [(Op.name op, Array.to_list inputs)] and filled by increasing id
    would fold them in: by bucket, and newest key first within a bucket.
    Only groups of two or more are returned, but the table's final
    bucket count depends on every key, so the keys are counted over the
    whole graph: a node's key was seen before when an earlier consumer
    of its first operand has the same operands and name (its first such
    consumer is its group's smallest member).  Only the groups are
    hashed, into a table created at that final size, where they keep
    the buckets and the order within a bucket that the full table gives
    them. *)
let name_groups (view : Rule.view) : int list list =
  let nodes = Graph_index.nodes view.ix in
  let { Graph_index.row; ids } = Graph_index.csr view.ix in
  let same_name (a : Op.kind) (b : Op.kind) =
    (* structurally equal scales can print apart (0 and -0) *)
    (match a with Op.Unary (Op.Scale _) -> false | _ -> a = b)
    || String.equal (Op.name a) (Op.name b)
  in
  let same_key (a : Graph.node) (b : Graph.node) =
    let n = Array.length a.inputs in
    n = Array.length b.inputs
    && (let rec eq k = k >= n || (a.inputs.(k) = b.inputs.(k) && eq (k + 1)) in
        eq 0)
    && same_name a.op b.op
  in
  let followers = Array.make (Array.length nodes) [] in
  let n_keys = ref 0 and leaders = ref [] in
  Array.iter
    (fun (n : Graph.node) ->
      (* every operator has an operand *)
      if n.id >= 0 && not (Op.is_input n.op) then begin
        let p = n.inputs.(0) in
        let rec first k =
          if k >= row.(p + 1) || ids.(k) >= n.id then None
          else if same_key nodes.(ids.(k)) n then Some ids.(k)
          else first (k + 1)
        in
        match first row.(p) with
        | Some u ->
            if followers.(u) = [] then leaders := u :: !leaders;
            followers.(u) <- n.id :: followers.(u)
        | None -> incr n_keys
      end)
    nodes;
  (* the size [Hashtbl.create 64] has grown to after [n_keys] keys *)
  let rec buckets len = if !n_keys > 2 * len then buckets (2 * len) else len in
  let tbl = Hashtbl.create (buckets 64) in
  List.iter
    (fun u ->
      let n = nodes.(u) in
      Hashtbl.replace tbl (Op.name n.op, Array.to_list n.inputs)
        (u :: List.rev followers.(u)))
    (List.sort Int.compare !leaders);
  List.rev (Hashtbl.fold (fun _ members acc -> members :: acc) tbl [])

(** The members of a group, increasing, split into classes of equal
    operators and shapes, in the order of each class's smallest
    member. *)
let equal_classes (view : Rule.view) members =
  let nodes = Graph_index.nodes view.ix in
  let same (a : Graph.node) (b : Graph.node) =
    a.op = b.op && Shape.equal a.shape b.shape
  in
  List.fold_left
    (fun classes v ->
      let rec place = function
        | [] -> [ [ v ] ]
        | (u :: _ as c) :: rest when same nodes.(u) nodes.(v) -> (c @ [ v ]) :: rest
        | c :: rest -> c :: place rest
      in
      place classes)
    [] members

(** Fig. 8 (c)(d): merge two same-op same-input operators back into one. *)
let de_rematerialization : Rule.t =
  {
    name = "de-remat";
    spec =
      S.Sound
        [
          (* two identical exp(x) nodes; the later one's consumer moves
             onto the earlier, the duplicate disappears *)
          {
            S.t_name = "merge-duplicates";
            t_sources = [ S.src 0 [ S.V "m"; S.V "n" ] ];
            t_lhs =
              [
                S.node 10 (S.Fixed (Op.Unary Op.Exp)) [ 0 ];
                S.node 11 (S.Fixed (Op.Unary Op.Exp)) [ 0 ];
                S.node 12 (S.Fixed (Op.Unary Op.Relu)) [ 10 ];
                S.node 13 (S.Fixed (Op.Unary Op.Neg)) [ 11 ];
              ];
            t_rhs =
              [
                S.node 20 (S.Fixed (Op.Unary Op.Exp)) [ 0 ];
                S.node 21 (S.Fixed (Op.Unary Op.Relu)) [ 20 ];
                S.node 22 (S.Fixed (Op.Unary Op.Neg)) [ 20 ];
              ];
            t_guards = [];
            t_keep = [ (10, 20); (12, 21); (13, 22) ];
            t_out = [ (12, 21); (13, 22) ];
            t_delta = S.Sub (S.K 0, S.Mul (S.V "m", S.V "n"));
            t_ground = [ ("m", 2); ("n", 3) ];
          };
        ];
    capped = true;
    sites =
      (fun view ->
        let ctx = view.ctx in
        let groups = name_groups view in
        let merge a b =
          let rewired = Rule.consumers view b in
          fun () ->
            let g = Graph_index.graph view.ix in
            let g = Graph.redirect g ~from_:b ~to_:a in
            let g = Graph.remove g b in
            { Rule.rule = "de-remat"; graph = g;
              touched_old = Int_set.of_list (a :: b :: rewired) }
        in
        List.fold_left
          (fun acc members ->
            (* a group may hold ops that print alike but differ (a
               broadcast's target, a scale's digits beyond [%g]): merge
               only within a class of equal ops and shapes, each class's
               two smallest members *)
            List.filter_map
              (function
                | a :: b :: _ when Rule.unfrozen ctx a && Rule.unfrozen ctx b ->
                    Some (merge a b)
                | _ -> None)
              (equal_classes view members)
            @ acc)
          [] groups);
  }

(* ------------------------------------------------------------------ *)
(* Compound (sweep) rules                                             *)
(* ------------------------------------------------------------------ *)

(** Producer is memory-bound: recomputing it is almost free (elementwise,
    normalization, view ops — the tensors activation checkpointing always
    recomputes). *)
let cheap_to_recompute ix v =
  let n = Graph_index.node ix v in
  let ins = Graph_index.in_shapes ix v in
  let fl = Op.flops n.op ins n.shape in
  let by = Op.bytes_moved n.op ins n.shape in
  by > 0.0 && fl /. by < 16.0

(** One rewrite that re-materializes *every* cheap hot tensor at once:
    each distant consumer gets a recomputed copy.  A single application
    performs what would otherwise take dozens of single-tensor steps —
    the granularity at which checkpointing decisions are really taken. *)
let sweep_rematerialization : Rule.t =
  {
    name = "sweep-remat";
    spec =
      S.Waiver
        "compound sweep: the rewritten region is the schedule-dependent set \
         of cheap hot tensors, with copies chained through copies — there \
         is no fixed template; covered differentially on the elementwise \
         and swap corpora";
    capped = false;
    sites =
      (fun view ->
        let ix = view.ix in
        let target = Bytes.make (Graph_index.bound ix) '\000' in
        List.iter
          (fun v ->
            if cheap_to_recompute ix v && not (Op.is_view (node view v).op) then
              Bytes.set target v '\001')
          (Rule.hot view);
        (* Copies consume copies: recompute whole cheap sub-chains,
           anchored on the expensive tensors that stay resident — the
           structure activation checkpointing produces.  Without the
           chaining, every copy would pin its original operands and no
           memory would be freed.  Each target, in topological order,
           with its distant consumers: *)
        let plan =
          Array.fold_right
            (fun v acc ->
              if Bytes.get target v = '\000' then acc
              else
                match List.filter (fun c -> Rule.distance view v c > 8) (Rule.consumers view v) with
                | [] -> acc
                | far -> (node view v, far) :: acc)
            (Graph_index.order ix) []
        in
        if plan = [] then []
        else
          [
            (fun () ->
              let g = ref (Graph_index.graph ix) and touched = ref Int_set.empty in
              let copies = Hashtbl.create 16 in
              List.iter
                (fun ((n : Graph.node), far) ->
                  let mapped u =
                    match Hashtbl.find_opt copies u with Some c -> c | None -> u
                  in
                  let g', copy =
                    Graph.add_copy ~label:(n.label ^ "'") !g n.id
                      (List.map mapped (Array.to_list n.inputs))
                  in
                  g := g';
                  Hashtbl.replace copies n.id copy;
                  List.iter
                    (fun c ->
                      g := Graph.replace_input !g ~node_id:c ~old_src:n.id ~new_src:copy)
                    far;
                  touched := List.fold_left (Fun.flip Int_set.add) (Int_set.add n.id !touched) far)
                plan;
              { Rule.rule = "sweep-remat"; graph = !g; touched_old = !touched });
          ]);
  }

(** Swap the [k] largest hot tensors in one rewrite, for a few values of
    [k] — the coarse-grained counterpart of {!swapping}. *)
let sweep_swapping : Rule.t =
  {
    name = "sweep-swap";
    spec =
      S.Waiver
        "compound sweep: inserts Store/Load pairs for the k largest hot \
         tensors, a schedule- and size-dependent selection with no fixed \
         template; covered differentially on the elementwise and swap \
         corpora";
    capped = false;
    sites =
      (fun view ->
        (* each hot tensor with a distant non-swap consumer, and its most
           distant one *)
        let pairs =
          List.filter_map
            (fun v ->
              Option.map (fun c -> (v, c))
                (Rule.farthest view v (fun c ->
                     Rule.distance view v c > 8 && not (is_swap view c))))
            (Rule.hot view)
        in
        (* pairs [start] to [k - 1] swapped into a built rewrite *)
        let swap_in start k (g, touched) =
          List.fold_left
            (fun (g, touched) (v, c) ->
              let g, store = Graph.add g Op.Store [ v ] in
              let g, load = Graph.add g Op.Load [ store ] in
              ( Graph.replace_input g ~node_id:c ~old_src:v ~new_src:load,
                Int_set.add v (Int_set.add c touched) ))
            (g, touched)
            (List.filteri (fun i _ -> i >= start && i < k) pairs)
        in
        (* each [k]'s rewrite extends the previous one's: the same
           operations in the same order, so the same node ids *)
        let rec steps prev start = function
          | k :: ks when List.length pairs >= k ->
              let built = lazy (swap_in start k (Lazy.force prev)) in
              (fun () ->
                let graph, touched_old = Lazy.force built in
                { Rule.rule = Printf.sprintf "sweep-swap(%d)" k; graph; touched_old })
              :: steps built k ks
          | _ -> []
        in
        steps (Lazy.from_val (Graph_index.graph view.ix, Int_set.empty)) 0 [ 2; 4; 8 ]);
  }

(** The paper's four scheduling-based rules (Fig. 8). *)
let basic = [ swapping; de_swapping; rematerialization; de_rematerialization ]

(** Basic rules plus the compound sweep rules. *)
let all = basic @ [ sweep_rematerialization; sweep_swapping ]
