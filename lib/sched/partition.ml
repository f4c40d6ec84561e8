(** Narrow-waist analysis and graph partitioning (§6.1 of the paper).

    The narrow-waist value of a node [v] in graph [G] is
    [nw(v) = |V(G)| - |anc(v)| - |des(v)| - 1] — the number of nodes
    independent of [v].  A node with [nw(v) = 0] splits the scheduling
    problem into two independent halves; the paper's [GraphPartition] cuts
    each weakly-connected component at nodes with [nw(v) <= 1]. *)

open Magis_ir
module Int_set = Util.Int_set

(* ------------------------------------------------------------------ *)
(* Narrow-waist table                                                 *)
(* ------------------------------------------------------------------ *)

(** [nw_table g order] is the narrow-waist value
    [|V| - |anc(v)| - |des(v)| - 1] of every node [v] of [g], indexed
    by node id, read off the {!Reach} closures over [order] (a valid
    schedule; any other array is replaced by {!Graph.topo_order}). *)
let nw_table (g : Graph.t) (order : int array) : int array =
  let r = Reach.compute ~order g in
  let n = Reach.length r in
  let table = Array.make (Graph.id_bound g) 0 in
  Array.iter
    (fun v -> table.(v) <- n - 1 - Reach.n_anc r v - Reach.n_des r v)
    (Reach.order r);
  table

(* ------------------------------------------------------------------ *)
(* Partitioning                                                       *)
(* ------------------------------------------------------------------ *)

(** Partition the sub-graph induced by [members] into blocks that can be
    scheduled independently and concatenated.  A cut is taken after
    position [i] of a component's topological order when the dependence
    frontier narrows to (at most) the node just executed — the linear-time
    equivalent of cutting at narrow-waist nodes with [nw <= 1]: any
    schedule must pass through such a point, so the blocks on either side
    can be ordered independently.  Blocks are returned in a
    dependency-compatible order.

    [max_crossing] (default 1) is the number of live tensors a cut is
    allowed to carry; larger values sequentialize more aggressively (used
    by the POFO baseline's chainification).

    One pass over the whole graph's topological order splits it into the
    components' orders; positions, last uses and sort keys live in arrays
    indexed by node id. *)
let partition ?(max_crossing = 1) (g : Graph.t) (members : Int_set.t) :
    Int_set.t list =
  let bound = Graph.id_bound g in
  let topo_pos = Array.make bound 0 in
  let comp_of = Array.make bound (-1) in
  let comps = Graph.components_of g members in
  List.iteri (fun c comp -> Int_set.iter (fun v -> comp_of.(v) <- c) comp) comps;
  (* each component's members, in whole-graph topological order *)
  let ordered = Array.make (List.length comps) [] in
  List.iteri
    (fun i v ->
      topo_pos.(v) <- i;
      let c = comp_of.(v) in
      if c >= 0 then ordered.(c) <- v :: ordered.(c))
    (Graph.topo_order g);
  (* position within its component's order, per member *)
  let pos_in = Array.make bound 0 in
  let blocks =
    Array.fold_left
      (fun blocks rev_ordered ->
        let ordered = Array.of_list (List.rev rev_ordered) in
        let n = Array.length ordered in
        Array.iteri (fun i v -> pos_in.(v) <- i) ordered;
        (* sweep: number of tensors produced at <= i and used at > i *)
        let crossing = Array.make (max n 1) 0 in
        Array.iteri
          (fun i v ->
            (* last in-component consumer position; member consumers
               are always in [v]'s component *)
            let l =
              Int_set.fold
                (fun s acc -> if comp_of.(s) >= 0 then max acc pos_in.(s) else acc)
                (Graph.succ_set g v) i
            in
            (* v crosses every boundary between i and l-1 *)
            if l > i && not (Magis_cost.Lifetime.pinned g v) then begin
              crossing.(i) <- crossing.(i) + 1;
              if l < n then crossing.(l) <- crossing.(l) - 1
            end)
          ordered;
        (* cut when at most [max_crossing] tensors cross the boundary
           after i: the problem separates here.  Nothing crosses the
           last boundary, so the final block always closes.  A block's
           earliest node is its first, which keys the final ordering. *)
        let blocks = ref blocks and current = ref [] in
        let open_count = ref 0 in
        Array.iteri
          (fun i v ->
            current := v :: !current;
            open_count := !open_count + crossing.(i);
            if !open_count <= max_crossing then begin
              let block = List.rev !current in
              blocks := (topo_pos.(List.hd block), Int_set.of_list block) :: !blocks;
              current := []
            end)
          ordered;
        !blocks)
      [] ordered
  in
  (* order blocks by the topological position of their earliest node *)
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) blocks |> List.map snd
