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

(** The blocks of {!partition}, on a member index: each block is its
    members' local indices in ascending order (so, in id order), and the
    blocks come in a dependency-compatible order.  Every scratch array
    is indexed by {!Members} rank: the members in [topo] order, their
    components (one depth-first sweep over member edges), each
    component's members bucketed in that order, positions and last
    uses. *)
let blocks ?(max_crossing = 1) ~(topo : int array) (ms : Members.t) :
    int array list =
  let m = Members.size ms in
  (* rank.(i): position of member i in the members' topological order *)
  let rank = Array.make m 0 in
  let k = ref 0 in
  Array.iter
    (fun v ->
      let i = Members.index ms v in
      if i >= 0 then begin
        rank.(i) <- !k;
        incr k
      end)
    topo;
  (* weakly-connected components, numbered by smallest member *)
  let comp = Array.make m (-1) in
  let stack = Array.make m 0 in
  let n_comps = ref 0 in
  for seed = 0 to m - 1 do
    if comp.(seed) < 0 then begin
      let c = !n_comps in
      incr n_comps;
      comp.(seed) <- c;
      stack.(0) <- seed;
      let top = ref 1 in
      let visit u =
        if comp.(u) < 0 then begin
          comp.(u) <- c;
          stack.(!top) <- u;
          incr top
        end
      in
      while !top > 0 do
        decr top;
        let v = stack.(!top) in
        Members.iter_preds visit ms v;
        Members.iter_succs visit ms v
      done
    end
  done;
  (* members grouped by component, each group in topological order:
     a counting sort of the topological sequence by component *)
  let start = Array.make (!n_comps + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) comp;
  for c = 1 to !n_comps do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let by_rank = Array.make m 0 in
  Array.iteri (fun i r -> by_rank.(r) <- i) rank;
  let grouped = Array.make m 0 in
  let fill = Array.sub start 0 (max !n_comps 1) in
  Array.iter
    (fun i ->
      let c = comp.(i) in
      grouped.(fill.(c)) <- i;
      fill.(c) <- fill.(c) + 1)
    by_rank;
  (* position within its component's order, per member *)
  let pos_in = Array.make m 0 in
  let crossing = Array.make m 0 in
  let blocks = ref [] in
  for c = 0 to !n_comps - 1 do
    let s = start.(c) and e = start.(c + 1) in
    for p = s to e - 1 do
      pos_in.(grouped.(p)) <- p - s
    done;
    (* sweep: number of tensors produced at <= i and used at > i; member
       consumers are always in the producer's component *)
    for p = s to e - 1 do
      let v = grouped.(p) in
      let i = p - s in
      let l = ref i in
      Members.iter_succs (fun c -> if pos_in.(c) > !l then l := pos_in.(c)) ms v;
      (* v crosses every boundary between i and l-1 *)
      if !l > i && not (Members.pinned ms v) then begin
        crossing.(p) <- crossing.(p) + 1;
        crossing.(s + !l) <- crossing.(s + !l) - 1
      end
    done;
    (* cut when at most [max_crossing] tensors cross the boundary after
       i: the problem separates here.  Nothing crosses the last
       boundary, so the final block always closes.  A block's earliest
       node is its first, which keys the final ordering. *)
    let first = ref s and open_count = ref 0 in
    for p = s to e - 1 do
      open_count := !open_count + crossing.(p);
      if !open_count <= max_crossing then begin
        let block = Array.sub grouped !first (p - !first + 1) in
        Array.sort (fun (a : int) b -> compare a b) block;
        blocks := (rank.(grouped.(!first)), block) :: !blocks;
        first := p + 1
      end
    done
  done;
  (* order blocks by the topological position of their earliest node *)
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) !blocks |> List.map snd

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
    by the POFO baseline's chainification). *)
let partition ?max_crossing (g : Graph.t) (members : Int_set.t) :
    Int_set.t list =
  let ms = Members.of_set g members in
  let topo = Array.of_list (Graph.topo_order g) in
  List.map (Members.to_set ms) (blocks ?max_crossing ~topo ms)
