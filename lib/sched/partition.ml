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

(** [nw(v) = |V| - |anc(v)| - |des(v)| - 1] of every node [v], by id,
    read off the index's own closure ({!Graph_index.reach}). *)
let nw_on (ix : Graph_index.t) : int array =
  let r = Graph_index.reach ix in
  let n = Reach.length r in
  let table = Array.make (Graph_index.bound ix) 0 in
  Array.iter
    (fun v -> table.(v) <- n - 1 - Reach.n_anc r v - Reach.n_des r v)
    (Reach.order r);
  table

(* ------------------------------------------------------------------ *)
(* Partitioning                                                       *)
(* ------------------------------------------------------------------ *)

type blocks = {
  block_of : int array;
  start : int array;
  members : int array;
}

let n_blocks b = Array.length b.start - 1

(** The blocks of {!partition}, on a member table.  Every scratch array
    is indexed by member: their components (one depth-first sweep over
    member edges), each component's members bucketed in the members'
    topological order ({!Members.t.topo}), positions and last uses.  A cut records a block number per
    member, blocks are renumbered in the order of their earliest
    members, and one counting pass over the members lists each block's
    members in increasing order. *)
let blocks ?(max_crossing = 1) (ms : Members.t) : blocks =
  let m = Members.size ms in
  let ({ topo; pred_start; preds; succ_start; succs; pinned; _ } : Members.t) = ms in
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
        for k = pred_start.(v) to pred_start.(v + 1) - 1 do
          visit preds.(k)
        done;
        for k = succ_start.(v) to succ_start.(v + 1) - 1 do
          visit succs.(k)
        done
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
  let grouped = Array.make m 0 in
  let fill = Array.sub start 0 (max !n_comps 1) in
  Array.iter
    (fun i ->
      let c = comp.(i) in
      grouped.(fill.(c)) <- i;
      fill.(c) <- fill.(c) + 1)
    topo;
  (* position within its component's order, per member *)
  let pos_in = Array.make m 0 in
  let crossing = Array.make m 0 in
  let block_of = Array.make m 0 and n_blocks = ref 0 in
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
      for k = succ_start.(v) to succ_start.(v + 1) - 1 do
        if pos_in.(succs.(k)) > !l then l := pos_in.(succs.(k))
      done;
      (* v crosses every boundary between i and l-1 *)
      if !l > i && not pinned.(v) then begin
        crossing.(p) <- crossing.(p) + 1;
        crossing.(s + !l) <- crossing.(s + !l) - 1
      end
    done;
    (* cut when at most [max_crossing] tensors cross the boundary after
       i: the problem separates here.  Nothing crosses the last
       boundary, so the final block always closes. *)
    let open_count = ref 0 in
    for p = s to e - 1 do
      block_of.(grouped.(p)) <- !n_blocks;
      open_count := !open_count + crossing.(p);
      if !open_count <= max_crossing then incr n_blocks
    done
  done;
  (* number the blocks by their earliest member, which a walk of the
     topological order meets first: a dependency-compatible order *)
  let number = Array.make !n_blocks (-1) and next = ref 0 in
  Array.iter
    (fun i ->
      let b = block_of.(i) in
      if number.(b) < 0 then begin
        number.(b) <- !next;
        incr next
      end)
    topo;
  let start = Array.make (!n_blocks + 1) 0 in
  for i = 0 to m - 1 do
    let b = number.(block_of.(i)) in
    block_of.(i) <- b;
    start.(b) <- start.(b) + 1
  done;
  (* [start.(b)] ends block b's run, then, filled from the end by
     decreasing member, starts it with its members increasing *)
  for b = 1 to !n_blocks do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let members = Array.make m 0 in
  for i = m - 1 downto 0 do
    let b = block_of.(i) in
    start.(b) <- start.(b) - 1;
    members.(start.(b)) <- i
  done;
  { block_of; start; members }

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
    by the POFO baseline's chainification).  One index of [g] is built;
    the blocks are cut on its member table. *)
let partition ?max_crossing (g : Graph.t) (members : Int_set.t) :
    Int_set.t list =
  let ms =
    Members.of_index (Graph_index.of_graph g)
      (Array.of_list (Int_set.elements members))
  in
  let b = blocks ?max_crossing ms in
  List.init (n_blocks b) (fun k ->
      let acc = ref Int_set.empty in
      for p = b.start.(k) to b.start.(k + 1) - 1 do
        acc := Int_set.add ms.ids.(b.members.(p)) !acc
      done;
      !acc)
