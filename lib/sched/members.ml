(** A node subset of a graph, indexed by rank among its members.

    The scheduler works on windows of a few dozen nodes inside graphs
    whose ids run into the thousands, so its scratch is sized by the
    subset, never by {!Graph.id_bound}.  Member [i] is the [i]-th
    smallest id; edges inside the subset are stored once, in
    compressed-row arrays of local indices, filled by one pass over the
    members' operands and consumers. *)

open Magis_ir
module Int_set = Util.Int_set

type t = {
  ids : int array;
  pred_start : int array;
  preds : int array;
  succ_start : int array;
  succs : int array;
  pinned : bool array;
  escapes : bool array;  (** has a consumer outside the subset *)
}

let size t = Array.length t.ids
let id t i = t.ids.(i)

let index t v = Graph_index.local_of t.ids v
let n_preds t i = t.pred_start.(i + 1) - t.pred_start.(i)
let n_succs t i = t.succ_start.(i + 1) - t.succ_start.(i)

let iter_preds f t i =
  for k = t.pred_start.(i) to t.pred_start.(i + 1) - 1 do
    f t.preds.(k)
  done

let iter_succs f t i =
  for k = t.succ_start.(i) to t.succ_start.(i + 1) - 1 do
    f t.succs.(k)
  done

let pinned t i = t.pinned.(i)
let closed t i = not (t.pinned.(i) || t.escapes.(i))

let to_set t (locals : int array) : Int_set.t =
  Int_set.of_list (Array.fold_right (fun i acc -> t.ids.(i) :: acc) locals [])

(* Compressed-row edge arrays, filled member by member: [push] appends
   an edge of the current member, [close i] ends member [i]'s row.
   They grow by doubling; most nodes have one to three of each. *)
type rows = { start : int array; mutable edges : int array; mutable n : int }

let rows m =
  { start = Array.make (m + 1) 0; edges = Array.make (2 * m) 0; n = 0 }

let push r x =
  if r.n = Array.length r.edges then begin
    let a = Array.make ((2 * r.n) + 1) 0 in
    Array.blit r.edges 0 a 0 r.n;
    r.edges <- a
  end;
  r.edges.(r.n) <- x;
  r.n <- r.n + 1

let close r i = r.start.(i + 1) <- r.n

let sub t (block : int array) : t =
  let m = Array.length block in
  let p = rows m and s = rows m in
  let escapes = Array.make m false in
  Array.iteri
    (fun j i ->
      iter_preds
        (fun u ->
          let k = Graph_index.local_of block u in
          if k >= 0 then push p k)
        t i;
      close p j;
      iter_succs
        (fun c ->
          let k = Graph_index.local_of block c in
          if k >= 0 then push s k else escapes.(j) <- true)
        t i;
      close s j;
      if t.escapes.(i) then escapes.(j) <- true)
    block;
  { ids = Array.map (fun i -> t.ids.(i)) block; pred_start = p.start;
    preds = p.edges; succ_start = s.start; succs = s.edges;
    pinned = Array.map (fun i -> t.pinned.(i)) block; escapes }

let of_set (g : Graph.t) (members : Int_set.t) : t =
  let ids = Array.of_list (Int_set.elements members) in
  let m = Array.length ids in
  let p = rows m and s = rows m in
  let pinned = Array.make m false and escapes = Array.make m false in
  for i = 0 to m - 1 do
    let node = Graph.node g ids.(i) in
    let consumers = Graph.succ_set g ids.(i) in
    pinned.(i) <-
      Magis_cost.Lifetime.pinned_by node.op ~consumed:(not (Int_set.is_empty consumers));
    (* distinct member operands: an operand array is a handful of
       slots, so the duplicate test rescans this node's entries *)
    Array.iter
      (fun v ->
        let u = Graph_index.local_of ids v in
        if u >= 0 then begin
          let dup = ref false in
          for k = p.start.(i) to p.n - 1 do
            if p.edges.(k) = u then dup := true
          done;
          if not !dup then push p u
        end)
      node.inputs;
    close p i;
    Int_set.iter
      (fun c ->
        let k = Graph_index.local_of ids c in
        if k >= 0 then push s k else escapes.(i) <- true)
      consumers;
    close s i
  done;
  { ids; pred_start = p.start; preds = p.edges; succ_start = s.start;
    succs = s.edges; pinned; escapes }
