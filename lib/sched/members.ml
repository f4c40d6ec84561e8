(** The member table of a node subset of one indexed graph.

    The scheduler works on windows of a few dozen nodes inside graphs
    whose ids run into the thousands, so its scratch is sized by the
    subset, never by {!Graph_index.bound}.  Member [i] is the [i]-th
    smallest id.  Everything is read from the index's arrays in one
    pass over the members, with the id -> local lookup of
    {!Graph_index.with_locals}: each member's consumers from its row of
    the consumers by operand slot (adjacent repeats in a row are one
    consumer reading the member twice), its operands by inverting those
    rows, and the members' topological order by walking
    {!Graph_index.order}. *)

open Magis_ir

type t = {
  ids : int array;
  topo : int array;
  pred_start : int array;
  preds : int array;
  succ_start : int array;
  succs : int array;
  pinned : bool array;
  escapes : bool array;
}

let size t = Array.length t.ids

let of_index (ix : Graph_index.t) (ids : int array) : t =
  Array.iteri
    (fun k v ->
      if not (Graph_index.mem ix v && (k = 0 || ids.(k - 1) < v)) then
        invalid_arg "Members.of_index: ids are not increasing nodes of the graph")
    ids;
  let m = Array.length ids in
  let nodes = Graph_index.nodes ix in
  let { Graph_index.row; ids = readers } = Graph_index.csr ix in
  Graph_index.with_locals ix ids @@ fun local ->
  (* a member's member consumers are at most its row's slots *)
  let slots = Array.fold_left (fun acc v -> acc + row.(v + 1) - row.(v)) 0 ids in
  let succ_start = Array.make (m + 1) 0 and succs = Array.make slots 0 in
  (* [pred_start.(c)] counts member c's member operands, then, summed,
     ends c's row *)
  let pred_start = Array.make (m + 1) 0 in
  let pinned = Array.make m false and escapes = Array.make m false in
  let n = ref 0 in
  for i = 0 to m - 1 do
    let v = ids.(i) in
    let first = row.(v) and stop = row.(v + 1) in
    pinned.(i) <- Magis_cost.Lifetime.pinned_by nodes.(v).op ~consumed:(stop > first);
    for k = first to stop - 1 do
      let c = readers.(k) in
      (* a row is increasing, so a consumer's slots sit side by side *)
      if k = first || c <> readers.(k - 1) then begin
        let l = local.(c) in
        if l < 0 then escapes.(i) <- true
        else begin
          succs.(!n) <- l;
          incr n;
          pred_start.(l) <- pred_start.(l) + 1
        end
      end
    done;
    succ_start.(i + 1) <- !n
  done;
  for i = 1 to m do
    pred_start.(i) <- pred_start.(i) + pred_start.(i - 1)
  done;
  (* operands by inverting the consumer rows: filling each row from its
     end, producers by decreasing index, leaves it increasing and moves
     [pred_start.(c)] to the row's start *)
  let preds = Array.make !n 0 in
  for i = m - 1 downto 0 do
    for k = succ_start.(i) to succ_start.(i + 1) - 1 do
      let c = succs.(k) in
      pred_start.(c) <- pred_start.(c) - 1;
      preds.(pred_start.(c)) <- i
    done
  done;
  let topo = Array.make m 0 and r = ref 0 in
  Array.iter
    (fun v ->
      let l = local.(v) in
      if l >= 0 then begin
        topo.(!r) <- l;
        incr r
      end)
    (Graph_index.order ix);
  { ids; topo; pred_start; preds; succ_start; succs; pinned; escapes }
