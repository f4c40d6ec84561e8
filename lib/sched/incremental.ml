(** Incremental scheduling (Algorithm 2 of the paper).

    After a transformation turns [old_graph] into [new_graph] by rewriting
    the nodes [mutated_old], only a window of the old schedule around the
    rewritten region needs rescheduling.  [GetRescheduleInterval] widens
    the window until it hits good cut points — nodes with small
    narrow-waist values — using the paper's empirical thresholds
    (l < 20, nw < 4, n̂ > 10).  The nodes of the new graph that are not in
    the kept prefix/suffix are re-scheduled with the partitioned DP
    scheduler and spliced back in. *)

open Magis_ir
module Int_set = Util.Int_set

type stats = {
  interval : int * int;  (** [beg, end) window in the old schedule *)
  rescheduled : int;  (** number of nodes actually rescheduled *)
  fallback : bool;  (** the splice failed and the whole graph was rescheduled *)
}

let extend_bound ~(nw : int array) (psi : int array) (i : int) (d : int) : int =
  let n = Array.length psi in
  let clamp i = max 0 (min (n - 1) i) in
  let rec go i n_hat l =
    if i < 0 then 0
    else if i >= n then n - 1
    else
      let w = nw.(psi.(i)) in
      if l < 20 && (n_hat > 10 || w < 4) && w < n_hat then
        go (i + d) w (l + 1)
      else i
  in
  clamp (go i max_int 0)

let get_reschedule_interval (g : Graph.t) (psi : int array)
    (positions : int list) : int * int =
  let nw = Partition.nw_table g psi in
  let lo = List.fold_left min max_int positions in
  let hi = List.fold_left max min_int positions in
  let beg = extend_bound ~nw psi lo (-1) in
  let end_ = extend_bound ~nw psi hi 1 in
  (beg, end_ + 1)

(** [reschedule ~old_graph ~new_graph ~old_schedule ~mutated_old ~size_of]
    computes a schedule for [new_graph], reusing the parts of
    [old_schedule] outside the rewritten window.  [mutated_old] are the
    nodes of [old_graph] removed or structurally affected by the
    transformation (for a pure F-Tree mutation, the fission region
    itself).  Falls back to full scheduling if splicing fails. *)
let reschedule ?(max_states = 20_000) ~(old_graph : Graph.t)
    ~(new_graph : Graph.t) ~(old_schedule : int list)
    ~(mutated_old : Int_set.t) ~size_of () : int list * stats =
  (* [attempted] preserves the window the splice tried before failing, so
     callers can still see where the rewrite landed instead of the
     meaningless whole-schedule interval the fallback used to report. *)
  let full ?attempted () =
    let order = Reorder.schedule ~max_states ~size_of new_graph in
    let interval =
      match attempted with Some w -> w | None -> (0, List.length order)
    in
    (order, { interval; rescheduled = List.length order; fallback = true })
  in
  let psi = Array.of_list old_schedule in
  let positions =
    List.mapi (fun i v -> (i, v)) old_schedule
    |> List.filter_map (fun (i, v) ->
           if Int_set.mem v mutated_old then Some i else None)
  in
  if positions = [] || Array.length psi = 0 then full ()
  else
    let beg, end_ = get_reschedule_interval old_graph psi positions in
    let keep v = Graph.mem new_graph v in
    let prefix =
      Array.to_list (Array.sub psi 0 beg) |> List.filter keep
    in
    let suffix =
      Array.to_list (Array.sub psi end_ (Array.length psi - end_))
      |> List.filter keep
    in
    let kept =
      Int_set.union (Int_set.of_list prefix) (Int_set.of_list suffix)
    in
    let s_new =
      List.filter
        (fun v -> not (Int_set.mem v kept))
        (Graph.node_ids new_graph)
      |> Int_set.of_list
    in
    let middle =
      Reorder.schedule_members ~max_states ~size_of new_graph s_new
    in
    let order = prefix @ middle @ suffix in
    if Graph.is_valid_order new_graph order then
      ( order,
        { interval = (beg, end_); rescheduled = Int_set.cardinal s_new;
          fallback = false } )
    else full ~attempted:(beg, end_) ()
