(** Incremental scheduling (Algorithm 2 of the paper).

    After a transformation turns a parent graph into [new_graph] by
    rewriting the nodes [mutated_old], only a window of the parent's
    schedule around the rewritten region needs rescheduling.
    [GetRescheduleInterval] widens the window until it hits good cut
    points — nodes with small narrow-waist values — using the paper's
    empirical thresholds (l < 20, nw < 4, n̂ > 10).  The nodes of the new
    graph that are not in the kept prefix/suffix are re-scheduled with
    the partitioned DP scheduler and spliced back in.

    Everything read from the parent (its schedule, the id → position
    array and the narrow-waist table) is a {!parent} value built once
    and shared by all of the parent's children. *)

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

let get_reschedule_interval ~(nw : int array) (psi : int array)
    (positions : int list) : int * int =
  let lo = List.fold_left min max_int positions in
  let hi = List.fold_left max min_int positions in
  let beg = extend_bound ~nw psi lo (-1) in
  let end_ = extend_bound ~nw psi hi 1 in
  (beg, end_ + 1)

type parent = {
  schedule : int array;
  position : int array;
  nw : int array;
  nodes : Graph.node array;
}

let positions (ix : Graph_index.t) (schedule : int list) : int array =
  let position = Array.make (Graph_index.bound ix) (-1) in
  List.iteri
    (fun i v -> if v >= 0 && v < Array.length position then position.(v) <- i)
    schedule;
  position

let parent ?position (ix : Graph_index.t) (schedule : int list) : parent =
  let position =
    match position with Some p -> p | None -> positions ix schedule
  in
  { schedule = Array.of_list schedule; position; nw = Partition.nw_on ix;
    nodes = Graph_index.nodes ix }

(* the ids whose mark satisfies [p], increasing *)
let marked mark p =
  let n = ref 0 in
  Bytes.iter (fun b -> if p b then incr n) mark;
  let ids = Array.make !n 0 and k = ref 0 in
  Bytes.iteri
    (fun v b ->
      if p b then begin
        ids.(!k) <- v;
        incr k
      end)
    mark;
  ids

(* Marks, one byte per id of the new graph: a node starts at [fresh];
   the splice moves it to [in_prefix] or [in_suffix] when it is kept,
   and a window node to [placed] once the middle places it. *)
let fresh = '\001' and in_prefix = '\002' and in_suffix = '\003' and placed = '\004'

let splice ~max_states ~(parent : parent) ~(new_index : Graph_index.t)
    ~(mutated_old : Int_set.t) ~size_of () =
  let mark =
    Bytes.init (Graph_index.bound new_index) (fun v ->
        if Graph_index.mem new_index v then fresh else '\000')
  in
  let psi = parent.schedule and position = parent.position in
  let nodes = Graph_index.nodes new_index in
  (* ids off the schedule (or outside the parent graph) have no position *)
  let positions =
    Int_set.fold
      (fun v acc ->
        if v >= 0 && v < Array.length position && position.(v) >= 0 then
          position.(v) :: acc
        else acc)
      mutated_old []
  in
  if positions = [] then None
  else
    let beg, end_ = get_reschedule_interval ~nw:parent.nw psi positions in
    (* the kept nodes of [lo, hi) in the parent's order, marked [m]; the
       ones whose record is not the parent's go on [changed] *)
    let changed = ref [] in
    let keep lo hi m =
      let acc = ref [] in
      for i = hi - 1 downto lo do
        let v = psi.(i) in
        if v >= 0 && v < Bytes.length mark && Bytes.get mark v = fresh then begin
          Bytes.set mark v m;
          if nodes.(v) != parent.nodes.(v) then changed := v :: !changed;
          acc := v :: !acc
        end
      done;
      !acc
    in
    let prefix = keep 0 beg in_prefix and suffix = keep end_ (Array.length psi) in_suffix in
    let window = marked mark (fun b -> b = fresh) in
    let middle = Reorder.schedule_members ~max_states ~size_of new_index window in
    (* The marks place every node once, and a kept node whose record is
       the parent's reads what it read there, in the parent's order.  So
       the splice can break only at the operands of a window node or of
       a changed kept node.  The middle is checked while it is placed:
       each of its nodes is an unplaced window node whose operands are
       in the prefix or already placed. *)
    let n_placed = ref 0 in
    let middle_ok =
      List.for_all
        (fun v ->
          v >= 0 && v < Bytes.length mark && Bytes.get mark v = fresh
          && Array.for_all
               (fun p -> let m = Bytes.get mark p in m = in_prefix || m = placed)
               nodes.(v).inputs
          && (Bytes.set mark v placed; incr n_placed; true))
        middle
      && !n_placed = Array.length window
    in
    (* operand [p] of a changed kept node [v]: kept on [v]'s side of the
       window, earlier in the parent's order, or, for a suffix node, any
       node before the suffix *)
    let before p v =
      let m = Bytes.get mark p and m' = Bytes.get mark v in
      if m = m' then position.(p) < position.(v) else m' = in_suffix && m <> '\000'
    in
    let ok =
      middle_ok
      && List.for_all (fun v -> Array.for_all (fun p -> before p v) nodes.(v).inputs) !changed
    in
    Some
      ( prefix @ middle @ suffix,
        { interval = (beg, end_); rescheduled = Array.length window; fallback = false },
        ok )

let reschedule ~max_states ~(parent : parent)
    ~(new_index : Graph_index.t) ~(mutated_old : Int_set.t) ~size_of () :
    int list * stats =
  (* [attempted] preserves the window the splice tried before failing, so
     callers can still see where the rewrite landed instead of the
     meaningless whole-schedule interval the fallback used to report. *)
  let full ?attempted () =
    let all = Array.of_list (Graph.node_ids (Graph_index.graph new_index)) in
    let order = Reorder.schedule_members ~max_states ~size_of new_index all in
    let interval =
      match attempted with Some w -> w | None -> (0, List.length order)
    in
    (order, { interval; rescheduled = List.length order; fallback = true })
  in
  match splice ~max_states ~parent ~new_index ~mutated_old ~size_of () with
  | Some (order, stats, true) -> (order, stats)
  | Some (_, stats, false) -> full ~attempted:stats.interval ()
  | None -> full ()
