(** Memory-aware re-ordering.

    [dp_schedule] is the dynamic-programming scheduler of Serenity (Ahn et
    al., MLSys'20) that the paper uses as its [DpSchedule] primitive: a
    uniform-cost search over "executed set" states whose path cost is the
    peak memory so far.  Because the live set (and hence the current
    memory) is a function of the executed set alone, each state is visited
    at most once with its best achievable peak, and the first completed
    state is memory-optimal.

    The state space is exponential in the antichain width, so the search
    carries a state budget; [schedule] first cuts the problem at narrow
    waists ({!Partition}) and falls back to a memory-greedy list scheduler
    ([greedy_schedule]) for blocks whose DP exceeds the budget.

    The greedy scheduler is the one the search runs on every candidate
    (its default DP budget is 0).  It works on arrays indexed by the
    block's members ({!Members}: rank among the sorted ids), never by
    {!Graph.id_bound}, and keeps the ready nodes in a binary min-heap
    with a position index, ordered by an int-only comparison of (net
    memory delta, size, id).  [schedule_members] indexes the members
    once; partitioning and every block's greedy pass read that index. *)

open Magis_ir
module Int_set = Util.Int_set
module Set_map = Map.Make (Int_set)

(** Bytes freed by executing [v] when [executed] already ran: operands (and
    [v] itself) whose consumers within [members] are now all executed and
    which have no consumer outside [members].  Operands outside [members]
    are never freed here (the enclosing block owns them). *)
let freed_by ~size_of (g : Graph.t) (members : Int_set.t)
    (executed : Int_set.t) (v : int) : int =
  let executed' = Int_set.add v executed in
  let dead u =
    Int_set.mem u members
    && (not (Magis_cost.Lifetime.pinned g u))
    && Int_set.for_all
         (fun c -> (not (Int_set.mem c members)) || Int_set.mem c executed')
         (Graph.succ_set g u)
    && Int_set.for_all (fun c -> Int_set.mem c members) (Graph.succ_set g u)
  in
  let preds = List.filter (fun u -> Int_set.mem u members) (Graph.pre g v) in
  let candidates = if dead v then v :: preds else preds in
  List.fold_left
    (fun acc u -> if u <> v && not (dead u) then acc else acc + size_of u)
    0
    (List.sort_uniq compare candidates)

let initial_ready (g : Graph.t) (members : Int_set.t) =
  Int_set.filter
    (fun v ->
      List.for_all
        (fun p -> not (Int_set.mem p members))
        (Graph.pre g v))
    members

let next_ready (g : Graph.t) (members : Int_set.t) (executed : Int_set.t)
    (ready : Int_set.t) (v : int) =
  let ready = Int_set.remove v ready in
  List.fold_left
    (fun r s ->
      if
        Int_set.mem s members
        && (not (Int_set.mem s executed))
        && List.for_all
             (fun p ->
               (not (Int_set.mem p members)) || Int_set.mem p executed)
             (Graph.pre g s)
      then Int_set.add s r
      else r)
    ready (Graph.suc g v)

(* ------------------------------------------------------------------ *)
(* Memory-greedy list scheduling                                      *)
(* ------------------------------------------------------------------ *)

(* [greedy_schedule] on an already indexed block *)
let greedy_members ~size_of (ms : Members.t) : int list =
  let m = Members.size ms in
  let size = Array.init m (fun i -> size_of (Members.id ms i)) in
  (* remaining member consumers; a tensor that is not [closed] never
     dies inside this block *)
  let remaining = Array.init m (Members.n_succs ms) in
  let missing = Array.init m (Members.n_preds ms) in
  (* net bytes added if i ran now *)
  let delta = Array.make m 0 in
  let net i =
    let freed = ref 0 in
    Members.iter_preds
      (fun u ->
        if remaining.(u) = 1 && Members.closed ms u then
          freed := !freed + size.(u))
      ms i;
    if remaining.(i) = 0 && Members.closed ms i then freed := !freed + size.(i);
    size.(i) - !freed
  in
  (* local index order is id order, so (delta, size, index) is the key *)
  let less i j =
    let di = delta.(i) and dj = delta.(j) in
    di < dj
    || di = dj
       && (size.(i) < size.(j) || (size.(i) = size.(j) && i < j))
  in
  let heap = Array.make m 0 and slot = Array.make m (-1) in
  let len = ref 0 in
  let place i k =
    heap.(k) <- i;
    slot.(i) <- k
  in
  let rec sift_up i k =
    let parent = (k - 1) / 2 in
    if k > 0 && less i heap.(parent) then begin
      place heap.(parent) k;
      sift_up i parent
    end
    else place i k
  in
  let rec sift_down i k =
    let l = (2 * k) + 1 in
    if l >= !len then place i k
    else
      let c = if l + 1 < !len && less heap.(l + 1) heap.(l) then l + 1 else l in
      if less heap.(c) i then begin
        place heap.(c) k;
        sift_down i c
      end
      else place i k
  in
  (* insert i, or move it to its recomputed key *)
  let enqueue i =
    delta.(i) <- net i;
    let k = slot.(i) in
    if k < 0 then begin
      incr len;
      sift_up i (!len - 1)
    end
    else begin
      sift_up i k;
      sift_down i slot.(i)
    end
  in
  let pop () =
    let top = heap.(0) in
    slot.(top) <- -1;
    decr len;
    if !len > 0 then sift_down heap.(!len) 0;
    top
  in
  for i = 0 to m - 1 do
    if missing.(i) = 0 then enqueue i
  done;
  let order = Array.make m 0 and placed = ref 0 in
  while !len > 0 do
    let i = pop () in
    order.(!placed) <- Members.id ms i;
    incr placed;
    (* consume operands: the last remaining consumer of an operand is
       the one that frees it, so its ready consumers are re-keyed *)
    Members.iter_preds
      (fun u ->
        remaining.(u) <- remaining.(u) - 1;
        if remaining.(u) = 1 then
          Members.iter_succs (fun c -> if slot.(c) >= 0 then enqueue c) ms u)
      ms i;
    (* release newly ready successors *)
    Members.iter_succs
      (fun s ->
        missing.(s) <- missing.(s) - 1;
        if missing.(s) = 0 then enqueue s)
      ms i
  done;
  Array.to_list (Array.sub order 0 !placed)

(** Fallback scheduler: at each step execute the ready node with the
    smallest key (net memory delta, size, id), where the net delta is
    [size - potentially-freed bytes].

    Runs in O((V+E) log V) on arrays indexed by {!Members} rank (the
    block's sorted ids), so scratch scales with the block, not with
    {!Graph.id_bound}; arrays above 256 words land on the major heap
    once per block.  Remaining-consumer counts decide when a tensor
    dies.  Ready nodes sit in a binary min-heap with a position index,
    compared field by field on ints.  A ready node's key depends only on
    the remaining counts of its operands (its own cannot change before
    it runs), so after each step only the ready consumers of an operand
    whose count fell to one are re-keyed, and every queued key stays
    exact. *)
let greedy_schedule ~size_of (g : Graph.t) (members : Int_set.t) : int list =
  greedy_members ~size_of (Members.of_set g members)

(* ------------------------------------------------------------------ *)
(* DP (uniform-cost search on peak memory)                            *)
(* ------------------------------------------------------------------ *)

type state = {
  executed : Int_set.t;
  ready : Int_set.t;
  mem : int;
  order_rev : int list;
}

module Bucket_queue = struct
  (* min-priority queue keyed by peak memory, FIFO within a bucket *)
  module M = Map.Make (Int)

  type 'a t = 'a list M.t

  let empty : 'a t = M.empty

  let push k v q =
    M.update k (function None -> Some [ v ] | Some l -> Some (v :: l)) q

  let pop (q : 'a t) : (int * 'a * 'a t) option =
    match M.min_binding_opt q with
    | None -> None
    | Some (k, [ v ]) -> Some (k, v, M.remove k q)
    | Some (k, v :: rest) -> Some (k, v, M.add k rest q)
    | Some (_, []) -> assert false
end

(** Memory-optimal order of [members], or [None] if the search exceeds
    [max_states] expansions. *)
let dp_schedule ?(max_states = 20_000) ~size_of (g : Graph.t)
    (members : Int_set.t) : int list option =
  let target = Int_set.cardinal members in
  if target = 0 then Some []
  else
    let start =
      {
        executed = Int_set.empty;
        ready = initial_ready g members;
        mem = 0;
        order_rev = [];
      }
    in
    let best = ref Set_map.empty in
    let q = ref (Bucket_queue.push 0 start Bucket_queue.empty) in
    let pops = ref 0 in
    let result = ref None in
    (try
       while !result = None do
         match Bucket_queue.pop !q with
         | None -> raise Exit
         | Some (peak, st, q') ->
             q := q';
             incr pops;
             if !pops > max_states then raise Exit;
             let seen =
               match Set_map.find_opt st.executed !best with
               | Some p -> p < peak
               | None -> false
             in
             if not seen then begin
               best := Set_map.add st.executed peak !best;
               if Int_set.cardinal st.executed = target then
                 result := Some (List.rev st.order_rev)
               else
                 Int_set.iter
                   (fun v ->
                     let transient = st.mem + size_of v in
                     let freed = freed_by ~size_of g members st.executed v in
                     let executed' = Int_set.add v st.executed in
                     let st' =
                       {
                         executed = executed';
                         ready = next_ready g members executed' st.ready v;
                         mem = transient - freed;
                         order_rev = v :: st.order_rev;
                       }
                     in
                     let peak' = max peak transient in
                     let dominated =
                       match Set_map.find_opt st'.executed !best with
                       | Some p -> p <= peak'
                       | None -> false
                     in
                     if not dominated then
                       q := Bucket_queue.push peak' st' !q)
                   st.ready
             end
       done
     with Exit -> ());
    !result

(* ------------------------------------------------------------------ *)
(* Full scheduling: partition, DP per block, fallback                 *)
(* ------------------------------------------------------------------ *)

(** Schedule a node subset of the indexed graph: narrow-waist
    partition along the index's topological order, then per-block DP
    ([max_states = 0] skips it) with greedy fallback, concatenated in
    dependency order.  The members are indexed once; each block is a
    {!Members.sub} of that index. *)
let schedule_members ?(max_states = 20_000) ~size_of (ix : Graph_index.t)
    (members : Int_set.t) : int list =
  let g = Graph_index.graph ix in
  let ms = Members.of_set g members in
  List.concat_map
    (fun block ->
      let greedy () = greedy_members ~size_of (Members.sub ms block) in
      if max_states <= 0 then greedy ()
      else
        match dp_schedule ~max_states ~size_of g (Members.to_set ms block) with
        | Some order -> order
        | None -> greedy ())
    (Partition.blocks ~topo:(Graph_index.order ix) ms)

(** Schedule the whole graph. *)
let schedule ?(max_states = 20_000) ?size_of (g : Graph.t) : int list =
  let size_of =
    match size_of with
    | Some f -> f
    | None -> fun v -> Magis_cost.Lifetime.default_size g v
  in
  let ix = Graph_index.of_graph g in
  let members = Int_set.of_list (Graph.node_ids g) in
  let order = schedule_members ~max_states ~size_of ix members in
  assert (Graph_index.is_valid_order ix order);
  order
