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
    members ({!Members}: rank among the sorted ids), never by
    {!Graph.id_bound}, and keeps the ready nodes in a binary min-heap
    with a position index, ordered by an int-only comparison of (net
    memory delta, size, id).  [schedule_members] reads the members into
    one table from the candidate's index; partitioning gives each member
    a block number, and one greedy pass, with scratch allocated once,
    visits the blocks in order and reads only the edges inside each. *)

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

(* Scratch of the greedy scheduler over one member table cut into
   blocks, allocated once per table.  Per member: its size, its member
   consumers and operands still to run inside its own block, whether
   its tensor can die inside its block ([closed]: not pinned, no
   consumer outside the members or in another block) and its current
   key's net delta; a binary min-heap of ready members with a position
   index ([slot], [-1] off the heap), and the output. *)
type greedy = {
  ms : Members.t;
  block_of : int array;
  size : int array;
  remaining : int array;
  missing : int array;
  closed : bool array;
  delta : int array;
  heap : int array;
  slot : int array;
  mutable len : int;
  out : int array;
  mutable placed : int;
}

let greedy_scratch ~size_of (ms : Members.t) (block_of : int array) : greedy =
  let m = Members.size ms in
  let remaining = Array.make m 0 and missing = Array.make m 0 in
  let closed = Array.make m false in
  for i = 0 to m - 1 do
    let b = block_of.(i) in
    let inside = ref 0 in
    for k = ms.succ_start.(i) to ms.succ_start.(i + 1) - 1 do
      let c = ms.succs.(k) in
      if block_of.(c) = b then begin
        incr inside;
        missing.(c) <- missing.(c) + 1
      end
    done;
    remaining.(i) <- !inside;
    closed.(i) <-
      (not (ms.pinned.(i) || ms.escapes.(i)))
      && !inside = ms.succ_start.(i + 1) - ms.succ_start.(i)
  done;
  { ms; block_of; size = Array.init m (fun i -> size_of ms.ids.(i)); remaining;
    missing; closed; delta = Array.make m 0; heap = Array.make m 0;
    slot = Array.make m (-1); len = 0; out = Array.make m 0; placed = 0 }

(* net bytes added if i ran now: an operand in another block is never
   closed, so only operands inside i's block are freed *)
let net g i =
  let ms = g.ms and remaining = g.remaining in
  let freed = ref 0 in
  for k = ms.pred_start.(i) to ms.pred_start.(i + 1) - 1 do
    let u = ms.preds.(k) in
    if remaining.(u) = 1 && g.closed.(u) then freed := !freed + g.size.(u)
  done;
  if remaining.(i) = 0 && g.closed.(i) then freed := !freed + g.size.(i);
  g.size.(i) - !freed

(* local index order is id order, so (delta, size, index) is the key *)
let less g i j =
  let di = g.delta.(i) and dj = g.delta.(j) in
  di < dj
  || di = dj
     && (g.size.(i) < g.size.(j) || (g.size.(i) = g.size.(j) && i < j))

let place g i k =
  g.heap.(k) <- i;
  g.slot.(i) <- k

let rec sift_up g i k =
  let parent = (k - 1) / 2 in
  if k > 0 && less g i g.heap.(parent) then begin
    place g g.heap.(parent) k;
    sift_up g i parent
  end
  else place g i k

let rec sift_down g i k =
  let l = (2 * k) + 1 in
  if l >= g.len then place g i k
  else
    let c = if l + 1 < g.len && less g g.heap.(l + 1) g.heap.(l) then l + 1 else l in
    if less g g.heap.(c) i then begin
      place g g.heap.(c) k;
      sift_down g i c
    end
    else place g i k

(* insert i, or move it to its recomputed key *)
let enqueue g i =
  g.delta.(i) <- net g i;
  let k = g.slot.(i) in
  if k < 0 then begin
    g.len <- g.len + 1;
    sift_up g i (g.len - 1)
  end
  else begin
    sift_up g i k;
    sift_down g i g.slot.(i)
  end

let pop g =
  let top = g.heap.(0) in
  g.slot.(top) <- -1;
  g.len <- g.len - 1;
  if g.len > 0 then sift_down g g.heap.(g.len) 0;
  top

let emit g v =
  g.out.(g.placed) <- v;
  g.placed <- g.placed + 1

(* Greedy-schedule the block whose members are [members.(lo)] to
   [members.(hi - 1)], reading only the edges inside it. *)
let greedy_block g (members : int array) lo hi =
  let ms = g.ms and block_of = g.block_of in
  for k = lo to hi - 1 do
    let i = members.(k) in
    if g.missing.(i) = 0 then enqueue g i
  done;
  while g.len > 0 do
    let i = pop g in
    emit g ms.ids.(i);
    let b = block_of.(i) in
    (* consume operands: the last remaining consumer of an operand is
       the one that frees it, so its ready consumers are re-keyed *)
    for k = ms.pred_start.(i) to ms.pred_start.(i + 1) - 1 do
      let u = ms.preds.(k) in
      if block_of.(u) = b then begin
        g.remaining.(u) <- g.remaining.(u) - 1;
        if g.remaining.(u) = 1 then
          for j = ms.succ_start.(u) to ms.succ_start.(u + 1) - 1 do
            let c = ms.succs.(j) in
            if g.slot.(c) >= 0 then enqueue g c
          done
      end
    done;
    (* release newly ready successors *)
    for k = ms.succ_start.(i) to ms.succ_start.(i + 1) - 1 do
      let s = ms.succs.(k) in
      if block_of.(s) = b then begin
        g.missing.(s) <- g.missing.(s) - 1;
        if g.missing.(s) = 0 then enqueue g s
      end
    done
  done

let output g =
  let acc = ref [] in
  for k = g.placed - 1 downto 0 do
    acc := g.out.(k) :: !acc
  done;
  !acc

(** Fallback scheduler: at each step execute the ready node with the
    smallest key (net memory delta, size, id), where the net delta is
    [size - potentially-freed bytes].

    Runs in O((V+E) log V) on arrays indexed by {!Members} rank (the
    sorted ids), so scratch scales with the members, not with
    {!Graph.id_bound}.  Remaining-consumer counts decide when a tensor
    dies.  Ready nodes sit in a binary min-heap with a position index,
    compared field by field on ints.  A ready node's key depends only on
    the remaining counts of its operands (its own cannot change before
    it runs), so after each step only the ready consumers of an operand
    whose count fell to one are re-keyed, and every queued key stays
    exact.  The members are one block of a table read from a fresh
    index of [g]. *)
let greedy_schedule ~size_of (g : Graph.t) (members : Int_set.t) : int list =
  let ms =
    Members.of_index (Graph_index.of_graph g)
      (Array.of_list (Int_set.elements members))
  in
  let m = Members.size ms in
  let sc = greedy_scratch ~size_of ms (Array.make m 0) in
  greedy_block sc (Array.init m Fun.id) 0 m;
  output sc

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
    dependency order.  The members are read into one table; the blocks
    are a block number per member, and one greedy scratch serves every
    block. *)
let schedule_members ?(max_states = 20_000) ~size_of (ix : Graph_index.t)
    (ids : int array) : int list =
  let ms = Members.of_index ix ids in
  let b = Partition.blocks ms in
  let sc = greedy_scratch ~size_of ms b.block_of in
  for k = 0 to Partition.n_blocks b - 1 do
    let lo = b.start.(k) and hi = b.start.(k + 1) in
    let dp =
      if max_states <= 0 then None
      else
        let set = ref Int_set.empty in
        for p = lo to hi - 1 do
          set := Int_set.add ms.ids.(b.members.(p)) !set
        done;
        dp_schedule ~max_states ~size_of (Graph_index.graph ix) !set
    in
    match dp with
    | Some order -> List.iter (emit sc) order
    | None -> greedy_block sc b.members lo hi
  done;
  output sc

(** Schedule the whole graph. *)
let schedule ?(max_states = 20_000) ?size_of (g : Graph.t) : int list =
  let size_of =
    match size_of with
    | Some f -> f
    | None -> fun v -> Magis_cost.Lifetime.default_size g v
  in
  let ix = Graph_index.of_graph g in
  let order =
    schedule_members ~max_states ~size_of ix (Array.of_list (Graph.node_ids g))
  in
  assert (Graph_index.is_valid_order ix order);
  order
