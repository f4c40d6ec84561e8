(** Memory-aware re-ordering.

    [dp_schedule] is the dynamic-programming scheduler of Serenity (Ahn et
    al., MLSys'20) that the paper uses as its [DpSchedule] primitive: a
    uniform-cost search over "executed set" states whose path cost is the
    peak memory so far.  Because the live set (and hence the current
    memory) is a function of the executed set alone, a state is expanded
    only with the best peak that reaches it, and the first completed
    state is memory-optimal.

    The state space is exponential in the antichain width, so the search
    carries a state budget; [schedule] first cuts the problem at narrow
    waists ({!Partition}) and falls back to a memory-greedy list scheduler
    ([greedy_schedule]) for blocks whose DP exceeds the budget.

    Both schedulers work on arrays indexed by the members ({!Members}:
    rank among the sorted ids), never by {!Graph.id_bound}.
    [schedule_members] reads the members into one table from the
    candidate's index; partitioning gives each member a block number,
    and one scratch, allocated once, serves every block: the DP runs on
    a block's in-block edges with its executed sets as bitsets over the
    block's members, and the greedy, which the search runs on every
    candidate (its default DP budget is 0), keeps the ready members in a
    binary min-heap with a position index, ordered by an int-only
    comparison of (net memory delta, size, id). *)

open Magis_ir
module Int_set = Util.Int_set

(* ------------------------------------------------------------------ *)
(* Memory-greedy list scheduling                                      *)
(* ------------------------------------------------------------------ *)

(* Scratch of the greedy scheduler over one member table cut into
   blocks, allocated once per table.  Per member: its size, its member
   consumers and operands still to run inside its own block, whether
   its tensor can die inside its block ([closed]: not pinned, no
   consumer outside the members or in another block) and its current
   key's net delta; a binary min-heap of ready members with a position
   index ([slot], [-1] off the heap), each member's position in its
   block (the DP's bit), and the output. *)
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
  pos : int array;
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
    slot = Array.make m (-1); len = 0; pos = Array.make m 0; out = Array.make m 0;
    placed = 0 }

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

(* [members] as the one block of a table read from a fresh index of
   [g], and the block's members *)
let one_block ~size_of (g : Graph.t) (members : Int_set.t) =
  let ms =
    Members.of_index (Graph_index.of_graph g)
      (Array.of_list (Int_set.elements members))
  in
  let m = Members.size ms in
  (greedy_scratch ~size_of ms (Array.make m 0), Array.init m Fun.id)

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
  let sc, all = one_block ~size_of g members in
  greedy_block sc all 0 (Array.length all);
  output sc

(* ------------------------------------------------------------------ *)
(* DP (uniform-cost search on peak memory)                            *)
(* ------------------------------------------------------------------ *)

(* A state of one block's search: its executed members as a bitset
   over their positions in the block, how many they are, the bytes
   live inside the block, and the order so far, newest first. *)
type state = { ran : string; count : int; mem : int; order_rev : int list }

let has ran p =
  Char.code (String.unsafe_get ran (p lsr 3)) land (1 lsl (p land 7)) <> 0

let with_bit ran p =
  let b = Bytes.of_string ran in
  Bytes.set b (p lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.get b (p lsr 3)) lor (1 lsl (p land 7))));
  Bytes.unsafe_to_string b

(* the best peak each executed set was expanded with *)
module Seen = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Bucket_queue = struct
  (* min-priority queue keyed by peak memory, LIFO within a bucket *)
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

(* Memory-optimal order of the block whose members are [members.(lo)]
   to [members.(hi - 1)], emitted into [g] (true), or nothing emitted
   once more than [max_states] states are popped (false).  Reads only
   the edges inside the block: a member is ready when each operand of
   its block has run, and running [i] frees each [closed] operand
   whose last consumer it is, and [i] itself when it is [closed] with
   no consumer; an operand in another block is never [closed]. *)
let dp_block ~max_states g (members : int array) lo hi : bool =
  let n = hi - lo and ms = g.ms and pos = g.pos and block_of = g.block_of in
  for p = 0 to n - 1 do
    pos.(members.(lo + p)) <- p
  done;
  let ready ran i =
    let ok = ref (not (has ran pos.(i))) and k = ref ms.pred_start.(i) in
    while !ok && !k < ms.pred_start.(i + 1) do
      let u = ms.preds.(!k) in
      ok := block_of.(u) <> block_of.(i) || has ran pos.(u);
      incr k
    done;
    !ok
  in
  (* a closed tensor's consumers all lie in its block *)
  let last ran i u =
    let ok = ref g.closed.(u) and k = ref ms.succ_start.(u) in
    while !ok && !k < ms.succ_start.(u + 1) do
      let c = ms.succs.(!k) in
      ok := c = i || has ran pos.(c);
      incr k
    done;
    !ok
  in
  let freed ran i =
    let f =
      ref (if g.closed.(i) && ms.succ_start.(i) = ms.succ_start.(i + 1) then g.size.(i) else 0)
    in
    for k = ms.pred_start.(i) to ms.pred_start.(i + 1) - 1 do
      let u = ms.preds.(k) in
      if last ran i u then f := !f + g.size.(u)
    done;
    !f
  in
  let best = Seen.create 64 in
  let dominated ran peak =
    match Seen.find_opt best ran with Some p -> p <= peak | None -> false
  in
  let rec search q pops =
    match Bucket_queue.pop q with
    | None -> None
    | Some _ when pops >= max_states -> None
    | Some (peak, st, q) -> (
        match Seen.find_opt best st.ran with
        | Some p when p < peak -> search q (pops + 1)
        | _ ->
            Seen.replace best st.ran peak;
            if st.count = n then Some st.order_rev
            else
              (* ready members by increasing position, which is id order *)
              let q = ref q in
              for p = 0 to n - 1 do
                let i = members.(lo + p) in
                if ready st.ran i then begin
                  let transient = st.mem + g.size.(i) in
                  let ran = with_bit st.ran p and peak' = max peak transient in
                  if not (dominated ran peak') then
                    q :=
                      Bucket_queue.push peak'
                        { ran; count = st.count + 1; mem = transient - freed st.ran i;
                          order_rev = ms.ids.(i) :: st.order_rev }
                        !q
                end
              done;
              search !q (pops + 1))
  in
  let start =
    { ran = String.make ((n + 7) / 8) '\000'; count = 0; mem = 0; order_rev = [] }
  in
  match search (Bucket_queue.push 0 start Bucket_queue.empty) 0 with
  | None -> false
  | Some order_rev ->
      List.iter (emit g) (List.rev order_rev);
      true

(** Memory-optimal order of [members], or [None] if the search pops
    more than [max_states] states: one block of a table read from a
    fresh index of [g]. *)
let dp_schedule ~max_states ~size_of (g : Graph.t)
    (members : Int_set.t) : int list option =
  if Int_set.is_empty members then Some []
  else
    let sc, all = one_block ~size_of g members in
    if dp_block ~max_states sc all 0 (Array.length all) then Some (output sc)
    else None

(* ------------------------------------------------------------------ *)
(* Full scheduling: partition, DP per block, fallback                 *)
(* ------------------------------------------------------------------ *)

(** Schedule a node subset of the indexed graph: narrow-waist
    partition along the index's topological order, then per-block DP
    ([max_states = 0] skips it) with greedy fallback, concatenated in
    dependency order.  The members are read into one table; the blocks
    are a block number per member, and one scratch serves the DP and the
    greedy of every block. *)
let schedule_members ~max_states ~size_of (ix : Graph_index.t)
    (ids : int array) : int list =
  let ms = Members.of_index ix ids in
  let b = Partition.blocks ms in
  let sc = greedy_scratch ~size_of ms b.block_of in
  for k = 0 to Partition.n_blocks b - 1 do
    let lo = b.start.(k) and hi = b.start.(k + 1) in
    if not (max_states > 0 && dp_block ~max_states sc b.members lo hi) then
      greedy_block sc b.members lo hi
  done;
  output sc

(** Schedule the whole indexed graph, sized by its node records
    ({!Magis_cost.Lifetime.node_size}) unless [size_of] is given. *)
let schedule_on ~max_states ?size_of (ix : Graph_index.t) : int list =
  let size_of =
    match size_of with
    | Some f -> f
    | None -> fun v -> Magis_cost.Lifetime.node_size (Graph_index.node ix v)
  in
  let ids = Array.copy (Graph_index.order ix) in
  Array.sort Int.compare ids;
  let order = schedule_members ~max_states ~size_of ix ids in
  assert (Graph_index.is_valid_order ix order);
  order

let schedule ~max_states ?size_of (g : Graph.t) : int list =
  schedule_on ~max_states ?size_of (Graph_index.of_graph g)
