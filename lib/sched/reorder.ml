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
    ([greedy_schedule]) for blocks whose DP exceeds the budget. *)

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

(** Fallback scheduler: at each step execute the ready node with the best
    (net memory delta, transient size) pair.

    Runs in O((V+E) log V): remaining-consumer counts decide when a tensor
    dies; ready nodes live in a priority map keyed by
    (size - potentially-freed bytes, size, id), and only the candidates
    whose operands were touched by the last execution get re-keyed. *)
let greedy_schedule ~size_of (g : Graph.t) (members : Int_set.t) : int list =
  let module Km = Map.Make (struct
    type t = int * int * int

    let compare = compare
  end) in
  (* remaining in-member consumers; a tensor with an out-of-member consumer
     or pinned never dies inside this block *)
  let remaining = Hashtbl.create 64 in
  let freeable = Hashtbl.create 64 in
  Int_set.iter
    (fun v ->
      let succs = Graph.succ_set g v in
      let in_members = Int_set.filter (fun s -> Int_set.mem s members) succs in
      Hashtbl.replace remaining v (Int_set.cardinal in_members);
      Hashtbl.replace freeable v
        (Int_set.cardinal in_members = Int_set.cardinal succs
        && not (Magis_cost.Lifetime.pinned g v)))
    members;
  let in_member_preds v =
    List.filter (fun u -> Int_set.mem u members) (Graph.pre g v)
  in
  let missing = Hashtbl.create 64 in
  Int_set.iter
    (fun v -> Hashtbl.replace missing v (List.length (in_member_preds v)))
    members;
  (* net bytes freed if v ran now *)
  let potential_freed v =
    let from_preds =
      List.fold_left
        (fun acc u ->
          if Hashtbl.find remaining u = 1 && Hashtbl.find freeable u then
            acc + size_of u
          else acc)
        0
        (List.sort_uniq compare (in_member_preds v))
    in
    if Hashtbl.find remaining v = 0 && Hashtbl.find freeable v then
      from_preds + size_of v
    else from_preds
  in
  let key v = (size_of v - potential_freed v, size_of v, v) in
  let current_key = Hashtbl.create 64 in
  let q = ref Km.empty in
  let enqueue v =
    let k = key v in
    (match Hashtbl.find_opt current_key v with
    | Some old -> q := Km.remove old !q
    | None -> ());
    Hashtbl.replace current_key v k;
    q := Km.add k v !q
  in
  Int_set.iter
    (fun v -> if Hashtbl.find missing v = 0 then enqueue v)
    members;
  let acc = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match Km.min_binding_opt !q with
    | None -> continue_ := false
    | Some (k, v) ->
        q := Km.remove k !q;
        Hashtbl.remove current_key v;
        acc := v :: !acc;
        (* consume operands *)
        let touched = ref [] in
        List.iter
          (fun u ->
            let r = Hashtbl.find remaining u - 1 in
            Hashtbl.replace remaining u r;
            if r = 1 then
              (* u's last consumer becomes the one that frees it: re-key
                 u's remaining ready consumer *)
              Int_set.iter
                (fun c ->
                  if Hashtbl.mem current_key c then touched := c :: !touched)
                (Graph.succ_set g u))
          (List.sort_uniq compare (in_member_preds v));
        (* release newly ready successors *)
        List.iter
          (fun s ->
            if Int_set.mem s members then begin
              let m = Hashtbl.find missing s - 1 in
              Hashtbl.replace missing s m;
              if m = 0 then enqueue s
            end)
          (Graph.suc g v);
        List.iter (fun c -> if Hashtbl.mem current_key c then enqueue c) !touched
  done;
  List.rev !acc

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

(** Schedule one block: DP if it fits the budget ([max_states = 0] skips
    the DP entirely), greedy otherwise. *)
let schedule_block ?(max_states = 20_000) ~size_of g block =
  if max_states <= 0 then greedy_schedule ~size_of g block
  else
    match dp_schedule ~max_states ~size_of g block with
    | Some order -> order
    | None -> greedy_schedule ~size_of g block

(** Schedule a node subset: narrow-waist partition, then per-block DP with
    greedy fallback, concatenated in dependency order. *)
let schedule_members ?(max_states = 20_000) ~size_of (g : Graph.t)
    (members : Int_set.t) : int list =
  let blocks = Partition.partition g members in
  List.concat_map (fun b -> schedule_block ~max_states ~size_of g b) blocks

(** Schedule the whole graph. *)
let schedule ?(max_states = 20_000) ?size_of (g : Graph.t) : int list =
  let size_of =
    match size_of with
    | Some f -> f
    | None -> fun v -> Magis_cost.Lifetime.default_size g v
  in
  let members = Int_set.of_list (Graph.node_ids g) in
  let order = schedule_members ~max_states ~size_of g members in
  assert (Graph.is_valid_order g order);
  order
