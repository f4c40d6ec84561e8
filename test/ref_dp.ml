(** The peak-memory DP of {!Reorder.dp_schedule} as it stood before it
    moved onto the greedy scheduler's member table: a uniform-cost search
    over [Int_set] executed sets keyed by a [Map.Make (Int_set)], whose
    ready sets and freed bytes walk the graph's persistent maps
    ([Graph.pre], [Graph.suc], [Graph.succ_set]).  It lives only here, as
    the oracle [ref_dp_schedule]; the code below is the old code as it
    was, with only the entry point renamed. *)

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
let ref_dp_schedule ?(max_states = 20_000) ~size_of (g : Graph.t)
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
