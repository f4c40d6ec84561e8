(** Chain (stage) analysis of training graphs, the substrate for the
    POFO- and XLA-style baselines.

    A training graph splits into a *forward* part (not reachable from the
    gradient seed) and a *backward* part.  The forward part is chainified
    at its narrow waists; for each stage we record its compute cost and
    the bytes of activations it produces that the backward pass consumes
    (the tensors a rematerialization policy can trade). *)

open Magis_ir
open Magis_cost
module Int_set = Util.Int_set

type stage = {
  members : Int_set.t;  (** forward nodes of this stage *)
  cost : float;  (** compute seconds of the stage *)
  saved_bytes : int;  (** activations consumed by the backward pass *)
}

type t = {
  stages : stage list;
  forward : Int_set.t;
  backward : Int_set.t;
  resident_bytes : int;  (** weights + other always-resident tensors *)
  output_bytes : int;  (** graph outputs (gradients): pinned to the end *)
  fwd_compute : float;  (** compute seconds of the forward pass *)
  bwd_compute : float;  (** compute seconds of the backward pass *)
}

(** Backward part: descendants of label-kind inputs (the gradient seed is
    a label input).  Everything else is forward. *)
let split (g : Graph.t) : Int_set.t * Int_set.t =
  let seeds =
    Graph.fold
      (fun n acc ->
        match n.op with Op.Input Op.Label -> n.id :: acc | _ -> acc)
      g []
  in
  let backward =
    List.fold_left
      (fun acc s -> Int_set.union acc (Int_set.add s (Graph.des g s)))
      Int_set.empty seeds
  in
  let all = Int_set.of_list (Graph.node_ids g) in
  (Int_set.diff all backward, backward)

let analyze ?(max_crossing = 3) (cost : Op_cost.t) (g : Graph.t) : t =
  let forward, backward = split g in
  let blocks = Magis_sched.Partition.partition ~max_crossing g forward in
  let stages =
    List.map
      (fun members ->
        let cost =
          Int_set.fold
            (fun v acc -> acc +. Op_cost.node_cost cost g v)
            members 0.0
        in
        let saved_bytes =
          Int_set.fold
            (fun v acc ->
              let consumed_by_backward =
                List.exists
                  (fun s -> Int_set.mem s backward)
                  (Graph.suc g v)
              in
              if consumed_by_backward && not (Op.is_weight (Graph.op g v))
              then acc + Shape.size_bytes (Graph.shape g v)
              else acc)
            members 0
        in
        { members; cost; saved_bytes })
      blocks
  in
  let compute_of set =
    Int_set.fold (fun v acc -> acc +. Op_cost.node_cost cost g v) set 0.0
  in
  let output_bytes =
    List.fold_left
      (fun acc v ->
        if Op.is_input (Graph.op g v) then acc
        else acc + Shape.size_bytes (Graph.shape g v))
      0 (Graph.outputs g)
  in
  {
    stages;
    forward;
    backward;
    resident_bytes = Graph.weight_bytes g;
    output_bytes;
    fwd_compute = compute_of forward;
    bwd_compute = compute_of backward;
  }

let n_stages t = List.length t.stages
let total_saved t = Util.sum_by (fun s -> s.saved_bytes) t.stages
let total_cost t = Util.sum_by_f (fun s -> s.cost) t.stages

(** Individual saved activations: (bytes, recompute cost) for every
    forward tensor the backward pass consumes — the tensor-granular view
    used by the greedy XLA baseline.  Greedy rematerialization re-computes
    a discarded tensor once per backward use (no sharing across uses), so
    the cost carries the backward-consumer count. *)
let saved_tensors (cost : Op_cost.t) (g : Graph.t) (t : t) :
    (int * float * int) list =
  (* stage_saved of the tensor's stage: rematerializing any of a stage's
     activations transiently re-materializes its neighbours, so the
     stage's saved bytes bound the backward re-peak *)
  let stage_of = Hashtbl.create 64 in
  List.iter
    (fun (st : stage) ->
      Int_set.iter (fun v -> Hashtbl.replace stage_of v st.saved_bytes) st.members)
    t.stages;
  Int_set.fold
    (fun v acc ->
      let backward_uses =
        List.length
          (List.filter (fun s -> Int_set.mem s t.backward) (Graph.suc g v))
      in
      if
        backward_uses > 0
        && (not (Op.is_weight (Graph.op g v)))
        && not (Op.is_input (Graph.op g v))
      then
        ( Shape.size_bytes (Graph.shape g v),
          float_of_int backward_uses *. Op_cost.node_cost cost g v,
          match Hashtbl.find_opt stage_of v with
          | Some s -> s
          | None -> Shape.size_bytes (Graph.shape g v) )
        :: acc
      else acc)
    t.forward []
