(** DTR baseline (Kirisame et al., ICLR'21): Dynamic Tensor
    Rematerialization, simulated as the runtime it is.

    The training graph executes in program order against a device with a
    hard memory [budget].  When an allocation does not fit, the runtime
    evicts the resident (non-pinned) tensor with the smallest DTR
    heuristic value [h(t) = recompute_cost(t) / (size(t) · staleness(t))];
    an evicted tensor needed later is recomputed on demand, recursively
    recomputing its evicted operands.  Latency is the sum of all operator
    executions, including recomputations.  Runs whose recomputation count
    explodes are reported as failures — the behaviour the paper hits on
    U-Net++/GPT-Neo/BTLM at the 40% limit. *)

open Magis_ir
open Magis_cost
module Int_set = Util.Int_set

type tensor_state = { mutable resident : bool; mutable last_access : int }

let run ?(thrash_factor = 25) (cost : Op_cost.t) (g : Graph.t)
    ~(budget : int) : Outcome.t =
  let order =
    Array.of_list
      (Magis_analysis.Hooks.schedule ~what:"DTR baseline" g
         (Graph.topo_order g))
  in
  let n = Array.length order in
  let states = Hashtbl.create n in
  let state v =
    match Hashtbl.find_opt states v with
    | Some s -> s
    | None ->
        let s = { resident = false; last_access = 0 } in
        Hashtbl.replace states v s;
        s
  in
  let size v = Lifetime.default_size g v in
  let used = ref 0 in
  let clock = ref 0 in
  let latency = ref 0.0 in
  let recomputes = ref 0 in
  let max_recomputes = thrash_factor * n in
  let exception Oom in
  let exception Thrash in
  (* remaining-use counts for basic free-when-dead *)
  let remaining = Hashtbl.create n in
  Array.iter
    (fun v -> Hashtbl.replace remaining v (Graph.out_degree g v))
    order;
  let free v =
    let s = state v in
    if s.resident then begin
      s.resident <- false;
      used := !used - size v
    end
  in
  let evict_one ~protect =
    (* smallest h = cost / (size * staleness) evicted first *)
    let best = ref None in
    Hashtbl.iter
      (fun v s ->
        if
          s.resident
          && (not (Int_set.mem v protect))
          && (not (Lifetime.pinned g v))
          && size v > 0
        then begin
          let cost = Op_cost.node_cost cost g v +. 1e-9 in
          let staleness = float_of_int (!clock - s.last_access + 1) in
          let h = cost /. (float_of_int (size v) *. staleness) in
          match !best with
          | Some (hb, _) when hb <= h -> ()
          | _ -> best := Some (h, v)
        end)
      states;
    match !best with
    | Some (_, v) ->
        free v;
        true
    | None -> false
  in
  let allocate v ~protect =
    let sz = size v in
    let guard = ref 0 in
    while !used + sz > budget do
      incr guard;
      if !guard > Hashtbl.length states + 1 || not (evict_one ~protect) then
        raise Oom
    done;
    let s = state v in
    if not s.resident then begin
      s.resident <- true;
      used := !used + sz
    end
  in
  (* execute v, recursively materializing evicted operands *)
  let rec materialize v ~protect =
    let s = state v in
    s.last_access <- !clock;
    if not s.resident then begin
      incr recomputes;
      if !recomputes > max_recomputes then raise Thrash;
      let protect = Int_set.add v protect in
      List.iter (fun u -> materialize u ~protect) (Graph.pre g v);
      latency := !latency +. Op_cost.node_cost cost g v;
      allocate v ~protect:(List.fold_left (fun a u -> Int_set.add u a) protect (Graph.pre g v))
    end
  in
  try
    Array.iter
      (fun v ->
        incr clock;
        let preds = Graph.pre g v in
        let protect = Int_set.of_list (v :: preds) in
        List.iter (fun u -> materialize u ~protect) preds;
        latency := !latency +. Op_cost.node_cost cost g v;
        allocate v ~protect;
        (state v).last_access <- !clock;
        (* basic free-when-dead *)
        List.iter
          (fun u ->
            let r = Hashtbl.find remaining u - 1 in
            Hashtbl.replace remaining u r;
            if r = 0 && not (Lifetime.pinned g u) then free u)
          preds)
      order;
    {
      Outcome.system = "DTR";
      peak_mem = min budget (Simulator.run cost g (Array.to_list order)).peak_mem;
      latency = !latency;
      feasible = true;
    }
  with Oom | Thrash -> Outcome.infeasible "DTR"
