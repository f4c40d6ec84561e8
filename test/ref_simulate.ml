(** Candidate simulation as it stood before it moved onto one graph
    index per candidate: the simulator, the lifetime analysis and the
    virtual-fission accounting that read every node, operand shape and
    consumer set from the persistent maps of {!Graph}.  They live only
    here, as oracles for {!Simulator}, {!Lifetime} and
    {!Ftree.accounting} in [test_invariants.ml]; apart from module
    paths the code is unchanged.  The counter and fault site they pass
    are the library's own, so visit counts compare directly. *)

open Magis
module Int_map = Util.Int_map
module Int_set = Util.Int_set
module Metrics = Magis_obs.Metrics
module Trace = Magis_obs.Trace

module Lifetime = struct
  type t = {
    order : int array;
    pos : (int, int) Hashtbl.t;  (** node id -> schedule position *)
    birth : int array;  (** per position: step the output appears *)
    free : int array;  (** per position: last step the output is live *)
    mem : int array;  (** per step: active bytes *)
    peak : int;
    hotspots : Int_set.t;  (** node ids live at some peak step *)
    sizes : int array;  (** device bytes per position *)
  }

  (** Default device size of a node's output: its tensor size, except Store
      whose output lives in host memory. *)
  let default_size (g : Graph.t) (id : int) : int =
    let n = Graph.node g id in
    match n.op with Op.Store -> 0 | _ -> Shape.size_bytes n.shape

  (** Is the output of a node live to the end of the run: a weight, or a
      graph output (no consumers, not an input)?  [op] and [consumers] are
      the node's. *)
  let pinned_by (op : Op.kind) (consumers : Int_set.t) : bool =
    Op.is_weight op || (Int_set.is_empty consumers && not (Op.is_input op))

  let pinned (g : Graph.t) (id : int) : bool =
    pinned_by (Graph.op g id) (Graph.succ_set g id)

  let analyze ?size_of (g : Graph.t) (order : int list) : t =
    let size_of = match size_of with Some f -> f | None -> default_size g in
    let order = Array.of_list order in
    let n = Array.length order in
    let pos = Hashtbl.create n in
    Array.iteri (fun i v -> Hashtbl.replace pos v i) order;
    let sizes = Array.map (fun v -> size_of v) order in
    let birth = Array.init n (fun i -> i) in
    let free = Array.make n 0 in
    let last = n - 1 in
    for i = 0 to n - 1 do
      let v = order.(i) in
      let op = Graph.op g v in
      if pinned_by op (Graph.succ_set g v) then begin
        if Op.is_weight op then birth.(i) <- 0;
        free.(i) <- last
      end
      else
        free.(i) <-
          List.fold_left
            (fun acc s ->
              match Hashtbl.find_opt pos s with
              | Some j -> max acc j
              | None -> acc)
            i (Graph.suc g v)
    done;
    (* Sweep 1: memory per step via birth/death deltas. *)
    let mem = Array.make (max n 1) 0 in
    if n > 0 then begin
      let delta = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        delta.(birth.(i)) <- delta.(birth.(i)) + sizes.(i);
        delta.(free.(i) + 1) <- delta.(free.(i) + 1) - sizes.(i)
      done;
      let current = ref 0 in
      for step = 0 to n - 1 do
        current := !current + delta.(step);
        mem.(step) <- !current
      done
    end;
    let peak = Array.fold_left max 0 mem in
    (* Sweep 2: a tensor is a hot-spot iff its live interval contains a peak
       step; [next_peak.(s)] is the first peak step >= s. *)
    let next_peak = Array.make (n + 1) max_int in
    for step = n - 1 downto 0 do
      next_peak.(step) <-
        (if mem.(step) = peak then step else next_peak.(step + 1))
    done;
    let hotspots = ref Int_set.empty in
    for i = 0 to n - 1 do
      if n > 0 && next_peak.(birth.(i)) <= free.(i) then
        hotspots := Int_set.add order.(i) !hotspots
    done;
    { order; pos; birth; free; mem; peak; hotspots = !hotspots; sizes }

  let peak_memory t = t.peak
  let hotspots t = t.hotspots

  (** Memory-vs-step curve (bytes live after each operator executes). *)
  let timeline t = Array.copy t.mem

  (** Position of a node in the analyzed schedule. *)
  let position t v = Hashtbl.find_opt t.pos v

  (** Total size of hot-spot tensors using the analysis' size function. *)
  let hotspot_bytes t =
    Int_set.fold
      (fun v acc ->
        match Hashtbl.find_opt t.pos v with
        | Some i -> acc + t.sizes.(i)
        | None -> acc)
      t.hotspots 0

  (** Lifetime interval of the node at schedule position [i]. *)
  let interval t i = (t.birth.(i), t.free.(i))
end

module Simulator = struct
  let runs_total = Metrics.counter "simulator.runs"

  type result = {
    latency : float;  (** seconds for one iteration of the schedule *)
    peak_mem : int;  (** peak device bytes *)
    compute_busy : float;  (** compute-stream busy time *)
    copy_busy : float;  (** copy-stream busy time *)
    analysis : Lifetime.t;
  }

  type event = {
    ev_node : int;
    ev_copy : bool;  (** true: copy stream (Store/Load); false: compute *)
    ev_start : float;
    ev_finish : float;
  }

  (** [sink], when given, receives one event per scheduled non-Input node
      (in schedule order, accumulated newest-first). *)
  let simulate ?size_of ?cost_of ?sink (cache : Op_cost.t) (g : Graph.t)
      (order : int list) : result =
    Magis_resilience.Fault.hit "simulator";
    Metrics.incr runs_total;
    let cost_of =
      match cost_of with
      | Some f -> f
      | None -> fun id -> Op_cost.node_cost cache g id
    in
    let emit ev = match sink with None -> () | Some r -> r := ev :: !r in
    (* finish time per node id; 0 until the node is scheduled, which is
       also the neutral element of the [ready] maximum *)
    let finish = Array.make (Graph.id_bound g) 0.0 in
    let ready (n : Graph.node) =
      Array.fold_left
        (fun acc p -> if finish.(p) > acc then finish.(p) else acc)
        0.0 n.inputs
    in
    let later a b = if b > a then b else a in
    let t_compute = ref 0.0 and t_copy = ref 0.0 in
    let compute_busy = ref 0.0 and copy_busy = ref 0.0 in
    List.iter
      (fun v ->
        let n = Graph.node g v in
        match n.op with
        | Op.Store | Op.Load ->
            let bytes = Shape.size_bytes n.shape in
            let dur = Op_cost.swap_time cache bytes in
            let start = later !t_copy (ready n) in
            t_copy := start +. dur;
            copy_busy := !copy_busy +. dur;
            finish.(v) <- !t_copy;
            emit { ev_node = v; ev_copy = true; ev_start = start;
                   ev_finish = !t_copy }
        | Op.Input _ -> finish.(v) <- 0.0
        | _ ->
            let dur = cost_of v in
            (* the [cost_of] hook may come from fission accounting or any
               other caller-supplied model: guard it like Op_cost guards
               its own values, so a NaN duration surfaces as a structured
               exception instead of a poisoned latency *)
            if not (Op_cost.is_finite_cost dur) then
              Op_cost.check_finite
                ~what:(Printf.sprintf "node %d scheduled cost" v)
                dur;
            let start = later !t_compute (ready n) in
            t_compute := start +. dur;
            compute_busy := !compute_busy +. dur;
            finish.(v) <- !t_compute;
            emit { ev_node = v; ev_copy = false; ev_start = start;
                   ev_finish = !t_compute })
      order;
    let latency = max !t_compute !t_copy in
    Op_cost.check_finite ~what:"simulated latency" latency;
    let analysis = Lifetime.analyze ?size_of g order in
    {
      latency;
      peak_mem = Lifetime.peak_memory analysis;
      compute_busy = !compute_busy;
      copy_busy = !copy_busy;
      analysis;
    }

  let run ?size_of ?cost_of cache g order =
    simulate ?size_of ?cost_of cache g order

  let run_events ?size_of ?cost_of cache g order =
    Trace.with_span ~cat:"cost" "simulate" @@ fun () ->
    let sink = ref [] in
    let r = simulate ?size_of ?cost_of ~sink cache g order in
    (r, List.rev !sink)
end

open Ftree

type accounting = {
  size_of : int -> int;  (** device bytes of a node's output *)
  cost_of : int -> float;  (** per-node latency incl. split execution *)
  extra_latency : float;  (** boundary slice/merge overhead *)
}

(** Build the virtual-fission accounting for graph [g] under tree [t].
    See the module header for the model. *)
let accounting (cache : Op_cost.t) (g : Graph.t) (t : t) : accounting =
  let enabled = enabled_indices t in
  match enabled with
  | [] ->
      {
        size_of = (fun v -> Lifetime.default_size g v);
        cost_of = (fun v -> Op_cost.node_cost cache g v);
        extra_latency = 0.0;
      }
  | _ ->
      let ix = Graph_index.of_graph g in
      let entries =
        List.map
          (fun i ->
            let f = fission_at t i in
            let outs = Graph.outs_of g (Fission.members f) in
            (i, f, outs))
          enabled
      in
      (* ancestor-product factor of each entry (nested regions execute
         their boundary work once per enclosing part) *)
      let ancestor_factor i =
        let rec climb j acc =
          let p = (entry t j).parent in
          if p < 0 then acc
          else climb p (if is_enabled t p then acc * n_at t p else acc)
        in
        climb i 1
      in
      let size_of v =
        let base = Lifetime.default_size g v in
        List.fold_left
          (fun acc (_, f, outs) ->
            if
              Int_set.mem v (Fission.members f)
              && not (Int_set.mem v outs)
            then acc / (f : Fission.t).n
            else acc)
          base entries
      in
      let cost_of v =
        let node = Graph.node g v in
        match node.op with
        | Op.Input _ | Op.Store | Op.Load -> 0.0
        | _ ->
            (* progressively scale shapes through each enclosing entry *)
            let factor, (ins, out) =
              List.fold_left
                (fun ((factor, shapes) as acc) (_, f, _) ->
                  if Int_set.mem v (Fission.members f) then
                    ( factor * (f : Fission.t).n,
                      Fission.scaled_shapes ix f v shapes )
                  else acc)
                (1, (Array.map (Graph.shape g) node.inputs, node.shape))
                entries
            in
            if factor = 1 then Op_cost.node_cost cache g v
            else float_of_int factor *. Op_cost.cost cache node.op ins out
      in
      let hw = (cache : Op_cost.t).hw in
      let extra_latency =
        List.fold_left
          (fun acc (i, f, outs) ->
            let fa = float_of_int (ancestor_factor i) in
            let n = float_of_int (f : Fission.t).n in
            let roles =
              match Ref_algorithm1.Validate.input_roles g f with
              | Ok r -> r
              | Error _ -> Int_map.empty
            in
            let sliced_bytes =
              Int_map.fold
                (fun u role acc ->
                  match role with
                  | Fission.Sliced _ -> acc + Graph.size_bytes g u
                  | Fission.Shared -> acc)
                roles 0
            in
            let out_bytes =
              Int_set.fold
                (fun v acc -> acc + Graph.size_bytes g v)
                outs 0
            in
            let bytes = float_of_int (2 * (sliced_bytes + out_bytes)) in
            let launches =
              n
              *. float_of_int
                   (Int_map.cardinal roles + Int_set.cardinal outs)
            in
            acc
            +. fa
               *. ((bytes /. hw.Hardware.mem_bandwidth)
                  +. (launches *. hw.Hardware.launch_overhead)))
          0.0 entries
      in
      { size_of; cost_of; extra_latency }
