(** Schedule simulator.

    Executes a schedule on a two-stream device model: ordinary operators
    run sequentially on the *compute* stream; Store/Load run on the *copy*
    stream and overlap with compute, synchronizing only through data
    dependencies.  This reproduces the paper's asynchronous-swapping
    implementation ("place the Store as early as possible and the Load as
    late as the data transfer latency can be just hidden", §6.2): a Load
    scheduled well before its consumer hides its transfer entirely; a Load
    scheduled too late stalls the compute stream by the remaining transfer
    time.

    Latency and peak memory can be reshaped by the fission layer through
    the optional [cost_of] and [size_of] hooks.

    [run_events] additionally returns the per-node placement (stream,
    start, finish) the simulation computed, for timeline export; [run]
    is the search loop's path and records no events.  Either way one
    simulation allocates a finish-time array indexed by node id and the
    {!Lifetime} analysis; a failure label is formatted only when a
    duration fails its finiteness guard.

    A simulation reads one {!Magis_ir.Graph_index}: node records, operand
    shapes for the default cost ({!Op_cost.node_cost_on}) and the
    lifetime analysis ({!Lifetime.analyze_on}) all come from its arrays,
    never from the graph's persistent maps.  [run_on] takes an index the
    caller already holds (the fission accounting builds one per
    candidate); [run] and [run_events] build it. *)

open Magis_ir
module Trace = Magis_obs.Trace
module Metrics = Magis_obs.Metrics

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
let simulate ?size_of ?cost_of ?sink (cache : Op_cost.t) (ix : Graph_index.t)
    (order : int list) : result =
  Magis_resilience.Fault.hit "simulator";
  Metrics.incr runs_total;
  let cost_of =
    match cost_of with
    | Some f -> f
    | None -> Op_cost.node_cost_on cache ix
  in
  let emit ev = match sink with None -> () | Some r -> r := ev :: !r in
  (* finish time per node id; 0 until the node is scheduled, which is
     also the neutral element of the [ready] maximum *)
  let finish = Array.make (Graph_index.bound ix) 0.0 in
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
      let n = Graph_index.node ix v in
      if n.id <> v then invalid_arg (Printf.sprintf "Simulator: unknown node %d" v);
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
  let analysis = Lifetime.analyze_on ?size_of ix order in
  {
    latency;
    peak_mem = Lifetime.peak_memory analysis;
    compute_busy = !compute_busy;
    copy_busy = !copy_busy;
    analysis;
  }

let run_on ?size_of ?cost_of cache ix order =
  simulate ?size_of ?cost_of cache ix order

let run ?size_of ?cost_of cache g order =
  simulate ?size_of ?cost_of cache (Graph_index.of_graph g) order

let run_events ?size_of ?cost_of cache g order =
  Trace.with_span ~cat:"cost" "simulate" @@ fun () ->
  let sink = ref [] in
  let r = simulate ?size_of ?cost_of ~sink cache (Graph_index.of_graph g) order in
  (r, List.rev !sink)
