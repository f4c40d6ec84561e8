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
    start, finish), for timeline export; [run] is the search loop's path
    and records no events.  A failure label is formatted only when a
    duration fails its finiteness guard.

    A simulation is one forward pass over the schedule, reading one
    {!Magis_ir.Graph_index} (node records, operand shapes for the default
    cost {!Op_cost.node_cost_on}), never the graph's maps.  The pass also
    records positions and last readers, which {!Lifetime.sweep} turns
    into the memory analysis.  [run_on] takes an index the caller holds
    (the fission accounting builds one per candidate); [run] and
    [run_events] build it. *)

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
let simulate ?size_of ?cost_of ?sink (cost : Op_cost.t) (ix : Graph_index.t)
    (order : int list) : result =
  Magis_resilience.Fault.hit "simulator";
  Metrics.incr runs_total;
  let cost_of = Option.value cost_of ~default:(Op_cost.node_cost_on cost ix) in
  let order = Array.of_list order in
  (* per node id: the finish time, 0 until the node is scheduled (also
     the neutral element of the [ready] maximum); and, for the lifetime
     sweep, the (last) position and the last step reading the output *)
  let nodes = Graph_index.nodes ix in
  let finish = Array.make (Graph_index.bound ix) 0.0 in
  let pos = Array.make (Graph_index.bound ix) (-1) and read = Array.make (Graph_index.bound ix) (-1) in
  let t_compute = ref 0.0 and t_copy = ref 0.0 in
  let compute_busy = ref 0.0 and copy_busy = ref 0.0 in
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    let n = nodes.(v) in
    if n.id <> v then invalid_arg (Printf.sprintf "Simulator: unknown node %d" v);
    pos.(v) <- i;
    let ready = ref 0.0 in
    for k = 0 to Array.length n.inputs - 1 do
      let p = n.inputs.(k) in
      read.(p) <- i;
      if finish.(p) > !ready then ready := finish.(p)
    done;
    match n.op with
    | Op.Store | Op.Load ->
        let dur = Op_cost.swap_time cost (Shape.size_bytes n.shape) in
        let start = if !ready > !t_copy then !ready else !t_copy in
        t_copy := start +. dur;
        copy_busy := !copy_busy +. dur;
        finish.(v) <- !t_copy;
        (match sink with
        | Some r -> r := { ev_node = v; ev_copy = true; ev_start = start; ev_finish = !t_copy } :: !r
        | None -> ())
    | Op.Input _ -> finish.(v) <- 0.0
    | _ ->
        let dur = cost_of v in
        (* the [cost_of] hook may come from fission accounting or any
           other caller-supplied model: guard it like Op_cost guards its
           own values, so a NaN duration surfaces as a structured
           exception instead of a poisoned latency *)
        if not (Op_cost.is_finite_cost dur) then
          Op_cost.check_finite ~what:(Printf.sprintf "node %d scheduled cost" v) dur;
        let start = if !ready > !t_compute then !ready else !t_compute in
        t_compute := start +. dur;
        compute_busy := !compute_busy +. dur;
        finish.(v) <- !t_compute;
        (match sink with
        | Some r ->
            r := { ev_node = v; ev_copy = false; ev_start = start; ev_finish = !t_compute } :: !r
        | None -> ())
  done;
  let latency = max !t_compute !t_copy in
  Op_cost.check_finite ~what:"simulated latency" latency;
  let analysis = Lifetime.sweep ?size_of ix order ~pos ~read in
  {
    latency;
    peak_mem = Lifetime.peak_memory analysis;
    compute_busy = !compute_busy;
    copy_busy = !copy_busy;
    analysis;
  }

let run_on ?size_of ?cost_of cost ix order =
  simulate ?size_of ?cost_of cost ix order

let baseline cost ix =
  simulate cost ix (Array.to_list (Graph_index.order ix))

let run ?size_of ?cost_of cost g order =
  simulate ?size_of ?cost_of cost (Graph_index.of_graph g) order

let run_events ?size_of ?cost_of cost g order =
  Trace.with_span ~cat:"cost" "simulate" @@ fun () ->
  let sink = ref [] in
  let r = simulate ?size_of ?cost_of ~sink cost (Graph_index.of_graph g) order in
  (r, List.rev !sink)
