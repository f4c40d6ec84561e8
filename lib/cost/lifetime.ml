(** Tensor lifetime analysis (§2.1 of the paper).

    Given a schedule [s = (v_1 … v_n)], the output tensor of [v_i] is live
    from its production ([S_i = i]) until its last consumer's step
    ([F_i = max_{v_j ∈ suc(v_i)} j]).  The active memory at step [i] is the
    sum of sizes of live tensors; the peak over all steps is [M_peak], and
    the *memory hot-spots* are the tensors live at peak steps.

    Conventions:
    - weights are pinned for the whole run (training keeps parameters
      resident);
    - graph outputs (losses, gradients) stay live until the end;
    - the device size of a node can be overridden via [size_of] — the
      fission layer divides sizes of split intermediates, and Store outputs
      occupy no device memory.

    [analyze_on] reads one {!Magis_ir.Graph_index}: node records from its
    array, "has consumers" from its consumer marks, and each output's
    last reader from one forward pass over the schedule's operands, into
    id-indexed arrays.  It touches no persistent map; [analyze] builds
    the index first. *)

open Magis_ir
module Int_set = Util.Int_set

type t = {
  order : int array;
  pos : int array;  (** node id -> schedule position, [-1] if absent *)
  birth : int array;  (** per position: step the output appears *)
  free : int array;  (** per position: last step the output is live *)
  mem : int array;  (** per step: active bytes *)
  peak : int;
  hotspots : Int_set.t;  (** node ids live at some peak step *)
  sizes : int array;  (** device bytes per position *)
}

(** Device size of a node's output: its tensor size, except Store whose
    output lives in host memory. *)
let node_size (n : Graph.node) : int =
  match n.op with Op.Store -> 0 | _ -> Shape.size_bytes n.shape

(** Is the output of a node live to the end of the run: a weight, or a
    graph output (no consumers, not an input)? *)
let pinned_by (op : Op.kind) ~(consumed : bool) : bool =
  Op.is_weight op || ((not consumed) && not (Op.is_input op))

(* The graph-keyed forms, for callers that hold no index: one map
   lookup per query.  [analyze] reads the index instead. *)
let graph_node g id =
  match Graph.node_opt g id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Lifetime: unknown node %d" id)

let default_size (g : Graph.t) (id : int) : int = node_size (graph_node g id)

let pinned (g : Graph.t) (id : int) : bool =
  pinned_by (graph_node g id).op ~consumed:(Graph.out_degree g id > 0)

let analyze_on ?size_of (ix : Graph_index.t) (order : int list) : t =
  let size_of =
    match size_of with
    | Some f -> f
    | None -> fun v -> node_size (Graph_index.node ix v)
  in
  let order = Array.of_list order in
  let n = Array.length order in
  let bound = Graph_index.bound ix in
  (* one forward pass: each node's (last) position, and the last step
     that reads each output; an output's last reader is its last
     scheduled consumer *)
  let pos = Array.make bound (-1) and read = Array.make bound (-1) in
  for i = 0 to n - 1 do
    let v = order.(i) in
    let node = Graph_index.node ix v in
    if node.id <> v then invalid_arg (Printf.sprintf "Lifetime: unknown node %d" v);
    pos.(v) <- i;
    Array.iter (fun p -> read.(p) <- i) node.inputs
  done;
  let sizes = Array.map (fun v -> size_of v) order in
  let birth = Array.init n (fun i -> i) in
  let free = Array.make n 0 in
  let last = n - 1 in
  for i = 0 to n - 1 do
    let v = order.(i) in
    let op = (Graph_index.node ix v).op in
    if pinned_by op ~consumed:(Graph_index.has_consumers ix v) then begin
      if Op.is_weight op then birth.(i) <- 0;
      free.(i) <- last
    end
    else free.(i) <- max i read.(v)
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

let analyze ?size_of (g : Graph.t) (order : int list) : t =
  analyze_on ?size_of (Graph_index.of_graph g) order

let peak_memory t = t.peak
let hotspots t = t.hotspots

(** Memory-vs-step curve (bytes live after each operator executes). *)
let timeline t = Array.copy t.mem

(** Position of a node in the analyzed schedule. *)
let position t v =
  if v >= 0 && v < Array.length t.pos && t.pos.(v) >= 0 then Some t.pos.(v)
  else None

(** Total size of hot-spot tensors using the analysis' size function.
    Every hot-spot is scheduled. *)
let hotspot_bytes t =
  Int_set.fold (fun v acc -> acc + t.sizes.(t.pos.(v))) t.hotspots 0

(** Lifetime interval of the node at schedule position [i]. *)
let interval t i = (t.birth.(i), t.free.(i))
