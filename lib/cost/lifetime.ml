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
      occupy no device memory. *)

open Magis_ir
module Int_set = Util.Int_set

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
