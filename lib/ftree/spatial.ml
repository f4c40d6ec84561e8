(** Spatial (halo) fission — the extension the paper's footnote 2 leaves
    to future work: splitting along sliding-window axes.

    Regular F-Trans cannot split the H/W axes of convolutions because a
    window at a part boundary needs rows from the neighbouring part.  For
    chains of *stride-1, "same"-padded* convolutions (and window-free
    operators), the fix is classic halo exchange: each part's input slice
    is widened by the chain's accumulated halo, every layer runs on the
    widened slab, and the part's output slab is trimmed back before
    concatenation.  Rows within the halo band are recomputed by both
    neighbouring parts — a small compute overhead that buys a 1/n cut of
    the chain's intermediate memory.

    This matters exactly where batch fission has no leverage: batch-1
    high-resolution inference (the paper's mobile-deployment motivation).

    The region grammar is deliberately restricted so the rewrite is easy
    to verify: a *chain* [v_1 -> v_2 -> … -> v_k] in NCHW layout where
    every operator is either a stride-1 odd-kernel "same" convolution /
    pooling or a window-free elementwise/normalization operator, each
    feeding only the next. *)

open Magis_ir
open Magis_cost
module Int_set = Util.Int_set

type t = {
  chain : int list;  (** v_1 … v_k in dataflow order *)
  axis : int;  (** split axis: 2 (H) or 3 (W) *)
  n : int;  (** number of parts *)
}

(** Halo contributed by one operator (rows needed beyond the slab on each
    side), or [None] if the operator cannot join a spatial chain. *)
let halo_of (g : Graph.t) (v : int) : int option =
  let node = Graph.node g v in
  match node.op with
  | Op.Conv2d { stride = 1; padding }
    when Shape.dim (Graph.shape g node.inputs.(1)) 2 = (2 * padding) + 1 ->
      Some padding
  | Op.Pool2d { kernel = 1; p_stride = 1; _ } -> Some 0
      (* unpadded k>1 pooling shrinks the extent: it cannot join a
         same-extent chain *)
  | Op.Unary _ | Op.Binary _ | Op.Bias_add _ | Op.Batch_norm -> Some 0
  | _ -> None

(** Accumulated halo of the whole chain. *)
let chain_halo (g : Graph.t) (chain : int list) : int option =
  List.fold_left
    (fun acc v ->
      match (acc, halo_of g v) with
      | Some a, Some h -> Some (a + h)
      | _ -> None)
    (Some 0) chain

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let validate (g : Graph.t) (f : t) : (unit, string) result =
  if f.n < 2 then err "need n >= 2"
  else if f.axis <> 2 && f.axis <> 3 then err "axis must be H (2) or W (3)"
  else
    match f.chain with
    | [] -> err "empty chain"
    | first :: _ ->
        let rec check = function
          | [] -> Ok ()
          | v :: rest ->
              let node = Graph.node g v in
              if Shape.rank node.shape <> 4 then
                err "node %d: not NCHW" v
              else if halo_of g v = None then
                err "node %d (%s): not spatially splittable" v
                  (Op.name node.op)
              else if
                rest <> []
                && (Graph.suc g v <> [ List.hd rest ]
                   || not (Array.exists (( = ) v) (Graph.node g (List.hd rest)).inputs))
              then err "node %d: chain must be linear" v
              else check rest
        in
        let ( let* ) r k = match r with Error _ as e -> e | Ok () -> k () in
        let* () = check f.chain in
        let extent = Shape.dim (Graph.shape g first) f.axis in
        let* () =
          if extent mod f.n <> 0 then
            err "extent %d not divisible by %d" extent f.n
          else Ok ()
        in
        (* every member must preserve the split extent ("same" layers) *)
        let* () =
          List.fold_left
            (fun acc v ->
              let* () = acc in
              if Shape.dim (Graph.shape g v) f.axis = extent then Ok ()
              else err "node %d changes the extent along axis %d" v f.axis)
            (Ok ()) f.chain
        in
        (match chain_halo g f.chain with
        | None -> err "chain has a non-splittable operator"
        | Some h ->
            if extent / f.n <= h then
              err "parts of %d rows thinner than the %d-row halo"
                (extent / f.n) h
            else Ok ())

let is_valid g f = match validate g f with Ok () -> true | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Expansion                                                           *)
(* ------------------------------------------------------------------ *)

type expansion = { graph : Graph.t; replacement : int }

(** Rewrite the chain into [n] sequentially executed haloed parts joined
    by a concat along the split axis. *)
let expand (g : Graph.t) (f : t) : expansion =
  (match validate g f with
  | Ok () -> ()
  | Error m -> invalid_arg ("Spatial.expand: " ^ m));
  let first = List.hd f.chain in
  let last = List.nth f.chain (List.length f.chain - 1) in
  let source = (Graph.node g first).inputs.(0) in
  let extent = Shape.dim (Graph.shape g first) f.axis in
  let step = extent / f.n in
  let halo = Option.get (chain_halo g f.chain) in
  let graph = ref g in
  let parts =
    List.init f.n (fun p ->
        (* widened input slab *)
        let lo = max 0 ((p * step) - halo) in
        let hi = min extent (((p + 1) * step) + halo) in
        let g', slab =
          Graph.add !graph (Op.Slice { axis = f.axis; lo; hi }) [ source ]
        in
        graph := g';
        (* run the chain on the slab: every member's chain-input becomes
           the slab-local version *)
        let slab_out =
          List.fold_left
            (fun acc v ->
              let node = Graph.node !graph v in
              let inputs =
                Array.to_list
                  (Array.map
                     (fun u -> if u = source || List.mem u f.chain then acc else u)
                     node.inputs)
              in
              (* a linear chain: the previous member (or the source) is
                 the only in-chain operand *)
              let g', id = Graph.add ~label:node.label !graph node.op inputs in
              graph := g';
              id)
            slab f.chain
        in
        (* trim the slab back to the exact rows of this part *)
        let trim_lo = (p * step) - lo in
        let g', exact =
          Graph.add !graph
            (Op.Slice { axis = f.axis; lo = trim_lo; hi = trim_lo + step })
            [ slab_out ]
        in
        graph := g';
        exact)
  in
  let g', merged = Graph.add !graph (Op.Concat f.axis) parts in
  graph := g';
  graph := Graph.redirect !graph ~from_:last ~to_:merged;
  (* drop the original chain, last to first *)
  List.iter
    (fun v -> graph := Graph.remove !graph v)
    (List.rev f.chain);
  let keep =
    Int_set.add merged
      (Int_set.of_list
         (List.filter (fun v -> Graph.mem !graph v) (Graph.outputs g)))
  in
  graph := Graph.prune_dead ~keep !graph;
  { graph = !graph; replacement = merged }

(* ------------------------------------------------------------------ *)
(* Candidates and virtual accounting                                   *)
(* ------------------------------------------------------------------ *)

(** Maximal spatially splittable chains of [g] (length >= 2, single-use
    links), longest first. *)
let candidates (g : Graph.t) : t list =
  let in_chainable v = halo_of g v <> None in
  let continues v =
    match Graph.suc g v with
    | [ s ] -> in_chainable s && Graph.pre g s |> List.length >= 1
    | _ -> false
  in
  let starts v =
    in_chainable v
    &&
    let preds =
      List.filter (fun u -> not (Op.is_weight (Graph.op g u))) (Graph.pre g v)
    in
    match preds with
    | [ p ] -> not (in_chainable p && Graph.suc g p = [ v ])
    | _ -> false
  in
  let rec extend v acc =
    let acc = v :: acc in
    if continues v then
      match Graph.suc g v with
      | [ s ]
        when List.length
               (List.filter
                  (fun u -> not (Op.is_weight (Graph.op g u)))
                  (Graph.pre g s))
             = 1 ->
          extend s acc
      | _ -> List.rev acc
    else List.rev acc
  in
  Graph.fold
    (fun n acc ->
      if starts n.id && Shape.rank n.shape = 4 then
        let chain = extend n.id [] in
        if List.length chain >= 2 then
          let t = { chain; axis = 2; n = 2 } in
          if is_valid g t then t :: acc else acc
        else acc
      else acc)
    g []
  |> List.sort (fun a b -> compare (List.length b.chain) (List.length a.chain))

(** Virtual accounting, mirroring {!Ftree.accounting}: chain intermediates
    shrink to (step + 2·halo)/extent of their size; operators run [n]
    times on slabs, paying the halo recomputation and the boundary
    slice/concat traffic. *)
let accounting (cost : Op_cost.t) (g : Graph.t) (f : t) :
    (int -> int) * (int -> float) * float =
  let members = Int_set.of_list f.chain in
  let extent = Shape.dim (Graph.shape g (List.hd f.chain)) f.axis in
  let step = extent / f.n in
  let halo = Option.get (chain_halo g f.chain) in
  let slab_fraction =
    Float.min 1.0 (float_of_int (step + (2 * halo)) /. float_of_int extent)
  in
  let last = List.nth f.chain (List.length f.chain - 1) in
  let size_of v =
    let base = Lifetime.default_size g v in
    if Int_set.mem v members && v <> last then
      int_of_float (float_of_int base *. slab_fraction)
    else base
  in
  let cost_of v =
    let base = Op_cost.node_cost cost g v in
    if Int_set.mem v members then
      float_of_int f.n *. base *. slab_fraction
    else base
  in
  let hw = cost.Op_cost.hw in
  let boundary_bytes =
    2 * (Graph.size_bytes g (List.hd f.chain) + Graph.size_bytes g last)
  in
  let extra =
    (float_of_int boundary_bytes /. hw.Hardware.mem_bandwidth)
    +. (float_of_int (2 * f.n) *. hw.Hardware.launch_overhead)
  in
  (size_of, cost_of, extra)

let pp ppf f =
  Fmt.pf ppf "spatial(axis=%d, n=%d, chain=[%a])" f.axis f.n
    Fmt.(list ~sep:(any ",") int)
    f.chain
