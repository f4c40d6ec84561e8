(** Fission Hierarchy Tree (F-Tree, §4.3 and §5.1 of the paper).

    The F-Tree abstracts the F-Trans search space: each tree node records a
    fission candidate [f = (S, D, n)]; a child's member set is contained in
    its parent's.  Nodes with [n = 1] are *disabled* candidates; [n > 1]
    means the sub-graph is (virtually) split into [n] parts.

    Construction follows Algorithm 1: memory hot-spots from the current
    schedule, one dominator tree per D-Graph component, the heat/score
    metrics of Eq. (3)/(4), and score-interval binning with [max_level]
    bins.

    Mutation rules (§5.1, Fig. 7): Enable, Lift, Disable, Mutate.

    [accounting] implements the virtual-fission cost/memory model used by
    the simulator during search: intermediate tensor sizes are divided by
    the enclosing split factors, operator costs multiply by the factor with
    per-part shapes (smaller operators ⇒ lower utilization ⇒ latency
    overhead), and the slicing/merging boundary work is charged as extra
    latency. *)

open Magis_ir
open Magis_cost
open Magis_dgraph
module Int_map = Util.Int_map
module Int_set = Util.Int_set

type entry = {
  fission : Fission.t;
  parent : int;  (** index of parent entry, or [-1] for roots *)
  children : int list;
}

type t = { entries : entry array }

let empty = { entries = [||] }
let n_entries t = Array.length t.entries
let entry t i = t.entries.(i)
let fission_at t i = t.entries.(i).fission
let n_at t i = (t.entries.(i).fission : Fission.t).n
let is_enabled t i = n_at t i > 1

let enabled_indices t =
  Array.to_list (Array.mapi (fun i _ -> i) t.entries)
  |> List.filter (fun i -> is_enabled t i)

let has_enabled_ancestor t i =
  let rec climb j =
    let p = t.entries.(j).parent in
    p >= 0 && (is_enabled t p || climb p)
  in
  climb i

let has_enabled_descendant t i =
  let rec down j =
    List.exists
      (fun c -> is_enabled t c || down c)
      t.entries.(j).children
  in
  down i

(** Union of member sets of all enabled entries — graph regions that other
    transformation rules must not cut across (§3). *)
let frozen_region t =
  List.fold_left
    (fun acc i -> Int_set.union acc (Fission.members (fission_at t i)))
    Int_set.empty (enabled_indices t)

(* ------------------------------------------------------------------ *)
(* Construction (Algorithm 1)                                         *)
(* ------------------------------------------------------------------ *)

(** Heat of every node (Eq. (3)) in one bottom-up pass over the dominator
    tree: [heat(v) = Σ_{w ∈ H ∩ T.des(v)} |w|]. *)
let heat_all (g : Graph.t) (dom : Dominator.t) (hotspots : Int_set.t)
    (members : Int_set.t) : int Int_map.t =
  let rec go v acc =
    let children = Dominator.children dom v in
    let acc = Int_set.fold go children acc in
    let own =
      Int_set.fold
        (fun c total ->
          total
          + (match Int_map.find_opt c acc with Some h -> h | None -> 0)
          + (if Int_set.mem c hotspots then Graph.size_bytes g c else 0))
        children 0
    in
    Int_map.add v own acc
  in
  (* roots: members whose idom is the virtual root or absent *)
  Int_set.fold
    (fun v acc ->
      match Dominator.idom dom v with
      | Some p when p = Dominator.virtual_root -> go v acc
      | _ -> acc)
    members Int_map.empty

(** Exact score of Eq. (4) for one node (needs its subtree's inputs). *)
let score_of (g : Graph.t) (dom : Dominator.t) (hotspots : Int_set.t)
    ~(heat : int) (v : int) : int =
  let sub = Dominator.strict_subtree dom v in
  let input_cost =
    Int_set.fold
      (fun u acc ->
        if Int_set.mem u hotspots then acc else acc + Graph.size_bytes g u)
      (Graph.inps_of g sub) 0
  in
  (* n = 2 in Eq. (4): (1 - 1/2) heat - Σ inputs *)
  (heat / 2) - input_cost

(** Smallest [n >= 2] for which the candidate validates, if any. *)
let smallest_valid_n (g : Graph.t) (f : Fission.t) : int option =
  let extent =
    Int_set.fold
      (fun v acc ->
        match Int_map.find_opt v (f : Fission.t).dims with
        | Some d when d > 0 -> (
            let e = Shape.dim (Graph.shape g v) (d - 1) in
            match acc with Some a -> Some (min a e) | None -> Some e)
        | _ -> acc)
      (Fission.members f) None
  in
  match extent with
  | None -> None
  | Some e ->
      let rec try_n n =
        if n > e then None
        else if e mod n = 0 && Fission.is_valid g (Fission.with_n f n) then
          Some n
        else try_n (n + 1)
      in
      try_n 2

(** Assemble candidates into a forest: deduplicated by member set,
    ordered by (size, smallest member); each entry's parent is the
    smallest strictly larger candidate that contains it. *)
let of_fissions (fs : Fission.t list) : t =
  let sorted =
    List.sort_uniq
      (fun (a : Fission.t) (b : Fission.t) ->
        Int_set.compare a.members b.members)
      fs
    |> List.sort (fun (a : Fission.t) (b : Fission.t) ->
           compare
             (Int_set.cardinal a.members, Int_set.min_elt_opt a.members)
             (Int_set.cardinal b.members, Int_set.min_elt_opt b.members))
    |> Array.of_list
  in
  let n = Array.length sorted in
  let parent = Array.make n (-1) in
  for i = 0 to n - 1 do
    let rec find j =
      if j >= n then -1
      else if
        Int_set.cardinal (sorted.(j) : Fission.t).members
        > Int_set.cardinal (sorted.(i) : Fission.t).members
        && Int_set.subset (sorted.(i) : Fission.t).members
             (sorted.(j) : Fission.t).members
      then j
      else find (j + 1)
    in
    parent.(i) <- find (i + 1)
  done;
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    if parent.(i) >= 0 then children.(parent.(i)) <- i :: children.(parent.(i))
  done;
  let entries =
    Array.init n (fun i ->
        { fission = sorted.(i); parent = parent.(i); children = children.(i) })
  in
  { entries }

let default_max_level = 4

(** Algorithm 1: construct the fission candidates for [g], given the
    memory hot-spots of its current schedule.  [max_level] is the paper's
    [L] hyper-parameter (default {!default_max_level}). *)
let construct ?(max_level = default_max_level) (g : Graph.t)
    ~(hotspots : Int_set.t) : t =
  let dg = Dgraph.build g in
  let candidates = ref [] in
  List.iter
    (fun comp ->
      let gn = Dgraph.graph_nodes_of_component comp in
      if Util.Int_set.cardinal gn >= 2 then begin
        let dom = Dominator.compute ~members:gn g in
        let heats = heat_all g dom hotspots gn in
        (* exact scores only for the hottest nodes: score <= heat/2, so
           cool nodes cannot enter any band *)
        let by_heat =
          Int_map.bindings heats
          |> List.filter (fun (_, h) -> h > 0)
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        let scores =
          List.fold_left
            (fun acc (v, heat) ->
              Int_map.add v (score_of g dom hotspots ~heat v) acc)
            Int_map.empty
            (Util.take 96 by_heat)
        in
        let smax = Int_map.fold (fun _ s acc -> max s acc) scores 0 in
        if smax > 0 then
          for i = 1 to max_level do
            let in_band v =
              match Int_map.find_opt v scores with
              | None -> false
              | Some s ->
                  let lo = float_of_int i /. float_of_int max_level in
                  let hi = float_of_int (i + 1) /. float_of_int max_level in
                  let r = float_of_int s /. float_of_int smax in
                  r >= lo && r < hi
            in
            let band = Int_set.filter in_band gn in
            Int_set.iter
              (fun vdom ->
                let sub = Dominator.strict_subtree dom vdom in
                let deeper = Int_set.inter sub band in
                if Int_set.is_empty deeper && not (Int_set.is_empty sub)
                then
                  match Dgraph.restrict comp sub with
                  | None -> ()
                  | Some dims ->
                      if Int_map.cardinal dims = Int_set.cardinal sub then
                        let f : Fission.t = { members = sub; dims; n = 1 } in
                        if smallest_valid_n g f <> None then
                          candidates := f :: !candidates)
              band
          done
      end)
    (Dgraph.components dg);
  of_fissions !candidates

(* ------------------------------------------------------------------ *)
(* Mutation rules (§5.1)                                              *)
(* ------------------------------------------------------------------ *)

type mutation =
  | Enable of int  (** enable a disabled frontier node *)
  | Lift of int  (** move an enabled node's fission to its parent *)
  | Disable of int  (** disable an enabled node *)
  | Mutate of int  (** increase the fission number *)

let pp_mutation ppf = function
  | Enable i -> Fmt.pf ppf "enable(%d)" i
  | Lift i -> Fmt.pf ppf "lift(%d)" i
  | Disable i -> Fmt.pf ppf "disable(%d)" i
  | Mutate i -> Fmt.pf ppf "mutate(%d)" i

(** Combined split factor that entry [i] at fission number [n] would impose
    on member [v] along [v]'s dimension, counting enabled entries that
    assign the same dimension to [v]. *)
let combined_factor_on t v dim ~candidate ~n =
  List.fold_left
    (fun acc j ->
      if j = candidate then acc
      else
        let f = fission_at t j in
        match Int_map.find_opt v (f : Fission.t).dims with
        | Some d when d = dim -> acc * f.n
        | _ -> acc)
    n (enabled_indices t)

(** Would setting entry [i] to fission number [n] keep all extents
    divisible, accounting for other enabled entries splitting the same
    dimensions? *)
let n_is_feasible (g : Graph.t) (t : t) (i : int) (n : int) : bool =
  let f = fission_at t i in
  Fission.is_valid g (Fission.with_n f n)
  && Int_set.for_all
       (fun v ->
         match Int_map.find_opt v (f : Fission.t).dims with
         | Some d when d > 0 ->
             let total = combined_factor_on t v d ~candidate:i ~n in
             Shape.dim (Graph.shape g v) (d - 1) mod total = 0
         | _ -> true)
       (Fission.members f)

(** Smallest feasible fission number [>= n] for entry [i] (up to 1024). *)
let next_feasible_n (g : Graph.t) (t : t) (i : int) (n : int) : int option =
  let rec go n =
    if n > 1024 then None
    else if n_is_feasible g t i n then Some n
    else go (n + 1)
  in
  go n

let smallest_feasible_n (g : Graph.t) (t : t) (i : int) : int option =
  Option.bind (smallest_valid_n g (fission_at t i)) (next_feasible_n g t i)

let set_n (t : t) (i : int) (n : int) : t =
  let entries = Array.copy t.entries in
  entries.(i) <-
    { (entries.(i)) with fission = Fission.with_n entries.(i).fission n };
  { entries }

(** All mutations applicable to the current tree. *)
let mutations (g : Graph.t) (t : t) : mutation list =
  let ms = ref [] in
  Array.iteri
    (fun i e ->
      let enabled = is_enabled t i in
      if enabled then begin
        (* Disable: enabled node with no enabled descendant *)
        if not (has_enabled_descendant t i) then ms := Disable i :: !ms;
        (* Mutate: next feasible fission number *)
        if next_feasible_n g t i (n_at t i + 1) <> None then
          ms := Mutate i :: !ms;
        (* Lift: enabled node without enabled ancestor, disabled parent *)
        if
          (not (has_enabled_ancestor t i))
          && e.parent >= 0
          && not (is_enabled t e.parent)
        then ms := Lift i :: !ms
      end
      else if not (has_enabled_ancestor t i) then begin
        (* Enable: disabled leaf, or disabled parent of an enabled node *)
        let frontier =
          e.children = [] || List.exists (fun c -> is_enabled t c) e.children
        in
        if frontier && smallest_feasible_n g t i <> None then
          ms := Enable i :: !ms
      end)
    t.entries;
  List.rev !ms

(** Apply a mutation; [None] if it is not applicable. *)
let apply (g : Graph.t) (t : t) (m : mutation) : t option =
  match m with
  | Enable i -> (
      if is_enabled t i || has_enabled_ancestor t i then None
      else
        match smallest_feasible_n g t i with
        | Some n -> Some (set_n t i n)
        | None -> None)
  | Disable i ->
      if is_enabled t i && not (has_enabled_descendant t i) then
        Some (set_n t i 1)
      else None
  | Lift i ->
      let e = t.entries.(i) in
      if
        is_enabled t i
        && (not (has_enabled_ancestor t i))
        && e.parent >= 0
        && not (is_enabled t e.parent)
      then
        let t' = set_n t i 1 in
        match smallest_feasible_n g t' e.parent with
        | Some n -> Some (set_n t' e.parent n)
        | None -> None
      else None
  | Mutate i ->
      if not (is_enabled t i) then None
      else Option.map (set_n t i) (next_feasible_n g t i (n_at t i + 1))

(* ------------------------------------------------------------------ *)
(* Virtual accounting                                                 *)
(* ------------------------------------------------------------------ *)

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
          let p = t.entries.(j).parent in
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
                      Fission.scaled_shapes g f v shapes )
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
              match Fission.input_roles g f with
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

let pp ppf t =
  Array.iteri
    (fun i e ->
      Fmt.pf ppf "[%d] parent=%d n=%d |S|=%d@." i e.parent
        (e.fission : Fission.t).n
        (Int_set.cardinal (Fission.members e.fission)))
    t.entries

(* ------------------------------------------------------------------ *)
(* Maintenance across graph rewrites                                  *)
(* ------------------------------------------------------------------ *)

(** Structural fingerprint of the *enabled* fissions — combined with the
    graph hash to deduplicate search states (two states with the same
    graph but different virtual fissions are different). *)
let fingerprint (t : t) : int64 =
  List.fold_left
    (fun h i ->
      let f = fission_at t i in
      let h = Util.hash_combine h (Int64.of_int (f : Fission.t).n) in
      Int_set.fold
        (fun v h -> Util.hash_combine h (Int64.of_int v))
        (Fission.members f) h)
    0x5bd1e995L (enabled_indices t)

(** Drop entries whose member nodes no longer all exist in [g] (after a
    graph rewrite), re-parenting children to the nearest surviving
    ancestor. *)
let prune (g : Graph.t) (t : t) : t =
  let alive = Array.map
      (fun e ->
        Int_set.for_all (fun v -> Graph.mem g v) (Fission.members e.fission)
        && ((e.fission : Fission.t).n = 1 || Fission.is_valid g e.fission))
      t.entries
  in
  let n = Array.length t.entries in
  let new_index = Array.make n (-1) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if alive.(i) then begin
      new_index.(i) <- !count;
      incr count
    end
  done;
  let rec surviving_parent i =
    let p = t.entries.(i).parent in
    if p < 0 then -1
    else if alive.(p) then new_index.(p)
    else surviving_parent p
  in
  let entries = Array.make !count { fission = { members = Int_set.empty; dims = Util.Int_map.empty; n = 1 }; parent = -1; children = [] } in
  for i = 0 to n - 1 do
    if alive.(i) then
      entries.(new_index.(i)) <-
        { fission = t.entries.(i).fission; parent = surviving_parent i; children = [] }
  done;
  (* rebuild children lists *)
  let children = Array.make !count [] in
  Array.iteri
    (fun i e -> if e.parent >= 0 then children.(e.parent) <- i :: children.(e.parent))
    entries;
  Array.iteri (fun i e -> entries.(i) <- { e with children = children.(i) }) entries;
  { entries }

(** Rebuild the candidate tree for a rewritten graph (Algorithm 1) while
    preserving the enabled fissions of [old_tree] that still validate:
    surviving enabled entries are matched by member set or appended as
    extra roots. *)
let refresh ?(max_level = default_max_level) (g : Graph.t) ~(old_tree : t)
    ~(hotspots : Int_set.t) : t =
  let fresh = construct ~max_level g ~hotspots in
  let survivors =
    List.filter_map
      (fun i ->
        let f = fission_at old_tree i in
        if
          Int_set.for_all (fun v -> Graph.mem g v) (Fission.members f)
          && Fission.is_valid g f
        then Some f
        else None)
      (enabled_indices old_tree)
  in
  List.fold_left
    (fun t (f : Fission.t) ->
      let matching = ref (-1) in
      Array.iteri
        (fun i e ->
          if Int_set.equal (Fission.members e.fission) (Fission.members f)
          then matching := i)
        t.entries;
      if !matching >= 0 then set_n t !matching f.n
      else
        (* append as a bare root entry: candidates it contains keep
           their own parents, so it has no children *)
        let entries = Array.append t.entries [| { fission = f; parent = -1; children = [] } |] in
        { entries })
    fresh survivors

(** Naive candidate construction for the ablation study (Fig. 13,
    "naïve-fission"): pick random dominator nodes instead of the
    heat/score heuristic. *)
let construct_naive ?(seed = 42) ?(per_component = 4) (g : Graph.t) : t =
  let rng = Random.State.make [| seed |] in
  let dg = Dgraph.build g in
  let candidates = ref [] in
  List.iter
    (fun comp ->
      let gn = Dgraph.graph_nodes_of_component comp in
      if Util.Int_set.cardinal gn >= 2 then begin
        let dom = Dominator.compute ~members:gn g in
        let nodes = Array.of_list (Int_set.elements gn) in
        for _ = 1 to per_component do
          let v = nodes.(Random.State.int rng (Array.length nodes)) in
          let sub = Dominator.strict_subtree dom v in
          if not (Int_set.is_empty sub) then
            match Dgraph.restrict comp sub with
            | Some dims when Int_map.cardinal dims = Int_set.cardinal sub ->
                let f : Fission.t = { members = sub; dims; n = 1 } in
                if smallest_valid_n g f <> None then
                  candidates := f :: !candidates
            | _ -> ()
        done
      end)
    (Dgraph.components dg);
  let dedup =
    List.sort_uniq
      (fun (a : Fission.t) (b : Fission.t) ->
        Int_set.compare a.members b.members)
      !candidates
  in
  let entries =
    Array.of_list
      (List.map (fun f -> { fission = f; parent = -1; children = [] }) dedup)
  in
  { entries }
