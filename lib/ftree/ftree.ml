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

(** Smallest [n >= 2] for which a candidate of modulus [m] validates,
    if any: the smallest divisor [>= 2] of [m], its smallest prime
    factor.  [m] is the gcd of the extents the split divides, the
    assigned output extents among them, so it already divides the
    smallest of those; a candidate that assigns no output dim has
    none. *)
let smallest_n_of (f : Fission.t) (m : int) : int option =
  let rec go n = if n * n > m then m else if m mod n = 0 then n else go (n + 1) in
  if m >= 2 && Int_map.exists (fun _ d -> d > 0) f.dims then Some (go 2) else None

let smallest_valid_n (g : Graph.t) (f : Fission.t) : int option =
  match Fission.structure (Graph_index.of_graph g) f with
  | Error _ -> None
  | Ok m -> smallest_n_of f m

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
    [L] hyper-parameter (default {!default_max_level}).

    One {!Graph_index} serves the whole call: the D-graph, one dominator
    tree per component on member-local arrays, the heat and score
    tables, and each candidate's single {!Fission.structure} check.
    [T.des(v)] is the slice of the tree's preorder between [v]'s Euler
    bounds, so heat is a prefix sum over the preorder, and "no deeper
    node of the band" a count of band positions inside the slice. *)
let construct_on ~max_level (ix : Graph_index.t) ~(hotspots : Int_set.t) : t =
  let bound = Graph_index.bound ix in
  let hot v = Int_set.mem v hotspots in
  (* [stamp.(u) = s]: input [u] already counted for the score [s] *)
  let stamp = Array.make bound (-1) and n_scores = ref 0 in
  let candidates = ref [] in
  List.iter
    (fun comp ->
      let ids = Dgraph.nodes comp in
      let sub = Graph_index.induced ix ids in
      let dom = Dominator.of_induced ix sub in
      let pre = Dominator.preorder dom in
      let tin = Dominator.tin dom and tout = Dominator.tout dom in
      (* heat (Eq. (3)): hot-spot bytes strictly below, as a prefix sum
         over the preorder *)
      let hot_before = Array.make (Array.length pre + 1) 0 in
      Array.iteri
        (fun i k ->
          let v = ids.(k) in
          hot_before.(i + 1) <-
            (hot_before.(i) + if hot v then Graph_index.size_bytes ix v else 0))
        pre;
      let heat k = hot_before.(tout k) - hot_before.(tin k + 1) in
      (* exact scores only for the hottest nodes: score <= heat/2, so
         cool nodes cannot enter any band; ties keep increasing id *)
      let by_heat =
        List.filter_map
          (fun k -> if tin k >= 0 && heat k > 0 then Some (k, heat k) else None)
          (List.init (Array.length ids) Fun.id)
        |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b a)
      in
      (* Eq. (4) at n = 2: (1 - 1/2) heat - Σ bytes of the subtree's
         inputs that are not hot-spots *)
      let score (k, heat) =
        incr n_scores;
        let lo = tin k + 1 and hi = tout k in
        let cost = ref 0 in
        for i = lo to hi - 1 do
          let w = pre.(i) in
          (* members' operands come in increasing id, as do the local
             ones among them *)
          let local = sub.local_preds.(w) and j = ref 0 in
          Array.iter
            (fun p ->
              let inside =
                !j < Array.length local
                && ids.(local.(!j)) = p
                &&
                let t = tin local.(!j) in
                incr j;
                t >= lo && t < hi
              in
              if (not inside) && stamp.(p) <> !n_scores then begin
                stamp.(p) <- !n_scores;
                if not (hot p) then cost := !cost + Graph_index.size_bytes ix p
              end)
            (Graph_index.preds ix ids.(w))
        done;
        (k, (heat / 2) - !cost)
      in
      let scores =
        List.map score (Util.take 96 by_heat)
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      let smax = List.fold_left (fun acc (_, s) -> max s acc) 0 scores in
      if smax > 0 then
        for i = 1 to max_level do
          let in_band (_, s) =
            let lo = float_of_int i /. float_of_int max_level in
            let hi = float_of_int (i + 1) /. float_of_int max_level in
            let r = float_of_int s /. float_of_int smax in
            r >= lo && r < hi
          in
          let band = List.filter in_band scores in
          let positions = Array.of_list (List.map (fun (k, _) -> tin k) band) in
          Array.sort Int.compare positions;
          let count_below = Graph_index.lower_bound positions in
          List.iter
            (fun (k, _) ->
              let lo = tin k + 1 and hi = tout k in
              if hi > lo && count_below hi = count_below lo then begin
                let members =
                  Int_set.of_list (List.init (hi - lo) (fun i -> ids.(pre.(lo + i))))
                in
                match Dgraph.restrict comp members with
                | None -> ()
                | Some dims ->
                    if Int_map.cardinal dims = hi - lo then
                      let f : Fission.t = { members; dims; n = 1 } in
                      match Fission.structure ix f with
                      | Ok m when smallest_n_of f m <> None ->
                          candidates := f :: !candidates
                      | _ -> ()
              end)
            band
        done)
    (Dgraph.components (Dgraph.of_index ix));
  of_fissions !candidates

let construct ?(max_level = default_max_level) (g : Graph.t) ~(hotspots : Int_set.t) : t =
  construct_on ~max_level (Graph_index.of_graph g) ~hotspots

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
    on member [v] along [v]'s dimension, counting the [enabled] entries
    that assign the same dimension to [v]. *)
let combined_factor_on t ~enabled v dim ~candidate ~n =
  List.fold_left
    (fun acc j ->
      if j = candidate then acc
      else
        let f = fission_at t j in
        match Int_map.find_opt v (f : Fission.t).dims with
        | Some d when d = dim -> acc * f.n
        | _ -> acc)
    n enabled

(* The feasibility questions of one mutation round, on one index of
   the graph.  Fission numbers leave members and dims alone, so each
   entry's {!Fission.structure} holds for every tree derived from [t] by
   [set_n], and is computed once, on first use. *)
type round = { ix : Graph_index.t; structure : int -> (int, string) result }

let round ix t =
  let memo = Array.make (n_entries t) None in
  let structure i =
    match memo.(i) with
    | Some r -> r
    | None ->
        let r = Fission.structure ix (fission_at t i) in
        memo.(i) <- Some r;
        r
  in
  { ix; structure }

(** Would setting entry [i] of [t] to fission number [n] keep all extents
    divisible, accounting for other enabled entries splitting the same
    dimensions? *)
let n_is_feasible r t ~enabled i n =
  let f = fission_at t i in
  (match r.structure i with Ok m -> m mod n = 0 | Error _ -> false)
  && Int_set.for_all
       (fun v ->
         match Int_map.find_opt v (f : Fission.t).dims with
         | Some d when d > 0 ->
             let total = combined_factor_on t ~enabled v d ~candidate:i ~n in
             Shape.dim (Graph_index.shape r.ix v) (d - 1) mod total = 0
         | _ -> true)
       (Fission.members f)

(** Smallest feasible fission number [>= n] for entry [i] (up to 1024). *)
let next_feasible_n r t i n =
  let enabled = enabled_indices t in
  let rec go n =
    if n > 1024 then None
    else if n_is_feasible r t ~enabled i n then Some n
    else go (n + 1)
  in
  go n

let smallest_feasible_n r t i =
  match r.structure i with
  | Error _ -> None
  | Ok m ->
      Option.bind
        (smallest_n_of (fission_at t i) m)
        (next_feasible_n r t i)

let set_n (t : t) (i : int) (n : int) : t =
  let entries = Array.copy t.entries in
  entries.(i) <-
    { (entries.(i)) with fission = Fission.with_n entries.(i).fission n };
  { entries }

(** All mutations applicable to the current tree, each with the tree it
    yields ([None] for a Lift whose parent has no feasible number). *)
let mutations_on (ix : Graph_index.t) (t : t) : (mutation * t option) list =
  let r = round ix t in
  let ms = ref [] in
  Array.iteri
    (fun i e ->
      let enabled = is_enabled t i in
      if enabled then begin
        (* Disable: enabled node with no enabled descendant *)
        if not (has_enabled_descendant t i) then
          ms := (Disable i, Some (set_n t i 1)) :: !ms;
        (* Mutate: next feasible fission number *)
        (match next_feasible_n r t i (n_at t i + 1) with
        | Some n -> ms := (Mutate i, Some (set_n t i n)) :: !ms
        | None -> ());
        (* Lift: enabled node without enabled ancestor, disabled parent *)
        if
          (not (has_enabled_ancestor t i))
          && e.parent >= 0
          && not (is_enabled t e.parent)
        then
          let t' = set_n t i 1 in
          ms :=
            (Lift i, Option.map (set_n t' e.parent) (smallest_feasible_n r t' e.parent))
            :: !ms
      end
      else if not (has_enabled_ancestor t i) then begin
        (* Enable: disabled leaf, or disabled parent of an enabled node *)
        let frontier =
          e.children = [] || List.exists (fun c -> is_enabled t c) e.children
        in
        if frontier then
          match smallest_feasible_n r t i with
          | Some n -> ms := (Enable i, Some (set_n t i n)) :: !ms
          | None -> ()
      end)
    t.entries;
  List.rev !ms

(** The tree a listed mutation yields; [None] if it is not listed or
    yields none. *)
let apply (g : Graph.t) (t : t) (m : mutation) : t option =
  List.find_map
    (fun (m', t') -> if m' = m then Some t' else None)
    (mutations_on (Graph_index.of_graph g) t)
  |> Option.join

(* ------------------------------------------------------------------ *)
(* Virtual accounting                                                 *)
(* ------------------------------------------------------------------ *)

type accounting = {
  size_of : int -> int;  (** device bytes of a node's output *)
  cost_of : int -> float;  (** per-node latency incl. split execution *)
  extra_latency : float;  (** boundary slice/merge overhead *)
  index : Graph_index.t;  (** the index [size_of] and [cost_of] read *)
}

(** Build the virtual-fission accounting for the graph indexed by [ix]
    under tree [t].  See the module header for the model.  [size_of]
    and [cost_of] read [ix], handed on in [index] so the simulation of
    the same candidate reads it too; [base] is the unsplit cost of a
    node ({!Op_cost.node_cost_on} by default). *)
let accounting ?base (cost : Op_cost.t) (ix : Graph_index.t) (t : t) : accounting =
  let base =
    match base with Some f -> f | None -> Op_cost.node_cost_on cost ix
  in
  (* device bytes by node id, filled once: the rescheduler and the
     simulation each ask for a node's size *)
  let sizes = Array.map Lifetime.node_size (Graph_index.nodes ix) in
  let enabled = enabled_indices t in
  match enabled with
  | [] ->
      {
        size_of = Array.get sizes;
        cost_of = base;
        extra_latency = 0.0;
        index = ix;
      }
  | _ ->
      (* each entry with its members, increasing, and which of them are
         outputs of the entry *)
      let entries =
        List.map
          (fun i ->
            let f = fission_at t i in
            let ids = Array.of_list (Int_set.elements (Fission.members f)) in
            (i, f, ids, Fission.outputs ix ids))
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
      (* One pass over each entry's members, by node id: the product of
         the [n] of the entries that split the node's output (member,
         not an output of the entry), the product of the [n] of the
         entries containing it, and those entries in entry order.
         Dividing a size by each [n] in turn rounds like dividing once
         by their product. *)
      let bound = Graph_index.bound ix in
      let divisor = Array.make bound 1 and factor = Array.make bound 1 in
      let within = Array.make bound [] in
      List.iter
        (fun (_, f, ids, is_out) ->
          let n = (f : Fission.t).n in
          Array.iteri
            (fun k v ->
              factor.(v) <- factor.(v) * n;
              within.(v) <- f :: within.(v);
              if not is_out.(k) then divisor.(v) <- divisor.(v) * n)
            ids)
        (List.rev entries);
      Array.iteri (fun v d -> if d > 1 then sizes.(v) <- sizes.(v) / d) divisor;
      let size_of = Array.get sizes in
      let cost_of v =
        let node = Graph_index.node ix v in
        match node.op with
        | Op.Input _ | Op.Store | Op.Load -> 0.0
        | _ ->
            if factor.(v) = 1 then base v
            else
              (* progressively scale shapes through each enclosing entry *)
              let ins, out =
                List.fold_left
                  (fun shapes f -> Fission.scaled_shapes ix f v shapes)
                  (Graph_index.in_shapes ix v, node.shape)
                  within.(v)
              in
              float_of_int factor.(v) *. Op_cost.cost cost node.op ins out
      in
      let hw = (cost : Op_cost.t).hw in
      let extra_latency =
        List.fold_left
          (fun acc (i, f, ids, is_out) ->
            let fa = float_of_int (ancestor_factor i) in
            let n = float_of_int (f : Fission.t).n in
            let roles =
              match Fission.input_roles ix f with
              | Ok r -> r
              | Error _ -> Int_map.empty
            in
            let sliced_bytes =
              Int_map.fold
                (fun u role acc ->
                  match role with
                  | Fission.Sliced _ -> acc + Graph_index.size_bytes ix u
                  | Fission.Shared -> acc)
                roles 0
            in
            let outs = List.filteri (fun k _ -> is_out.(k)) (Array.to_list ids) in
            let out_bytes =
              List.fold_left (fun acc v -> acc + Graph_index.size_bytes ix v) 0 outs
            in
            let bytes = float_of_int (2 * (sliced_bytes + out_bytes)) in
            let launches = n *. float_of_int (Int_map.cardinal roles + List.length outs) in
            acc
            +. fa
               *. ((bytes /. hw.Hardware.mem_bandwidth)
                  +. (launches *. hw.Hardware.launch_overhead)))
          0.0 entries
      in
      { size_of; cost_of; extra_latency; index = ix }

let realize (g : Graph.t) (t : t) : Graph.t =
  List.fold_left
    (fun acc i ->
      let f = fission_at t i in
      if has_enabled_ancestor t i then acc
      else if Fission.is_valid (Graph_index.of_graph acc) f then
        (Fission.expand acc f).graph
      else acc)
    g (enabled_indices t)

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

(** Drop entries whose member nodes no longer all exist in the graph
    indexed by [ix] (after a graph rewrite), and enabled entries that no
    longer validate, re-parenting children to the nearest surviving
    ancestor. *)
let prune (ix : Graph_index.t) (t : t) : t =
  let alive =
    Array.map
      (fun e ->
        let f = e.fission in
        if f.n = 1 then Int_set.for_all (Graph_index.mem ix) f.members
        else Fission.is_valid ix f)
      t.entries
  in
  let n = Array.length t.entries in
  let kept = List.filter (fun i -> alive.(i)) (List.init n Fun.id) in
  let new_index = Array.make n (-1) in
  List.iteri (fun k i -> new_index.(i) <- k) kept;
  let rec surviving_parent i =
    let p = t.entries.(i).parent in
    if p < 0 then -1
    else if alive.(p) then new_index.(p)
    else surviving_parent p
  in
  let parents = Array.of_list (List.map surviving_parent kept) in
  let children = Array.make (Array.length parents) [] in
  Array.iteri (fun k p -> if p >= 0 then children.(p) <- k :: children.(p)) parents;
  let entry k i = { fission = t.entries.(i).fission; parent = parents.(k); children = children.(k) } in
  { entries = Array.of_list (List.mapi entry kept) }

(** Rebuild the candidate tree for a rewritten graph (Algorithm 1) while
    preserving the enabled fissions of [old_tree] that still validate:
    surviving enabled entries are matched by member set or appended as
    extra roots. *)
let refresh_on ?(max_level = default_max_level) (ix : Graph_index.t)
    ~(old_tree : t) ~(hotspots : Int_set.t) : t =
  let fresh = construct_on ~max_level ix ~hotspots in
  let survivors =
    List.filter_map
      (fun i ->
        let f = fission_at old_tree i in
        if Fission.is_valid ix f then Some f else None)
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
let construct_naive ?(seed = 42) ?(per_component = 4) (ix : Graph_index.t) :
    t =
  let rng = Random.State.make [| seed |] in
  let candidates = ref [] in
  List.iter
    (fun comp ->
      let nodes = Dgraph.nodes comp in
      let dom = Dominator.of_induced ix (Graph_index.induced ix nodes) in
      for _ = 1 to per_component do
        let v = nodes.(Random.State.int rng (Array.length nodes)) in
        let sub = Dominator.strict_subtree dom v in
        if not (Int_set.is_empty sub) then
          match Dgraph.restrict comp sub with
          | Some dims when Int_map.cardinal dims = Int_set.cardinal sub -> (
              let f : Fission.t = { members = sub; dims; n = 1 } in
              match Fission.structure ix f with
              | Ok m when smallest_n_of f m <> None ->
                  candidates := f :: !candidates
              | _ -> ())
          | _ -> ()
      done)
    (Dgraph.components (Dgraph.of_index ix));
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
