(** Graph invariants on the per-candidate path must equal the code they
    replaced.

    The reference implementations below are the set- and hashtable-based
    routines that {!Graph.topo_order}, {!Graph.components_of},
    {!Graph.is_valid_order}, {!Wl_hash.hash}, {!Partition.nw_table} and
    {!Partition.partition} used before they moved onto arrays, bitsets
    and a binary heap.  They live only here, as oracles.  The shared
    {!Reach} closure is checked against the set-based {!Graph.anc} /
    {!Graph.des}, and the layers built on it against each other.  Subjects are
    QCheck-drawn Randnets after a seeded chain of rewrites (rewrites add
    nodes with high ids, so id order stops being a topological order)
    plus every zoo model at [Quick] scale. *)

open Magis
open Helpers
module Int_set = Util.Int_set
module Int_map = Util.Int_map

(* ------------------------------------------------------------------ *)
(* Reference implementations                                           *)
(* ------------------------------------------------------------------ *)

let reachable step start =
  let rec go visited frontier =
    match frontier with
    | [] -> visited
    | v :: rest ->
        let visited, frontier =
          List.fold_left
            (fun (vis, fr) u ->
              if Int_set.mem u vis then (vis, fr) else (Int_set.add u vis, u :: fr))
            (visited, rest) (step v)
        in
        go visited frontier
  in
  go (Int_set.of_list start) start

let ref_topo_order g =
  let indeg = Hashtbl.create (Graph.n_nodes g) in
  Graph.iter
    (fun n ->
      Hashtbl.replace indeg n.id
        (List.length (List.filter (fun p -> Graph.mem g p) (Graph.pre g n.id))))
    g;
  let module Pq = Set.Make (Int) in
  let ready =
    Hashtbl.fold (fun id d acc -> if d = 0 then Pq.add id acc else acc) indeg Pq.empty
  in
  let rec go ready acc =
    match Pq.min_elt_opt ready with
    | None -> List.rev acc
    | Some v ->
        let ready = Pq.remove v ready in
        let ready =
          List.fold_left
            (fun r s ->
              let d = Hashtbl.find indeg s - 1 in
              Hashtbl.replace indeg s d;
              if d = 0 then Pq.add s r else r)
            ready (Graph.suc g v)
        in
        go ready (v :: acc)
  in
  go ready []

let ref_components_of g set =
  let rec all acc remaining =
    match Int_set.choose_opt remaining with
    | None -> List.rev acc
    | Some seed ->
        let neighbors v =
          List.filter (fun u -> Int_set.mem u remaining) (Graph.pre g v @ Graph.suc g v)
        in
        let comp = Int_set.add seed (reachable neighbors [ seed ]) in
        all (comp :: acc) (Int_set.diff remaining comp)
  in
  all [] set

(* the old check compared the count of distinct positions with the node
   count, so it accepted repeated nodes; the length test is the fix *)
let ref_is_valid_order g order =
  let pos = Hashtbl.create (List.length order) in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  Hashtbl.length pos = Graph.n_nodes g
  && List.for_all (fun v -> Graph.mem g v) order
  && List.for_all
       (fun v ->
         List.for_all (fun p -> Hashtbl.find pos p < Hashtbl.find pos v) (Graph.pre g v))
       order
  && List.length order = Graph.n_nodes g

let ref_wl_hash g =
  let labels =
    List.fold_left
      (fun acc v ->
        let n = Graph.node g v in
        let h0 =
          Util.hash_combine (Util.hash_string (Op.name n.op)) (Shape.hash n.shape)
        in
        let h =
          Array.fold_left (fun h p -> Util.hash_combine h (Int_map.find p acc)) h0 n.inputs
        in
        Int_map.add v (Util.mix64 h) acc)
      Int_map.empty (ref_topo_order g)
  in
  Util.mix64 (Int_map.fold (fun _ h acc -> Int64.add acc h) labels 0L)

(* one breadth-first search per direction and node *)
let ref_nw g v =
  let bfs step =
    let rec go visited frontier =
      match frontier with
      | [] -> visited
      | u :: rest ->
          let nexts = List.filter (fun w -> not (Int_set.mem w visited)) (step u) in
          go (List.fold_left (fun acc w -> Int_set.add w acc) visited nexts) (nexts @ rest)
    in
    go Int_set.empty [ v ]
  in
  let anc = bfs (Graph.pre g) and des = bfs (Graph.suc g) in
  Graph.n_nodes g - Int_set.cardinal anc - Int_set.cardinal des - 1

let ref_partition ?(max_crossing = 1) g members =
  let topo = ref_topo_order g in
  let topo_pos = Hashtbl.create (List.length topo) in
  List.iteri (fun i v -> Hashtbl.replace topo_pos v i) topo;
  let blocks =
    List.concat_map
      (fun comp ->
        let ordered = List.filter (fun v -> Int_set.mem v comp) topo in
        let n = List.length ordered in
        let pos_in = Hashtbl.create n in
        List.iteri (fun i v -> Hashtbl.replace pos_in v i) ordered;
        let last_use = Hashtbl.create n in
        List.iter
          (fun v ->
            let i = Hashtbl.find pos_in v in
            let l =
              List.fold_left
                (fun acc s ->
                  match Hashtbl.find_opt pos_in s with Some j -> max acc j | None -> acc)
                i (Graph.suc g v)
            in
            Hashtbl.replace last_use v l)
          ordered;
        let crossing = Array.make (max n 1) 0 in
        List.iter
          (fun v ->
            let i = Hashtbl.find pos_in v in
            let l = Hashtbl.find last_use v in
            if l > i && not (Lifetime.pinned g v) then begin
              crossing.(i) <- crossing.(i) + 1;
              if l < n then crossing.(l) <- crossing.(l) - 1
            end)
          ordered;
        let segments = ref [] and current = ref [] in
        let open_count = ref 0 in
        List.iteri
          (fun i v ->
            current := v :: !current;
            open_count := !open_count + crossing.(i);
            if !open_count <= max_crossing then begin
              segments := List.rev !current :: !segments;
              current := []
            end)
          ordered;
        if !current <> [] then segments := List.rev !current :: !segments;
        List.rev_map Int_set.of_list !segments)
      (ref_components_of g members)
  in
  List.sort
    (fun a b ->
      let key s = Int_set.fold (fun v acc -> min acc (Hashtbl.find topo_pos v)) s max_int in
      compare (key a) (key b))
    blocks

(* ------------------------------------------------------------------ *)
(* Subjects                                                            *)
(* ------------------------------------------------------------------ *)

let rewrites g =
  let ctx =
    {
      Rule.hotspots = Int_set.of_list (Graph.node_ids g);
      frozen = Int_set.empty;
      schedule_pos = (fun _ -> None);
      max_per_rule = 2;
      restrict_to_hotspots = false;
    }
  in
  List.concat_map (fun (r : Rule.t) -> r.apply ctx g) (Sched_rules.all @ Taso_rules.all)

(** [steps] seeded rewrites away from [g]. *)
let rec rewritten g ~seed ~steps =
  if steps = 0 then g
  else
    match rewrites g with
    | [] -> g
    | l ->
        let rw : Rule.rewrite = List.nth l (seed mod List.length l) in
        rewritten rw.graph ~seed:((seed * 7) + 3) ~steps:(steps - 1)

let gen_graph =
  QCheck2.Gen.(
    let* cells = int_range 1 3 in
    let* nodes_per_cell = int_range 2 5 in
    let* seed = int_range 0 10_000 in
    let* steps = int_range 0 3 in
    return (cells, nodes_per_cell, seed, steps))

let build_graph (cells, nodes_per_cell, seed, steps) =
  let cfg =
    { Randnet.cells; nodes_per_cell; channels = 8; image = 8; batch = 2; seed }
  in
  rewritten (Randnet.build ~cfg ()) ~seed ~steps

let print_graph (cells, nodes_per_cell, seed, steps) =
  Printf.sprintf "randnet cells=%d nodes_per_cell=%d seed=%d, %d rewrites" cells
    nodes_per_cell seed steps

(** Node subsets of [g] drawn from [seed]: everything, a contiguous
    window of the topological order (what incremental rescheduling
    partitions), and a sparse random subset. *)
let member_sets g seed =
  let topo = Array.of_list (Graph.topo_order g) in
  let n = Array.length topo in
  let rng = Random.State.make [| seed |] in
  let lo = Random.State.int rng n in
  let hi = lo + Random.State.int rng (n - lo) in
  let all = Array.to_list topo in
  let window = Array.to_list (Array.sub topo lo (hi - lo + 1)) in
  let sparse = List.filter (fun _ -> Random.State.int rng 3 = 0) all in
  List.map Int_set.of_list [ all; window; sparse ]

(** A topological order other than the smallest-id one: Kahn with a
    seeded random choice among the ready nodes. *)
let random_topo_order g seed =
  let rng = Random.State.make [| seed |] in
  let indeg = Hashtbl.create 64 in
  Graph.iter (fun n -> Hashtbl.replace indeg n.id (List.length (Graph.pre g n.id))) g;
  let ready = ref (List.filter (fun v -> Hashtbl.find indeg v = 0) (Graph.node_ids g)) in
  let out = ref [] in
  while !ready <> [] do
    let v = List.nth !ready (Random.State.int rng (List.length !ready)) in
    ready := List.filter (( <> ) v) !ready;
    out := v :: !out;
    List.iter
      (fun s ->
        let d = Hashtbl.find indeg s - 1 in
        Hashtbl.replace indeg s d;
        if d = 0 then ready := s :: !ready)
      (Graph.suc g v)
  done;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Equalities                                                          *)
(* ------------------------------------------------------------------ *)

let same_sets a b = List.equal Int_set.equal a b

(** {!Reach} over a random topological order against {!Graph.anc} /
    {!Graph.des}, [nw_table] against [Liveness.mobility], and the
    [quick_check] verdicts against [check] at both edges of the bound
    interval; [Error what] names the first disagreement. *)
let check_closure g seed =
  let order = random_topo_order g seed in
  let r = Reach.compute ~order g in
  let ids = Graph.node_ids g in
  let reach_ok v =
    let anc = Graph.anc g v and des = Graph.des g v in
    Reach.n_anc r v = Int_set.cardinal anc
    && Reach.n_des r v = Int_set.cardinal des
    && List.for_all (fun u -> Reach.precedes r u v = Int_set.mem u anc) ids
  in
  if Reach.order r <> order then Error "Reach.order"
  else if not (List.for_all reach_ok ids) then Error "Reach"
  else
    let lv = Liveness.compute g and nw = Partition.nw_table g order in
    if not (List.for_all (fun v -> nw.(v) = Liveness.mobility lv v) ids) then
      Error "nw_table = mobility"
    else
      let b = Membound.compute g in
      let verdicts diags =
        List.filter_map
          (fun (d : Diagnostic.t) ->
            if List.mem d.check [ "lb-exceeds-peak"; "peak-exceeds-total" ] then
              Some (Diagnostic.to_string d)
            else None)
          diags
      in
      let agree peak =
        verdicts (Membound.quick_check g ~peak) = verdicts (Membound.check b ~peak)
      in
      if List.for_all agree [ b.lower - 1; b.lower; b.ub_total; b.ub_total + 1 ]
      then Ok ()
      else Error "quick_check verdicts"

(** Every invariant against its oracle on [g]; [Error what] names the
    first disagreement. *)
let check_graph g seed =
  let topo = Graph.topo_order g in
  if topo <> ref_topo_order g then Error "topo_order"
  else if not (Int64.equal (Wl_hash.hash g) (ref_wl_hash g)) then Error "Wl_hash.hash"
  else
    let nw_expected = List.map (fun v -> (v, ref_nw g v)) topo in
    let nw_matches order =
      let t = Partition.nw_table g order in
      List.for_all (fun (v, w) -> t.(v) = w) nw_expected
    in
    if not (nw_matches (Array.of_list topo)) then Error "nw_table (topo order)"
    else if not (nw_matches (random_topo_order g seed)) then Error "nw_table (random order)"
    else if not (nw_matches [||]) then Error "nw_table (fallback)"
    else
      let sets = member_sets g seed in
      if not (List.for_all (fun s -> same_sets (Graph.components_of g s) (ref_components_of g s)) sets)
      then Error "components_of"
      else if
        not
          (List.for_all
             (fun s ->
               same_sets (Partition.partition g s) (ref_partition g s)
               && same_sets
                    (Partition.partition ~max_crossing:3 g s)
                    (ref_partition ~max_crossing:3 g s))
             sets)
      then Error "partition"
      else
        let orders =
          match topo with
          | a :: b :: rest ->
              [
                topo; b :: a :: rest; a :: topo; topo @ [ b ]; a :: b :: b :: rest;
                a :: a :: rest; List.rev topo; rest;
              ]
          | _ -> [ topo; [] ]
        in
        if
          not
            (List.for_all
               (fun o -> Graph.is_valid_order g o = ref_is_valid_order g o)
               orders)
        then Error "is_valid_order"
        else check_closure g seed

let prop_randnets =
  QCheck2.Test.make ~name:"invariants equal their oracles on rewritten randnets"
    ~count:40 ~print:print_graph gen_graph (fun params ->
      let _, _, seed, _ = params in
      match check_graph (build_graph params) seed with
      | Ok () -> true
      | Error what -> QCheck2.Test.fail_report what)

let test_zoo () =
  let renumbered = ref 0 in
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let g' = rewritten g ~seed:5 ~steps:2 in
      (* the subjects must include graphs whose ids are not already in
         topological order, or the heap order is never exercised *)
      if Graph.topo_order g' <> Graph.node_ids g' then incr renumbered;
      List.iteri
        (fun i g ->
          match check_graph g (17 + i) with
          | Ok () -> ()
          | Error what -> Alcotest.failf "%s (%d): %s" w.name i what)
        [ g; g' ])
    Zoo.all;
  Alcotest.(check bool) "some rewritten graph leaves id order" true
    (!renumbered > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_randnets;
    tc "invariants equal their oracles on the zoo" test_zoo;
  ]
