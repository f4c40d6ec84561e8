open Magis
open Helpers

let test_cost_positive_and_repeatable () =
  let c = cache () in
  let g = mlp_training () in
  Graph.iter
    (fun n ->
      let t = Op_cost.node_cost c g n.id in
      if Op.is_input n.op || Op.is_swap n.op then
        Alcotest.(check (float 0.0)) "free" 0.0 t
      else
        Alcotest.(check bool) (Printf.sprintf "%s > 0" (Op.name n.op)) true
          (t > 0.0))
    g;
  let first = Op_cost.graph_cost c g in
  Alcotest.(check int64) "same sum on a second pass"
    (Int64.bits_of_float first)
    (Int64.bits_of_float (Op_cost.graph_cost c g))

let test_bigger_op_costs_more () =
  let c = cache () in
  let mm = Op.Matmul { trans_a = false; trans_b = false } in
  let small = Op_cost.cost c mm [| shape [ 32; 32 ]; shape [ 32; 32 ] |]
      (shape [ 32; 32 ]) in
  let big = Op_cost.cost c mm [| shape [ 256; 256 ]; shape [ 256; 256 ] |]
      (shape [ 256; 256 ]) in
  Alcotest.(check bool) "bigger matmul slower" true (big > small)

let test_utilization_penalty () =
  (* n sequential halves cost more than the whole: the fission tax *)
  let c = cache () in
  let mm = Op.Matmul { trans_a = false; trans_b = false } in
  let whole = Op_cost.cost c mm [| shape [ 128; 64 ]; shape [ 64; 64 ] |]
      (shape [ 128; 64 ]) in
  let half = Op_cost.cost c mm [| shape [ 64; 64 ]; shape [ 64; 64 ] |]
      (shape [ 64; 64 ]) in
  Alcotest.(check bool) "2 x half > whole" true (2.0 *. half > whole)

let test_swap_time () =
  let c = cache () in
  let t = Op_cost.swap_time c 16_000_000_000 in
  (* 16 GB over a 16 GB/s link = 1 second *)
  Alcotest.(check (float 0.01)) "pcie model" 1.0 t

let test_hardware_profiles () =
  Alcotest.(check bool) "desktop faster than mobile" true
    (Hardware.rtx3090.peak_flops > Hardware.mobile.peak_flops);
  Alcotest.(check bool) "default is desktop" true
    (Hardware.default.name = Hardware.rtx3090.name)

(** Every query visits the [op_cost] fault site once and counts one
    [op_cost.queries], repeated keys included, on one domain and on
    two (the daemon's default worker count): four tasks, run on the
    calling domain or split over two spawned domains, each query every
    node of one graph through [cost], [node_cost] and [node_cost_on],
    so every key is queried twelve times. *)
let test_site_visits_count_queries () =
  let g = mlp_training () in
  let ix = Graph_index.of_graph g in
  let ids = Array.of_list (Graph.node_ids g) in
  let queries = Metrics.counter "op_cost.queries" in
  let metrics = Metrics.enabled () in
  List.iter
    (fun domains ->
      let c = cache () in
      Metrics.set_enabled true;
      Fault.observe ();
      Fun.protect
        ~finally:(fun () ->
          Fault.disarm ();
          Metrics.set_enabled metrics)
        (fun () ->
          let q0 = Metrics.counter_value queries in
          let task () =
            Array.iter
              (fun v ->
                let n = Graph.node g v in
                ignore (Op_cost.cost c n.op (Graph_index.in_shapes ix v) n.shape : float);
                ignore (Op_cost.node_cost c g v : float);
                ignore (Op_cost.node_cost_on c ix v : float))
              ids
          in
          let tasks n () = for _ = 1 to n do task () done in
          if domains = 1 then tasks 4 ()
          else
            List.iter Domain.join
              [ Domain.spawn (tasks 2); Domain.spawn (tasks 2) ];
          let expected = 4 * 3 * Array.length ids in
          Alcotest.(check int)
            (Printf.sprintf "site visits, %d domain(s)" domains)
            expected (Fault.visits "op_cost");
          Alcotest.(check int)
            (Printf.sprintf "op_cost.queries, %d domain(s)" domains)
            expected
            (Metrics.counter_value queries - q0)))
    [ 1; 2 ]

(** [node_cost_on], [node_cost] and [cost] agree bit for bit on every
    node of every zoo model on every hardware profile. *)
let test_entry_points_agree () =
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let ix = Graph_index.of_graph g in
      List.iter
        (fun (hw : Hardware.t) ->
          let c = Op_cost.create hw in
          Graph.iter
            (fun n ->
              let on = Int64.bits_of_float (Op_cost.node_cost_on c ix n.id) in
              let what = Printf.sprintf "%s on %s, node %d" w.name hw.name n.id in
              Alcotest.(check int64) (what ^ ": node_cost") on
                (Int64.bits_of_float (Op_cost.node_cost c g n.id));
              Alcotest.(check int64) (what ^ ": cost") on
                (Int64.bits_of_float
                   (Op_cost.cost c n.op (Graph_index.in_shapes ix n.id) n.shape)))
            g)
        Hardware.profiles)
    Zoo.all

let suite =
  [
    tc "cost positive and repeatable" test_cost_positive_and_repeatable;
    tc "bigger op costs more" test_bigger_op_costs_more;
    tc "utilization penalty" test_utilization_penalty;
    tc "swap time" test_swap_time;
    tc "hardware profiles" test_hardware_profiles;
    tc "op_cost site visits count queries" test_site_visits_count_queries;
    tc "node_cost_on = node_cost = cost" test_entry_points_agree;
  ]
