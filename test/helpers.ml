(** Shared graph fixtures and assertion helpers for the test suite. *)

open Magis
module B = Builder

(* Arm the analysis hooks for the whole suite: every schedule a baseline
   emits is verified before it reaches the simulator. *)
let () = Analysis_hooks.set true

let cache () = Op_cost.create Hardware.default

let shape dims = Shape.create dims

(** Fail the test with the diagnostic report unless the IR verifier
    finds the graph clean (warnings allowed). *)
let verify_clean ?(what = "graph") g =
  let diags = Verify.graph g in
  if not (Diagnostic.is_clean diags) then
    Alcotest.failf "%s: %s" what (Diagnostic.report_to_string diags)

(** Same for the schedule legality checker. *)
let schedule_clean ?(what = "schedule") g order =
  let diags = Sched_check.schedule g order in
  if not (Diagnostic.is_clean diags) then
    Alcotest.failf "%s: %s" what (Diagnostic.report_to_string diags)

(** [verified g] returns [g] after asserting verifier-cleanliness —
    wraps the fixture builders below so every suite using them gets the
    check for free. *)
let verified ?what g =
  verify_clean ?what g;
  g

(** [a -> b -> c] chain of unary ops over a [n]-element tensor. *)
let chain3 ?(n = 16) () =
  let b = B.create () in
  let x = B.input b [ n ] ~dtype:Shape.F32 in
  let r1 = B.relu b x in
  let r2 = B.relu b r1 in
  let r3 = B.relu b r2 in
  (verified ~what:"chain3" (B.finish b), x, r1, r2, r3)

(** Diamond: x feeding two branches that join in an add. *)
let diamond ?(n = 16) () =
  let b = B.create () in
  let x = B.input b [ n ] ~dtype:Shape.F32 in
  let l = B.relu b x in
  let r = B.tanh_ b x in
  let j = B.add b l r in
  (verified ~what:"diamond" (B.finish b), x, l, r, j)

(** A two-layer MLP training graph (the Fig. 5 structure): two dense
    layers with ReLU, sum loss, full backward pass. *)
let mlp_training ?(batch = 8) ?(hidden = 16) () =
  let b = B.create () in
  let x = B.input b [ batch; hidden ] ~dtype:Shape.F32 in
  let w1 = B.weight b [ hidden; hidden ] ~dtype:Shape.F32 in
  let w2 = B.weight b [ hidden; hidden ] ~dtype:Shape.F32 in
  let h = B.relu b (B.dense b x w1) in
  let y = B.dense b h w2 in
  let loss = B.sum_loss b y in
  verified ~what:"mlp_training" (Autodiff.backward (B.finish b) ~loss)

(** Self-attention block graph of the paper's Fig. 4. *)
let attention ?(batch = 4) ?(seq = 8) ?(hidden = 16) ?(heads = 2) () =
  let c =
    { Transformer.batch; seq_len = seq; hidden; heads; layers = 1; vocab = 32;
      dtype = Shape.F32 }
  in
  let b = B.create () in
  let x = B.input b [ batch; seq; hidden ] ~dtype:Shape.F32 in
  let y = Transformer.block b x c in
  (verified ~what:"attention" (B.finish b), x, y)

let int_set = Util.Int_set.of_list

let check_set msg expected actual =
  Alcotest.(check (list int)) msg
    (List.sort compare expected)
    (List.sort compare (Util.Int_set.elements actual))

let check_sorted msg expected actual =
  Alcotest.(check (list int)) msg (List.sort compare expected)
    (List.sort compare actual)

(** Does [order] list every node of [g] exactly once, each after its
    operands? *)
let is_valid_order g order = Graph_index.is_valid_order (Graph_index.of_graph g) order

let valid_order_of g order = Alcotest.(check bool) "valid order" true
    (is_valid_order g order)

let tc name f = Alcotest.test_case name `Quick f

(** Does [needle] occur in [hay]? *)
let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(** The budgeted Table-2-style LM benchmark shared by the search-level
    suites (small enough for bounded-iteration A/B runs, large enough
    that every rewrite family fires). *)
let lm_small () =
  Transformer.build_lm
    { Transformer.batch = 8; seq_len = 32; hidden = 64; heads = 4; layers = 2;
      vocab = 128; dtype = Shape.F32 }

(** A path under the temp directory, [magis-test-<name>-<pid>-<n>],
    that is removed, with everything under it, when the test binary
    exits, as is every [path ^ suffix] for the given [suffixes]. *)
let temp_path =
  let next = ref 0 in
  let rec remove path =
    match (Unix.lstat path).st_kind with
    | Unix.S_DIR ->
        Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  fun ?(suffixes = [ "" ]) name ->
    incr next;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "magis-test-%s-%d-%d" name (Unix.getpid ()) !next)
    in
    at_exit (fun () -> List.iter (fun s -> remove (path ^ s)) suffixes);
    path
