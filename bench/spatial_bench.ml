(** Extension experiment: spatial (halo) fission on batch-1
    high-resolution inference (VDSR super-resolution on the phone-class
    device) — the workload the paper's introduction motivates but regular
    F-Trans cannot touch.  Compares the unoptimized network, the
    scheduling-only optimizer, and real spatial expansions at several
    split factors, and checks the numeric equivalence of one expansion. *)

open Magis
module Interp = Magis_exec.Interp

let run (env : Common.env) =
  Common.hr "Extension: spatial (halo) fission, VDSR 512x512 batch-1 on mobile";
  let cost = Op_cost.create Hardware.mobile in
  let image = match env.scale with Zoo.Full -> 512 | Zoo.Quick -> 256 in
  let graph = Unet.srnet_inference ~image ~channels:64 ~depth:12 () in
  let base = Simulator.baseline cost (Graph_index.of_graph graph) in
  Printf.printf "%-16s peak %8.1f MB (100%%)  latency %7.1f ms\n" "unoptimized"
    (float_of_int base.peak_mem /. 1e6)
    (base.latency *. 1e3);
  (* the coordinated optimizer without spatial fission: nothing to gain *)
  let config = Common.search_config env in
  let r = Search.optimize_memory ~config cost ~overhead:0.10 graph in
  Printf.printf "%-16s peak %8.1f MB (%3.0f%%)  latency %+6.1f%%\n"
    "MAGIS (no spatial)"
    (float_of_int r.best.peak_mem /. 1e6)
    (100.0 *. float_of_int r.best.peak_mem /. float_of_int base.peak_mem)
    (100.0 *. (r.best.latency -. base.latency) /. base.latency);
  let cands = Spatial.candidates graph in
  List.iter
    (fun n ->
      match cands with
      | [] -> ()
      | f :: _ ->
          let f = { f with Spatial.n } in
          if Spatial.is_valid graph f then begin
            let e = Spatial.expand graph f in
            let order = Reorder.schedule ~max_states:0 e.graph in
            let res = Simulator.run cost e.graph order in
            Printf.printf "%-16s peak %8.1f MB (%3.0f%%)  latency %+6.1f%%\n"
              (Printf.sprintf "spatial x%d" n)
              (float_of_int res.peak_mem /. 1e6)
              (100.0 *. float_of_int res.peak_mem /. float_of_int base.peak_mem)
              (100.0 *. (res.latency -. base.latency) /. base.latency)
          end)
    [ 2; 4; 8 ];
  (* numeric spot check on a reduced copy (the interpreter is O(n^4) on
     convolutions) *)
  let small = Unet.srnet_inference ~image:16 ~channels:4 ~depth:3 () in
  match Spatial.candidates small with
  | f :: _ when Spatial.is_valid small { f with n = 2 } ->
      let e = Spatial.expand small { f with n = 2 } in
      let env_fn = Interp.default_env small in
      let a = Interp.run small ~env:env_fn in
      let b = Interp.run e.graph ~env:env_fn in
      let last = List.nth f.chain (List.length f.chain - 1) in
      Printf.printf
        "numeric check: split vs unsplit max diff = %.2e (tolerance 1e-4)\n"
        (Interp.max_diff (Hashtbl.find a last) (Hashtbl.find b e.replacement))
  | _ -> Printf.printf "numeric check skipped (no candidate)\n"
