(** Figure 14: incremental scheduling (IS) vs full scheduling (FS) on 10
    randomly generated NASNet-like DNNs, 10 graph transformations each
    (TASO-style rules), after an initial schedule.  (a) per-test speedup of
    IS over FS; (b) optimization quality (peak memory with IS / peak with
    FS — 1.0 means IS matched the optimum FS found). *)

open Magis
module Int_set = Util.Int_set

let transformations env g ~hotspots ~schedule =
  let pos = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) schedule;
  let ctx =
    {
      Rule.default_ctx with
      hotspots;
      schedule_pos = (fun v -> Hashtbl.find_opt pos v);
      max_per_rule = 4;
    }
  in
  List.concat_map
    (fun (r : Rule.t) -> Rule.apply r ctx g)
    (Taso_rules.all @ Sched_rules.all)
  |> fun l -> ignore env; l

let run (env : Common.env) =
  Common.hr "Figure 14: incremental vs full scheduling (10 DNNs x 10 transformations)";
  let speedups = ref [] and qualities = ref [] in
  for seed = 1 to 10 do
    let cfg = { Randnet.default with seed } in
    let g0 = Randnet.build ~cfg () in
    let schedule = ref (Reorder.schedule ~max_states:2_000 g0) in
    let g = ref g0 in
    let applied = ref 0 in
    while !applied < 10 do
      let res = Simulator.run env.Common.cost !g !schedule in
      let hotspots = Lifetime.hotspots res.analysis in
      let rewrites = transformations env !g ~hotspots ~schedule:!schedule in
      match rewrites with
      | [] -> applied := 10 (* no more transformations available *)
      | rw :: _ ->
          incr applied;
          let size_of v = Lifetime.default_size rw.Rule.graph v in
          (* full scheduling *)
          let t0 = Unix.gettimeofday () in
          let fs = Reorder.schedule ~max_states:2_000 rw.graph in
          let t_fs = Unix.gettimeofday () -. t0 in
          (* incremental scheduling *)
          let t0 = Unix.gettimeofday () in
          let is_, _ =
            Incremental.reschedule ~max_states:2_000
              ~parent:(Incremental.parent (Graph_index.of_graph !g) !schedule) ~new_index:(Graph_index.of_graph rw.graph)
              ~mutated_old:rw.touched_old ~size_of ()
          in
          let t_is = Unix.gettimeofday () -. t0 in
          let peak order =
            (Simulator.run env.Common.cost rw.graph order).peak_mem
          in
          speedups := (t_fs /. Float.max 1e-6 t_is) :: !speedups;
          qualities :=
            (float_of_int (peak is_) /. float_of_int (max 1 (peak fs)))
            :: !qualities;
          g := rw.graph;
          schedule := is_
    done
  done;
  let speedups = List.rev !speedups and qualities = List.rev !qualities in
  let n = List.length speedups in
  let geomean l =
    exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))
  in
  Printf.printf "(a) IS speedup over FS across %d tests:\n  " n;
  List.iteri
    (fun i s ->
      Printf.printf "%5.1f " s;
      if (i + 1) mod 20 = 0 then Printf.printf "\n  ")
    speedups;
  Printf.printf "\n  geomean speedup = %.1fx  (min %.1fx, max %.1fx)\n"
    (geomean speedups)
    (List.fold_left Float.min infinity speedups)
    (List.fold_left Float.max 0.0 speedups);
  let same = List.length (List.filter (fun q -> q <= 1.0 +. 1e-9) qualities) in
  Printf.printf
    "(b) quality (IS peak / FS peak): %d/%d tests at FS-level optimality; worst %.3f\n"
    same n
    (List.fold_left Float.max 0.0 qualities)
