(** Resilience: fault-injector mechanics, bounded retry, crash-safe
    checkpoints — and the chaos guarantees of the supervised search:
    transient injected faults leave the result bit-identical, persistent
    ones are quarantined with diagnostics, budget exhaustion returns
    best-so-far, and a SIGTERM'd search resumes from its checkpoint. *)

open Magis
open Helpers

(* ------------------------------------------------------------------ *)
(* Fault injector                                                      *)
(* ------------------------------------------------------------------ *)

let test_fault_injector () =
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  Fault.arm [ { Fault.site = "s"; at = 2; kind = Fault.Exception } ];
  Fault.hit "s";
  Alcotest.check_raises "second visit fires"
    (Fault.Injected ("s", 2))
    (fun () -> Fault.hit "s");
  (* the trigger count is consumed: the site is clean again *)
  Fault.hit "s";
  Alcotest.(check int) "visits counted" 3 (Fault.visits "s");
  Alcotest.(check int) "one fault fired" 1 (List.length (Fault.fired ()));
  Fault.arm [ { Fault.site = "c"; at = 1; kind = Fault.Nan_cost } ];
  Alcotest.(check bool) "cost corrupted to nan" true
    (Float.is_nan (Fault.cost "c" 1.0));
  Alcotest.(check (float 0.0)) "next cost clean" 1.0 (Fault.cost "c" 1.0);
  Fault.disarm ();
  Alcotest.(check int) "disarmed counts nothing" 0 (Fault.visits "c");
  (* disarmed sites are free *)
  Fault.hit "s";
  Alcotest.(check (float 0.0)) "disarmed cost is identity" 2.5
    (Fault.cost "c" 2.5)

let test_fault_seeded_and_burst () =
  let pairs = [ ("a", Fault.Exception); ("b", Fault.Nan_cost) ] in
  let p1 = Fault.seeded ~seed:9 ~lo:10 ~hi:50 pairs in
  let p2 = Fault.seeded ~seed:9 ~lo:10 ~hi:50 pairs in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check int) "one spec per pair" 2 (List.length p1);
  List.iter
    (fun (s : Fault.spec) ->
      if s.at < 10 || s.at >= 50 then
        Alcotest.failf "site %s planted outside [10, 50): %d" s.site s.at)
    p1;
  Alcotest.(check bool) "different seed, different plan" true
    (p1 <> Fault.seeded ~seed:10 ~lo:10 ~hi:50 pairs);
  let b = Fault.burst ~site:"x" ~at:7 ~len:3 Fault.Exception in
  Alcotest.(check (list int)) "burst covers consecutive visits" [ 7; 8; 9 ]
    (List.map (fun (s : Fault.spec) -> s.at) b)

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let fast = { Retry.attempts = 3; base_delay = 0.0; multiplier = 1.0 }

let test_retry_transient () =
  let n = ref 0 in
  match
    Retry.run ~policy:fast (fun () ->
        incr n;
        if !n < 3 then failwith "flaky";
        !n)
  with
  | Ok v -> Alcotest.(check int) "succeeded on third execution" 3 v
  | Error _ -> Alcotest.fail "transient failure must be retried through"

let test_retry_exhausted () =
  let n = ref 0 in
  match
    Retry.run
      ~policy:{ fast with attempts = 2 }
      (fun () ->
        incr n;
        failwith "down")
  with
  | Ok _ -> Alcotest.fail "persistent failure cannot succeed"
  | Error f ->
      Alcotest.(check int) "executions = 1 + attempts" 3 f.attempts;
      Alcotest.(check int) "function ran that many times" 3 !n;
      (match f.exn with
      | Failure msg -> Alcotest.(check string) "last exception kept" "down" msg
      | e -> Alcotest.failf "wrong exception kept: %s" (Printexc.to_string e))

let test_retry_fatal_reraises () =
  let n = ref 0 in
  (try
     ignore
       (Retry.run ~policy:fast (fun () ->
            incr n;
            raise (Assert_failure ("never retry me", 0, 0))));
     Alcotest.fail "fatal exception must escape"
   with Assert_failure _ -> ());
  Alcotest.(check int) "fatal ran exactly once" 1 !n

(* ------------------------------------------------------------------ *)
(* Checkpoint files                                                    *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "magis_test" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> f path

let expect_incompatible what f =
  match f () with
  | _ -> Alcotest.failf "%s: load must raise Incompatible" what
  | exception Checkpoint.Incompatible _ -> ()

let test_checkpoint_roundtrip () =
  with_temp_file @@ fun path ->
  let payload = List.init 100 string_of_int in
  Checkpoint.save ~path ~version:3 ~fingerprint:42L payload;
  Alcotest.(check bool) "exists" true (Checkpoint.exists path);
  let restored : string list =
    Checkpoint.load ~path ~version:3 ~fingerprint:42L
  in
  Alcotest.(check (list string)) "payload round-trips" payload restored;
  expect_incompatible "version mismatch" (fun () ->
      (Checkpoint.load ~path ~version:4 ~fingerprint:42L : string list));
  expect_incompatible "fingerprint mismatch" (fun () ->
      (Checkpoint.load ~path ~version:3 ~fingerprint:43L : string list));
  expect_incompatible "missing file" (fun () ->
      (Checkpoint.load ~path:(path ^ ".nope") ~version:3 ~fingerprint:42L
        : string list))

let test_checkpoint_detects_corruption () =
  with_temp_file @@ fun path ->
  Checkpoint.save ~path ~version:1 ~fingerprint:7L [| 1.5; 2.5; 3.5 |];
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = Bytes.create len in
  really_input ic bytes 0 len;
  close_in ic;
  (* flip a bit in the payload's last byte: the digest must catch it *)
  Bytes.set bytes (len - 1)
    (Char.chr (Char.code (Bytes.get bytes (len - 1)) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  expect_incompatible "corrupted payload" (fun () ->
      (Checkpoint.load ~path ~version:1 ~fingerprint:7L : float array));
  (* truncation is detected too *)
  let oc = open_out_bin path in
  output_bytes oc (Bytes.sub bytes 0 (len - 4));
  close_out oc;
  expect_incompatible "truncated file" (fun () ->
      (Checkpoint.load ~path ~version:1 ~fingerprint:7L : float array))

(* ------------------------------------------------------------------ *)
(* Chaos: the supervised search under injected faults                  *)
(* ------------------------------------------------------------------ *)

let randnet ?(cells = 1) seed =
  Randnet.build
    ~cfg:
      { Randnet.cells; nodes_per_cell = 4; channels = 8; image = 8; batch = 2;
        seed }
    ()

let run_with ?(max_iterations = 8) ?(cfg = fun c -> c) g =
  let config =
    cfg { Search.default_config with max_iterations; time_budget = 1e9 }
  in
  Search.optimize_memory ~config (cache ()) ~overhead:0.10 g

let check_same_best what (r1 : Search.result) (r2 : Search.result) =
  Alcotest.(check int)
    (what ^ ": identical peak memory")
    r1.best.peak_mem r2.best.peak_mem;
  Alcotest.(check (float 0.0))
    (what ^ ": identical latency")
    r1.best.latency r2.best.latency;
  Alcotest.(check (list int))
    (what ^ ": identical schedule")
    r1.best.schedule r2.best.schedule

(* The [search.*] metrics, in {!Search.counter_names} order. *)
let search_metrics () =
  List.map
    (fun n -> (n, Metrics.counter_value (Metrics.counter ("search." ^ n))))
    Search.counter_names

(** One planted transient fault per site: the supervisor's retry must
    absorb it and reproduce the fault-free search exactly — same best,
    same iteration count, nothing quarantined.  Every step counts only
    once it has succeeded, so every counter but [retried] equals the
    fault-free run's: a failed attempt that is retried is counted
    once.  The metrics are published from the run's table, so every
    [search.*] counter moves by exactly the table's value. *)
let test_chaos_transient_identity () =
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  Metrics.set_enabled true;
  let g = randnet 5 in
  Fault.observe ();
  let clean = run_with g in
  let visits =
    (* sites the search never reaches (e.g. the socket-layer sites,
       exercised by test_serve instead) cannot fire here *)
    List.filter_map
      (fun s ->
        let v = Fault.visits s in
        if v = 0 then None else Some (s, v))
      Fault.sites
  in
  Fault.disarm ();
  Alcotest.(check (list string)) "fault-free run has no diagnostics" []
    (List.map Diagnostic.to_string clean.diagnostics);
  List.iter
    (fun (site, v) ->
      (* skip the early visits: the baseline simulation and initial
         M-state run outside the supervised expansion *)
      let lo = max 4 (v / 3) and hi = max 5 (2 * v / 3) in
      let kinds =
        [ ("exception", Fault.Exception) ]
        @ (if site = "op_cost" then [ ("nan", Fault.Nan_cost) ] else [])
      in
      List.iter
        (fun (kname, kind) ->
          let what = Printf.sprintf "%s@%s" kname site in
          Fault.arm (Fault.seeded ~seed:5 ~lo ~hi [ (site, kind) ]);
          let before = search_metrics () in
          let r = run_with g in
          let fired = List.length (Fault.fired ()) in
          Fault.disarm ();
          Alcotest.(check (list (pair string int)))
            (what ^ ": search.* metrics equal the table")
            (Search.counts r.stats)
            (List.map2
               (fun (n, v) (_, v0) -> (n, v - v0))
               (search_metrics ()) before);
          Alcotest.(check int) (what ^ ": fault fired") 1 fired;
          let but_retried (st : Search.stats) =
            List.filter (fun (n, _) -> n <> "retried") (Search.counts st)
          in
          Alcotest.(check (list (pair string int)))
            (what ^ ": counted once")
            (but_retried clean.stats) (but_retried r.stats);
          check_same_best what clean r;
          Alcotest.(check int)
            (what ^ ": same iterations")
            clean.stats.iterations r.stats.iterations;
          Alcotest.(check bool) (what ^ ": retried") true
            (r.stats.n_retried >= 1);
          Alcotest.(check int) (what ^ ": nothing quarantined") 0
            r.stats.n_quarantined)
        kinds)
    visits

(** A long burst no bounded retry can outrun: candidates must be
    quarantined with structured diagnostics, and the search must still
    return a usable result instead of crashing. *)
let test_chaos_persistent_quarantine () =
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Trace.clear ())
  @@ fun () ->
  let g = randnet 5 in
  Fault.observe ();
  let clean = run_with g in
  let v = Fault.visits "simulator" in
  Fault.disarm ();
  Fault.arm
    (Fault.burst ~site:"simulator" ~at:(max 4 (v / 3)) ~len:400
       Fault.Exception);
  (* a chaos run under tracing must leave its marks in the event stream *)
  Trace.enable ();
  let r = run_with g in
  Trace.disable ();
  Fault.disarm ();
  let names =
    List.map (fun (e : Trace.event) -> e.name) (Trace.events ())
  in
  Alcotest.(check bool) "trace records quarantine instants" true
    (List.mem "quarantine" names);
  Alcotest.(check bool) "trace records injected faults" true
    (List.mem "fault-injected" names);
  Alcotest.(check bool) "candidates quarantined" true
    (r.stats.n_quarantined > 0);
  Alcotest.(check bool) "injected-fault diagnostics recorded" true
    (Diagnostic.has_check "injected-fault" r.diagnostics);
  Alcotest.(check int) "one diagnostic per quarantine" r.stats.n_quarantined
    (List.length r.diagnostics);
  Alcotest.(check bool) "still returns a valid best" true
    (r.best.peak_mem > 0 && r.best.peak_mem <= clean.initial.peak_mem)

(** A NaN burst at the operator-cost site that outlasts the retries of
    a pop's rescheduling-context build: the pop's misses are
    quarantined with a nonfinite-cost diagnostic, and the search goes
    on. *)
let test_chaos_pop_context_quarantine () =
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let g = randnet 5 in
  Fault.observe ();
  let clean = run_with g in
  let v = Fault.visits "op_cost" in
  Fault.disarm ();
  Fault.arm (Fault.burst ~site:"op_cost" ~at:(v / 2) ~len:v Fault.Nan_cost);
  let r = run_with g in
  Fault.disarm ();
  let context_diags =
    List.filter
      (fun (d : Diagnostic.t) ->
        d.check = "nonfinite-cost"
        && contains d.message "rescheduling context quarantined")
      r.diagnostics
  in
  Alcotest.(check bool) "a pop context was quarantined" true
    (context_diags <> []);
  Alcotest.(check int) "one diagnostic per quarantine" r.stats.n_quarantined
    (List.length r.diagnostics);
  Alcotest.(check int) "the search ran every iteration"
    clean.stats.iterations r.stats.iterations;
  Alcotest.(check bool) "still returns a valid best" true
    (r.best.peak_mem > 0 && r.best.peak_mem <= clean.initial.peak_mem)

(** A persistent exception burst at the [sim_cache] site under a shared
    warm cache: each failing probe is retried on the orchestrating
    domain and then quarantined, naming the probe, and the search
    returns. *)
let test_chaos_sim_cache_burst () =
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let g = randnet 5 in
  let sim = Sim_cache.create () in
  let shared c = { c with Search.sim_cache = Some sim } in
  let clean = run_with ~cfg:shared g in
  Fault.observe ();
  ignore (run_with ~cfg:shared g : Search.result);
  let v = Fault.visits "sim_cache" in
  Fault.arm (Fault.burst ~site:"sim_cache" ~at:(v / 3) ~len:v Fault.Exception);
  let r = run_with ~cfg:shared g in
  Fault.disarm ();
  Alcotest.(check bool) "probes were quarantined" true
    (r.stats.n_quarantined > 0);
  Alcotest.(check int) "one diagnostic per quarantine" r.stats.n_quarantined
    (List.length r.diagnostics);
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check string) "injected fault" "injected-fault" d.check;
      Alcotest.(check bool) "the probe is named" true
        (contains d.message "probe candidate"))
    r.diagnostics;
  Alcotest.(check bool) "still returns a valid best" true
    (r.best.peak_mem > 0 && r.best.peak_mem <= clean.initial.peak_mem)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)
(* ------------------------------------------------------------------ *)

(** Budget exhaustion never raises: the search returns best-so-far with
    at least one completed iteration and records the ladder step. *)
let test_budget_exhaustion_best_so_far () =
  let g = randnet ~cells:2 11 in
  let r =
    run_with
      ~max_iterations:max_int
      ~cfg:(fun c -> { c with Search.time_budget = 0.3 }) g
  in
  Alcotest.(check bool) "made progress" true (r.stats.iterations > 0);
  Alcotest.(check bool) "returned a state" true (r.best.peak_mem > 0);
  Alcotest.(check bool) "ladder recorded best-so-far" true
    (Search.budget_ended r.stats);
  Alcotest.(check bool) "not an interrupt" false r.interrupted

(** The other edge: a run that completes its iteration cap is not cut
    short by its budget, even when the last capped pop overruns it
    (here the poll before that pop sleeps past the budget), so it
    records no best-so-far step. *)
let test_cap_past_budget_not_best_so_far () =
  let g = randnet ~cells:2 11 in
  let poll ~iteration ~best:_ =
    if iteration = 1 then Unix.sleepf 0.6;
    `Continue
  in
  let r =
    run_with ~max_iterations:2
      ~cfg:(fun c -> { c with Search.time_budget = 0.5; poll }) g
  in
  Alcotest.(check int) "reached the cap" 2 r.stats.iterations;
  Alcotest.(check bool) "overran the budget" true (r.stats.wall > 0.5);
  Alcotest.(check bool) "no best-so-far step" false
    (Search.budget_ended r.stats);
  Alcotest.(check bool) "not an interrupt" false r.interrupted

(** The time-pressure rung: a poll that waits past 85% of the budget
    (and short of it) before the second pop crosses the rung, which is
    recorded only where it lowers the DP budget — at [sched_states =
    64], not at the greedy-only 0. *)
let test_pressure_rung_recorded_only_when_it_lowers () =
  let g = randnet ~cells:2 11 in
  let budget = 0.6 in
  let steps sched_states =
    let t0 = ref 0.0 in
    let poll ~iteration ~best:_ =
      if iteration = 0 then t0 := Unix.gettimeofday ()
      else if iteration = 1 then
        Unix.sleepf
          (Float.max 0.0 (!t0 +. (0.9 *. budget) -. Unix.gettimeofday ()));
      `Continue
    in
    let r =
      run_with ~max_iterations:2
        ~cfg:(fun c ->
          { c with Search.time_budget = budget; sched_states; poll })
        g
    in
    Alcotest.(check int) "reached the cap" 2 r.stats.iterations;
    List.map snd r.stats.degrade_steps
  in
  Alcotest.(check bool) "sched_states 64: the rung is a step" true
    (List.mem "reduce-sched-states" (steps 64));
  Alcotest.(check bool) "sched_states 0: the rung is no step" false
    (List.mem "reduce-sched-states" (steps 0))

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume of the search                                   *)
(* ------------------------------------------------------------------ *)

let ckpt path resume =
  Some { Search.ckpt_path = path; ckpt_every = 1e9; ckpt_resume = resume }

(** Stopping after N iterations and resuming for M more reproduces the
    uninterrupted (N+M)-iteration search bit-identically — including
    the work counters, which the snapshot carries forward. *)
let test_checkpoint_resume_identity () =
  with_temp_file @@ fun path ->
  Sys.remove path;
  let g = randnet 7 in
  let r6 =
    Search.save
      (run_with ~max_iterations:6
         ~cfg:(fun c -> { c with Search.checkpoint = ckpt path false }) g)
  in
  Alcotest.(check bool) "end state saved" true
    (r6.stats.n_checkpoints = 1 && Checkpoint.exists path);
  let resumed =
    run_with ~max_iterations:12
      ~cfg:(fun c -> { c with Search.checkpoint = ckpt path true }) g
  in
  let fresh = run_with ~max_iterations:12 g in
  check_same_best "resumed vs fresh" resumed fresh;
  Alcotest.(check int) "iterations continue across the resume" 12
    resumed.stats.iterations;
  Alcotest.(check int) "same schedules run in total" fresh.stats.n_sched
    resumed.stats.n_sched;
  Alcotest.(check int) "same simulations run in total" fresh.stats.n_simul
    resumed.stats.n_simul;
  Alcotest.(check int) "same duplicates filtered" fresh.stats.n_filtered
    resumed.stats.n_filtered;
  (* the whole table: every counter continues across the resume; the
     one snapshot is the first run's saved end state, carried in its
     table (the resumed run, never saved, writes none) *)
  let without_ckpt (r : Search.result) =
    List.remove_assoc "checkpoints" (Search.counts r.stats)
  in
  Alcotest.(check (list (pair string int)))
    "every counter equals the uninterrupted run's" (without_ckpt fresh)
    (without_ckpt resumed);
  Alcotest.(check int) "the saved snapshot is counted once" 1
    resumed.stats.n_checkpoints

(** A run writes only its periodic snapshots: a capped run whose period
    never comes leaves no file and counts no save, at any end.  Its
    caller's {!Search.save} writes the end state through the same write,
    on the clock the run stopped at, and resuming it continues the
    uninterrupted run bit-identically. *)
let test_end_state_saved_by_caller () =
  with_temp_file @@ fun path ->
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  Metrics.set_enabled true;
  let saves () = Metrics.counter_value (Metrics.counter "checkpoint.saves") in
  let g = randnet 7 in
  let before = saves () in
  let r =
    run_with ~max_iterations:4
      ~cfg:(fun c -> { c with Search.checkpoint = ckpt path false }) g
  in
  Alcotest.(check bool) "no file at the cap" false (Sys.file_exists path);
  Alcotest.(check int) "no save counted" 0 (saves () - before);
  Alcotest.(check int) "no snapshot in the table" 0 r.stats.n_checkpoints;
  Alcotest.(check bool) "a fresh run" false r.resumed;
  (* the save comes well after the run; the snapshot keeps the run's
     clock, not the save's *)
  Unix.sleepf 0.3;
  let r = Search.save r in
  Alcotest.(check bool) "the save wrote the file" true (Checkpoint.exists path);
  Alcotest.(check int) "one save counted" 1 (saves () - before);
  Alcotest.(check int) "the stats count the save" 1 r.stats.n_checkpoints;
  let again =
    run_with ~max_iterations:4
      ~cfg:(fun c -> { c with Search.checkpoint = ckpt path true }) g
  in
  Alcotest.(check bool) "a resume at the cap" true again.resumed;
  Alcotest.(check bool) "the resumed clock is the run's end time" true
    (again.stats.wall < r.stats.wall +. 0.25);
  let resumed =
    run_with ~max_iterations:10
      ~cfg:(fun c -> { c with Search.checkpoint = ckpt path true }) g
  in
  let fresh = run_with ~max_iterations:10 g in
  check_same_best "saved end state resumed vs fresh" resumed fresh;
  Alcotest.(check (list (pair int (float 0.0))))
    "same history"
    (List.map (fun (_, p, l) -> (p, l)) fresh.history)
    (List.map (fun (_, p, l) -> (p, l)) resumed.history);
  Alcotest.(check (list (pair string int)))
    "every counter but the snapshots equals the uninterrupted run's"
    (List.remove_assoc "checkpoints" (Search.counts fresh.stats))
    (List.remove_assoc "checkpoints" (Search.counts resumed.stats));
  Alcotest.(check int) "the resumed runs saved nothing" 1 (saves () - before);
  Alcotest.(check bool) "no end state without a checkpoint" true
    (Option.is_none fresh.end_state)

(** A snapshot after each of the first five iterations, resumed to
    eight, continues the uninterrupted eight-iteration search exactly:
    best state, history (its clock aside) and every counter but
    [checkpoints], on a Randnet and on UNet. *)
let test_resume_at_every_early_iteration () =
  with_temp_file @@ fun path ->
  let without_ckpt (r : Search.result) =
    List.remove_assoc "checkpoints" (Search.counts r.stats)
  in
  let points (r : Search.result) =
    List.map (fun (_, peak, lat) -> (peak, lat)) r.history
  in
  List.iter
    (fun (name, g) ->
      let fresh = run_with ~max_iterations:8 g in
      for k = 1 to 5 do
        if Sys.file_exists path then Sys.remove path;
        let (_ : Search.result) =
          Search.save
            (run_with ~max_iterations:k
               ~cfg:(fun c -> { c with Search.checkpoint = ckpt path false })
               g)
        in
        let resumed =
          run_with ~max_iterations:8
            ~cfg:(fun c -> { c with Search.checkpoint = ckpt path true })
            g
        in
        let what = Printf.sprintf "%s, resumed after %d" name k in
        check_same_best what fresh resumed;
        Alcotest.(check int64) (what ^ ": same best graph")
          (Wl_hash.hash fresh.best.graph) (Wl_hash.hash resumed.best.graph);
        Alcotest.(check int64) (what ^ ": same best F-Tree")
          (Ftree.fingerprint fresh.best.ftree)
          (Ftree.fingerprint resumed.best.ftree);
        Alcotest.(check (list (pair int (float 0.0))))
          (what ^ ": same history") (points fresh) (points resumed);
        Alcotest.(check (list (pair string int)))
          (what ^ ": same counters") (without_ckpt fresh)
          (without_ckpt resumed)
      done)
    [ ("Randnet", randnet 7); ("UNet", (Zoo.find "UNet").build Zoo.Quick) ]

(** A warm-cache run holds cache hits queued unbuilt: saving it at 6
    iterations builds them, so the snapshot marshals, and resuming it
    to 12 continues the uninterrupted warm 12-iteration run exactly,
    every counter but the snapshots and the builds the save ran. *)
let test_warm_save_resume_identity () =
  with_temp_file @@ fun path ->
  Sys.remove path;
  let g = randnet 7 and sim = Sim_cache.create () in
  let warm ?checkpoint max_iterations =
    run_with ~max_iterations
      ~cfg:(fun c -> { c with Search.sim_cache = Some sim; checkpoint })
      g
  in
  let built (r : Search.result) = List.assoc "built" (Search.counts r.stats) in
  let cold = warm 12 in
  let r6 = warm ~checkpoint:(Option.get (ckpt path false)) 6 in
  let before = built r6 in
  let r6 = Search.save r6 in
  Alcotest.(check bool) "the warm end state is saved" true
    (Checkpoint.exists path);
  Alcotest.(check bool) "the save builds the pending entries" true
    (built r6 > before);
  let resumed = warm ~checkpoint:(Option.get (ckpt path true)) 12 in
  let fresh = warm 12 in
  check_same_best "warm resumed vs warm fresh" resumed fresh;
  check_same_best "warm fresh vs cold" fresh cold;
  Alcotest.(check (list (pair int (float 0.0))))
    "same history"
    (List.map (fun (_, p, l) -> (p, l)) fresh.history)
    (List.map (fun (_, p, l) -> (p, l)) resumed.history);
  let counts (r : Search.result) =
    List.filter
      (fun (n, _) -> n <> "checkpoints" && n <> "built")
      (Search.counts r.stats)
  in
  Alcotest.(check (list (pair string int)))
    "every counter but the snapshots and the builds" (counts fresh)
    (counts resumed)

(** A checkpoint of one workload must refuse to resume another. *)
let test_checkpoint_rejects_foreign_run () =
  with_temp_file @@ fun path ->
  Sys.remove path;
  let (_ : Search.result) =
    Search.save
      (run_with ~max_iterations:3
         ~cfg:(fun c -> { c with Search.checkpoint = ckpt path false }) (randnet 7))
  in
  match
    run_with ~max_iterations:6
      ~cfg:(fun c -> { c with Search.checkpoint = ckpt path true }) (randnet 8)
  with
  | _ -> Alcotest.fail "foreign checkpoint must be rejected"
  | exception Checkpoint.Incompatible _ -> ()

(** SIGTERM mid-search: the run returns early with [interrupted], the
    checkpoint holds the frontier, and resuming continues exactly where
    the uninterrupted search would have been.  The signal reaches the
    search the way [magis_cli optimize --checkpoint] wires it: an
    {!Interrupt.on_signal} callback raises a flag the poll reads. *)
let test_sigterm_checkpoint_resume () =
  with_temp_file @@ fun path ->
  Sys.remove path;
  (* backstop handler: if the search somehow finishes before the killer
     fires, the stray SIGTERM must not take down the test runner *)
  let prev = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> ())) in
  let signal = Atomic.make 0 in
  let unregister = Interrupt.on_signal (Atomic.set signal) in
  Fun.protect
    ~finally:(fun () ->
      unregister ();
      Sys.set_signal Sys.sigterm prev)
  @@ fun () ->
  let poll ~iteration:_ ~best:_ =
    if Atomic.get signal = 0 then `Continue else `Stop
  in
  let g = randnet ~cells:2 13 in
  let pid = Unix.getpid () in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.4;
        Unix.kill pid Sys.sigterm)
  in
  let r =
    run_with ~max_iterations:max_int
      ~cfg:(fun c -> { c with Search.checkpoint = ckpt path false; poll }) g
  in
  Domain.join killer;
  Alcotest.(check bool) "run reports the interrupt" true r.interrupted;
  Alcotest.(check bool) "made progress before the interrupt" true
    (r.stats.iterations > 0);
  (* the caller keeps the interrupted state, as the CLI does *)
  let r = Search.save r in
  Alcotest.(check bool) "checkpoint written" true (Checkpoint.exists path);
  let total = r.stats.iterations + 2 in
  let resumed =
    run_with ~max_iterations:total
      ~cfg:(fun c -> { c with Search.checkpoint = ckpt path true }) g
  in
  let fresh = run_with ~max_iterations:total g in
  check_same_best "post-interrupt resume vs fresh" resumed fresh;
  Alcotest.(check int) "iterations continue" total resumed.stats.iterations;
  Alcotest.(check int) "the callback saw SIGTERM" Sys.sigterm
    (Atomic.get signal)

(** A search stops only through its poll: one whose poll reads no
    signal flag runs to its cap through a SIGTERM, checkpoint and all. *)
let test_unwired_search_ignores_signals () =
  with_temp_file @@ fun path ->
  Sys.remove path;
  let prev = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigterm prev)
  @@ fun () ->
  let poll ~iteration ~best:_ =
    if iteration = 2 then Unix.kill (Unix.getpid ()) Sys.sigterm;
    `Continue
  in
  let r =
    run_with ~max_iterations:6
      ~cfg:(fun c -> { c with Search.checkpoint = ckpt path false; poll }) (randnet ~cells:2 13)
  in
  Alcotest.(check bool) "not interrupted" false r.interrupted;
  Alcotest.(check int) "reached the cap" 6 r.stats.iterations

let suite =
  [
    tc "fault injector fires by visit count" test_fault_injector;
    tc "seeded plans and bursts are deterministic" test_fault_seeded_and_burst;
    tc "retry absorbs transient failures" test_retry_transient;
    tc "retry gives up after the budget" test_retry_exhausted;
    tc "retry re-raises fatal exceptions" test_retry_fatal_reraises;
    tc "checkpoint round-trips and rejects mismatches"
      test_checkpoint_roundtrip;
    tc "checkpoint detects corruption and truncation"
      test_checkpoint_detects_corruption;
    tc "transient faults leave the search bit-identical"
      test_chaos_transient_identity;
    tc "persistent faults are quarantined, never fatal"
      test_chaos_persistent_quarantine;
    tc "a pop whose context keeps failing is quarantined"
      test_chaos_pop_context_quarantine;
    tc "a sim-cache burst quarantines probes" test_chaos_sim_cache_burst;
    tc "budget exhaustion returns best-so-far" test_budget_exhaustion_best_so_far;
    tc "a capped run past its budget is not best-so-far"
      test_cap_past_budget_not_best_so_far;
    tc "time-pressure rung is a step only where it lowers the DP budget"
      test_pressure_rung_recorded_only_when_it_lowers;
    tc "checkpoint/resume reproduces the uninterrupted run"
      test_checkpoint_resume_identity;
    tc "a run writes no end state; its caller saves it"
      test_end_state_saved_by_caller;
    tc "checkpoint/resume at every early iteration"
      test_resume_at_every_early_iteration;
    tc "a warm run saved with unbuilt entries resumes bit-identically"
      test_warm_save_resume_identity;
    tc "checkpoints of foreign runs are rejected"
      test_checkpoint_rejects_foreign_run;
    tc "SIGTERM saves state and resumes bit-identically"
      test_sigterm_checkpoint_resume;
    tc "a search not wired to signals ignores them"
      test_unwired_search_ignores_signals;
  ]
