(** Optimization service: protocol codec, request lifecycle, request
    isolation, admission control, deadlines, cancellation, fault
    injection at the socket layer, chaos coverage, and crash recovery
    (SIGKILL'd daemon, restarted against the same checkpoint directory,
    must resume a re-submitted id bit-identically and answer
    [incompatible] for a changed spec under the same id). *)

open Magis
module P = Magis_serve.Protocol
module Server = Magis_serve.Server
module Client = Magis_serve.Client
module Loadgen = Magis_serve.Loadgen

let tc name f = Alcotest.test_case name `Quick f

(* Every server gets its own socket path and checkpoint directory, both
   removed when the test binary exits. *)
let fresh_cfg ?(workers = 2) ?(queue_cap = 8) ?(per_client = 8) name =
  let base =
    Helpers.temp_path ~suffixes:[ ".sock"; ".ckpt" ] ("serve-" ^ name)
  in
  {
    Server.addr = P.Unix_sock (base ^ ".sock");
    workers;
    queue_cap;
    per_client_limit = per_client;
    ckpt_dir = base ^ ".ckpt";
    ckpt_every = 0.0;
    (* snapshot after every iteration: crash tests want fresh
       checkpoints *)
    write_timeout = 5.0;
    verbose = false;
  }

let with_server cfg f =
  let t = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.run t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join d)
    (fun () -> f cfg.Server.addr)

let req ?(model = "unet") ?(iters = 3) ?deadline ?(progress = 0) id =
  {
    (P.request ~id ~model) with
    max_iterations = iters;
    deadline_s = deadline;
    progress_every = progress;
  }

let with_client addr f =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let expect_result = function
  | P.Result o -> o
  | r -> Alcotest.failf "expected a result, got %s" (P.reply_to_string r)

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let full_req =
    {
      P.id = "r-1";
      model = "unet";
      scale = Zoo.Full;
      mode = P.Latency 0.5;
      deadline_s = Some 1.5;
      max_iterations = 40;
      progress_every = 4;
      sched_states = 128;
    }
  in
  let full_frontier =
    {
      P.f_id = "f-1";
      f_model = "unet++";
      f_scale = Zoo.Full;
      f_hw = "tiered";
      f_budget_ratio = 0.45;
      f_max_iterations = 24;
      f_sched_states = 64;
    }
  in
  List.iter
    (fun cmd ->
      Alcotest.(check bool)
        (P.command_to_string cmd) true
        (P.command_of_string (P.command_to_string cmd) = cmd))
    [
      P.Optimize full_req;
      P.Optimize (P.request ~id:"r-2" ~model:"bert-base");
      P.Frontier full_frontier;
      P.Frontier (P.frontier_request ~id:"f-2" ~model:"unet");
      P.Health;
      P.Metrics;
      P.Pause;
      P.Resume;
      P.Shutdown;
    ];
  List.iter
    (fun reply ->
      Alcotest.(check bool)
        (P.reply_to_string reply) true
        (P.reply_of_string (P.reply_to_string reply) = reply))
    [
      P.Ack "pause";
      P.Progress
        {
          p_id = "r-1";
          p_iterations = 7;
          p_peak = 123456;
          p_latency = 0.25;
          p_elapsed = 1.5;
        };
      P.Result
        {
          o_id = "r-1";
          o_initial_peak = 1000;
          o_peak = 750;
          o_latency = 0.125;
          o_iterations = 40;
          o_interrupted = true;
          o_resumed = true;
          o_deadline_hit = false;
          o_limit_met = false;
          o_quarantined = 2;
        };
      P.Frontier_reply
        {
          fr_id = "f-1";
          fr_cache_hit = true;
          fr_points = 11;
          fr_budget = 52_428_800;
          fr_feasible = true;
          fr_peak = 48_000_000;
          fr_latency = 0.0125;
        };
      P.Frontier_reply
        {
          fr_id = "f-2";
          fr_cache_hit = false;
          fr_points = 0;
          fr_budget = 0;
          fr_feasible = false;
          fr_peak = 0;
          fr_latency = 0.0;
        };
      P.Error { e_id = Some "r-1"; kind = P.Overloaded; detail = "queue full" };
      P.Error { e_id = None; kind = P.Malformed; detail = "trailing garbage" };
      P.Health_reply
        {
          status = "ok";
          queue_depth = 3;
          inflight = 2;
          shed_level = 1;
          served = 10;
          rejected = 4;
          quarantined = 1;
          cache_hit_rate = 0.5;
        };
      P.Metrics_reply "serve.served 10\nserve.rejected 4\n";
    ]

let test_protocol_rejects_hostile_input () =
  let parse_error s =
    match P.command_of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "parsed hostile input %S" s
  in
  let invalid s =
    match P.command_of_string s with
    | exception P.Invalid _ -> ()
    | _ -> Alcotest.failf "accepted ill-typed input %S" s
  in
  parse_error "this is not json";
  parse_error "{\"op\":";
  (* nesting beyond the protocol's depth cap must be rejected by the
     hardened parser, not by a stack overflow *)
  parse_error (String.make 64 '[' ^ String.make 64 ']');
  invalid "[1,2,3]";
  invalid "{\"op\":\"frobnicate\"}";
  invalid "{\"op\":\"optimize\",\"model\":\"unet\"}";
  (* id missing *)
  invalid "{\"op\":\"optimize\",\"id\":\"x\",\"model\":7}";
  invalid "{\"op\":\"optimize\",\"id\":\"x\",\"model\":\"unet\",\"mode\":\"x\"}";
  Alcotest.(check bool)
    "reply decoder rejects unknown kinds" true
    (match P.reply_of_string "{\"reply\":\"nope\"}" with
    | exception P.Invalid _ -> true
    | _ -> false)

(** The limits a request sets relative to the baseline are checked
    where it is decoded, like a frontier query's [budget_ratio]: a
    [mem_ratio] outside (0, 1] or a negative [overhead] is a schema
    error, which the daemon answers as [Malformed]. *)
let test_protocol_rejects_out_of_range_limits () =
  let optimize fields =
    Printf.sprintf "{\"op\":\"optimize\",\"id\":\"x\",\"model\":\"unet\",%s}" fields
  in
  let latency r = optimize ("\"mode\":\"latency\",\"mem_ratio\":" ^ r) in
  let memory o = optimize ("\"overhead\":" ^ o) in
  let states op n =
    Printf.sprintf
      "{\"op\":\"%s\",\"id\":\"x\",\"model\":\"unet\",\"sched_states\":%d}"
      op n
  in
  (* a ratio at or below 0 sets a limit no search can meet; a huge one,
     a limit [int_of_float] cannot hold.  A DP budget is popped inside
     one evaluation, between two polls of the search, so a huge one
     would outlive a deadline or a drain: both ops bound it. *)
  List.iter
    (fun s ->
      match P.command_of_string s with
      | exception P.Invalid _ -> ()
      | _ -> Alcotest.failf "accepted out-of-range limit %S" s)
    ([ latency "0"; latency "-0.5"; latency "1.5"; latency "1e300";
       memory "-0.1" ]
    @ List.concat_map
        (fun op -> List.map (states op) [ -1; 20_001; 1_000_000_000 ])
        [ "optimize"; "frontier" ]);
  List.iter
    (fun (s, mode) ->
      match P.command_of_string s with
      | P.Optimize r when r.mode = mode -> ()
      | _ -> Alcotest.failf "rejected in-range limit %S" s)
    [ (latency "1", P.Latency 1.0); (latency "0.05", P.Latency 0.05);
      (memory "0", P.Memory 0.0) ];
  List.iter
    (fun n ->
      match
        (P.command_of_string (states "optimize" n),
         P.command_of_string (states "frontier" n))
      with
      | P.Optimize r, P.Frontier f
        when r.sched_states = n && f.f_sched_states = n -> ()
      | _ -> Alcotest.failf "rejected in-range sched_states %d" n)
    [ 0; 128; 20_000 ]

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let test_lifecycle () =
  let cfg = fresh_cfg "lifecycle" in
  with_server cfg @@ fun addr ->
  with_client addr @@ fun c ->
  let progresses = ref 0 in
  let o =
    expect_result
      (Client.optimize
         ~on_progress:(fun p ->
           incr progresses;
           Alcotest.(check string) "progress id" "life-1" p.P.p_id)
         c
         (req ~iters:4 ~progress:2 "life-1"))
  in
  Alcotest.(check string) "result id" "life-1" o.o_id;
  Alcotest.(check int) "all iterations ran" 4 o.o_iterations;
  Alcotest.(check int) "one progress event, at the halfway iteration" 1
    !progresses;
  Alcotest.(check bool) "peak improved or held" true
    (o.o_peak <= o.o_initial_peak);
  Alcotest.(check bool) "not resumed/interrupted/deadline" false
    (o.o_resumed || o.o_interrupted || o.o_deadline_hit);
  Alcotest.(check bool) "checkpoint removed after completion" false
    (Sys.file_exists (Server.ckpt_path cfg "life-1"));
  let h = Client.health c in
  Alcotest.(check string) "healthy" "ok" h.status;
  Alcotest.(check int) "one served" 1 h.served;
  Alcotest.(check int) "nothing in flight" 0 (h.inflight + h.queue_depth);
  let m = Client.metrics_text c in
  let contains needle =
    let nl = String.length needle and ml = String.length m in
    let rec go i = i + nl <= ml && (String.sub m i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " exposed") true (contains needle))
    [ "serve.served"; "serve.requests"; "search.iterations" ]

(* ------------------------------------------------------------------ *)
(* Request isolation                                                   *)
(* ------------------------------------------------------------------ *)

let test_isolation_malformed () =
  with_server (fresh_cfg "isolation") @@ fun addr ->
  (with_client addr @@ fun c1 ->
   Client.send_raw c1 "this is not json\n";
   (match Client.recv c1 with
   | P.Error { kind = P.Malformed; e_id = None; _ } -> ()
   | r -> Alcotest.failf "expected malformed, got %s" (P.reply_to_string r));
   match Client.recv c1 with
   | exception End_of_file -> ()
   | r ->
       Alcotest.failf "connection should be closed, got %s"
         (P.reply_to_string r));
  (* the daemon took a quarantine record and keeps serving *)
  with_client addr @@ fun c2 ->
  let h = Client.health c2 in
  Alcotest.(check int) "one quarantine record" 1 h.quarantined;
  let o = expect_result (Client.optimize c2 (req ~iters:2 "iso-after")) in
  Alcotest.(check string) "still serving" "iso-after" o.o_id

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_admission_overload () =
  let cfg = fresh_cfg ~queue_cap:4 ~per_client:32 "admission" in
  with_server cfg @@ fun addr ->
  with_client addr @@ fun c ->
  Client.send c P.Pause;
  for i = 0 to 5 do
    Client.send c (P.Optimize (req ~iters:2 (Printf.sprintf "adm-%d" i)))
  done;
  Client.send c (P.Optimize (req ~iters:2 "adm-0"));
  (* duplicate *)
  Client.send c P.Health;
  let overloaded = ref 0 and dup = ref 0 and results = ref [] in
  while List.length !results < cfg.Server.queue_cap do
    match Client.recv c with
    | P.Error { kind = P.Overloaded; _ } -> incr overloaded
    | P.Error { kind = P.Duplicate; e_id = Some id; _ } ->
        Alcotest.(check string) "duplicate id reported" "adm-0" id;
        incr dup
    | P.Health_reply h ->
        (* observed while paused with the queue full *)
        Alcotest.(check string) "paused" "paused" h.status;
        Alcotest.(check int) "queue at capacity" 4 h.queue_depth;
        Alcotest.(check int) "top of the shed ladder" 1 h.shed_level;
        Client.send c P.Resume
    | P.Result o -> results := o.P.o_id :: !results
    | _ -> ()
  done;
  Alcotest.(check int) "beyond-capacity requests rejected" 2 !overloaded;
  Alcotest.(check int) "duplicate rejected once" 1 !dup;
  Alcotest.(check (slist string compare)) "every queued request served"
    [ "adm-0"; "adm-1"; "adm-2"; "adm-3" ]
    !results;
  let h = Client.health c in
  Alcotest.(check int) "served = capacity" 4 h.served;
  Alcotest.(check int) "rejected = overflow + duplicate" 3 h.rejected

let test_admission_per_client_limit () =
  with_server (fresh_cfg ~per_client:1 "perclient") @@ fun addr ->
  with_client addr @@ fun c ->
  Client.send c P.Pause;
  Client.send c (P.Optimize (req ~iters:2 "pc-0"));
  Client.send c (P.Optimize (req ~iters:2 "pc-1"));
  Client.send c P.Resume;
  let overloaded = ref 0 and results = ref 0 in
  while !results < 1 do
    match Client.recv c with
    | P.Error { kind = P.Overloaded; e_id = Some "pc-1"; _ } ->
        incr overloaded
    | P.Result _ -> incr results
    | _ -> ()
  done;
  Alcotest.(check int) "second in-flight request rejected" 1 !overloaded

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let test_deadlines () =
  with_server (fresh_cfg "deadline") @@ fun addr ->
  with_client addr @@ fun c ->
  (match Client.optimize c (req ~iters:2 ~deadline:0.0 "dl-0") with
  | P.Error { kind = P.Deadline; e_id = Some "dl-0"; _ } -> ()
  | r -> Alcotest.failf "expected deadline error, got %s" (P.reply_to_string r));
  (* an in-flight expiry returns best-so-far, flagged *)
  let o =
    expect_result (Client.optimize c (req ~iters:1_000_000 ~deadline:0.3 "dl-1"))
  in
  Alcotest.(check bool) "deadline flagged" true o.o_deadline_hit;
  Alcotest.(check bool) "made progress before expiry" true (o.o_iterations > 0);
  Alcotest.(check bool) "best-so-far is real" true
    (o.o_peak <= o.o_initial_peak);
  (* a run that completes its cap past the deadline is not flagged: the
     first candidate simulation of its only pop (the third "simulator"
     visit, after the baseline and the initial state; a model not run
     before, so nothing hits the daemon's cache) overruns it *)
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  Fault.arm [ { Fault.site = "simulator"; at = 3; kind = Fault.Delay 0.5 } ];
  let o =
    expect_result
      (Client.optimize c (req ~model:"unet++" ~iters:1 ~deadline:0.3 "dl-2"))
  in
  Alcotest.(check int) "completed its cap" 1 o.o_iterations;
  Alcotest.(check bool) "the delay fired" true (Fault.fired () <> []);
  Alcotest.(check bool) "a completed cap is not flagged" false o.o_deadline_hit

(* ------------------------------------------------------------------ *)
(* Cancellation and in-process resume                                  *)
(* ------------------------------------------------------------------ *)

let test_disconnect_cancels_then_resumes () =
  let cfg = fresh_cfg "cancel" in
  with_server cfg @@ fun addr ->
  let c = Client.connect addr in
  Client.send c (P.Optimize (req ~iters:500 ~progress:1 "can-1"));
  (match Client.recv c with
  | P.Progress _ -> ()
  | r -> Alcotest.failf "expected progress, got %s" (P.reply_to_string r));
  Client.close c;
  (* the daemon cancels at the next expansion boundary *)
  with_client addr @@ fun c2 ->
  let rec settle tries =
    let h = Client.health c2 in
    if h.inflight = 0 && h.queue_depth = 0 then h
    else if tries = 0 then Alcotest.fail "cancelled request never settled"
    else begin
      Unix.sleepf 0.1;
      settle (tries - 1)
    end
  in
  let h = settle 100 in
  Alcotest.(check int) "cancelled, not served" 0 h.served;
  Alcotest.(check bool) "checkpoint kept for the comeback" true
    (Sys.file_exists (Server.ckpt_path cfg "can-1"));
  (* same id, same spec (the iteration budget is outside the trajectory
     fingerprint, so a smaller comeback budget still resumes) *)
  let o = expect_result (Client.optimize c2 (req ~iters:4 ~progress:0 "can-1")) in
  Alcotest.(check bool) "resumed from the checkpoint" true o.o_resumed

(* ------------------------------------------------------------------ *)
(* One search per request: progress and drain through the per-pop poll *)
(* ------------------------------------------------------------------ *)

(* The value of counter [name] in a metrics scrape (0 when absent). *)
let counter_in text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> int_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0

let test_progress_without_reload () =
  with_server (fresh_cfg "poll") @@ fun addr ->
  with_client addr @@ fun c ->
  let loads () = counter_in (Client.metrics_text c) "checkpoint.loads" in
  let before = loads () in
  let seen = ref [] in
  let o =
    expect_result
      (Client.optimize
         ~on_progress:(fun p -> seen := p.P.p_iterations :: !seen)
         c
         (req ~iters:4 ~progress:1 "poll-1"))
  in
  Alcotest.(check int) "all iterations ran" 4 o.o_iterations;
  Alcotest.(check (list int)) "progress at iterations 1, 2 and 3" [ 1; 2; 3 ]
    (List.rev !seen);
  Alcotest.(check int) "a fresh request never reloads its checkpoint" 0
    (loads () - before)

(* A finished request writes no snapshot: with a period longer than the
   search, the daemon saves nothing for it. *)
let test_finished_request_saves_nothing () =
  let cfg = { (fresh_cfg "nosave") with Server.ckpt_every = 1e9 } in
  with_server cfg @@ fun addr ->
  with_client addr @@ fun c ->
  let saves () = counter_in (Client.metrics_text c) "checkpoint.saves" in
  let before = saves () in
  let o = expect_result (Client.optimize c (req ~iters:4 "nosave-1")) in
  Alcotest.(check int) "all iterations ran" 4 o.o_iterations;
  Alcotest.(check int) "no checkpoint saved" 0 (saves () - before);
  Alcotest.(check bool) "no file left" false
    (Sys.file_exists (Server.ckpt_path cfg "nosave-1"))

let test_drain_at_next_pop () =
  let cfg = fresh_cfg ~workers:1 "drain" in
  with_server cfg @@ fun addr ->
  with_client addr @@ fun c ->
  Client.send c (P.Optimize (req ~iters:500 ~progress:1 "drain-1"));
  (match Client.recv c with
  | P.Progress _ -> ()
  | r -> Alcotest.failf "expected progress, got %s" (P.reply_to_string r));
  (* queued behind the first on the one worker, admitted before the
     drain: the IO domain handles one connection's lines in order *)
  Client.send c (P.Optimize (req ~iters:500 "drain-2"));
  Client.send c P.Shutdown;
  let last = ref 0 and results = ref [] in
  while List.length !results < 2 do
    match Client.recv c with
    | P.Progress p -> last := p.p_iterations
    | P.Result o -> results := o :: !results
    | P.Ack _ -> ()
    | r -> Alcotest.failf "unexpected reply %s" (P.reply_to_string r)
  done;
  let result id = List.find (fun (o : P.outcome) -> o.o_id = id) !results in
  let a = result "drain-1" and b = result "drain-2" in
  Alcotest.(check bool) "in-flight search interrupted" true a.o_interrupted;
  Alcotest.(check bool) "stopped within one iteration of its last progress"
    true
    (a.o_iterations >= !last && a.o_iterations - !last <= 1);
  Alcotest.(check bool) "queued search answered, interrupted" true
    b.o_interrupted;
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " checkpoint kept") true
        (Sys.file_exists (Server.ckpt_path cfg id)))
    [ "drain-1"; "drain-2" ]

(* ------------------------------------------------------------------ *)
(* Socket-layer fault injection                                        *)
(* ------------------------------------------------------------------ *)

let test_torn_read_quarantined () =
  with_server (fresh_cfg "fault") @@ fun addr ->
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  (with_client addr @@ fun c ->
   Fault.arm [ { Fault.site = "sock_read"; at = 1; kind = Fault.Exception } ];
   Client.send c P.Health;
   match Client.recv c with
   | exception End_of_file -> ()
   | r ->
       Alcotest.failf "torn read should close the connection, got %s"
         (P.reply_to_string r));
  Fault.disarm ();
  with_client addr @@ fun c2 ->
  let h = Client.health c2 in
  Alcotest.(check int) "torn read quarantined" 1 h.quarantined;
  Alcotest.(check string) "daemon healthy" "ok" h.status

(* A request whose baseline simulation (the search's first "simulator"
   visit) fails past its retries sets no limit: it ends as an internal
   error with a quarantine record, and the next request is served. *)
let test_failing_baseline_quarantined () =
  with_server (fresh_cfg "baseline-fault") @@ fun addr ->
  with_client addr @@ fun c ->
  (Fun.protect ~finally:Fault.disarm @@ fun () ->
   Fault.arm (Fault.burst ~site:"simulator" ~at:1 ~len:8 Fault.Exception);
   match Client.optimize c (req "bf-1") with
   | P.Error { kind = P.Internal; _ } -> ()
   | r ->
       Alcotest.failf "expected an internal error, got %s"
         (P.reply_to_string r));
  Alcotest.(check int) "request quarantined" 1 (Client.health c).quarantined;
  ignore (expect_result (Client.optimize c (req "bf-2")))

(* ------------------------------------------------------------------ *)
(* Frontier queries                                                    *)
(* ------------------------------------------------------------------ *)

let expect_frontier = function
  | P.Frontier_reply a -> a
  | r ->
      Alcotest.failf "expected a frontier reply, got %s" (P.reply_to_string r)

let test_frontier_miss_builds_then_hits () =
  let cfg = fresh_cfg "frontier" in
  with_server cfg @@ fun addr ->
  with_client addr @@ fun c ->
  let fq id =
    { (P.frontier_request ~id ~model:"unet") with P.f_max_iterations = 3 }
  in
  let a = expect_frontier (Client.frontier c (fq "fr-1")) in
  Alcotest.(check string) "first reply id" "fr-1" a.fr_id;
  Alcotest.(check bool) "first query builds" false a.fr_cache_hit;
  Alcotest.(check bool) "the sweep left resident points" true (a.fr_points > 0);
  let b = expect_frontier (Client.frontier c (fq "fr-2")) in
  Alcotest.(check bool) "second query hits the cache" true b.fr_cache_hit;
  Alcotest.(check int) "same point count from the cache" a.fr_points b.fr_points;
  Alcotest.(check int) "same resolved budget" a.fr_budget b.fr_budget;
  Alcotest.(check bool) "same feasibility" a.fr_feasible b.fr_feasible;
  Alcotest.(check int) "same answer peak" a.fr_peak b.fr_peak;
  Alcotest.(check (float 0.0)) "same answer latency" a.fr_latency b.fr_latency;
  if a.fr_feasible then
    Alcotest.(check bool) "answer fits the budget" true (a.fr_peak <= a.fr_budget);
  (* an unknown hardware profile is a structured rejection, not a crash,
     and the connection stays usable *)
  (match Client.frontier c { (fq "fr-3") with P.f_hw = "not-a-device" } with
  | P.Error { kind = P.Malformed; e_id = Some "fr-3"; _ } -> ()
  | r -> Alcotest.failf "expected malformed, got %s" (P.reply_to_string r));
  let h = Client.health c in
  Alcotest.(check string) "daemon healthy after the frontier mix" "ok" h.status;
  Alcotest.(check int) "build and hit both served" 2 h.served

(* The daemon's memo and its disk cache share [Frontier_build.key], so a
   frontier built at 8 iterations never answers a request at 40: the
   second request builds, and answers as a fresh 40-iteration build. *)
let test_frontier_cap_in_key () =
  with_server (fresh_cfg "frontier-cap") @@ fun addr ->
  with_client addr @@ fun c ->
  let fq id iters =
    { (P.frontier_request ~id ~model:"unet") with
      P.f_max_iterations = iters; f_budget_ratio = 0.7 }
  in
  let short = expect_frontier (Client.frontier c (fq "cap-8" 8)) in
  Alcotest.(check bool) "the 8-iteration query builds" false short.fr_cache_hit;
  let long = expect_frontier (Client.frontier c (fq "cap-40" 40)) in
  Alcotest.(check bool) "the 40-iteration query builds too" false
    long.fr_cache_hit;
  let fresh, _ =
    Frontier_build.build
      ~config:{ Search.default_config with max_iterations = 40 }
      (Op_cost.create (Hardware.find "rtx3090"))
      Frontier_build.sweep_mode
      ((Zoo.find "unet").build Zoo.Quick)
  in
  let want = Option.get (Frontier_build.query_ratio fresh ~ratio:0.7) in
  Alcotest.(check int) "a fresh 40-iteration build's point count"
    (Frontier.size fresh) long.fr_points;
  Alcotest.(check int) "its answer peak" want.Frontier.peak long.fr_peak;
  Alcotest.(check (float 0.0)) "its answer latency" want.latency
    long.fr_latency

(* The daemon resolves ratio 1.0 to the unoptimized graph's peak on
   every Quick model. *)
let test_frontier_ratio_one_is_baseline () =
  with_server (fresh_cfg "frontier-baseline") @@ fun addr ->
  with_client addr @@ fun c ->
  List.iter
    (fun (w : Zoo.workload) ->
      let fq =
        { (P.frontier_request ~id:w.name ~model:w.name) with
          P.f_max_iterations = 2; f_budget_ratio = 1.0 }
      in
      let a = expect_frontier (Client.frontier c fq) in
      let peak =
        (Simulator.baseline (Op_cost.create (Hardware.find "rtx3090"))
           (Graph_index.of_graph (w.build Zoo.Quick))).peak_mem
      in
      Alcotest.(check int) (w.name ^ ": ratio 1.0 is the baseline peak") peak
        a.fr_budget)
    Zoo.all

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let test_chaos_daemon_survives () =
  with_server (fresh_cfg ~queue_cap:16 "chaos") @@ fun addr ->
  let r = Loadgen.run_chaos ~addr ~seed:3 in
  List.iter
    (fun (name, ok) ->
      Alcotest.(check bool) ("chaos scenario " ^ name) true ok)
    r.scenarios;
  Alcotest.(check int) "no scenario failed" 0 r.failed

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

(* Daemon A runs in a child process (the real [magis_serve] binary —
   [Unix.fork] is unavailable once domains exist) and is SIGKILL'd
   mid-request — no drain, no cleanup, the hard-crash case.  A
   restarted daemon on the same checkpoint directory must answer
   [incompatible] for the same id with a different spec, and resume the
   original spec to a result bit-identical with an uninterrupted run of
   the same budget. *)
(* resolved against the test binary, so it works under both
   [dune runtest] and [dune exec] from any directory *)
let serve_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat (Filename.concat ".." "bin") "magis_serve.exe")

let test_sigkill_restart_resume () =
  let cfg = fresh_cfg "crash" in
  let sock =
    match cfg.Server.addr with P.Unix_sock p -> p | P.Tcp _ -> assert false
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process serve_exe
      [|
        serve_exe; "daemon"; "--socket"; sock; "--ckpt-dir";
        cfg.Server.ckpt_dir; "--ckpt-every"; "0";
      |]
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let k =
    let c = Client.connect cfg.Server.addr in
    Client.send c (P.Optimize (req ~iters:500 ~progress:1 "crash-1"));
    let k =
      match Client.recv c with
      | P.Progress p -> p.p_iterations
      | r -> Alcotest.failf "expected progress, got %s" (P.reply_to_string r)
    in
    (* the iteration before the progress event checkpointed (atomic
       rename); crash NOW *)
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Client.close c;
    k
  in
  let total = k + 10 in
  let resumed =
    with_server cfg @@ fun addr ->
    with_client addr @@ fun c ->
    let resumes () = counter_in (Client.metrics_text c) "serve.resumed" in
    let before = resumes () in
    (match
       Client.optimize c
         { (req ~iters:total "crash-1") with mode = P.Latency 0.7 }
     with
    | P.Error { kind = P.Incompatible; e_id = Some "crash-1"; _ } -> ()
    | r ->
        Alcotest.failf "changed spec should be incompatible, got %s"
          (P.reply_to_string r));
    let o = expect_result (Client.optimize c (req ~iters:total "crash-1")) in
    Alcotest.(check bool) "restart resumed the checkpoint" true o.o_resumed;
    (* the incompatible request loaded nothing, so it is no resume *)
    Alcotest.(check int) "one resume counted" 1 (resumes () - before);
    o
  in
  let fresh =
    with_server (fresh_cfg "crash-fresh") @@ fun addr ->
    with_client addr @@ fun c ->
    expect_result (Client.optimize c (req ~iters:total "crash-1"))
  in
  Alcotest.(check bool) "fresh run is not a resume" false fresh.o_resumed;
  Alcotest.(check int) "same iteration count" fresh.o_iterations
    resumed.o_iterations;
  Alcotest.(check int) "bit-identical peak" fresh.o_peak resumed.o_peak;
  Alcotest.(check (float 0.0)) "bit-identical latency" fresh.o_latency
    resumed.o_latency

(* The load-shed ladder and the search's time-pressure ladder share one
   rung, {!Search.ladder_sched_states}.  A nonzero budget is needed to
   see it: the default 0 means greedy-only, and 0 / 4 = 0. *)
let test_shed_rung_is_search_rung () =
  let t = Server.create (fresh_cfg "rung") in
  let r = { (req "rung") with sched_states = 64 } in
  let at shed = (Server.search_config t ~shed r).Search.sched_states in
  Alcotest.(check int) "shed 0 keeps the DP budget" 64 (at 0);
  Alcotest.(check int) "shed 1 = the search past 85% of its budget"
    (Search.ladder_sched_states ~level:1 64)
    (at 1);
  Alcotest.(check int) "the rung quarters the budget" 16 (at 1)

(* A cold daemon's result is the library's: for UNet and BERT-base in
   both request modes, an optimize answers what [Search.optimize_memory]
   or [optimize_latency] returns in process under the daemon's own
   configuration, limit included, since the daemon sets no limit of its
   own.  The in-process searches share one cache in request order, as
   the daemon's do. *)
let test_result_is_library_search () =
  let cfg = fresh_cfg "library" in
  let t = Server.create cfg in
  let cost = Op_cost.create Hardware.default in
  with_server cfg @@ fun addr ->
  with_client addr @@ fun c ->
  List.iter
    (fun (model, mode) ->
      let r = { (req ~model ~iters:8 (model ^ "-lib")) with P.mode } in
      let o = expect_result (Client.optimize c r) in
      let config = Server.search_config t ~shed:0 r in
      let g = (Zoo.find model).build r.scale in
      let lib =
        match mode with
        | P.Memory overhead -> Search.optimize_memory ~config cost ~overhead g
        | P.Latency mem_ratio ->
            Search.optimize_latency ~config cost ~mem_ratio g
      in
      let what =
        match mode with
        | P.Memory o -> Printf.sprintf "%s, overhead %g: " model o
        | P.Latency m -> Printf.sprintf "%s, mem_ratio %g: " model m
      in
      Alcotest.(check int) (what ^ "initial peak") lib.initial.peak_mem
        o.o_initial_peak;
      Alcotest.(check int) (what ^ "best peak") lib.best.peak_mem o.o_peak;
      Alcotest.(check int64) (what ^ "latency bits")
        (Int64.bits_of_float lib.best.latency)
        (Int64.bits_of_float o.o_latency);
      Alcotest.(check int) (what ^ "iterations") lib.stats.iterations
        o.o_iterations;
      Alcotest.(check bool) (what ^ "limit met") (Search.limit_met lib)
        o.o_limit_met)
    [ ("unet", P.Memory 0.1); ("unet", P.Latency 0.8);
      ("bert-base", P.Memory 0.1); ("bert-base", P.Latency 0.8) ]

let suite =
  [
    tc "protocol commands and replies round-trip" test_protocol_roundtrip;
    tc "protocol rejects hostile input structurally"
      test_protocol_rejects_hostile_input;
    tc "protocol rejects out-of-range limits"
      test_protocol_rejects_out_of_range_limits;
    tc "request lifecycle: progress, result, health, metrics"
      test_lifecycle;
    tc "malformed line: structured error, quarantine, daemon survives"
      test_isolation_malformed;
    tc "bounded queue: exact overload, duplicate and shed accounting"
      test_admission_overload;
    tc "shed rung is the search's degradation rung"
      test_shed_rung_is_search_rung;
    tc "per-client in-flight limit rejects the second request"
      test_admission_per_client_limit;
    tc "deadlines: pre-dispatch rejection and best-so-far expiry"
      test_deadlines;
    tc "client disconnect cancels; same id resumes the checkpoint"
      test_disconnect_cancels_then_resumes;
    tc "progress comes from the one search, with no checkpoint reload"
      test_progress_without_reload;
    tc "a finished request saves no snapshot"
      test_finished_request_saves_nothing;
    tc "shutdown stops in-flight and queued searches at their next pop"
      test_drain_at_next_pop;
    tc "torn socket read is quarantined, never fatal"
      test_torn_read_quarantined;
    tc "a failing baseline is quarantined, never fatal"
      test_failing_baseline_quarantined;
    tc "frontier: miss builds and persists, repeat hits the cache"
      test_frontier_miss_builds_then_hits;
    tc "frontier: a cap-8 build never answers a cap-40 query"
      test_frontier_cap_in_key;
    tc "a cold daemon's result is the library search's"
      test_result_is_library_search;
    tc "frontier: ratio 1.0 is the baseline peak on every Quick model"
      test_frontier_ratio_one_is_baseline;
    tc "chaos scenarios all survive" test_chaos_daemon_survives;
    tc "SIGKILL'd daemon restarts and resumes bit-identically"
      test_sigkill_restart_resume;
  ]
