(** Observability: JSON round-trips, span nesting and ordering, the
    zero-allocation disabled fast path, histogram bucket edges,
    Chrome-trace well-formedness (parsed back with the strict parser),
    the memory-timeline/simulator peak cross-check, and the search
    profile JSONL round-trip on a seeded Randnet. *)

open Magis
open Helpers

(* Every test that touches the process-wide tracer or metrics registry
   restores the default (disabled) state on exit so the rest of the
   suite keeps its zero-overhead baseline. *)
let with_trace f =
  Fun.protect ~finally:Trace.clear @@ fun () ->
  Trace.enable ();
  f ()

let with_metrics f =
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  Metrics.set_enabled true;
  f ()

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("s", Json.String "a\"b\\c\n\t\x01é");
        ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("whole", Json.Float 3.0);
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("nested", Json.Obj [ ("empty", Json.List []) ]) ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "round-trips exactly" true (Json.of_string s = v);
  (* whole floats must stay floats across the round-trip *)
  Alcotest.(check bool) "3.0 renders with a fractional part" true
    (let sub = "\"whole\":3.0" in
     let rec find i =
       i + String.length sub <= String.length s
       && (String.sub s i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  (* non-finite floats degrade to null instead of invalid JSON *)
  Alcotest.(check string) "nan becomes null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf becomes null" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | v -> Alcotest.failf "%S parsed as %s" s (Json.to_string v)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "tru";
  bad "1 2";
  (* trailing garbage *)
  bad "\"\\x\"";
  Alcotest.(check bool) "big literal parses as float" true
    (match Json.of_string "123456789012345678901234567890" with
    | Json.Float _ -> true
    | _ -> false)

let test_json_resource_limits () =
  (* A document nested deeper than the cap must raise a structured
     error, not blow the stack: build one 4x deeper than the default. *)
  let depth = 4 * Json.default_max_depth in
  let deep =
    String.make depth '[' ^ "1" ^ String.make depth ']'
  in
  (match Json.of_string deep with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "hostile nesting accepted");
  (* same for objects *)
  let deep_obj =
    let b = Buffer.create (8 * depth) in
    for _ = 1 to depth do Buffer.add_string b "{\"k\":" done;
    Buffer.add_string b "0";
    for _ = 1 to depth do Buffer.add_char b '}' done;
    Buffer.contents b
  in
  (match Json.of_string deep_obj with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "hostile object nesting accepted");
  (* a custom cap applies: depth 3 is fine at the default, rejected at 2 *)
  Alcotest.(check bool) "shallow doc passes default cap" true
    (Json.of_string "[[[1]]]" = Json.List [ Json.List [ Json.List [ Json.Int 1 ] ] ]);
  (match Json.of_string ~max_depth:2 "[[[1]]]" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "max_depth:2 accepted depth-3 document");
  (* max_len rejects before parsing; at the limit it parses *)
  (match Json.of_string ~max_len:4 "[1,2,3]" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "over-length document accepted");
  Alcotest.(check bool) "document at the length limit parses" true
    (Json.of_string ~max_len:7 "[1,2,3]" = Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ])

(* Seeded fuzz: random values must survive emit→parse bit-identically,
   and random byte soup must either parse or raise [Parse_error] — any
   other exception (stack overflow, [Invalid_argument], …) is a bug in
   the parser's input validation. *)
let test_json_fuzz () =
  let rng = Random.State.make [| 0x0b5; 9 |] in
  let rand_string () =
    String.init (Random.State.int rng 12) (fun _ ->
        Char.chr (Random.State.int rng 256))
  in
  let rec rand_value depth =
    match Random.State.int rng (if depth >= 4 then 5 else 7) with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool rng)
    | 2 -> Json.Int (Random.State.int rng 10_000 - 5_000)
    | 3 ->
        (* finite floats only: non-finite deliberately emit as null *)
        Json.Float (Random.State.float rng 1e6 -. 5e5)
    | 4 -> Json.String (rand_string ())
    | 5 ->
        Json.List
          (List.init (Random.State.int rng 4) (fun _ -> rand_value (depth + 1)))
    | _ ->
        Json.Obj
          (List.init (Random.State.int rng 4) (fun i ->
               (Printf.sprintf "k%d" i, rand_value (depth + 1))))
  in
  for _ = 1 to 500 do
    let v = rand_value 0 in
    let s = Json.to_string v in
    if Json.of_string s <> v then
      Alcotest.failf "round-trip changed %s" s
  done;
  for _ = 1 to 2_000 do
    let s = String.init (Random.State.int rng 64) (fun _ ->
        Char.chr (Random.State.int rng 256))
    in
    match Json.of_string ~max_depth:32 ~max_len:64 s with
    | _ -> ()
    | exception Json.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "parser leaked %s on %S" (Printexc.to_string e) s
  done

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let prev = ref (Trace.now ()) in
  for _ = 1 to 10_000 do
    let t = Trace.now () in
    if t < !prev then Alcotest.failf "clock went backwards: %g < %g" t !prev;
    prev := t
  done

let test_span_nesting_and_ordering () =
  with_trace @@ fun () ->
  Trace.with_span ~cat:"t" "outer" (fun () ->
      Trace.instant ~cat:"t" ~args:[ ("k", "v") ] "mark";
      Trace.with_span ~cat:"t" "inner" (fun () -> ignore (Sys.opaque_identity 0)));
  Trace.disable ();
  let evs = Trace.events () in
  Alcotest.(check (list string)) "completion order: instant, inner, outer"
    [ "mark"; "inner"; "outer" ]
    (List.map (fun (e : Trace.event) -> e.name) evs);
  let find n = List.find (fun (e : Trace.event) -> e.name = n) evs in
  let dur e =
    match (e : Trace.event).kind with
    | Trace.Span d -> d
    | Trace.Instant -> Alcotest.failf "%s is not a span" e.name
  in
  let outer = find "outer" and inner = find "inner" and mark = find "mark" in
  Alcotest.(check bool) "inner starts after outer" true
    (inner.ts >= outer.ts);
  Alcotest.(check bool) "inner nested within outer" true
    (inner.ts +. dur inner <= outer.ts +. dur outer +. 1e-9);
  Alcotest.(check bool) "instant inside outer" true
    (mark.ts >= outer.ts && mark.ts <= outer.ts +. dur outer);
  (match mark.kind with
  | Trace.Instant -> ()
  | Trace.Span _ -> Alcotest.fail "mark must be an instant");
  Alcotest.(check (list (pair string string))) "args preserved"
    [ ("k", "v") ] mark.args;
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ())

let test_ring_overflow_keeps_newest () =
  with_trace @@ fun () ->
  Trace.clear ();
  Trace.enable ~capacity:4 ();
  for i = 1 to 10 do
    Trace.instant (string_of_int i)
  done;
  Trace.disable ();
  Alcotest.(check (list string)) "last four, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun (e : Trace.event) -> e.name) (Trace.events ()));
  Alcotest.(check int) "overflow counted" 6 (Trace.dropped ())

let span_body () = ignore (Sys.opaque_identity 1)

let test_disabled_tracer_allocates_nothing () =
  (* the suite default is disabled; make it explicit anyway *)
  Trace.clear ();
  Metrics.set_enabled false;
  let c = Metrics.counter "test.obs.noalloc" in
  let h = Metrics.histogram "test.obs.noalloc_h" in
  (* warm up so any one-time allocation is out of the measured window *)
  Trace.instant "x";
  Trace.with_span "x" span_body;
  Metrics.incr c;
  Metrics.observe h 1.0;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Trace.instant "x";
    Trace.with_span "x" span_body;
    Metrics.incr c;
    Metrics.observe h 1.0
  done;
  let dw = Gc.minor_words () -. w0 in
  (* 40k disabled calls: anything per-call would cost >= 80k words.  A
     small constant slack absorbs the Gc.minor_words boxing itself. *)
  if dw > 100.0 then
    Alcotest.failf "disabled instrumentation allocated %.0f minor words" dw;
  Alcotest.(check int) "disabled counter never moved" 0 (Metrics.counter_value c)

let test_chrome_trace_parses_back () =
  with_trace @@ fun () ->
  Trace.with_span ~cat:"t" ~args:[ ("a", "1") ] "work" (fun () ->
      Trace.instant "tick");
  Trace.disable ();
  let doc = Json.of_string (Trace.to_chrome ()) in
  let evs =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let phases =
    List.filter_map
      (fun e ->
        match Json.member "ph" e with
        | Some (Json.String p) -> Some p
        | _ -> None)
    evs
  in
  Alcotest.(check int) "every event has a phase" (List.length evs)
    (List.length phases);
  Alcotest.(check bool) "has a complete event" true (List.mem "X" phases);
  Alcotest.(check bool) "has an instant" true (List.mem "i" phases);
  List.iter
    (fun e ->
      match (Json.member "ph" e, Json.member "ts" e) with
      | Some (Json.String "M"), _ -> ()
      | _, Some ts ->
          let ts = Option.get (Json.to_float ts) in
          if ts < 0.0 then Alcotest.failf "negative timestamp %g" ts
      | _ -> Alcotest.fail "event without timestamp")
    evs

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_and_gauge () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test.obs.c" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter sums" 42 (Metrics.counter_value c);
  Alcotest.(check bool) "same name, same counter" true
    (Metrics.counter_value (Metrics.counter "test.obs.c") = 42);
  let g = Metrics.gauge "test.obs.g" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge holds last write" 2.5
    (Metrics.gauge_value g);
  (match Metrics.gauge "test.obs.c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c)

let test_histogram_bucket_edges () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.obs.h" in
  (* bucket i covers (edges.(i-1), edges.(i)]: boundary values land in
     the bucket they bound from above *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.0000001; 2.0; 4.0; 4.5 ];
  Alcotest.(check (array int)) "boundary observations inclusive above"
    [| 2; 2; 1; 1 |]
    (Metrics.histogram_counts h);
  Alcotest.(check (float 1e-6)) "sum accumulates" 13.0000001
    (Metrics.histogram_sum h);
  (match Metrics.histogram ~buckets:[| 3.0 |] "test.obs.h" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "edge mismatch must raise");
  (match Metrics.histogram ~buckets:[| 2.0; 2.0 |] "test.obs.h2" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing edges must raise")

let test_metrics_json_snapshot () =
  with_metrics @@ fun () ->
  Metrics.add (Metrics.counter "test.obs.snap") 7;
  Metrics.set (Metrics.gauge "test.obs.snapg") 0.5;
  Metrics.observe (Metrics.histogram "test.obs.snaph") 1e-3;
  let doc = Json.of_string (Metrics.to_json ()) in
  let field section name =
    match Json.member section doc with
    | Some o -> Json.member name o
    | None -> None
  in
  Alcotest.(check (option int)) "counter exported" (Some 7)
    (Option.bind (field "counters" "test.obs.snap") Json.to_int);
  Alcotest.(check bool) "gauge exported" true
    (Option.bind (field "gauges" "test.obs.snapg") Json.to_float = Some 0.5);
  Alcotest.(check bool) "histogram exported" true
    (field "histograms" "test.obs.snaph" <> None);
  let text = Metrics.to_text () in
  Alcotest.(check bool) "text rendering mentions the counter" true
    (let sub = "test.obs.snap 7" in
     let rec find i =
       i + String.length sub <= String.length text
       && (String.sub text i (String.length sub) = sub || find (i + 1))
     in
     find 0)

(* ------------------------------------------------------------------ *)
(* Timeline and the simulator cross-check                              *)
(* ------------------------------------------------------------------ *)

let test_timeline_chrome_lanes () =
  let spans =
    [ { Timeline.name = "a"; lane = Timeline.Compute; t_start = 0.0;
        t_dur = 1e-3; bytes = 64 };
      { Timeline.name = "b"; lane = Timeline.Copy; t_start = 5e-4;
        t_dur = 2e-3; bytes = 0 } ]
  in
  let doc = Json.of_string (Timeline.chrome spans) in
  let evs =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let tids =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "tid" e) with
        | Some (Json.String "X"), Some t -> Json.to_int t
        | _ -> None)
      evs
  in
  Alcotest.(check (list int)) "compute lane 0, copy lane 1" [ 0; 1 ] tids;
  let names =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "name" e) with
        | Some (Json.String "M"), Some (Json.String n) -> Some n
        | _ -> None)
      evs
  in
  (* both lanes are named up front even when one is empty *)
  Alcotest.(check int) "process + two lane metadata records" 3
    (List.length names)

let test_memory_timeline_matches_simulator () =
  let c = cache () in
  let g = mlp_training () in
  let order = Graph.topo_order g in
  let sim, events = Simulator.run_events c g order in
  let tl = Lifetime.timeline sim.analysis in
  Alcotest.(check int) "timeline max is the simulator peak" sim.peak_mem
    (Timeline.memory_max tl);
  let non_input =
    List.length
      (List.filter
         (fun (n : Graph.node) ->
           match n.op with Op.Input _ -> false | _ -> true)
         (Graph.nodes g))
  in
  Alcotest.(check int) "one event per scheduled non-input node" non_input
    (List.length events);
  List.iter
    (fun (e : Simulator.event) ->
      if e.ev_start < 0.0 || e.ev_finish < e.ev_start then
        Alcotest.failf "node %d: bad interval [%g, %g]" e.ev_node e.ev_start
          e.ev_finish;
      if e.ev_finish > sim.latency +. 1e-9 then
        Alcotest.failf "node %d finishes after the makespan" e.ev_node)
    events;
  let csv = Timeline.memory_csv ~lower:1 ~upper:sim.peak_mem tl in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "csv header" "step,bytes,lower_bound,upper_bound"
    (List.hd lines);
  Alcotest.(check int) "one csv line per step" (Array.length tl)
    (List.length (List.tl lines))

(* ------------------------------------------------------------------ *)
(* Profile JSONL round-trip on a seeded Randnet                        *)
(* ------------------------------------------------------------------ *)

let randnet seed =
  Randnet.build
    ~cfg:
      { Randnet.cells = 1; nodes_per_cell = 4; channels = 8; image = 8;
        batch = 2; seed }
    ()

let test_profile_jsonl_roundtrip () =
  let path = Filename.temp_file "magis_obs" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sink = Profile.create path in
  let g = randnet 7 in
  let config =
    { Search.default_config with max_iterations = 6; time_budget = 1e9;
      profile = Some sink }
  in
  let r = Search.optimize_memory ~config (cache ()) ~overhead:0.10 g in
  Profile.close sink;
  let records = Profile.read path in
  Alcotest.(check int) "one record per iteration" r.stats.iterations
    (List.length records);
  let int_field name rec_ =
    match Option.bind (Json.member name rec_) Json.to_int with
    | Some v -> v
    | None -> Alcotest.failf "record missing int field %s" name
  in
  List.iteri
    (fun i rec_ ->
      Alcotest.(check int) "iterations count up from 1" (i + 1)
        (int_field "iter" rec_);
      Alcotest.(check bool) "best peak is positive" true
        (int_field "best_peak" rec_ > 0))
    records;
  let last = List.nth records (List.length records - 1) in
  Alcotest.(check int) "final record carries the best peak"
    r.best.peak_mem (int_field "best_peak" last);
  (* the stats JSON export agrees with the run *)
  let sj = Search.stats_json r.stats in
  Alcotest.(check (option int)) "stats_json iterations"
    (Some r.stats.iterations)
    (Option.bind (Json.member "iterations" sj) Json.to_int);
  Alcotest.(check bool) "stats_json parses back" true
    (Json.of_string (Json.to_string sj) = sj);
  (* every stage and counter of the one list reaches every view: the
     final profile record, the stats JSON and the Fig. 15 table *)
  let words =
    String.split_on_char '\n' (Format.asprintf "%a" Search.pp_stats r.stats)
    |> List.concat_map (String.split_on_char ' ')
  in
  List.iter
    (fun name ->
      let key = "t_" ^ name in
      Alcotest.(check bool) (key ^ " in every export") true
        (Json.member key last <> None && Json.member key sj <> None);
      Alcotest.(check bool) (name ^ " row in pp_stats") true
        (List.mem name words))
    Search.stage_names;
  List.iter
    (fun (name, v) ->
      Alcotest.(check (option int)) (name ^ " in the final record") (Some v)
        (Option.bind (Json.member name last) Json.to_int);
      Alcotest.(check (option int)) (name ^ " in stats_json") (Some v)
        (Option.bind (Json.member name sj) Json.to_int);
      Alcotest.(check bool) (name ^ " in pp_stats") true
        (List.exists (String.starts_with ~prefix:(name ^ "=")) words))
    (Search.counts r.stats);
  (* a serial run's stages never overlap, so they fit in its wall time *)
  let staged =
    List.fold_left (fun acc (_, t) -> acc +. t) 0.0
      (Search.stage_seconds r.stats)
  in
  Alcotest.(check bool) "stage seconds sum to at most wall" true
    (staged <= r.stats.wall && Search.unaccounted r.stats >= 0.0);
  (* the retired bound-probe counters are left out of every export *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " not exported") true
        (Json.member key sj = None && Json.member key last = None))
    [ "n_pruned_lb"; "pruned_lb"; "n_bound_calls"; "t_bound"; "n_lv_delta" ]

(* The stat block's cache line speaks only of a cache the search had:
   none without one, the cold cache's 0% with one. *)
let test_pp_stats_cache_line () =
  let cache_line (sim_cache : Sim_cache.t option) =
    let config =
      { Search.default_config with max_iterations = 3; time_budget = 1e9;
        sim_cache }
    in
    let r = Search.optimize_memory ~config (cache ()) ~overhead:0.10 (randnet 7) in
    Format.asprintf "%a" Search.pp_stats r.stats
    |> String.split_on_char '\n'
    |> List.find_opt (String.starts_with ~prefix:"Simulation cache")
  in
  Alcotest.(check (option string)) "no cache, no line" None (cache_line None);
  Alcotest.(check (option string)) "a cold cache prints its 0%"
    (Some "Simulation cache: 0% hit rate")
    (cache_line (Some (Sim_cache.create ())))

(* Each pop of the search loop is one "pop" instant carrying the popped
   state's numbers; the first pop is the initial state. *)
let test_search_pop_instants () =
  with_trace @@ fun () ->
  let config =
    { Search.default_config with max_iterations = 4; time_budget = 1e9 }
  in
  let r = Search.optimize_memory ~config (cache ()) ~overhead:0.10 (randnet 7) in
  let pops =
    List.filter
      (fun (e : Trace.event) ->
        e.name = "pop" && e.cat = "search" && e.kind = Trace.Instant)
      (Trace.events ())
  in
  Alcotest.(check (list string)) "one pop per iteration, in order"
    (List.init r.stats.iterations (fun i -> string_of_int (i + 1)))
    (List.map (fun (e : Trace.event) -> List.assoc "iteration" e.args) pops);
  let first = List.hd pops in
  Alcotest.(check string) "first pop is the initial state"
    (string_of_int r.initial.peak_mem)
    (List.assoc "peak_mem" first.args);
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " carried") true
        (List.mem_assoc key first.args))
    [ "latency"; "entries"; "enabled"; "stale" ]

(* ------------------------------------------------------------------ *)
(* magis_cli optimize --profile                                        *)
(* ------------------------------------------------------------------ *)

(* resolved against the test binary, as [Test_serve.serve_exe] is *)
let cli_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat (Filename.concat ".." "bin") "magis_cli.exe")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One traced run writes all five artifacts, and its counters agree
   across them: stats.json, the last search.jsonl record and the
   [search.*] metrics are views of one accounting table, and the memory
   timeline peaks at the best state the run reports. *)
let test_optimize_profile_artifacts () =
  let dir = temp_path "profile" in
  let stdout_path = temp_path "profile-stdout" in
  let code =
    let out = Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close out; Unix.close devnull)
    @@ fun () ->
    let pid =
      Unix.create_process cli_exe
        [| cli_exe; "optimize"; "UNet"; "--iters"; "4"; "--budget"; "1e9";
           "--profile"; dir |]
        devnull out devnull
    in
    match Unix.waitpid [] pid with _, Unix.WEXITED n -> n | _ -> -1
  in
  Alcotest.(check int) "exit 0 (both cross-checks pass)" 0 code;
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " written") true
        (Sys.file_exists (Filename.concat dir f)))
    [ "stats.json"; "search.jsonl"; "trace.json"; "metrics.json"; "memtl.csv" ];
  let json f = Json.of_string (read_file (Filename.concat dir f)) in
  let int_of key obj =
    match Option.bind (Json.member key obj) Json.to_int with
    | Some n -> n
    | None -> Alcotest.failf "no integer %S" key
  in
  let stats = json "stats.json" in
  let records = Profile.read (Filename.concat dir "search.jsonl") in
  Alcotest.(check int) "one record per iteration" 4 (List.length records);
  let last = List.nth records 3 in
  let counters =
    match Json.member "counters" (json "metrics.json") with
    | Some c -> c
    | None -> Alcotest.fail "metrics.json has no counters"
  in
  List.iter
    (fun name ->
      let n = int_of name stats in
      Alcotest.(check int) (name ^ ": stats.json = last record") n
        (int_of name last);
      Alcotest.(check int) (name ^ ": stats.json = search.* metric") n
        (int_of ("search." ^ name) counters))
    Search.counter_names;
  Alcotest.(check int) "iterations" 4 (int_of "iterations" stats);
  let best_peak = int_of "best_peak" last in
  let memtl_peak =
    let csv = String.trim (read_file (Filename.concat dir "memtl.csv")) in
    match String.split_on_char '\n' csv with
    | _header :: rows ->
        List.fold_left
          (fun m row ->
            match String.split_on_char ',' row with
            | _step :: bytes :: _ -> max m (int_of_string bytes)
            | _ -> Alcotest.failf "bad memtl.csv row %S" row)
          0 rows
    | [] -> Alcotest.fail "empty memtl.csv"
  in
  Alcotest.(check int) "memtl.csv peaks at the best state's peak" best_peak
    memtl_peak;
  Alcotest.(check bool) "the plan line reports that peak" true
    (contains (read_file stdout_path)
       (Printf.sprintf "->  %.1f MB" (float_of_int best_peak /. 1e6)))

(* [optimize] says when its best misses the limit, with the digits
   that show it, and exits 5: ViT-base at 8 iterations and ratio 0.8
   returns 464.7 MB against a 462.3 MB limit, which its "memory ratio
   0.80" line alone does not show. *)
let test_optimize_limit_not_met () =
  let stdout_path = temp_path "limit-stdout" in
  let code =
    let out = Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close out; Unix.close devnull)
    @@ fun () ->
    let pid =
      Unix.create_process cli_exe
        [| cli_exe; "optimize"; "vit-base"; "--iters"; "8"; "--budget"; "1e9";
           "--mem-ratio"; "0.8" |]
        devnull out devnull
    in
    match Unix.waitpid [] pid with _, Unix.WEXITED n -> n | _ -> -1
  in
  let out = read_file stdout_path in
  Alcotest.(check int) "exit 5" 5 code;
  Alcotest.(check bool) "limit not met, with the digits that show it" true
    (contains out "limit not met: peak 464.679 MB (ratio 0.8040), limit \
                   462.340 MB (ratio 0.8000)")

let suite =
  [
    tc "json values round-trip through the parser" test_json_roundtrip;
    tc "json parser rejects malformed documents" test_json_parse_errors;
    tc "json parser enforces depth and length limits"
      test_json_resource_limits;
    tc "json fuzz: round-trip and parse-or-reject" test_json_fuzz;
    tc "monotonized clock never goes backwards" test_clock_monotonic;
    tc "spans nest and complete in order" test_span_nesting_and_ordering;
    tc "ring buffer overflow keeps the newest events"
      test_ring_overflow_keeps_newest;
    tc "disabled tracer and metrics allocate nothing"
      test_disabled_tracer_allocates_nothing;
    tc "chrome trace export parses back" test_chrome_trace_parses_back;
    tc "counters and gauges register by name" test_counter_and_gauge;
    tc "histogram bucket edges are inclusive above"
      test_histogram_bucket_edges;
    tc "metrics snapshot exports json and text" test_metrics_json_snapshot;
    tc "timeline export names both lanes" test_timeline_chrome_lanes;
    tc "memory timeline matches the simulator peak"
      test_memory_timeline_matches_simulator;
    tc "search profile JSONL round-trips" test_profile_jsonl_roundtrip;
    tc "search pops are trace instants" test_search_pop_instants;
    tc "the stat block's cache line needs a cache" test_pp_stats_cache_line;
    tc "optimize --profile writes every artifact of one run"
      test_optimize_profile_artifacts;
    tc "optimize says when its best misses the limit"
      test_optimize_limit_not_met;
  ]
