(** Process-wide metrics registry (see the interface).

    Counters are striped: each counter owns a small power-of-two array
    of atomic cells and a domain increments the cell indexed by its
    domain id, so concurrent domains never contend on one cache line;
    reads sum the stripes.  Gauges store float bits in one atomic.
    Histograms keep one atomic cell per bucket plus a CAS-accumulated
    float sum.

    Recording is gated on one atomic [enabled] flag (default off), so
    the production cost of an instrumented call is a load and a branch.
    The registry itself (name → metric) is guarded by a mutex and only
    touched at creation and snapshot time. *)

let stripe_count = 8 (* power of two *)

type counter = { c_name : string; c_cells : int Atomic.t array }
type gauge = { g_name : string; g_bits : int64 Atomic.t }

type histogram = {
  h_name : string;
  h_edges : float array;
  h_counts : int Atomic.t array;  (** one cell per edge, last = overflow *)
  h_sum : int64 Atomic.t;  (** float bits of the sum of observations *)
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(** Get-or-create under the registry lock; re-registering a name as a
    different kind is a programming error. *)
let register name make match_existing =
  Mutex.lock lock;
  let r =
    match Hashtbl.find_opt registry name with
    | Some m -> (
        match match_existing m with
        | Some v -> v
        | None ->
            Mutex.unlock lock;
            invalid_arg
              (Printf.sprintf
                 "Magis_obs.Metrics: %s already registered as a %s" name
                 (kind_name m)))
    | None ->
        let v, m = make () in
        Hashtbl.replace registry name m;
        v
  in
  Mutex.unlock lock;
  r

let counter name =
  register name
    (fun () ->
      let c =
        { c_name = name;
          c_cells = Array.init stripe_count (fun _ -> Atomic.make 0) }
      in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; g_bits = Atomic.make (Int64.bits_of_float 0.0) } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

(** Default histogram buckets: exponential seconds ladder from 1 µs to
    10 s — suitable for the latencies this codebase measures. *)
let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let histogram ?(buckets = default_buckets) name =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Magis_obs.Metrics.histogram: no buckets";
  for i = 1 to n - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Magis_obs.Metrics.histogram: buckets must increase strictly"
  done;
  register name
    (fun () ->
      let h =
        { h_name = name; h_edges = Array.copy buckets;
          h_counts = Array.init (n + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make (Int64.bits_of_float 0.0) }
      in
      (h, Histogram h))
    (function
      | Histogram h when h.h_edges = buckets -> Some h
      | Histogram _ -> None
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let stripe () = (Domain.self () :> int) land (stripe_count - 1)

let add c n =
  if Atomic.get enabled_flag then
    ignore (Atomic.fetch_and_add c.c_cells.(stripe ()) n)

let incr c = add c 1

let counter_value c = Array.fold_left (fun a cell -> a + Atomic.get cell) 0 c.c_cells

let set g v =
  if Atomic.get enabled_flag then Atomic.set g.g_bits (Int64.bits_of_float v)

let gauge_value g = Int64.float_of_bits (Atomic.get g.g_bits)

(** Bucket of [v]: the first [i] with [v <= edges.(i)], the overflow
    cell otherwise — i.e. bucket [i] covers [(edges.(i-1), edges.(i)]],
    with an observation on an edge landing in the bucket the edge
    closes. *)
let bucket_of (h : histogram) v =
  let n = Array.length h.h_edges in
  let rec go i = if i >= n then n else if v <= h.h_edges.(i) then i else go (i + 1) in
  go 0

let rec cas_add_float cell v =
  let old = Atomic.get cell in
  let updated = Int64.bits_of_float (Int64.float_of_bits old +. v) in
  if not (Atomic.compare_and_set cell old updated) then cas_add_float cell v

let observe h v =
  if Atomic.get enabled_flag then begin
    Atomic.incr h.h_counts.(bucket_of h v);
    cas_add_float h.h_sum v
  end

let histogram_counts h =
  Array.map Atomic.get h.h_counts

let histogram_sum h = Int64.float_of_bits (Atomic.get h.h_sum)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type histogram_snapshot = {
  edges : float array;
  counts : int array;  (** one cell per edge, plus a final overflow cell *)
  count : int;  (** total observations *)
  sum : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

let snapshot () =
  Mutex.lock lock;
  let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock lock;
  let by_name f = List.sort (fun (a, _) (b, _) -> compare a b) f in
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) -> function
        | Counter c -> ((c.c_name, counter_value c) :: cs, gs, hs)
        | Gauge g -> (cs, (g.g_name, gauge_value g) :: gs, hs)
        | Histogram h ->
            let counts = histogram_counts h in
            let snap =
              { edges = Array.copy h.h_edges; counts;
                count = Array.fold_left ( + ) 0 counts;
                sum = histogram_sum h }
            in
            (cs, gs, (h.h_name, snap) :: hs))
      ([], [], []) metrics
  in
  { counters = by_name counters; gauges = by_name gauges;
    histograms = by_name histograms }

let json () : Json.t =
  let s = snapshot () in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters) );
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, h) ->
               ( n,
                 Json.Obj
                   [
                     ( "edges",
                       Json.List
                         (Array.to_list (Array.map (fun e -> Json.Float e) h.edges))
                     );
                     ( "counts",
                       Json.List
                         (Array.to_list (Array.map (fun c -> Json.Int c) h.counts))
                     );
                     ("count", Json.Int h.count);
                     ("sum", Json.Float h.sum);
                   ] ))
             s.histograms) );
    ]

let to_json () = Json.to_string (json ())

let to_text () =
  let b = Buffer.create 256 in
  let s = snapshot () in
  List.iter
    (fun (n, v) -> Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
    s.counters;
  List.iter
    (fun (n, v) -> Buffer.add_string b (Printf.sprintf "%s %g\n" n v))
    s.gauges;
  List.iter
    (fun (n, h) ->
      Array.iteri
        (fun i c ->
          let le =
            if i < Array.length h.edges then Printf.sprintf "%g" h.edges.(i)
            else "+inf"
          in
          Buffer.add_string b (Printf.sprintf "%s{le=%s} %d\n" n le c))
        h.counts;
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.count);
      Buffer.add_string b (Printf.sprintf "%s_sum %g\n" n h.sum))
    s.histograms;
  Buffer.contents b

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> Array.iter (fun cell -> Atomic.set cell 0) c.c_cells
      | Gauge g -> Atomic.set g.g_bits (Int64.bits_of_float 0.0)
      | Histogram h ->
          Array.iter (fun cell -> Atomic.set cell 0) h.h_counts;
          Atomic.set h.h_sum (Int64.bits_of_float 0.0))
    registry;
  Mutex.unlock lock
