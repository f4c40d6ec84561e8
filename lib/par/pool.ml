(** Fixed-size domain pool (see the interface for the contract).

    One mutex guards the job queue, the shutdown flag and every
    completion counter; two conditions signal "work available" (workers
    wait on it) and "a batch finished" (the caller of [map_result]
    waits on it).  Workers never touch results concurrently: each task
    writes a distinct cell of the result array, and the happens-before
    edge from the counter update under the mutex makes those writes
    visible to the caller when the batch count reaches zero. *)

module Fault = Magis_resilience.Fault
module Trace = Magis_obs.Trace
module Metrics = Magis_obs.Metrics

(* Busy accounting uses {!Trace.now} (monotonized) rather than raw
   [Unix.gettimeofday]: a backwards clock step must not produce a
   negative task duration.  Each worker's cumulative busy time is
   mirrored into a gauge so an enabled metrics run can see per-worker
   load without calling {!busy_time}. *)
let tasks_total = Metrics.counter "pool.tasks"
let busy_gauge i = Metrics.gauge (Printf.sprintf "pool.busy_seconds.%d" i)

type shared = {
  lock : Mutex.t;
  work : Condition.t;  (** queue non-empty, or shutting down *)
  batch_done : Condition.t;  (** some batch counter reached zero *)
  queue : (int -> unit) Queue.t;  (** jobs, applied to the worker index *)
  mutable stop : bool;
  busy : float array;  (** per-worker cumulative task seconds *)
  gauges : Metrics.gauge array;  (** mirrors [busy] when metrics are on *)
}

type t =
  | Inline of { busy : float array; gauge : Metrics.gauge }
  | Domains of {
      shared : shared;
      domains : unit Domain.t array;
      mutable joined : bool;
    }

let rec worker_loop (sh : shared) (widx : int) =
  Mutex.lock sh.lock;
  while Queue.is_empty sh.queue && not sh.stop do
    Condition.wait sh.work sh.lock
  done;
  if Queue.is_empty sh.queue then Mutex.unlock sh.lock (* stop, queue drained *)
  else begin
    let job = Queue.pop sh.queue in
    Mutex.unlock sh.lock;
    job widx;
    worker_loop sh widx
  end

let create n =
  if n <= 1 then Inline { busy = [| 0.0 |]; gauge = busy_gauge 0 }
  else
    let shared =
      {
        lock = Mutex.create ();
        work = Condition.create ();
        batch_done = Condition.create ();
        queue = Queue.create ();
        stop = false;
        busy = Array.make n 0.0;
        gauges = Array.init n busy_gauge;
      }
    in
    let domains =
      Array.init n (fun i -> Domain.spawn (fun () -> worker_loop shared i))
    in
    Domains { shared; domains; joined = false }

let size = function
  | Inline _ -> 1
  | Domains { domains; _ } -> Array.length domains

let busy_time = function
  | Inline { busy; _ } -> Array.copy busy
  | Domains { shared; _ } ->
      Mutex.lock shared.lock;
      let b = Array.copy shared.busy in
      Mutex.unlock shared.lock;
      b

(** Run one task body under the injector's worker site; failures carry
    their backtrace out of the worker so the caller can re-raise or
    report with the original trace intact. *)
let run_task f x =
  try
    Fault.hit "pool_worker";
    Ok (f x)
  with e -> Error (e, Printexc.get_raw_backtrace ())

let unwrap results =
  Array.map
    (function
      | Some r -> r
      | None -> assert false (* the batch counter reached zero *))
    results

let map_result t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else
    match t with
    | Inline { busy; gauge } ->
        Array.map
          (fun x ->
            let t0 = Trace.now () in
            let r = run_task f x in
            busy.(0) <- busy.(0) +. (Trace.now () -. t0);
            Metrics.incr tasks_total;
            Metrics.set gauge busy.(0);
            r)
          xs
    | Domains { shared = sh; joined; _ } ->
        if joined || sh.stop then
          invalid_arg "Magis_par.Pool.map_result: pool is shut down";
        let results = Array.make n None in
        let remaining = ref n in
        let job i widx =
          let t0 = Trace.now () in
          let r = run_task f xs.(i) in
          let dt = Trace.now () -. t0 in
          Mutex.lock sh.lock;
          sh.busy.(widx) <- sh.busy.(widx) +. dt;
          let total = sh.busy.(widx) in
          results.(i) <- Some r;
          decr remaining;
          if !remaining = 0 then Condition.broadcast sh.batch_done;
          Mutex.unlock sh.lock;
          Metrics.incr tasks_total;
          Metrics.set sh.gauges.(widx) total
        in
        Mutex.lock sh.lock;
        for i = 0 to n - 1 do
          Queue.add (job i) sh.queue
        done;
        Condition.broadcast sh.work;
        while !remaining > 0 do
          Condition.wait sh.batch_done sh.lock
        done;
        Mutex.unlock sh.lock;
        unwrap results

let shutdown = function
  | Inline _ -> ()
  | Domains d ->
      if not d.joined then begin
        d.joined <- true;
        Mutex.lock d.shared.lock;
        d.shared.stop <- true;
        Condition.broadcast d.shared.work;
        Mutex.unlock d.shared.lock;
        Array.iter Domain.join d.domains
      end
