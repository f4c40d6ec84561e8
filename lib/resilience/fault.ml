(** Seeded fault injector (see the interface for the contract).

    One mutex guards the plan, the per-site visit counters and the
    fired-fault log; the armed flag is an atomic so the disarmed fast
    path — every production call — is a single load and a branch.
    Sleeping and raising happen outside the critical section so a slow
    fault cannot serialize other sites. *)

module Trace = Magis_obs.Trace
module Metrics = Magis_obs.Metrics

type kind = Exception | Delay of float | Nan_cost | Stall of float
type spec = { site : string; at : int; kind : kind }

let faults_fired = Metrics.counter "fault.fired"

let kind_name = function
  | Exception -> "exception"
  | Delay _ -> "delay"
  | Nan_cost -> "nan_cost"
  | Stall _ -> "stall"

exception Injected of string * int

let () =
  Printexc.register_printer (function
    | Injected (site, visit) ->
        Some (Printf.sprintf "Magis_resilience.Fault.Injected(%s, visit %d)"
                site visit)
    | _ -> None)

let sites =
  [ "op_cost"; "simulator"; "sim_cache"; "candidate"; "sock_read";
    "sock_write" ]

type state = {
  plan : (string * int, kind) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  mutable log : spec list;  (** fired faults, newest first *)
}

let armed_flag = Atomic.make false
let lock = Mutex.create ()
let state = ref None

let arm specs =
  Mutex.lock lock;
  let plan = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace plan (s.site, s.at) s.kind) specs;
  state := Some { plan; counts = Hashtbl.create 8; log = [] };
  Atomic.set armed_flag true;
  Mutex.unlock lock

let observe () = arm []

let disarm () =
  Mutex.lock lock;
  Atomic.set armed_flag false;
  state := None;
  Mutex.unlock lock

let armed () = Atomic.get armed_flag

let visits site =
  Mutex.lock lock;
  let v =
    match !state with
    | None -> 0
    | Some st -> Option.value ~default:0 (Hashtbl.find_opt st.counts site)
  in
  Mutex.unlock lock;
  v

let fired () =
  Mutex.lock lock;
  let l = match !state with None -> [] | Some st -> List.rev st.log in
  Mutex.unlock lock;
  l

let seeded ~seed ~lo ~hi pairs =
  if hi <= lo then invalid_arg "Fault.seeded: empty visit window";
  let rng = Random.State.make [| 0xFA17; seed |] in
  List.map
    (fun (site, kind) ->
      { site; at = lo + Random.State.int rng (hi - lo); kind })
    pairs

let burst ~site ~at ~len kind =
  List.init len (fun i -> { site; at = at + i; kind })

(** Count a visit and look up the planned fault for it, if any. *)
let tick site : spec option =
  if not (Atomic.get armed_flag) then None
  else begin
    Mutex.lock lock;
    let r =
      match !state with
      | None -> None
      | Some st ->
          let v =
            1 + Option.value ~default:0 (Hashtbl.find_opt st.counts site)
          in
          Hashtbl.replace st.counts site v;
          (match Hashtbl.find_opt st.plan (site, v) with
          | None -> None
          | Some kind ->
              let s = { site; at = v; kind } in
              st.log <- s :: st.log;
              Some s)
    in
    Mutex.unlock lock;
    (match r with
    | None -> ()
    | Some s ->
        Metrics.incr faults_fired;
        Trace.instant ~cat:"resilience"
          ~args:
            [ ("site", s.site); ("visit", string_of_int s.at);
              ("kind", kind_name s.kind) ]
          "fault-injected");
    r
  end

let hit site =
  match tick site with
  | None | Some { kind = Nan_cost; _ } -> ()
  | Some { kind = Exception; at; _ } -> raise (Injected (site, at))
  | Some { kind = Delay d | Stall d; _ } -> Unix.sleepf d

let cost site v =
  match tick site with
  | None -> v
  | Some { kind = Exception; at; _ } -> raise (Injected (site, at))
  | Some { kind = Delay d | Stall d; _ } ->
      Unix.sleepf d;
      v
  | Some { kind = Nan_cost; _ } -> Float.nan
