(** Wire protocol codec (see the interface).

    Encoding goes through {!Magis_obs.Json} values, never string
    concatenation, so escaping is inherited from the one JSON emitter in
    the codebase.  Decoding is strict both syntactically (the hardened
    parser with depth/length limits) and structurally: an unknown op, a
    missing field or a wrong type raises {!Invalid} with the offending
    key, which the server maps to a [malformed] error reply. *)

module Json = Magis_obs.Json
module Zoo = Magis_models.Zoo

type addr = Unix_sock of string | Tcp of int
type mode = Memory of float | Latency of float

type request = {
  id : string;
  model : string;
  scale : Zoo.scale;
  mode : mode;
  deadline_s : float option;
  max_iterations : int;
  progress_every : int;
  sched_states : int;
}

type frontier_request = {
  f_id : string;
  f_model : string;
  f_scale : Zoo.scale;
  f_hw : string;
  f_budget_ratio : float;
  f_max_iterations : int;
  f_sched_states : int;
}

type command =
  | Optimize of request
  | Frontier of frontier_request
  | Health
  | Metrics
  | Pause
  | Resume
  | Shutdown

type error_kind =
  | Malformed
  | Oversized
  | Overloaded
  | Deadline
  | Duplicate
  | Incompatible
  | Shutting_down
  | Internal

type progress = {
  p_id : string;
  p_iterations : int;
  p_peak : int;
  p_latency : float;
  p_elapsed : float;
}

type outcome = {
  o_id : string;
  o_initial_peak : int;
  o_peak : int;
  o_latency : float;
  o_iterations : int;
  o_interrupted : bool;
  o_resumed : bool;
  o_deadline_hit : bool;
  o_limit_met : bool;
  o_quarantined : int;
}

type health = {
  status : string;
  queue_depth : int;
  inflight : int;
  shed_level : int;
  served : int;
  rejected : int;
  quarantined : int;
  cache_hit_rate : float;
}

type frontier_answer = {
  fr_id : string;
  fr_cache_hit : bool;
  fr_points : int;
  fr_budget : int;
  fr_feasible : bool;
  fr_peak : int;
  fr_latency : float;
}

type reply =
  | Ack of string
  | Progress of progress
  | Result of outcome
  | Frontier_reply of frontier_answer
  | Error of { e_id : string option; kind : error_kind; detail : string }
  | Health_reply of health
  | Metrics_reply of string

exception Invalid of string

let () =
  Printexc.register_printer (function
    | Invalid msg -> Some (Printf.sprintf "Magis_serve.Protocol.Invalid(%s)" msg)
    | _ -> None)

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let max_request_line = 16 * 1024
let max_reply_line = 1024 * 1024

(* Requests are flat objects; a few levels of headroom keep the limit
   far from anything a legitimate client sends. *)
let max_depth = 16

(* The DP budget is the number of states one scheduling call pops, and
   the search checks its time budget and its poll only between pops:
   an unbounded budget would hold a worker past its deadline and past a
   drain, and grow the DP's seen-set without limit.  20,000 is the
   largest budget any caller in this repository passes (the DP tests);
   its clients send the default 0, its tests 64 or 128. *)
let max_sched_states = 20_000

let request ~id ~model =
  {
    id;
    model;
    scale = Zoo.Quick;
    mode = Memory 0.1;
    deadline_s = None;
    max_iterations = 32;
    progress_every = 0;
    sched_states = 0;
  }

let frontier_request ~id ~model =
  {
    f_id = id;
    f_model = model;
    f_scale = Zoo.Quick;
    f_hw = "rtx3090";
    f_budget_ratio = 0.8;
    f_max_iterations = 32;
    f_sched_states = 0;
  }

let error_kind_name = function
  | Malformed -> "malformed"
  | Oversized -> "oversized"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Duplicate -> "duplicate"
  | Incompatible -> "incompatible"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let error_kind_of_name = function
  | "malformed" -> Malformed
  | "oversized" -> Oversized
  | "overloaded" -> Overloaded
  | "deadline" -> Deadline
  | "duplicate" -> Duplicate
  | "incompatible" -> Incompatible
  | "shutting_down" -> Shutting_down
  | "internal" -> Internal
  | s -> invalid "unknown error kind %S" s

(* ------------------------------------------------------------------ *)
(* Field accessors                                                     *)
(* ------------------------------------------------------------------ *)

let str_field doc key =
  match Json.member key doc with
  | Some (Json.String s) -> s
  | Some _ -> invalid "field %S must be a string" key
  | None -> invalid "missing field %S" key

let opt_int doc key ~default =
  match Json.member key doc with
  | None | Some Json.Null -> default
  | Some v -> (
      match Json.to_int v with
      | Some i -> i
      | None -> invalid "field %S must be an integer" key)

let sched_states_field doc =
  let n = opt_int doc "sched_states" ~default:0 in
  if n < 0 || n > max_sched_states then
    invalid "field \"sched_states\" must be in [0, %d]" max_sched_states;
  n

let req_int doc key =
  match Option.bind (Json.member key doc) Json.to_int with
  | Some i -> i
  | None -> invalid "missing integer field %S" key

let req_float doc key =
  match Option.bind (Json.member key doc) Json.to_float with
  | Some f -> f
  | None -> invalid "missing number field %S" key

let opt_float doc key ~default =
  match Json.member key doc with
  | None | Some Json.Null -> default
  | Some v -> (
      match Json.to_float v with
      | Some f -> f
      | None -> invalid "field %S must be a number" key)

let req_bool doc key =
  match Json.member key doc with
  | Some (Json.Bool b) -> b
  | _ -> invalid "missing boolean field %S" key

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let command_to_string cmd =
  let doc =
    match cmd with
    | Health -> Json.Obj [ ("op", Json.String "health") ]
    | Metrics -> Json.Obj [ ("op", Json.String "metrics") ]
    | Pause -> Json.Obj [ ("op", Json.String "pause") ]
    | Resume -> Json.Obj [ ("op", Json.String "resume") ]
    | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]
    | Optimize r ->
        let mode_fields =
          match r.mode with
          | Memory overhead ->
              [ ("mode", Json.String "memory");
                ("overhead", Json.Float overhead) ]
          | Latency ratio ->
              [ ("mode", Json.String "latency");
                ("mem_ratio", Json.Float ratio) ]
        in
        let deadline =
          match r.deadline_s with
          | None -> []
          | Some d -> [ ("deadline_s", Json.Float d) ]
        in
        Json.Obj
          ([ ("op", Json.String "optimize");
             ("id", Json.String r.id);
             ("model", Json.String r.model);
             ("scale",
              Json.String
                (match r.scale with Zoo.Quick -> "quick" | Zoo.Full -> "full"))
           ]
          @ mode_fields @ deadline
          @ [ ("max_iterations", Json.Int r.max_iterations);
              ("progress_every", Json.Int r.progress_every);
              ("sched_states", Json.Int r.sched_states) ])
    | Frontier f ->
        Json.Obj
          [ ("op", Json.String "frontier");
            ("id", Json.String f.f_id);
            ("model", Json.String f.f_model);
            ("scale",
             Json.String
               (match f.f_scale with
               | Zoo.Quick -> "quick"
               | Zoo.Full -> "full"));
            ("hw", Json.String f.f_hw);
            ("budget_ratio", Json.Float f.f_budget_ratio);
            ("max_iterations", Json.Int f.f_max_iterations);
            ("sched_states", Json.Int f.f_sched_states) ]
  in
  Json.to_string doc

let request_of_json doc =
  let id = str_field doc "id" in
  let model = str_field doc "model" in
  let scale =
    match Json.member "scale" doc with
    | None | Some Json.Null -> Zoo.Quick
    | Some (Json.String "quick") -> Zoo.Quick
    | Some (Json.String "full") -> Zoo.Full
    | Some _ -> invalid "field \"scale\" must be \"quick\" or \"full\""
  in
  let mode =
    match Json.member "mode" doc with
    | None | Some Json.Null | Some (Json.String "memory") ->
        let overhead = opt_float doc "overhead" ~default:0.1 in
        if not (overhead >= 0.) then
          invalid "field \"overhead\" must be at least 0";
        Memory overhead
    | Some (Json.String "latency") ->
        (* the limit is [int_of_float (peak *. ratio)]: a ratio at or
           below 0 makes it unmeetable, a huge one overflows it, and
           one above 1 limits nothing *)
        let ratio = opt_float doc "mem_ratio" ~default:0.5 in
        if not (ratio > 0. && ratio <= 1.) then
          invalid "field \"mem_ratio\" must be in (0, 1]";
        Latency ratio
    | Some _ -> invalid "field \"mode\" must be \"memory\" or \"latency\""
  in
  let deadline_s =
    match Json.member "deadline_s" doc with
    | None | Some Json.Null -> None
    | Some v -> (
        match Json.to_float v with
        | Some f -> Some f
        | None -> invalid "field \"deadline_s\" must be a number")
  in
  {
    id;
    model;
    scale;
    mode;
    deadline_s;
    max_iterations = opt_int doc "max_iterations" ~default:32;
    progress_every = opt_int doc "progress_every" ~default:0;
    sched_states = sched_states_field doc;
  }

let frontier_request_of_json doc =
  let scale =
    match Json.member "scale" doc with
    | None | Some Json.Null -> Zoo.Quick
    | Some (Json.String "quick") -> Zoo.Quick
    | Some (Json.String "full") -> Zoo.Full
    | Some _ -> invalid "field \"scale\" must be \"quick\" or \"full\""
  in
  let ratio = opt_float doc "budget_ratio" ~default:0.8 in
  if not (ratio > 0. && ratio <= 1.) then
    invalid "field \"budget_ratio\" must be in (0, 1]";
  {
    f_id = str_field doc "id";
    f_model = str_field doc "model";
    f_scale = scale;
    f_hw =
      (match Json.member "hw" doc with
      | None | Some Json.Null -> "rtx3090"
      | Some (Json.String s) -> s
      | Some _ -> invalid "field \"hw\" must be a string");
    f_budget_ratio = ratio;
    f_max_iterations = opt_int doc "max_iterations" ~default:32;
    f_sched_states = sched_states_field doc;
  }

let command_of_string s =
  let doc = Json.of_string ~max_depth ~max_len:max_request_line s in
  match str_field doc "op" with
  | "optimize" -> Optimize (request_of_json doc)
  | "frontier" -> Frontier (frontier_request_of_json doc)
  | "health" -> Health
  | "metrics" -> Metrics
  | "pause" -> Pause
  | "resume" -> Resume
  | "shutdown" -> Shutdown
  | op -> invalid "unknown op %S" op

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

let reply_to_string reply =
  let doc =
    match reply with
    | Ack op -> Json.Obj [ ("reply", Json.String "ack"); ("op", Json.String op) ]
    | Progress p ->
        Json.Obj
          [ ("reply", Json.String "progress");
            ("id", Json.String p.p_id);
            ("iterations", Json.Int p.p_iterations);
            ("peak_mem", Json.Int p.p_peak);
            ("latency", Json.Float p.p_latency);
            ("elapsed_s", Json.Float p.p_elapsed) ]
    | Result o ->
        Json.Obj
          [ ("reply", Json.String "result");
            ("id", Json.String o.o_id);
            ("initial_peak", Json.Int o.o_initial_peak);
            ("peak_mem", Json.Int o.o_peak);
            ("latency", Json.Float o.o_latency);
            ("iterations", Json.Int o.o_iterations);
            ("interrupted", Json.Bool o.o_interrupted);
            ("resumed", Json.Bool o.o_resumed);
            ("deadline_hit", Json.Bool o.o_deadline_hit);
            ("limit_met", Json.Bool o.o_limit_met);
            ("quarantined", Json.Int o.o_quarantined) ]
    | Frontier_reply f ->
        Json.Obj
          [ ("reply", Json.String "frontier");
            ("id", Json.String f.fr_id);
            ("cache_hit", Json.Bool f.fr_cache_hit);
            ("points", Json.Int f.fr_points);
            ("budget", Json.Int f.fr_budget);
            ("feasible", Json.Bool f.fr_feasible);
            ("peak_mem", Json.Int f.fr_peak);
            ("latency", Json.Float f.fr_latency) ]
    | Error { e_id; kind; detail } ->
        Json.Obj
          ([ ("reply", Json.String "error") ]
          @ (match e_id with
            | None -> []
            | Some id -> [ ("id", Json.String id) ])
          @ [ ("kind", Json.String (error_kind_name kind));
              ("detail", Json.String detail) ])
    | Health_reply h ->
        Json.Obj
          [ ("reply", Json.String "health");
            ("status", Json.String h.status);
            ("queue_depth", Json.Int h.queue_depth);
            ("inflight", Json.Int h.inflight);
            ("shed_level", Json.Int h.shed_level);
            ("served", Json.Int h.served);
            ("rejected", Json.Int h.rejected);
            ("quarantined", Json.Int h.quarantined);
            ("cache_hit_rate", Json.Float h.cache_hit_rate) ]
    | Metrics_reply text ->
        Json.Obj
          [ ("reply", Json.String "metrics"); ("text", Json.String text) ]
  in
  Json.to_string doc

let reply_of_string s =
  let doc = Json.of_string ~max_depth ~max_len:max_reply_line s in
  match str_field doc "reply" with
  | "ack" -> Ack (str_field doc "op")
  | "progress" ->
      Progress
        {
          p_id = str_field doc "id";
          p_iterations = req_int doc "iterations";
          p_peak = req_int doc "peak_mem";
          p_latency = req_float doc "latency";
          p_elapsed = req_float doc "elapsed_s";
        }
  | "result" ->
      Result
        {
          o_id = str_field doc "id";
          o_initial_peak = req_int doc "initial_peak";
          o_peak = req_int doc "peak_mem";
          o_latency = req_float doc "latency";
          o_iterations = req_int doc "iterations";
          o_interrupted = req_bool doc "interrupted";
          o_resumed = req_bool doc "resumed";
          o_deadline_hit = req_bool doc "deadline_hit";
          o_limit_met = req_bool doc "limit_met";
          o_quarantined = req_int doc "quarantined";
        }
  | "frontier" ->
      Frontier_reply
        {
          fr_id = str_field doc "id";
          fr_cache_hit = req_bool doc "cache_hit";
          fr_points = req_int doc "points";
          fr_budget = req_int doc "budget";
          fr_feasible = req_bool doc "feasible";
          fr_peak = req_int doc "peak_mem";
          fr_latency = req_float doc "latency";
        }
  | "error" ->
      let e_id =
        match Json.member "id" doc with
        | Some (Json.String id) -> Some id
        | _ -> None
      in
      Error
        {
          e_id;
          kind = error_kind_of_name (str_field doc "kind");
          detail = str_field doc "detail";
        }
  | "health" ->
      Health_reply
        {
          status = str_field doc "status";
          queue_depth = req_int doc "queue_depth";
          inflight = req_int doc "inflight";
          shed_level = req_int doc "shed_level";
          served = req_int doc "served";
          rejected = req_int doc "rejected";
          quarantined = req_int doc "quarantined";
          cache_hit_rate = req_float doc "cache_hit_rate";
        }
  | "metrics" -> Metrics_reply (str_field doc "text")
  | r -> invalid "unknown reply %S" r
