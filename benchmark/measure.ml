(** Shared plumbing of the benchmark: timing, order statistics, the
    failure ledger, the per-run report and its one-line JSON result. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(** Linear-interpolated quantile [q] in [0, 1] of a non-empty list. *)
let quantile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.quantile: empty";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  let frac = pos -. float_of_int i in
  if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let geomean xs =
  let n = float_of_int (List.length xs) in
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

(** Geometric mean over groups of each group's median: the typical
    latency of a mix whose kinds differ in cost, without the jumps a
    pooled median makes between the kinds' clusters. *)
let group_p50 (samples : ('k * float) list) =
  let keys = List.sort_uniq compare (List.map fst samples) in
  geomean
    (List.map
       (fun k ->
         median
           (List.filter_map
              (fun (k', v) -> if k' = k then Some v else None)
              samples))
       keys)

(** Bit-for-bit float equality: results must reproduce exactly. *)
let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** The highest of a fixed percentile ladder that still has at least ten
    samples beyond it, as [(percentile, value)].  With fewer than twenty
    samples no percentile qualifies and the median is returned. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  let p =
    List.find_opt
      (fun p -> n *. (1.0 -. (p /. 100.0)) >= 10.0)
      [ 99.9; 99.0; 95.0; 90.0; 75.0 ]
    |> Option.value ~default:50.0
  in
  (p, quantile xs (p /. 100.0))

(* ------------------------------------------------------------------ *)
(* Process memory                                                      *)
(* ------------------------------------------------------------------ *)

(** VmHWM (peak resident set) of a process, in MB, from
    [/proc/<pid>/status]; [None] when the file is unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                     Some (float_of_int kb /. 1024.0))
             | _ -> None)

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A small shared VM shares its CPUs with other tenants, whose load moves
   every timing of the program by tens of percent over minutes, in CPU
   time as much as in wall time.  So each run also times a fixed kernel
   that shares no code with the program, in bursts around its timed
   phases, and reports every end-to-end time at the speed of a host on
   which that kernel takes [reference_ms]: raw time x reference_ms /
   (median kernel time of the run).  A change to the program moves the
   scaled times exactly as it moves the raw ones; a slower host moves
   both the kernel and the program and cancels out.  The raw values are
   printed alongside. *)
let reference_ms = 28.0

module Int_map = Map.Make (Int)

(* Allocation, pointer chasing, sorting and hashing: the mix of the
   optimizer's own work, in plain OCaml. *)
let kernel () =
  let rng = Random.State.make [| 42 |] in
  let m = ref Int_map.empty in
  for i = 1 to 20_000 do
    m := Int_map.add (Random.State.int rng 1_000_000) i !m
  done;
  let l = Int_map.fold (fun k v acc -> (k lxor v) :: acc) !m [] in
  let l = List.sort compare l in
  let h = Hashtbl.create 1024 in
  List.iter
    (fun x ->
      let k = x land 8191 in
      let prev = Option.value ~default:[] (Hashtbl.find_opt h k) in
      Hashtbl.replace h k (x :: prev))
    l;
  let a = Array.init 50_000 (fun i -> float_of_int (i * 7919 mod 10007)) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a))

let kernel_s = ref []

(** [n] kernel timings (a burst of 7 by default), taken around and
    between a run's timed operations.  Returns the seconds they took,
    for a caller to leave out of a timed phase, and their median in ms. *)
let sample_host ?(n = 7) () =
  let burst = List.init n (fun _ -> snd (time kernel)) in
  kernel_s := burst @ !kernel_s;
  (List.fold_left ( +. ) 0.0 burst, 1e3 *. median burst)

let kernel_ms () = 1e3 *. median !kernel_s

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

(** How an end-to-end value scales with host speed.  [Time_near k]: a
    time taken right after a kernel burst with median [k] ms, scaled by
    that burst instead of the run's median (set-up comes before most of
    the run's samples). *)
type scaling = Time | Time_near of float | Rate | Fixed

type metric = {
  name : string;
  value : float;
  unit_ : string;
  scaling : scaling;
}
type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable e2e : metric list;  (** newest first *)
  mutable layer : metric list;  (** newest first *)
}

let report () = { attempted = 0; failed = 0; e2e = []; layer = [] }

(** One operation attempted; [ok = false] counts it failed and logs
    [why] to stderr. *)
let attempt r ~ok why =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    prerr_endline ("FAILED: " ^ Lazy.force why)
  end

(** A check that is not an operation of its own (a fixed-work assertion
    on a run already counted): a violation fails the run. *)
let check r ~ok why =
  if not ok then begin
    r.failed <- r.failed + 1;
    prerr_endline ("FAILED: " ^ Lazy.force why)
  end

(** An end-to-end value as measured; [finish] reports it at reference
    host speed according to [scaling] (default [Time]). *)
let e2e ?(scaling = Time) r name unit_ value =
  r.e2e <- { name; value; unit_; scaling } :: r.e2e

let layer r name unit_ value =
  r.layer <- { name; value; unit_; scaling = Fixed } :: r.layer

let scaled m =
  let k = reference_ms /. kernel_ms () in
  match m.scaling with
  | Time -> m.value *. k
  | Time_near kernel_ms -> m.value *. reference_ms /. kernel_ms
  | Rate -> m.value /. k
  | Fixed -> m.value

let pp_table title ms =
  Printf.printf "\n%-36s %16s %16s\n" title "reported" "as measured";
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16.6g %16.6g %s\n" m.name (scaled m) m.value
        m.unit_)
    (List.rev ms)

(** Print both tables, then the result line — the last line of stdout.
    The line carries every name of [schema] in order: the end-to-end
    schema, all of which a workload must have measured, or with [trace]
    the per-layer one, where a layer a workload does not exercise reads
    0. *)
let finish r ~trace ~schema =
  layer r "host.kernel_ms" "ms" (kernel_ms ());
  pp_table "end-to-end" r.e2e;
  pp_table "per-layer" r.layer;
  let measured = if trace then r.layer else r.e2e in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let value =
          match List.find_opt (fun m -> m.name = name) measured with
          | Some m when m.unit_ = unit_ -> scaled m
          | Some _ -> failwith (name ^ ": measured in another unit")
          | None when trace -> 0.0
          | None -> failwith (name ^ ": not measured")
        in
        ( name,
          Magis.Json.Obj
            [ ("value", Magis.Json.Float value);
              ("unit", Magis.Json.String unit_) ] ))
      schema
  in
  let line =
    Magis.Json.Obj
      [
        ("correct", Magis.Json.Bool (r.failed = 0));
        ("attempted", Magis.Json.Int r.attempted);
        ("failed", Magis.Json.Int r.failed);
        ("metrics", Magis.Json.Obj metrics);
      ]
  in
  Printf.printf "%s\n%!" (Magis.Json.to_string line)
