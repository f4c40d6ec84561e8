(** The process-wide signal handler and its callbacks (see the
    interface).

    The callback list lives in an [Atomic] holding an immutable list:
    the handler (which may run at any allocation point) only reads it,
    so registration from another thread can never deadlock against it. *)

let callbacks : (int * (int -> unit)) list Atomic.t = Atomic.make []
let next_id = Atomic.make 0

(* A callback that raises would surface its exception at an arbitrary
   allocation point in whatever code the signal interrupted — swallow
   it; observers communicate through their own state, not exceptions. *)
let handler s =
  List.iter (fun (_, f) -> try f s with _ -> ()) (Atomic.get callbacks)

let rec update_callbacks f =
  let cur = Atomic.get callbacks in
  if not (Atomic.compare_and_set callbacks cur (f cur)) then
    update_callbacks f

let on_signal f =
  let id = Atomic.fetch_and_add next_id 1 in
  update_callbacks (fun cur -> (id, f) :: cur);
  List.iter
    (fun s ->
      try ignore (Sys.signal s (Sys.Signal_handle handler))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  fun () -> update_callbacks (List.filter (fun (i, _) -> i <> id))
