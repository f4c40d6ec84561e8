(** Schedule legality checker (see the interface for the check list).

    Structural checks (permutation, operand order, Store/Load order) use
    only first-occurrence positions and never raise; the lifetime
    cross-validation and the WL-label clone check run only once the
    structural checks pass, because {!Magis_cost.Lifetime.analyze} and
    {!Magis_ir.Wl_hash.labels_on} assume a well-formed input. *)

open Magis_ir
open Magis_cost

let pass = "sched-check"

let err ?node ~check fmt = Diagnostic.errorf ?node ~pass ~check fmt
let warn ?node ~check fmt = Diagnostic.warningf ?node ~pass ~check fmt

let describe g v =
  match Graph.node_opt g v with
  | None -> Printf.sprintf "%d:?" v
  | Some n ->
      Printf.sprintf "%d:%s%s" v (Op.name n.op)
        (if n.label = "" then "" else "(" ^ n.label ^ ")")

(* ------------------------------------------------------------------ *)
(* Permutation and ordering                                            *)
(* ------------------------------------------------------------------ *)

(** First-occurrence position of every scheduled id. *)
let positions order =
  let pos = Hashtbl.create (List.length order) in
  List.iteri
    (fun i v -> if not (Hashtbl.mem pos v) then Hashtbl.add pos v i)
    order;
  pos

let check_permutation g order pos =
  let counts = Hashtbl.create (List.length order) in
  List.iter
    (fun v ->
      Hashtbl.replace counts v
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
    order;
  let diags =
    Hashtbl.fold
      (fun v count acc ->
        let acc =
          if Graph.mem g v then acc
          else
            err ~node:v ~check:"unknown-node"
              "schedule contains id %d which is not in the graph" v
            :: acc
        in
        if count > 1 then
          err ~node:v ~check:"double-schedule"
            "%s is scheduled %d times" (describe g v) count
          :: acc
        else acc)
      counts []
  in
  Graph.fold
    (fun n acc ->
      if Hashtbl.mem pos n.id then acc
      else
        err ~node:n.id ~check:"missing-node" "%s is never scheduled"
          (describe g n.id)
        :: acc)
    g diags

let check_operand_order g pos =
  Graph.fold
    (fun n acc ->
      match Hashtbl.find_opt pos n.id with
      | None -> acc (* reported as missing-node *)
      | Some i ->
          Array.fold_left
            (fun acc u ->
              match Hashtbl.find_opt pos u with
              | Some j when j < i -> acc
              | Some j ->
                  err ~node:n.id ~check:"operand-order"
                    "%s at step %d consumes %s which only runs at step %d"
                    (describe g n.id) i (describe g u) j
                  :: acc
              | None ->
                  if Graph.mem g u then
                    err ~node:n.id ~check:"operand-order"
                      "%s consumes %s which is never scheduled"
                      (describe g n.id) (describe g u)
                    :: acc
                  else acc (* dangling operand: the verifier's finding *))
            acc n.inputs)
    g []

(* ------------------------------------------------------------------ *)
(* Store / Load pairing                                                 *)
(* ------------------------------------------------------------------ *)

let check_swaps g pos =
  Graph.fold
    (fun n acc ->
      match n.op with
      | Op.Load -> (
          let source =
            if Array.length n.inputs = 1 then
              Graph.node_opt g n.inputs.(0)
            else None
          in
          match source with
          | Some store when store.op = Op.Store -> (
              match (Hashtbl.find_opt pos store.id, Hashtbl.find_opt pos n.id)
              with
              | Some ps, Some pl when ps >= pl ->
                  err ~node:n.id ~check:"load-before-store"
                    "%s at step %d runs before its %s at step %d"
                    (describe g n.id) pl (describe g store.id) ps
                  :: acc
              | _ -> acc)
          | _ ->
              err ~node:n.id ~check:"load-source"
                "%s must consume exactly one Store node" (describe g n.id)
              :: acc)
      | Op.Store -> (
          (* a consumer of the swapped tensor scheduled after the Store
             still reads the device copy the swap meant to free *)
          match
            if Array.length n.inputs = 1 then Some n.inputs.(0) else None
          with
          | None -> acc (* malformed Store arity: the verifier's finding *)
          | Some v -> (
              match Hashtbl.find_opt pos n.id with
              | None -> acc
              | Some ps ->
                  List.fold_left
                    (fun acc c ->
                      if c = n.id || Graph.op g c = Op.Store then acc
                      else
                        match Hashtbl.find_opt pos c with
                        | Some pc when pc > ps ->
                            warn ~node:c ~check:"use-after-store"
                              "%s at step %d reads %s after it was swapped \
                               out at step %d"
                              (describe g c) pc (describe g v) ps
                            :: acc
                        | _ -> acc)
                    acc (Graph.suc g v)))
      | _ -> acc)
    g []

(* ------------------------------------------------------------------ *)
(* Lifetime cross-validation                                            *)
(* ------------------------------------------------------------------ *)

let check_lifetime g order pos =
  let lt = Lifetime.analyze g order in
  Graph.fold
    (fun n acc ->
      match Lifetime.position lt n.id with
      | None -> acc
      | Some i ->
          let _, free = Lifetime.interval lt i in
          List.fold_left
            (fun acc c ->
              match Hashtbl.find_opt pos c with
              | Some pc when pc > free ->
                  err ~node:c ~check:"use-after-free"
                    "%s at step %d reads %s, freed after step %d"
                    (describe g c) pc (describe g n.id) free
                  :: acc
              | _ -> acc)
            acc (Graph.suc g n.id))
    g []

(* ------------------------------------------------------------------ *)
(* Re-materialization clone consistency                                 *)
(* ------------------------------------------------------------------ *)

(** Clones — nodes with the same operator fingerprint and operand slots —
    must carry equal WL labels (label = op ⊕ shape ⊕ operand labels, so a
    difference means a clone's stored shape or dtype diverged). *)
let check_clones g =
  let labels = Wl_hash.labels_on (Graph_index.of_graph g) in
  let groups = Hashtbl.create 64 in
  Graph.iter
    (fun n ->
      if not (Op.is_input n.op) then
        let key = (Op.fingerprint n.op, Array.to_list n.inputs) in
        Hashtbl.replace groups key
          (n.id :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    g;
  Hashtbl.fold
    (fun _ ids acc ->
      match ids with
      | [] | [ _ ] -> acc
      | first :: rest ->
          let l0 = Wl_hash.label labels first in
          List.fold_left
            (fun acc v ->
              if Int64.equal (Wl_hash.label labels v) l0 then acc
              else
                err ~node:v ~check:"remat-divergence"
                  "%s is a clone of %s but their WL labels differ"
                  (describe g v) (describe g first)
                :: acc)
            acc rest)
    groups []

let schedule g order =
  let pos = positions order in
  let structural =
    check_permutation g order pos
    @ check_operand_order g pos
    @ check_swaps g pos
  in
  let deep =
    (* a clean structural pass implies the schedule is a dependency-
       respecting permutation, but the graph itself may still be broken
       (Verify's domain) — never let that escape as an exception *)
    if Diagnostic.is_clean structural then
      try check_lifetime g order pos @ check_clones g
      with e ->
        [
          err ~check:"analysis-crash"
            "lifetime/clone analysis raised %s (is the graph well-formed?)"
            (Printexc.to_string e);
        ]
    else []
  in
  List.sort
    (fun (a : Diagnostic.t) (b : Diagnostic.t) ->
      compare (a.node, a.check, a.message) (b.node, b.check, b.message))
    (structural @ deep)

let assert_ok ?(what = "schedule") g order =
  match Diagnostic.errors (schedule g order) with
  | [] -> ()
  | errs ->
      failwith
        (Fmt.str "%s failed legality checking:@.%a" what Diagnostic.pp_report
           errs)
