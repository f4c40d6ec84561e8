(** Differential lint for rewrite rules (see the interface).

    The three checks are ordered from cheapest to most expensive: the IR
    verifier, the touched-region coverage diff, and — on graphs small
    enough — numeric equivalence on the reference interpreter. *)

open Magis_ir
open Magis_cost
open Magis_rules
module Interp = Magis_exec.Interp
module Int_set = Util.Int_set

let pass = "rule-lint"

type entry = {
  rule : string;
  subject : string;
  n_rewrites : int;
  n_interp : int;
  diags : Diagnostic.t list;
}

type report = {
  entries : entry list;
  n_rules : int;
  n_rewrites : int;
  n_errors : int;
  n_warnings : int;
}

let ctx_for ?(max_per_rule = 4) (g : Graph.t) : Rule.ctx =
  let order = Graph.topo_order g in
  let lt = Lifetime.analyze g order in
  let pos = Hashtbl.create (Graph.n_nodes g) in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  {
    Rule.hotspots = Lifetime.hotspots lt;
    frozen = Int_set.empty;
    schedule_pos = (fun v -> Hashtbl.find_opt pos v);
    max_per_rule;
    restrict_to_hotspots = true;
  }

(* ------------------------------------------------------------------ *)
(* Touched-region coverage                                             *)
(* ------------------------------------------------------------------ *)

let record_changed (a : Graph.node) (b : Graph.node) =
  a.op <> b.op || a.inputs <> b.inputs || not (Shape.equal a.shape b.shape)

(** Every old node that was removed or whose record changed must be in
    [touched_old]; WL-label drift must stay downstream of the declared
    region. *)
let check_coverage g (rw : Rule.rewrite) =
  let rule = rw.rule in
  let err ?node ~check fmt = Diagnostic.errorf ?node ~rule ~pass ~check fmt in
  let old_labels = Wl_hash.labels_on (Graph_index.of_graph g) in
  let new_labels = Wl_hash.labels_on (Graph_index.of_graph rw.graph) in
  let touched_des = Graph.des_of_set g rw.touched_old in
  let covered v =
    Int_set.mem v rw.touched_old || Int_set.mem v touched_des
  in
  Graph.fold
    (fun (n : Graph.node) acc ->
      match Graph.node_opt rw.graph n.id with
      | None ->
          if Int_set.mem n.id rw.touched_old then acc
          else
            err ~node:n.id ~check:"touched-coverage"
              "node %d was removed by %s but is not in touched_old" n.id rule
            :: acc
      | Some n' ->
          if record_changed n n' then
            if Int_set.mem n.id rw.touched_old then acc
            else
              err ~node:n.id ~check:"touched-coverage"
                "node %d was rewired by %s but is not in touched_old" n.id
                rule
              :: acc
          else if
            (* unchanged record but drifted WL label: must be explained by
               an ancestor inside the declared region *)
            (not (covered n.id))
            && not
                 (Int64.equal (Wl_hash.label old_labels n.id)
                    (Wl_hash.label new_labels n.id))
          then
            err ~node:n.id ~check:"touched-coverage"
              "node %d's WL label drifted under %s outside the declared \
               touched region"
              n.id rule
            :: acc
          else acc)
    g []

(* ------------------------------------------------------------------ *)
(* Numeric equivalence                                                  *)
(* ------------------------------------------------------------------ *)

(** Every node id surviving the rewrite must compute the same value:
    rules only rewire *around* surviving nodes, so a drifted value means
    the rewrite changed semantics. *)
let check_values ~tolerance g (rw : Rule.rewrite) =
  let rule = rw.rule in
  try
    let env = Interp.default_env g in
    let vals = Interp.run g ~env in
    let vals' = Interp.run rw.graph ~env in
    Graph.fold
      (fun (n : Graph.node) acc ->
        match
          (Hashtbl.find_opt vals n.id, Hashtbl.find_opt vals' n.id)
        with
        | Some a, Some b ->
            let d = Interp.max_diff a b in
            if d <= tolerance then acc
            else
              Diagnostic.errorf ~node:n.id ~rule ~pass ~check:"value-drift"
                "node %d's value drifted by %.3e under %s" n.id d rule
              :: acc
        | _ -> acc)
      g []
  with e ->
    [
      Diagnostic.errorf ~rule ~pass ~check:"interp-crash"
        "interpreting the rewrite raised %s" (Printexc.to_string e);
    ]

let lint_rewrite ?(interp_limit = 80) ?(tolerance = 1e-4) g
    (rw : Rule.rewrite) =
  let verify =
    List.map
      (fun (d : Diagnostic.t) -> { d with Diagnostic.rule = Some rw.rule })
      (Verify.graph rw.graph)
  in
  let coverage = check_coverage g rw in
  let values =
    if
      Diagnostic.is_clean verify
      && Graph.n_nodes g <= interp_limit
      && Graph.n_nodes rw.graph <= interp_limit
    then check_values ~tolerance g rw
    else []
  in
  verify @ coverage @ values

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let lint ?(max_per_rule = 4) ?(interp_limit = 80) ?(tolerance = 1e-4)
    ~(rules : Rule.t list) (corpus : (string * Graph.t) list) : report =
  let entries =
    List.concat_map
      (fun (subject, g) ->
        let ctx = ctx_for ~max_per_rule g in
        List.map
          (fun (rule : Rule.t) ->
            let rewrites = Rule.apply rule ctx g in
            let interpretable (rw : Rule.rewrite) =
              Graph.n_nodes g <= interp_limit
              && Graph.n_nodes rw.graph <= interp_limit
            in
            let diags =
              List.concat_map (lint_rewrite ~interp_limit ~tolerance g)
                rewrites
            in
            {
              rule = rule.name;
              subject;
              n_rewrites = List.length rewrites;
              n_interp = List.length (List.filter interpretable rewrites);
              diags;
            })
          rules)
      corpus
  in
  let all = List.concat_map (fun e -> e.diags) entries in
  {
    entries;
    n_rules =
      List.length
        (List.sort_uniq compare (List.map (fun e -> e.rule) entries));
    n_rewrites =
      List.fold_left (fun a (e : entry) -> a + e.n_rewrites) 0 entries;
    n_errors = List.length (Diagnostic.errors all);
    n_warnings =
      List.length (List.filter (fun d -> not (Diagnostic.is_error d)) all);
  }

let is_clean r = r.n_errors = 0

(* ------------------------------------------------------------------ *)
(* Fission corpus                                                      *)
(* ------------------------------------------------------------------ *)

(** Materialized fission variants of the corpus graphs: each F-Tree
    candidate fission, expanded at small fission numbers with
    {!Magis_ftree.Fission.expand}.  The results contain the
    slice/per-part/merge seams F-Trans produces — a structure neither
    the hand-built patterns nor the zoo graphs exhibit — so linting over
    them checks that no rule mis-rewrites across a fission boundary.
    Only verifier-clean expansions are kept (an unclean one is
    {!Magis_ftree.Fission}'s bug, reported by its own tests). *)
let fission_corpus ?(max_graphs = 8) (corpus : (string * Graph.t) list) :
    (string * Graph.t) list =
  let module Ftree = Magis_ftree.Ftree in
  let module Fission = Magis_ftree.Fission in
  let out = ref [] and count = ref 0 in
  List.iter
    (fun (name, g) ->
      let order = Graph.topo_order g in
      let hotspots = Lifetime.hotspots (Lifetime.analyze g order) in
      let t = Ftree.construct g ~hotspots in
      let ix = Graph_index.of_graph g in
      for i = 0 to Ftree.n_entries t - 1 do
        List.iter
          (fun n ->
            if !count < max_graphs then
              let f = Fission.with_n (Ftree.fission_at t i) n in
              if Fission.is_valid ix f then begin
                let e = Fission.expand g f in
                if Diagnostic.is_clean (Verify.graph e.Fission.graph) then begin
                  incr count;
                  out :=
                    (Printf.sprintf "%s-f%dx%d" name i n, e.Fission.graph)
                    :: !out
                end
              end)
          [ 2; 3 ]
      done)
    corpus;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Built-in corpora                                                    *)
(* ------------------------------------------------------------------ *)

(** Long elementwise chains with skip connections: cheap tensors whose
    consumers sit far apart in any topological schedule.  These are the
    subjects the D-Trans rules (remat/swap and their compound sweeps)
    actually fire on — the zoo graphs are too shallow for the
    distance-gated sweeps — so they back those rules' waivers with
    differential coverage. *)
let elementwise_corpus () : (string * Graph.t) list =
  let sh = Shape.create [ 32; 32 ] in
  let chain g n seed =
    let rec go g v i =
      if i = 0 then (g, v)
      else
        let g, v = Graph.add g (Op.Unary Op.Relu) [ v ] in
        go g v (i - 1)
    in
    go g seed n
  in
  let skip =
    let g = Graph.empty in
    let g, x = Graph.add_input ~label:"x" g Op.Placeholder sh in
    let g, a = Graph.add ~label:"a" g (Op.Unary Op.Exp) [ x ] in
    let g, b = Graph.add ~label:"b" g (Op.Unary Op.Neg) [ x ] in
    let g, c0 = Graph.add g (Op.Binary Op.Add) [ a; b ] in
    let g, c = chain g 10 c0 in
    let g, e1 = Graph.add g (Op.Binary Op.Add) [ c; a ] in
    let g, _ = Graph.add g (Op.Binary Op.Add) [ e1; b ] in
    g
  in
  let fork =
    let g = Graph.empty in
    let g, x = Graph.add_input ~label:"x" g Op.Placeholder sh in
    let g, v = Graph.add ~label:"v" g (Op.Unary Op.Exp) [ x ] in
    let g, w = Graph.add g (Op.Unary Op.Sqrt) [ v ] in
    let g, c = chain g 9 w in
    let g, _ = Graph.add g (Op.Binary Op.Mul) [ v; c ] in
    g
  in
  [ ("ew-skip", skip); ("ew-fork", fork) ]

(** Graphs that already contain Store/Load seams (what a prior swap
    application leaves behind), at depths where the swap-family rules
    both fire and invert: subjects for de-swap and the sweep rules. *)
let swap_corpus () : (string * Graph.t) list =
  let sh = Shape.create [ 16; 64 ] in
  let seam g v =
    let g, s = Graph.add g Op.Store [ v ] in
    Graph.add g Op.Load [ s ]
  in
  let swapped =
    let g = Graph.empty in
    let g, x = Graph.add_input ~label:"x" g Op.Placeholder sh in
    let g, a = Graph.add ~label:"a" g (Op.Unary Op.Exp) [ x ] in
    let g, l = seam g a in
    let rec go g v i = if i = 0 then (g, v)
      else let g, v = Graph.add g (Op.Unary Op.Relu) [ v ] in go g v (i - 1)
    in
    let g, c = go g a 8 in
    let g, _ = Graph.add g (Op.Binary Op.Add) [ c; l ] in
    g
  in
  let double =
    let g = Graph.empty in
    let g, x = Graph.add_input ~label:"x" g Op.Placeholder sh in
    let g, a = Graph.add ~label:"a" g (Op.Unary Op.Exp) [ x ] in
    let g, b = Graph.add ~label:"b" g (Op.Unary Op.Neg) [ a ] in
    let g, la = seam g a in
    let g, lb = seam g b in
    let rec go g v i = if i = 0 then (g, v)
      else let g, v = Graph.add g (Op.Unary Op.Relu) [ v ] in go g v (i - 1)
    in
    let g, c = go g b 9 in
    let g, e = Graph.add g (Op.Binary Op.Add) [ c; la ] in
    let g, _ = Graph.add g (Op.Binary Op.Add) [ e; lb ] in
    g
  in
  [ ("swapped", swapped); ("swapped-double", double) ]

(** The union the waiver-coverage check and the CLI lint run over. *)
let builtin_corpus () = elementwise_corpus () @ swap_corpus ()

let pp_report ppf (r : report) =
  let by_rule = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let n, ni, ds =
        Option.value ~default:(0, 0, [])
          (Hashtbl.find_opt by_rule e.rule)
      in
      Hashtbl.replace by_rule e.rule
        (n + e.n_rewrites, ni + e.n_interp, ds @ e.diags))
    r.entries;
  let rules =
    List.sort_uniq compare (List.map (fun e -> e.rule) r.entries)
  in
  Fmt.pf ppf "@[<v>%-22s %9s %8s %7s %9s@," "rule" "rewrites" "checked"
    "errors" "warnings";
  List.iter
    (fun rule ->
      let n, ni, ds = Hashtbl.find by_rule rule in
      Fmt.pf ppf "%-22s %9d %8d %7d %9d@," rule n ni
        (List.length (Diagnostic.errors ds))
        (List.length (List.filter (fun d -> not (Diagnostic.is_error d)) ds)))
    rules;
  Fmt.pf ppf "total: %d rule(s), %d rewrite(s), %d error(s), %d warning(s)"
    r.n_rules r.n_rewrites r.n_errors r.n_warnings;
  let errs =
    Diagnostic.errors (List.concat_map (fun e -> e.diags) r.entries)
  in
  if errs <> [] then Fmt.pf ppf "@,%a" Diagnostic.pp_report errs;
  Fmt.pf ppf "@]"
