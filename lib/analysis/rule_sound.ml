(** Symbolic rule-soundness verifier (see the interface). *)

open Magis_ir
open Magis_rules
module S = Rule.Spec
module Int_set = Util.Int_set

let pass = "rule-sound"

type status = Proven of int | Waived of string

type entry = { rule : string; status : status; diags : Diagnostic.t list }

type report = {
  entries : entry list;
  n_proven : int;
  n_waived : int;
  n_errors : int;
  n_warnings : int;
}

type sshape = Symshape.t array * Symshape.sdt

(* ------------------------------------------------------------------ *)
(* Template plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let rec sdim_vars acc : S.sdim -> string list = function
  | S.K _ -> acc
  | S.V x -> x :: acc
  | S.Add (a, b) | S.Sub (a, b) | S.Mul (a, b) -> sdim_vars (sdim_vars acc a) b

let skind_sdims = function
  | S.Fixed _ -> []
  | S.Slice_s { lo; hi; _ } -> [ lo; hi ]

let template_vars (t : S.template) : string list =
  let of_guard = function
    | S.Divides (_, e) -> [ e ]
    | S.Ge (a, b) -> [ a; b ]
  in
  let dims =
    List.concat_map (fun (s : S.source) -> s.src_dims) t.t_sources
    @ List.concat_map (fun (n : S.snode) -> skind_sdims n.skind)
        (t.t_lhs @ t.t_rhs)
    @ List.concat_map of_guard t.t_guards
    @ [ t.t_delta ]
  in
  List.sort_uniq compare (List.fold_left sdim_vars [] dims)

(** Template ids must be unique and operands must reference earlier
    entities; one bad reference poisons everything downstream, so these
    are reported and the template skipped. *)
let well_formed (t : S.template) : string option =
  let seen = Hashtbl.create 16 in
  let declare what id =
    if Hashtbl.mem seen id then
      Some (Printf.sprintf "%s id %d reused" what id)
    else (
      Hashtbl.replace seen id ();
      None)
  in
  let check_side side nodes =
    List.fold_left
      (fun err (n : S.snode) ->
        match err with
        | Some _ -> err
        | None -> (
            match
              List.find_opt (fun i -> not (Hashtbl.mem seen i)) n.sins
            with
            | Some i ->
                Some
                  (Printf.sprintf "%s node %d references undeclared id %d"
                     side n.sid i)
            | None -> declare side n.sid))
      None nodes
  in
  let srcs =
    List.fold_left
      (fun err (s : S.source) ->
        match err with Some _ -> err | None -> declare "source" s.src_id)
      None t.t_sources
  in
  match srcs with
  | Some _ as e -> e
  | None -> (
      match check_side "lhs" t.t_lhs with
      | Some _ as e -> e
      | None ->
          (* RHS shares the source namespace but not the LHS nodes *)
          List.iter
            (fun (n : S.snode) -> Hashtbl.remove seen n.sid)
            t.t_lhs;
          check_side "rhs" t.t_rhs)

(* ------------------------------------------------------------------ *)
(* Symbolic interpretation                                            *)
(* ------------------------------------------------------------------ *)

(** Interpret one template side over the symbolic domain: sources bind
    their declared shapes, nodes run the abstract operator inference
    ({!Magis_ir.Op.Abstract} over {!Symshape}), slices with symbolic
    bounds additionally discharge their range obligations under the
    guards. *)
let interp_side ~guards (sources : S.source list) (nodes : S.snode list) :
    ((int, sshape) Hashtbl.t, string) result =
  let module D = (val Symshape.dim_domain guards : Symshape.DOMAIN) in
  let module A = Op.Abstract (D) in
  let tbl : (int, sshape) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : S.source) ->
      Hashtbl.replace tbl s.src_id
        (Array.of_list (List.map Symshape.of_sdim s.src_dims), s.src_dt))
    sources;
  let step (n : S.snode) : (unit, string) result =
    let ins = Array.of_list (List.map (Hashtbl.find tbl) n.sins) in
    let res =
      match n.skind with
      | S.Fixed k -> A.infer k ins
      | S.Slice_s { axis; lo; hi } ->
          if Array.length ins <> 1 then Error "slice expects 1 input"
          else
            let dims, dt = ins.(0) in
            let lo = Symshape.of_sdim lo and hi = Symshape.of_sdim hi in
            if axis < 0 || axis >= Array.length dims then
              Error "slice: bad axis"
            else if not (Symshape.geq ~guards lo Symshape.zero) then
              Error "slice: cannot prove lo >= 0"
            else if
              not
                (Symshape.geq ~guards hi
                   (Symshape.add lo (Symshape.const 1)))
            then Error "slice: cannot prove lo < hi"
            else if not (Symshape.geq ~guards dims.(axis) hi) then
              Error "slice: cannot prove the extent covers hi"
            else
              let out = Array.copy dims in
              out.(axis) <- Symshape.sub hi lo;
              Ok (out, dt)
    in
    Result.map (fun s -> Hashtbl.replace tbl n.sid s) res
  in
  let rec go = function
    | [] -> Ok tbl
    | n :: rest -> (
        match step n with
        | Ok () -> go rest
        | Error e -> Error (Printf.sprintf "node %d: %s" n.S.sid e))
  in
  go nodes

(** Device elements of a template node's output; [Store] outputs live
    host-side and count 0 — the convention the cost layer's accounting
    uses throughout. *)
let numel_of tbl (n : S.snode) : Symshape.t =
  match n.skind with
  | S.Fixed Op.Store -> Symshape.zero
  | _ ->
      let dims, _ = Hashtbl.find tbl n.sid in
      Array.fold_left Symshape.mul (Symshape.const 1) dims

(* ------------------------------------------------------------------ *)
(* Dependency refinement                                              *)
(* ------------------------------------------------------------------ *)

(** Strict-ancestor sets of one template side, keyed by template id. *)
let ancestors (sources : S.source list) (nodes : S.snode list) :
    (int, Int_set.t) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : S.source) -> Hashtbl.replace tbl s.src_id Int_set.empty)
    sources;
  List.iter
    (fun (n : S.snode) ->
      let anc =
        List.fold_left
          (fun acc i ->
            Int_set.add i
              (Int_set.union acc
                 (Option.value ~default:Int_set.empty
                    (Hashtbl.find_opt tbl i))))
          Int_set.empty n.sins
      in
      Hashtbl.replace tbl n.sid anc)
    nodes;
  tbl

(** The refinement obligation: for every surviving entity [a] (source or
    kept node) that must precede a surviving/result entity [b] on the
    LHS, the RHS must order [a]'s representative — or an RHS node
    declared to recompute [a]'s value ([same_as]) — before [b]'s.
    [prec_lhs]/[prec_rhs] are must-precede oracles over template ids, so
    the same walk runs both symbolically (template ancestors) and on the
    grounded instance ({!Liveness.must_precede}). *)
let check_refinement ~(t : S.template) ~prec_lhs ~prec_rhs ~what :
    Diagnostic.t list =
  let sources = List.map (fun (s : S.source) -> s.src_id) t.t_sources in
  let lhs_entities = sources @ List.map fst t.t_keep in
  let targets = t.t_keep @ t.t_out in
  let rep a = if List.mem a sources then Some a else List.assoc_opt a t.t_keep in
  let recomputers a =
    List.filter_map
      (fun (n : S.snode) -> if n.same_as = Some a then Some n.sid else None)
      t.t_rhs
  in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun (b, b') ->
          if a = b || not (prec_lhs a b) then None
          else
            let candidates =
              (match rep a with Some r -> [ r ] | None -> []) @ recomputers a
            in
            let ok =
              List.exists (fun c -> c = b' || prec_rhs c b') candidates
            in
            if ok then None
            else
              Some
                (Diagnostic.errorf ~rule:t.t_name ~pass
                   ~check:"dep-refinement"
                   "%s: LHS orders entity %d before %d, but no RHS \
                    counterpart of %d precedes %d's"
                   what a b a b))
        targets)
    lhs_entities

(* ------------------------------------------------------------------ *)
(* Grounding                                                          *)
(* ------------------------------------------------------------------ *)

let ground_dtype = function S.Dt_const d -> d | S.Dt_var _ -> Shape.F32

let ground_kind ~env = function
  | S.Fixed k -> k
  | S.Slice_s { axis; lo; hi } ->
      Op.Slice
        {
          axis;
          lo = Symshape.eval ~env (Symshape.of_sdim lo);
          hi = Symshape.eval ~env (Symshape.of_sdim hi);
        }

(** Instantiate one side with the witness assignment.  Returns the graph
    and the template-id -> graph-id map.  Materialized sources sit
    behind a producer node (rules like [swap] skip graph inputs). *)
let ground_side ~env (sources : S.source list) (nodes : S.snode list) :
    Graph.t * (int, int) Hashtbl.t =
  let ids = Hashtbl.create 16 in
  let g =
    List.fold_left
      (fun g (s : S.source) ->
        let shape =
          Shape.create ~dtype:(ground_dtype s.src_dt)
            (List.map (fun d -> Symshape.eval ~env (Symshape.of_sdim d)) s.src_dims)
        in
        let g, id = Graph.add_input g s.src_kind shape in
        let g, id =
          if s.src_mat then Graph.add g (Op.Unary Op.Relu) [ id ] else (g, id)
        in
        Hashtbl.replace ids s.src_id id;
        g)
      Graph.empty sources
  in
  let g =
    List.fold_left
      (fun g (n : S.snode) ->
        let g, id =
          Graph.add g (ground_kind ~env n.skind)
            (List.map (Hashtbl.find ids) n.sins)
        in
        Hashtbl.replace ids n.sid id;
        g)
      g nodes
  in
  (g, ids)

(** Permissive context for grounding: every node is a candidate (no
    hot-spot restriction) and the synthetic schedule spaces nodes far
    apart so distance heuristics always pass. *)
let ground_ctx : Rule.ctx =
  {
    Rule.hotspots = Int_set.empty;
    frozen = Int_set.empty;
    schedule_pos = (fun v -> Some (v * 16));
    max_per_rule = 64;
    restrict_to_hotspots = false;
  }

(** Differential conformance: the real [apply], run on the grounded LHS,
    must reproduce the declared RHS (up to isomorphism), and that
    rewrite must pass the full differential lint.  The grounded pair
    also re-runs the refinement walk with {!Liveness.must_precede} as
    the oracle — the abstract check and the concrete semantics must
    agree. *)
let check_grounding (rule : Rule.t) (t : S.template) : Diagnostic.t list =
  let err check fmt =
    Fmt.kstr (fun m -> [ Diagnostic.error ~rule:rule.name ~pass ~check m ]) fmt
  in
  let env = t.t_ground in
  match
    List.find_opt (fun g -> not (Symshape.guard_sat ~env g)) t.t_guards
  with
  | Some _ ->
      err "ground-witness" "%s: witness does not satisfy the guards" t.t_name
  | None -> (
      match
        ( ground_side ~env t.t_sources t.t_lhs,
          ground_side ~env t.t_sources t.t_rhs )
      with
      | exception e ->
          err "ground-witness" "%s: instantiation raised %s" t.t_name
            (Printexc.to_string e)
      | (lhs_g, lmap), (rhs_g, rmap) -> (
          match
            Diagnostic.errors (Verify.graph lhs_g)
            @ Diagnostic.errors (Verify.graph rhs_g)
          with
          | _ :: _ ->
              err "ground-witness" "%s: grounded template is not verifier-clean"
                t.t_name
          | [] -> (
              let rewrites = Rule.apply rule ground_ctx lhs_g in
              match
                List.find_opt
                  (fun (rw : Rule.rewrite) ->
                    Wl_hash.equal_structure rw.graph rhs_g)
                  rewrites
              with
              | None ->
                  err "ground-conformance"
                    "%s: apply produced %d rewrite(s) on the grounded \
                     template, none isomorphic to the declared RHS"
                    t.t_name (List.length rewrites)
              | Some rw ->
                  let lint =
                    List.map
                      (fun (d : Diagnostic.t) -> { d with Diagnostic.pass })
                      (Diagnostic.errors (Rule_lint.lint_rewrite lhs_g rw))
                  in
                  let lv_l = Liveness.compute lhs_g
                  and lv_r = Liveness.compute rhs_g in
                  let prec side ids a b =
                    match (Hashtbl.find_opt ids a, Hashtbl.find_opt ids b) with
                    | Some ga, Some gb -> Liveness.must_precede side ga gb
                    | _ -> false
                  in
                  lint
                  @ check_refinement ~t ~prec_lhs:(prec lv_l lmap)
                      ~prec_rhs:(prec lv_r rmap)
                      ~what:(t.t_name ^ " (grounded)"))))

(* ------------------------------------------------------------------ *)
(* Per-template obligations                                           *)
(* ------------------------------------------------------------------ *)

let check_template (rule : Rule.t) (t : S.template) : Diagnostic.t list =
  let err check fmt =
    Fmt.kstr (fun m -> [ Diagnostic.error ~rule:rule.name ~pass ~check m ]) fmt
  in
  match well_formed t with
  | Some e -> err "template-form" "%s: %s" t.t_name e
  | None -> (
      let unbound =
        List.filter
          (fun v -> not (List.mem_assoc v t.t_ground))
          (template_vars t)
      in
      if unbound <> [] then
        err "ground-witness" "%s: witness leaves %s unbound" t.t_name
          (String.concat ", " unbound)
      else
        let guards = t.t_guards in
        match
          ( interp_side ~guards t.t_sources t.t_lhs,
            interp_side ~guards t.t_sources t.t_rhs )
        with
        | Error e, _ -> err "symbolic-infer" "%s: LHS: %s" t.t_name e
        | _, Error e -> err "symbolic-infer" "%s: RHS: %s" t.t_name e
        | Ok ltbl, Ok rtbl ->
            let out_diags =
              List.concat_map
                (fun (l, r) ->
                  let ldims, ldt = Hashtbl.find ltbl l in
                  let rdims, rdt =
                    match Hashtbl.find_opt rtbl r with
                    | Some s -> s
                    | None -> Hashtbl.find ltbl r
                  in
                  let shape_ok =
                    Array.length ldims = Array.length rdims
                    && Array.for_all2 Symshape.equal ldims rdims
                  in
                  (if shape_ok then []
                   else
                     err "out-shape"
                       "%s: result %d's symbolic shape differs from its \
                        replacement %d's"
                       t.t_name l r)
                  @
                  if ldt = rdt then []
                  else
                    err "out-dtype"
                      "%s: result %d's dtype differs from its replacement %d's"
                      t.t_name l r)
                t.t_out
            in
            let keep_rhs = List.map snd t.t_keep in
            let keep_lhs = List.map fst t.t_keep in
            let added =
              List.filter
                (fun (n : S.snode) -> not (List.mem n.sid keep_rhs))
                t.t_rhs
            and removed =
              List.filter
                (fun (n : S.snode) -> not (List.mem n.sid keep_lhs))
                t.t_lhs
            in
            let total tbl ns =
              List.fold_left
                (fun acc n -> Symshape.add acc (numel_of tbl n))
                Symshape.zero ns
            in
            let delta =
              Symshape.sub (total rtbl added) (total ltbl removed)
            in
            let delta_diags =
              if Symshape.equal delta (Symshape.of_sdim t.t_delta) then []
              else
                err "memory-delta"
                  "%s: declared element delta %s but the template yields %s"
                  t.t_name
                  (Symshape.to_string (Symshape.of_sdim t.t_delta))
                  (Symshape.to_string delta)
            in
            let lanc = ancestors t.t_sources t.t_lhs
            and ranc = ancestors t.t_sources t.t_rhs in
            let prec tbl a b =
              match Hashtbl.find_opt tbl b with
              | Some s -> Int_set.mem a s
              | None -> false
            in
            let dep_diags =
              check_refinement ~t ~prec_lhs:(prec lanc) ~prec_rhs:(prec ranc)
                ~what:t.t_name
              |> List.map (fun (d : Diagnostic.t) ->
                     { d with Diagnostic.rule = Some rule.name })
            in
            let sym = out_diags @ delta_diags @ dep_diags in
            (* ground only templates whose symbolic side is clean: a
               broken template would fail conformance for noise *)
            if sym <> [] then sym else check_grounding rule t)

(* ------------------------------------------------------------------ *)
(* Rules and reports                                                  *)
(* ------------------------------------------------------------------ *)

(** Differential coverage for a waived rule: it must actually fire on
    the corpus — a waiver whose rule is never exercised is a silent
    soundness gap, reported as ["waiver-no-coverage"] — and every
    rewrite it produces there must lint clean. *)
let check_waiver (rule : Rule.t) reason corpus : Diagnostic.t list =
  let fired = ref 0 and diags = ref [] in
  List.iter
    (fun (_, g) ->
      let ctx = Rule_lint.ctx_for g in
      List.iter
        (fun (rw : Rule.rewrite) ->
          incr fired;
          diags :=
            Diagnostic.errors (Rule_lint.lint_rewrite g rw) @ !diags)
        (Rule.apply rule ctx g))
    corpus;
  let cov =
    if !fired > 0 then []
    else
      [
        Diagnostic.errorf ~rule:rule.name ~pass ~check:"waiver-no-coverage"
          "waived (%s) but no corpus subject exercises it — the waiver is \
           unbacked"
          reason;
      ]
  in
  cov @ List.map (fun (d : Diagnostic.t) -> { d with Diagnostic.pass }) !diags

let check_rule ?(corpus = []) (rule : Rule.t) : entry =
  match rule.spec with
  | S.Waiver reason ->
      { rule = rule.name; status = Waived reason;
        diags = check_waiver rule reason corpus }
  | S.Sound [] ->
      {
        rule = rule.name;
        status = Proven 0;
        diags =
          [
            Diagnostic.errorf ~rule:rule.name ~pass ~check:"template-form"
              "declared Sound with no templates — nothing is proven";
          ];
      }
  | S.Sound templates ->
      {
        rule = rule.name;
        status = Proven (List.length templates);
        diags = List.concat_map (check_template rule) templates;
      }

let check_rules ?corpus (rules : Rule.t list) : report =
  let entries = List.map (check_rule ?corpus) rules in
  let all = List.concat_map (fun e -> e.diags) entries in
  {
    entries;
    n_proven =
      List.length
        (List.filter (fun e -> match e.status with Proven _ -> true | _ -> false)
           entries);
    n_waived =
      List.length
        (List.filter (fun e -> match e.status with Waived _ -> true | _ -> false)
           entries);
    n_errors = List.length (Diagnostic.errors all);
    n_warnings =
      List.length (List.filter (fun d -> not (Diagnostic.is_error d)) all);
  }

let is_clean r = r.n_errors = 0

let unbacked_waivers r =
  List.filter_map
    (fun e ->
      if Diagnostic.has_check "waiver-no-coverage" e.diags then Some e.rule
      else None)
    r.entries

let pp_entry ppf (e : entry) =
  let status ppf = function
    | Proven n -> Fmt.pf ppf "proven (%d template%s)" n (if n = 1 then "" else "s")
    | Waived reason -> Fmt.pf ppf "waived: %s" reason
  in
  Fmt.pf ppf "%-22s %a" e.rule status e.status;
  if not (Diagnostic.is_clean e.diags) then
    Fmt.pf ppf "@,%a" Diagnostic.pp_report (Diagnostic.errors e.diags)

let pp_report ppf (r : report) =
  Fmt.pf ppf "@[<v>%a@,total: %d proven, %d waived, %d error(s), %d warning(s)@]"
    (Fmt.list ~sep:Fmt.cut pp_entry)
    r.entries r.n_proven r.n_waived r.n_errors r.n_warnings
