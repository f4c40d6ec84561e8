(** Symbolic rule-soundness verifier (translation validation for
    M-Rules).

    Every rule carries a {!Magis_rules.Rule.Spec.decl}: either symbolic
    pre/post templates ([Sound]) or an explicit [Waiver].  For each
    template this pass proves, for {e every} assignment of the dimension
    variables satisfying the guards:

    - {b out-shape / out-dtype} — each rewritten result's symbolic shape
      and dtype match its replacement's, via the abstract operator
      inference {!Magis_ir.Op.Abstract} over {!Symshape};
    - {b memory-delta} — the declared element delta equals the RHS-added
      minus LHS-removed totals ([Store] outputs count 0, host-side);
    - {b dep-refinement} — no must-precede ordering between surviving
      entities is lost: each is preserved by the kept node's RHS
      counterpart or by a declared recomputation ([same_as]), checked
      both symbolically (template ancestors) and on the grounded pair
      via {!Liveness.must_precede};
    - {b ground-conformance} — instantiating the witness and running the
      rule's real [apply] reproduces the declared RHS up to isomorphism
      ({!Magis_ir.Wl_hash.equal_structure}), and that rewrite passes the
      full differential lint ({!Rule_lint.lint_rewrite}).

    Waived rules must instead show differential coverage: they must fire
    (and lint clean) on the supplied corpus, else a
    ["waiver-no-coverage"] error marks the waiver unbacked. *)

open Magis_rules

val pass : string
(** Diagnostic pass name, ["rule-sound"]. *)

type status =
  | Proven of int  (** number of templates verified *)
  | Waived of string  (** waiver reason *)

type entry = { rule : string; status : status; diags : Diagnostic.t list }

type report = {
  entries : entry list;
  n_proven : int;
  n_waived : int;
  n_errors : int;
  n_warnings : int;
}

val check_rule : ?corpus:(string * Magis_ir.Graph.t) list -> Rule.t -> entry
(** Verify one rule.  [corpus] backs waiver-coverage checks (default
    empty: any waived rule is then reported unbacked). *)

val check_rules :
  ?corpus:(string * Magis_ir.Graph.t) list -> Rule.t list -> report

val is_clean : report -> bool
(** No errors. *)

val unbacked_waivers : report -> string list
(** Rules whose waiver lacks corpus coverage (drives the CLI's distinct
    exit code). *)

val pp_report : Format.formatter -> report -> unit
