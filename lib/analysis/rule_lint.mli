(** Differential lint for rewrite rules.

    Every rewrite a rule produces on a corpus graph is checked three
    ways:

    - the rewritten graph must pass {!Verify} (["rule-lint"]-tagged
      re-reports of the verifier's findings);
    - ["touched-coverage"]: [touched_old] must cover the changed region —
      every old node that was removed or whose record (operator, operand
      slots, shape) changed must be in it, since Algorithm 2 derives its
      re-scheduling window from that set (a Weisfeiler–Lehman label diff
      is also computed; label drift *outside* the record-diff is expected
      downstream of a change and not flagged);
    - ["value-drift"]: on graphs small enough to interpret, every node id
      present in both graphs must compute the same value (within
      [tolerance]) under a shared input environment
      ({!Magis_exec.Interp.max_diff}) — rewrites only rewire around
      surviving nodes, so a surviving node's value must not change.

    The corpus is supplied by the caller (the CLI uses the model zoo plus
    seeded random graphs). *)

open Magis_ir
open Magis_rules

type entry = {
  rule : string;  (** rule name *)
  subject : string;  (** corpus graph name *)
  n_rewrites : int;  (** rewrites produced on this subject *)
  n_interp : int;  (** rewrites checked numerically *)
  diags : Diagnostic.t list;
}

type report = {
  entries : entry list;
  n_rules : int;
  n_rewrites : int;
  n_errors : int;
  n_warnings : int;
}

(** Rule context for linting [g]: deterministic topological schedule,
    hot-spots from the lifetime analysis. *)
val ctx_for : ?max_per_rule:int -> Graph.t -> Rule.ctx

(** Lint one rewrite of [g].  [interp_limit] bounds the node count for
    the numeric check (bigger graphs skip it); [tolerance] is the allowed
    element-wise drift. *)
val lint_rewrite :
  ?interp_limit:int -> ?tolerance:float -> Graph.t -> Rule.rewrite ->
  Diagnostic.t list

(** Run every rule on every (named) corpus graph. *)
val lint :
  ?max_per_rule:int -> ?interp_limit:int -> ?tolerance:float ->
  rules:Rule.t list -> (string * Graph.t) list -> report

val is_clean : report -> bool
val pp_report : Format.formatter -> report -> unit

(** [fission_corpus corpus] derives additional corpus graphs by
    materializing each subject's F-Tree candidate fissions
    ({!Magis_ftree.Fission.expand}) at fission numbers 2 and 3 — graphs
    with the slice/per-part/merge seams that F-Trans produces, which no
    hand-built or zoo graph exhibits.  Invalid or verifier-unclean
    expansions are skipped; at most [max_graphs] (default 8) are
    returned, named ["<subject>-f<entry>x<n>"]. *)
val fission_corpus :
  ?max_graphs:int -> (string * Graph.t) list -> (string * Graph.t) list

(** Long elementwise chains with skip connections (the distance-gated
    D-Trans rules fire on these where the shallow zoo graphs never
    trigger them) and graphs already containing Store/Load seams (the
    subjects of de-swap and the sweep rules).  Backs waiver coverage in
    [Rule_sound] and extends the CLI lint corpus. *)
val builtin_corpus : unit -> (string * Graph.t) list
