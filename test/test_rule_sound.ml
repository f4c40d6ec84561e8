(** Symbolic rule-soundness verifier: the shipped rules must all prove
    (or carry corpus-backed waivers), and seeded unsound variants must be
    caught by the specific obligation they violate. *)

open Magis
open Helpers
module S = Rule.Spec

let all_rules = Taso_rules.all @ Sched_rules.all

let find name = List.find (fun (r : Rule.t) -> r.name = name) all_rules

let entry_of rule = Rule_sound.check_rule ~corpus:(Rule_lint.builtin_corpus ()) rule

let assert_caught what check (e : Rule_sound.entry) =
  if Diagnostic.is_clean e.diags then
    Alcotest.failf "%s: mutation not caught (no errors)" what;
  if not (Diagnostic.has_check check e.diags) then
    Alcotest.failf "%s: expected a %s error, got:@\n%s" what check
      (Diagnostic.report_to_string e.diags)

(* ---- the shipped rules ---- *)

let test_builtin_rules_prove () =
  let report =
    Rule_sound.check_rules ~corpus:(Rule_lint.builtin_corpus ()) all_rules
  in
  if not (Rule_sound.is_clean report) then
    Alcotest.failf "built-in rules not clean:@\n%a" Rule_sound.pp_report report;
  Alcotest.(check int) "eight rules proven" 8 report.Rule_sound.n_proven;
  Alcotest.(check int) "two rules waived" 2 report.Rule_sound.n_waived;
  Alcotest.(check (list string)) "no unbacked waivers" []
    (Rule_sound.unbacked_waivers report)

(* ---- seeded unsound variants ---- *)

(** Declaring the wrong memory delta must fail the memory-delta
    obligation. *)
let test_mutation_wrong_delta () =
  let rule = find "swap" in
  let mutated =
    match rule.spec with
    | S.Sound [ t ] ->
        { rule with
          name = "swap-bad-delta";
          spec = S.Sound [ { t with S.t_delta = S.K 0 } ] }
    | _ -> Alcotest.fail "swap should have one template"
  in
  assert_caught "wrong delta" "memory-delta" (entry_of mutated)

(** Dropping the [same_as] recomputation witness from remat's template
    loses the v-before-consumer ordering: dependency refinement fails. *)
let test_mutation_lost_dependency () =
  let rule = find "remat" in
  let mutated =
    match rule.spec with
    | S.Sound [ t ] ->
        { rule with
          name = "remat-lost-dep";
          spec =
            S.Sound
              [ { t with
                  S.t_rhs =
                    List.map
                      (fun (n : S.snode) -> { n with S.same_as = None })
                      t.t_rhs } ] }
    | _ -> Alcotest.fail "remat should have one template"
  in
  assert_caught "lost dependency" "dep-refinement" (entry_of mutated)

(** A template whose declared replacement has a different symbolic shape
    must fail out-shape: here a transpose "removed" as if it were the
    identity. *)
let test_mutation_wrong_shape () =
  let rule =
    { Rule.name = "drop-transpose";
      spec =
        S.Sound
          [ { S.t_name = "not-an-identity";
              t_sources = [ S.src 0 [ S.V "m"; S.V "n" ] ];
              t_lhs = [ S.node 10 (S.Fixed (Op.Transpose [| 1; 0 |])) [ 0 ] ];
              t_rhs = [];
              t_guards = [];
              t_keep = [];
              t_out = [ (10, 0) ];
              t_delta = S.Sub (S.K 0, S.Mul (S.V "m", S.V "n"));
              t_ground = [ ("m", 2); ("n", 3) ] } ];
      sites = (fun _ -> []); capped = true }
  in
  assert_caught "wrong shape" "out-shape" (entry_of rule)

(** A spec whose sites build something else entirely (here: nothing
    that matches) must fail grounding conformance — the proof is about
    the template, the conformance check ties it to the implementation. *)
let test_mutation_apply_mismatch () =
  let swap = find "swap" and de_swap = find "de-swap" in
  let mutated =
    { swap with name = "swap-wrong-apply"; sites = de_swap.sites }
  in
  assert_caught "apply mismatch" "ground-conformance" (entry_of mutated)

(** A waiver is only as good as its differential coverage: a waived rule
    that never fires on the corpus is flagged. *)
let test_waiver_without_coverage () =
  let rule =
    { Rule.name = "never-fires";
      spec = S.Waiver "hypothetical rule for the coverage test";
      sites = (fun _ -> []); capped = true }
  in
  let e = entry_of rule in
  assert_caught "unbacked waiver" "waiver-no-coverage" e;
  let report =
    Rule_sound.check_rules ~corpus:(Rule_lint.builtin_corpus ()) [ rule ]
  in
  Alcotest.(check (list string)) "listed as unbacked" [ "never-fires" ]
    (Rule_sound.unbacked_waivers report)

(** Sound with an empty template list proves nothing and says so. *)
let test_sound_without_templates () =
  let rule =
    { Rule.name = "vacuous"; spec = S.Sound []; sites = (fun _ -> []); capped = true }
  in
  assert_caught "vacuous Sound" "template-form"
    (Rule_sound.check_rule ~corpus:[] rule)

let suite =
  [
    tc "built-in rules prove or waive" test_builtin_rules_prove;
    tc "mutation: wrong delta" test_mutation_wrong_delta;
    tc "mutation: lost dependency" test_mutation_lost_dependency;
    tc "mutation: wrong out shape" test_mutation_wrong_shape;
    tc "mutation: apply mismatch" test_mutation_apply_mismatch;
    tc "waiver without coverage" test_waiver_without_coverage;
    tc "sound without templates" test_sound_without_templates;
  ]
