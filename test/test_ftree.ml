open Magis
open Helpers
module Int_set = Util.Int_set

let bert_state () =
  let c = cache () in
  let g =
    Transformer.build_lm
      { Transformer.batch = 8; seq_len = 16; hidden = 32; heads = 2;
        layers = 2; vocab = 64; dtype = Shape.F32 }
  in
  (c, g, Mstate.init ~sched_states:0 c g)

let test_construction_properties () =
  let _, g, s = bert_state () in
  let t = s.ftree in
  Alcotest.(check bool) "non-empty tree" true (Ftree.n_entries t > 0);
  for i = 0 to Ftree.n_entries t - 1 do
    let e = Ftree.entry t i in
    (* every candidate starts disabled *)
    Alcotest.(check int) (Printf.sprintf "entry %d disabled" i) 1
      (Ftree.n_at t i);
    (* child subsets: S ⊆ S_parent *)
    if e.parent >= 0 then
      Alcotest.(check bool) (Printf.sprintf "entry %d nested in parent" i)
        true
        (Int_set.subset
           (Fission.members e.fission)
           (Fission.members (Ftree.fission_at t e.parent)));
    (* every candidate admits a valid fission number *)
    Alcotest.(check bool) (Printf.sprintf "entry %d feasible" i) true
      (Ftree.smallest_valid_n g e.fission <> None)
  done

let test_enable_starts_at_frontier () =
  let _, g, s = bert_state () in
  let t = s.ftree in
  let muts = Ftree.mutations_on (Graph_index.of_graph g) t in
  (* with everything disabled, only Enable mutations exist, and only on
     leaves *)
  List.iter
    (fun (m, _) ->
      match m with
      | Ftree.Enable i ->
          Alcotest.(check (list int)) (Printf.sprintf "enable %d is a leaf" i)
            [] (Ftree.entry t i).children
      | other ->
          Alcotest.failf "unexpected mutation %s"
            (Fmt.str "%a" Ftree.pp_mutation other))
    muts;
  Alcotest.(check bool) "at least one enable" true (muts <> [])

let test_mutation_cycle () =
  let _, g, s = bert_state () in
  let t = s.ftree in
  match Ftree.mutations_on (Graph_index.of_graph g) t with
  | (Ftree.Enable i, _) :: _ ->
      let t1 = Option.get (Ftree.apply g t (Ftree.Enable i)) in
      Alcotest.(check bool) "enabled" true (Ftree.is_enabled t1 i);
      (* frozen region covers the enabled members *)
      Alcotest.(check bool) "frozen region" true
        (Int_set.subset
           (Fission.members (Ftree.fission_at t1 i))
           (Ftree.frozen_region t1));
      (* disable undoes *)
      let t2 = Option.get (Ftree.apply g t1 (Ftree.Disable i)) in
      Alcotest.(check int) "disabled again" 1 (Ftree.n_at t2 i);
      (* mutate bumps n to the next divisor *)
      let t3 = Option.get (Ftree.apply g t1 (Ftree.Mutate i)) in
      Alcotest.(check bool) "n increased" true (Ftree.n_at t3 i > Ftree.n_at t1 i);
      (* lift moves the fission to the parent when there is one *)
      let e = Ftree.entry t1 i in
      if e.parent >= 0 then begin
        match Ftree.apply g t1 (Ftree.Lift i) with
        | Some t4 ->
            Alcotest.(check int) "child disabled" 1 (Ftree.n_at t4 i);
            Alcotest.(check bool) "parent enabled" true
              (Ftree.is_enabled t4 e.parent)
        | None -> () (* parent may be infeasible; acceptable *)
      end
  | _ -> Alcotest.fail "expected an enable mutation"

let test_enable_rejected_under_enabled_ancestor () =
  let _, g, s = bert_state () in
  let t = s.ftree in
  (* the first leaf whose parent has a feasible n: without the ancestor
     rule the leaf would be on the frontier.  The parent is enabled
     directly, since Enable only starts at the frontier. *)
  let pair =
    List.find_map
      (fun child ->
        let { Ftree.parent; children; _ } = Ftree.entry t child in
        if parent < 0 || children <> [] then None
        else
          Option.map
            (fun n -> (child, parent, n))
            (Ftree.smallest_valid_n g (Ftree.fission_at t parent)))
      (List.init (Ftree.n_entries t) Fun.id)
  in
  match pair with
  | None -> Alcotest.fail "expected a leaf whose parent has a feasible n"
  | Some (child, parent, n) ->
      let t1 = Ftree.set_n t parent n in
      Alcotest.(check bool) "parent enabled" true (Ftree.is_enabled t1 parent);
      Alcotest.(check bool) "child has an enabled ancestor" true
        (Ftree.has_enabled_ancestor t1 child);
      Alcotest.(check bool) "child enable blocked" true
        (Ftree.apply g t1 (Ftree.Enable child) = None);
      Alcotest.(check bool) "no enable move for the child" false
        (List.exists
           (fun (m, _) -> m = Ftree.Enable child)
           (Ftree.mutations_on (Graph_index.of_graph g) t1))

let test_fingerprint_changes_with_state () =
  let _, g, s = bert_state () in
  let t = s.ftree in
  match Ftree.mutations_on (Graph_index.of_graph g) t with
  | (Ftree.Enable i, _) :: _ ->
      let t1 = Option.get (Ftree.apply g t (Ftree.Enable i)) in
      Alcotest.(check bool) "fingerprint differs" true
        (Ftree.fingerprint t <> Ftree.fingerprint t1)
  | _ -> Alcotest.fail "expected enable"

let test_prune_after_rewrite () =
  let c, g, s = bert_state () in
  ignore c;
  let t = s.ftree in
  (* remove an output node (simulating a rewrite that dropped it) and
     check pruning keeps only valid entries *)
  let victim = List.hd (Graph.outputs g) in
  let g' = Graph.remove g victim in
  let t' = Ftree.prune (Graph_index.of_graph g') t in
  for i = 0 to Ftree.n_entries t' - 1 do
    let e = Ftree.entry t' i in
    Alcotest.(check bool) "members all alive" true
      (Int_set.for_all (fun v -> Graph.mem g' v) (Fission.members e.fission))
  done

let test_refresh_preserves_enabled () =
  let c, g, s = bert_state () in
  ignore c;
  let t = s.ftree in
  match Ftree.mutations_on (Graph_index.of_graph g) t with
  | (Ftree.Enable i, _) :: _ ->
      let t1 = Option.get (Ftree.apply g t (Ftree.Enable i)) in
      let t2 =
        Ftree.refresh_on (Graph_index.of_graph g) ~old_tree:t1
          ~hotspots:s.hotspots
      in
      let survived =
        List.exists
          (fun j ->
            Int_set.equal
              (Fission.members (Ftree.fission_at t2 j))
              (Fission.members (Ftree.fission_at t1 i))
            && Ftree.n_at t2 j = Ftree.n_at t1 i)
          (Ftree.enabled_indices t2)
      in
      Alcotest.(check bool) "enabled fission survives refresh" true survived
  | _ -> Alcotest.fail "expected enable"

let test_construct_naive_differs () =
  let _, g, _ = bert_state () in
  let t = Ftree.construct_naive ~seed:3 g in
  Alcotest.(check bool) "naive construction yields candidates" true
    (Ftree.n_entries t >= 0)

let test_accounting_identity_when_disabled () =
  let c, g, s = bert_state () in
  let acc = Ftree.accounting c (Graph_index.of_graph g) s.ftree in
  Alcotest.(check (float 0.0)) "no extra latency" 0.0 acc.extra_latency;
  Graph.iter
    (fun n ->
      Alcotest.(check int) "sizes unchanged" (Lifetime.default_size g n.id)
        (acc.size_of n.id))
    g

let suite =
  [
    tc "construction (Algorithm 1)" test_construction_properties;
    tc "enable starts at leaves" test_enable_starts_at_frontier;
    tc "mutation cycle" test_mutation_cycle;
    tc "enable under enabled ancestor rejected" test_enable_rejected_under_enabled_ancestor;
    tc "fingerprint tracks state" test_fingerprint_changes_with_state;
    tc "prune after rewrite" test_prune_after_rewrite;
    tc "refresh preserves enabled fissions" test_refresh_preserves_enabled;
    tc "naive construction (ablation)" test_construct_naive_differs;
    tc "accounting identity when disabled" test_accounting_identity_when_disabled;
  ]
