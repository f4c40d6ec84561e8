(** Global verification switch (see the interface). *)

let flag = ref false
let enabled () = !flag
let set b = flag := b

let assert_state ~what g order =
  let diags = Verify.graph g @ Sched_check.schedule g order in
  match Diagnostic.errors diags with
  | [] -> ()
  | errs ->
      failwith
        (Fmt.str "%s failed verification:@.%a" what Diagnostic.pp_report errs)

let assert_bounds ?(exact = true) ~what ?size_of g ~peak () =
  let diags =
    if exact then Membound.check (Membound.compute ?size_of g) ~peak
    else Membound.quick_check ?size_of g ~peak
  in
  match Diagnostic.errors diags with
  | [] -> ()
  | errs ->
      failwith
        (Fmt.str "%s violated the memory-bound invariant:@.%a" what
           Diagnostic.pp_report errs)

let assert_interference ?strategy ~what ?size_of g order =
  let r = Interfere.check ?strategy ?size_of g order in
  match Diagnostic.errors r.Interfere.diags with
  | [] -> ()
  | errs ->
      failwith
        (Fmt.str "%s has allocator interference:@.%a" what
           Diagnostic.pp_report errs)

let schedule ?(what = "schedule") g order =
  if !flag then assert_state ~what g order;
  order
