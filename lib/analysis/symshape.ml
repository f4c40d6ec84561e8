(** Symbolic shape domain (see the interface).

    Extents are multivariate polynomials with integer coefficients over
    dimension variables, kept in a canonical normal form: a map from
    monomials (sorted variable lists, repetition = power) to non-zero
    coefficients.  Equality of normal forms decides equality of the
    symbolic extents; entailment exploits only that every variable is at
    least 1. *)

open Magis_ir
module Spec = Magis_rules.Rule.Spec

module Mono = struct
  type t = string list (* sorted, with multiplicity *)

  let compare = compare
end

module Mmap = Map.Make (Mono)

type t = int Mmap.t

let zero = Mmap.empty
let const n = if n = 0 then zero else Mmap.singleton [] n
let var x = Mmap.singleton [ x ] 1

let add (a : t) (b : t) : t =
  Mmap.union (fun _ ca cb -> if ca + cb = 0 then None else Some (ca + cb)) a b

let scale k (a : t) : t =
  if k = 0 then zero else Mmap.map (fun c -> c * k) a

let sub a b = add a (scale (-1) b)

let mul (a : t) (b : t) : t =
  Mmap.fold
    (fun ma ca acc ->
      Mmap.fold
        (fun mb cb acc ->
          let m = List.sort compare (ma @ mb) in
          add acc (if ca * cb = 0 then zero else Mmap.singleton m (ca * cb)))
        b acc)
    a zero

let equal = Mmap.equal Int.equal

let to_const (p : t) : int option =
  if Mmap.is_empty p then Some 0
  else if Mmap.cardinal p = 1 then Mmap.find_opt [] p
  else None

let rec of_sdim : Spec.sdim -> t = function
  | Spec.K n -> const n
  | Spec.V x -> var x
  | Spec.Add (a, b) -> add (of_sdim a) (of_sdim b)
  | Spec.Sub (a, b) -> sub (of_sdim a) (of_sdim b)
  | Spec.Mul (a, b) -> mul (of_sdim a) (of_sdim b)

let vars (p : t) : string list =
  Mmap.fold (fun m _ acc -> m @ acc) p []
  |> List.sort_uniq compare

let eval ~env (p : t) : int =
  Mmap.fold
    (fun m c acc ->
      let v =
        List.fold_left
          (fun acc x ->
            match List.assoc_opt x env with
            | Some n -> acc * n
            | None -> invalid_arg (Printf.sprintf "Symshape.eval: unbound %s" x))
          1 m
      in
      acc + (c * v))
    p 0

(* ------------------------------------------------------------------ *)
(* Entailment                                                         *)
(* ------------------------------------------------------------------ *)

(** [p >= 0] for every assignment with all variables [>= 1]: every
    non-constant monomial has a non-negative coefficient (so [p] is
    minimized at the all-ones point) and the value there — the sum of
    all coefficients — is non-negative. *)
let nonneg_base (p : t) : bool =
  Mmap.for_all (fun m c -> m = [] || c >= 0) p
  && Mmap.fold (fun _ c acc -> acc + c) p 0 >= 0

let guard_polys guards =
  List.filter_map
    (function
      | Spec.Ge (a, b) -> Some (sub (of_sdim a) (of_sdim b))
      | Spec.Divides _ -> None)
    guards

(** [geq ~guards p q]: provable [p >= q].  Base criterion on [p - q];
    failing that, subtract small positive multiples of guard
    inequalities (each [Ge (a, b)] contributes [a - b >= 0]) and retry —
    enough for the affine side conditions rule templates carry. *)
let geq ~guards (p : t) (q : t) : bool =
  let d = sub p q in
  nonneg_base d
  || List.exists
       (fun gp ->
         List.exists (fun lam -> nonneg_base (sub d (scale lam gp))) [ 1; 2 ])
       (guard_polys guards)

(** Provable [c | p]: every coefficient divisible by [c] (so the value
    is divisible for every assignment), or a [Divides] guard asserting a
    multiple of [c] divides this exact extent. *)
let divides ~guards c (p : t) : bool =
  c > 0
  && (Mmap.for_all (fun _ coef -> coef mod c = 0) p
     || List.exists
          (function
            | Spec.Divides (k, e) -> k mod c = 0 && equal p (of_sdim e)
            | Spec.Ge _ -> false)
          guards)

(** Exact quotient, when every coefficient is divisible ([divides] via a
    guard proves divisibility but cannot name the quotient). *)
let div_exact c (p : t) : t option =
  if c > 0 && Mmap.for_all (fun _ coef -> coef mod c = 0) p then
    Some (Mmap.map (fun coef -> coef / c) p)
  else None

(** Prime factors shared by {e every} value of the extent — the factors
    ({!Shape.factorize}) of the GCD of the coefficients, the symbolic
    counterpart of the F-Tree's candidate fission numbers. *)
let const_factors (p : t) : int list =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = Mmap.fold (fun _ c acc -> gcd (abs c) acc) p 0 in
  if g <= 1 then [] else Shape.factorize g

let guard_sat ~env (g : Spec.guard) : bool =
  match g with
  | Spec.Ge (a, b) -> eval ~env (of_sdim a) >= eval ~env (of_sdim b)
  | Spec.Divides (c, e) -> c > 0 && eval ~env (of_sdim e) mod c = 0

let pp ppf (p : t) =
  if Mmap.is_empty p then Fmt.string ppf "0"
  else
    let mono ppf (m, c) =
      match m with
      | [] -> Fmt.int ppf c
      | _ ->
          if c <> 1 then Fmt.pf ppf "%d*" c;
          Fmt.(list ~sep:(any "*") string) ppf m
    in
    Fmt.(list ~sep:(any " + ") mono) ppf (Mmap.bindings p)

let to_string p = Fmt.str "%a" pp p

(* ------------------------------------------------------------------ *)
(* DIM_DOMAIN instantiation                                           *)
(* ------------------------------------------------------------------ *)

(** Symbolic element type with provable (structural) equality. *)
type sdt = Spec.sdtype

module type DOMAIN =
  Op.DIM_DOMAIN with type dim = t and type dt = sdt

(** The symbolic dimension domain under the given guards, ready to feed
    {!Op.Abstract}. *)
let dim_domain guards : (module DOMAIN) =
  (module struct
    type dim = t
    type dt = sdt

    let const = const
    let add = add
    let sub = sub
    let mul = mul
    let equal = equal
    let geq a b = geq ~guards a b
    let div_floor a c = div_exact c a (* an exact quotient is the floor *)
    let to_const = to_const
    let dt_equal (a : sdt) b = a = b
  end)
