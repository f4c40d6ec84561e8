(** Tensor shapes and element types.

    A shape is a non-empty list of positive dimension extents plus a data
    type.  Sizes are reported in bytes; all memory accounting in the cost
    layer is derived from {!size_bytes}. *)

type dtype = F32 | TF32 | BF16 | F16 | I64 | I32 | Bool

type t = { dims : int array; dtype : dtype }

let dtype_bytes = function
  | F32 | TF32 -> 4
  | BF16 | F16 -> 2
  | I64 -> 8
  | I32 -> 4
  | Bool -> 1

let dtype_name = function
  | F32 -> "f32"
  | TF32 -> "tf32"
  | BF16 -> "bf16"
  | F16 -> "f16"
  | I64 -> "i64"
  | I32 -> "i32"
  | Bool -> "bool"

(* takes ownership of [dims]: no copy *)
let of_array ?(dtype = F32) dims =
  if Array.length dims = 0 then invalid_arg "Shape.create: empty shape";
  Array.iter
    (fun d -> if d <= 0 then invalid_arg "Shape.create: non-positive dim")
    dims;
  { dims; dtype }

let create ?dtype dims = of_array ?dtype (Array.of_list dims)

let rank t = Array.length t.dims
let dim t i = t.dims.(i)
let dims t = Array.copy t.dims
let dims_view t = t.dims
let dtype t = t.dtype

let numel t = Array.fold_left ( * ) 1 t.dims
let size_bytes t = numel t * dtype_bytes t.dtype

let equal a b = a.dtype = b.dtype && a.dims = b.dims
let equal_dims a b = a.dims = b.dims

(** [with_dim t i d] is [t] with dimension [i] replaced by extent [d]. *)
let with_dim t i d =
  if d <= 0 then invalid_arg "Shape.with_dim: non-positive dim";
  let dims = Array.copy t.dims in
  dims.(i) <- d;
  { t with dims }

(** [split_dim t i n] divides dimension [i] by [n]; fails unless [n] divides
    the extent. Used to derive the shape of one fission part. *)
let split_dim t i n =
  let d = t.dims.(i) in
  if n <= 0 || d mod n <> 0 then
    invalid_arg
      (Printf.sprintf "Shape.split_dim: %d does not divide dim %d (=%d)" n i d);
  with_dim t i (d / n)

let concat_dim t i extra = with_dim t i (t.dims.(i) + extra)

(** [factorize n] is the prime factorization of [n] in ascending order
    (with multiplicity); [factorize 1 = []].  The F-Tree's candidate
    fission numbers and the symbolic shape domain's constant-divisibility
    proofs are built from it. *)
let factorize n =
  if n <= 0 then invalid_arg "Shape.factorize: non-positive extent";
  let rec strip n p acc =
    if n mod p = 0 then strip (n / p) p (p :: acc) else (n, acc)
  in
  let rec go n p acc =
    if n = 1 then acc
    else if p * p > n then n :: acc
    else
      let n, acc = strip n p acc in
      go n (if p = 2 then 3 else p + 2) acc
  in
  List.rev (go n 2 [])

let pp ppf t =
  Fmt.pf ppf "%s[%a]" (dtype_name t.dtype)
    Fmt.(array ~sep:(any ",") int)
    t.dims

let to_string t = Fmt.str "%a" pp t

(* [Util.hash_string (dtype_name d)], computed once per dtype *)
let dtype_hash =
  let h d = Util.hash_string (dtype_name d) in
  let f32 = h F32 and tf32 = h TF32 and bf16 = h BF16 and f16 = h F16 in
  let i64 = h I64 and i32 = h I32 and bool = h Bool in
  function
  | F32 -> f32
  | TF32 -> tf32
  | BF16 -> bf16
  | F16 -> f16
  | I64 -> i64
  | I32 -> i32
  | Bool -> bool

let hash t = Util.hash_combine (dtype_hash t.dtype) (Util.hash_int_array t.dims)
