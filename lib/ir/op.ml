(** DNN operator set.

    Each operator kind carries enough semantics for the rest of the system:
    - output-shape inference ({!infer}),
    - an analytic work estimate ({!flops}, used by the cost model),
    - *dimension semantics* ({!links}, {!reduce_arity},
      {!unsplittable_out_dims}): which input dimensions correspond to which
      output dimensions or reduce axes.  The dimension graph (D-Graph, §4.1
      of the paper) and the fission transformation (§4.2) are built entirely
      from these.

    Sliding-window axes (the H/W axes of convolutions and poolings) produce
    no dimension links, matching the paper's footnote 2 which excludes
    spatial axes with sliding windows from the D-Graph. *)

type input_kind =
  | Placeholder  (** network input (e.g. images, token ids) *)
  | Weight  (** trainable parameter; resident for the whole run *)
  | Label  (** training target *)

type unary_kind =
  | Relu
  | Gelu
  | Tanh
  | Sigmoid
  | Exp
  | Sqrt
  | Neg
  | Identity
  | Dropout
  | Scale of float  (** multiply by a compile-time constant *)

type binary_kind = Add | Sub | Mul | Div | Max

type reduce_kind = R_sum | R_mean | R_max

type conv_attrs = { stride : int; padding : int }

type pool_kind = P_max | P_avg

type pool_attrs = { p_kind : pool_kind; kernel : int; p_stride : int }

type kind =
  | Input of input_kind
  | Matmul of { trans_a : bool; trans_b : bool }
      (** [a[m,k] x b[k,n] -> c[m,n]]; flags transpose the operand view *)
  | Dense of { trans_w : bool }
      (** [x[...,k] * w[k,n] -> y[...,n]]: contraction over the last input
          dim only, so leading (batch/sequence) dims stay linked for
          fission.  [trans_w] views the weight as [n,k]. *)
  | Dense_bwd_weight
      (** [x[...,k], dy[...,n] -> dw[k,n]]; the leading dims are reduce
          axes — splitting the batch yields partial weight gradients that
          are summed (the paper's Fig. 5 pattern) *)
  | Batch_matmul of { trans_a : bool; trans_b : bool }
      (** leading batch dims broadcast-free: [[b..,m,k] x [b..,k,n]] *)
  | Conv2d of conv_attrs  (** x[N,C,H,W], w[K,C,R,S] -> [N,K,H',W'] *)
  | Conv2d_bwd_data of conv_attrs  (** dy[N,K,H',W'], w -> dx[N,C,H,W] *)
  | Conv2d_bwd_weight of conv_attrs  (** dy, x -> dw[K,C,R,S] *)
  | Pool2d of pool_attrs  (** x[N,C,H,W] -> [N,C,H',W'] *)
  | Pool2d_bwd of pool_attrs  (** dy, x -> dx *)
  | Unary of unary_kind
  | Binary of binary_kind  (** elementwise, equal shapes *)
  | Bias_add of int  (** x + broadcast b along the given axis *)
  | Softmax of int  (** normalized axis *)
  | Softmax_bwd of int  (** dy, y -> dx *)
  | Layer_norm of int  (** x, gamma, beta; normalize dims [axis..] *)
  | Layer_norm_bwd of int  (** dy, x, gamma -> dx *)
  | Batch_norm  (** frozen affine BN: x[N,C,H,W], gamma[C], beta[C] *)
  | Reduce of reduce_kind * int list  (** axes removed (no keepdims) *)
  | Broadcast of { dims : int array; axes : int list }
      (** inverse of {!Reduce}: replicate the input along the output [axes]
          (sorted, 0-based in the output) to reach shape [dims] *)
  | Transpose of int array  (** out dim i = in dim perm.(i) *)
  | Reshape of int array  (** target dims *)
  | Slice of { axis : int; lo : int; hi : int }
  | Concat of int  (** n>=2 inputs, concatenated along axis *)
  | Embedding  (** table[V,C], ids[N,T] -> [N,T,C] *)
  | Embedding_bwd  (** dy[N,T,C], ids[N,T] -> dtable[V,C] *)
  | Store  (** swap-out: output resides in external (host) storage *)
  | Load  (** swap-in: output restored to device memory *)

type dim_link =
  | To_out of int  (** input dim corresponds to this output dim *)
  | To_reduce of int  (** input dim feeds this reduce axis *)

(* ------------------------------------------------------------------ *)
(* Names and fingerprints                                             *)
(* ------------------------------------------------------------------ *)

let input_kind_name = function
  | Placeholder -> "placeholder"
  | Weight -> "weight"
  | Label -> "label"

let unary_name = function
  | Relu -> "relu"
  | Gelu -> "gelu"
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"
  | Exp -> "exp"
  | Sqrt -> "sqrt"
  | Neg -> "neg"
  | Identity -> "identity"
  | Dropout -> "dropout"
  | Scale f -> Printf.sprintf "scale(%g)" f

let binary_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Max -> "max"

let reduce_name = function R_sum -> "sum" | R_mean -> "mean" | R_max -> "max"

let name = function
  | Input k -> input_kind_name k
  | Matmul { trans_a; trans_b } ->
      Printf.sprintf "matmul%s%s"
        (if trans_a then "_ta" else "")
        (if trans_b then "_tb" else "")
  | Batch_matmul { trans_a; trans_b } ->
      Printf.sprintf "bmm%s%s"
        (if trans_a then "_ta" else "")
        (if trans_b then "_tb" else "")
  | Dense { trans_w } -> if trans_w then "dense_tw" else "dense"
  | Dense_bwd_weight -> "dense_bwd_weight"
  | Conv2d a -> Printf.sprintf "conv2d(s%d,p%d)" a.stride a.padding
  | Conv2d_bwd_data a -> Printf.sprintf "conv2d_bwd_data(s%d,p%d)" a.stride a.padding
  | Conv2d_bwd_weight a ->
      Printf.sprintf "conv2d_bwd_weight(s%d,p%d)" a.stride a.padding
  | Pool2d a ->
      Printf.sprintf "%spool2d(k%d,s%d)"
        (match a.p_kind with P_max -> "max" | P_avg -> "avg")
        a.kernel a.p_stride
  | Pool2d_bwd a -> Printf.sprintf "pool2d_bwd(k%d,s%d)" a.kernel a.p_stride
  | Unary k -> unary_name k
  | Binary k -> binary_name k
  | Bias_add axis -> Printf.sprintf "bias_add(%d)" axis
  | Softmax axis -> Printf.sprintf "softmax(%d)" axis
  | Softmax_bwd axis -> Printf.sprintf "softmax_bwd(%d)" axis
  | Layer_norm axis -> Printf.sprintf "layer_norm(%d)" axis
  | Layer_norm_bwd axis -> Printf.sprintf "layer_norm_bwd(%d)" axis
  | Batch_norm -> "batch_norm"
  | Reduce (k, axes) ->
      Printf.sprintf "reduce_%s(%s)" (reduce_name k)
        (String.concat "," (List.map string_of_int axes))
  | Broadcast { axes; _ } ->
      Printf.sprintf "broadcast(%s)"
        (String.concat "," (List.map string_of_int axes))
  | Transpose perm ->
      Printf.sprintf "transpose(%s)"
        (String.concat "," (Array.to_list (Array.map string_of_int perm)))
  | Reshape dims ->
      Printf.sprintf "reshape(%s)"
        (String.concat "," (Array.to_list (Array.map string_of_int dims)))
  | Slice { axis; lo; hi } -> Printf.sprintf "slice(%d,%d:%d)" axis lo hi
  | Concat axis -> Printf.sprintf "concat(%d)" axis
  | Embedding -> "embedding"
  | Embedding_bwd -> "embedding_bwd"
  | Store -> "store"
  | Load -> "load"

(* Fingerprints are memoized per domain, so the hot path (WL hashing,
   operator-cost keys) takes no lock and formats no string after the
   first query for a kind.  [Scale] kinds bypass the table: structural
   equality identifies [Scale 0.0] with [Scale (-0.0)], whose names
   differ.  Keys own copies of their arrays, since OCaml arrays are
   mutable and a hash-table key must not change.  The table is bounded
   for long-running daemons. *)
let fingerprint_memo : (kind, int64) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let fingerprint_memo_limit = 4096

(** Structural fingerprint, used by the Weisfeiler-Lehman graph hash:
    always [Util.hash_string (name k)]. *)
let fingerprint (k : kind) : int64 =
  match k with
  | Unary (Scale _) -> Util.hash_string (name k)
  | _ -> (
      let memo = Domain.DLS.get fingerprint_memo in
      match Hashtbl.find_opt memo k with
      | Some h -> h
      | None ->
          let h = Util.hash_string (name k) in
          if Hashtbl.length memo >= fingerprint_memo_limit then
            Hashtbl.reset memo;
          let key =
            match k with
            | Transpose p -> Transpose (Array.copy p)
            | Reshape d -> Reshape (Array.copy d)
            | Broadcast b -> Broadcast { b with dims = Array.copy b.dims }
            | k -> k
          in
          Hashtbl.add memo key h;
          h)

let is_input = function Input _ -> true | _ -> false
let is_weight = function Input Weight -> true | _ -> false
let is_swap = function Store | Load -> true | _ -> false

(** Zero-cost "view" operators: pure data movement the runtime can often
    elide; they still occupy memory for their output. *)
let is_view = function
  | Transpose _ | Reshape _ | Slice _ | Unary Identity -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Shape inference                                                    *)
(* ------------------------------------------------------------------ *)

(** Dimension domain over which {!Abstract} interprets shape inference.
    [equal]/[geq]/[div_floor] are *provability* predicates: a
    [false]/[None] answer means "cannot prove", not "provably false".
    Over {!Int_dims} every fact is decided; over a symbolic domain the
    interpreter is sound but partial. *)
module type DIM_DOMAIN = sig
  type dim
  type dt

  val const : int -> dim
  val add : dim -> dim -> dim
  val sub : dim -> dim -> dim
  val mul : dim -> dim -> dim

  (** Provable equality of two extents. *)
  val equal : dim -> dim -> bool

  (** Provable [a >= b]. *)
  val geq : dim -> dim -> bool

  (** [div_floor d k]: a provable [⌊d / k⌋] for [k > 0]; [None] when
      [k <= 0] or the domain cannot name the quotient. *)
  val div_floor : dim -> int -> dim option

  val to_const : dim -> int option

  (** Provable equality of two element types. *)
  val dt_equal : dt -> dt -> bool
end

(** The one operator-by-operator shape inference, over any dimension
    domain: {!infer} is [Abstract (Int_dims)]; instantiated with a
    symbolic domain it proves inference facts for *all* extents at once.
    Shapes are [(dims, dtype)] pairs so the result type is shared across
    instantiations. *)
module Abstract (D : DIM_DOMAIN) = struct
  type shape = D.dim array * D.dt

  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
  let rank ((d, _) : shape) = Array.length d
  let dim ((d, _) : shape) i = d.(i)
  let dt ((_, t) : shape) = t

  let mm_view trans (s : shape) =
    let r = rank s in
    let a = dim s (r - 2) and b = dim s (r - 1) in
    if trans then (b, a) else (a, b)

  (** [⌊(extent + 2*padding - kernel) / stride⌋ + 1]: flooring, so a
      kernel larger than the padded extent yields an extent [<= 0] at
      every stride. *)
  let conv_out ~extent ~kernel ~stride ~padding =
    let numer = D.sub (D.add extent (D.const (2 * padding))) kernel in
    Option.map (fun q -> D.add q (D.const 1)) (D.div_floor numer stride)

  let positive what d =
    if D.geq d (D.const 1) then Ok d
    else fail "%s: cannot prove the extent positive" what

  let infer (k : kind) (ins : shape array) : (shape, string) result =
    let arity_err expected =
      fail "%s expects %d inputs, got %d" (name k) expected (Array.length ins)
    in
    let ( let* ) = Result.bind in
    match k with
    | Input _ -> fail "input nodes carry their own shape"
    | Matmul { trans_a; trans_b } ->
        if Array.length ins <> 2 then arity_err 2
        else
          let a = ins.(0) and b = ins.(1) in
          if rank a <> 2 || rank b <> 2 then
            fail "matmul expects rank-2 operands"
          else
            let m, ka = mm_view trans_a a and kb, n = mm_view trans_b b in
            if not (D.equal ka kb) then
              fail "matmul: cannot prove the contraction extents equal"
            else Ok ([| m; n |], dt a)
    | Dense { trans_w } ->
        if Array.length ins <> 2 then arity_err 2
        else
          let x = ins.(0) and w = ins.(1) in
          if rank w <> 2 then fail "dense: weight must be rank 2"
          else if rank x < 2 then fail "dense: input rank < 2"
          else
            let kd = if trans_w then dim w 1 else dim w 0 in
            let n = if trans_w then dim w 0 else dim w 1 in
            let r = rank x in
            if not (D.equal (dim x (r - 1)) kd) then
              fail "dense: cannot prove the contraction extents equal"
            else
              Ok
                ( Array.init r (fun i -> if i = r - 1 then n else dim x i),
                  dt x )
    | Dense_bwd_weight ->
        if Array.length ins <> 2 then arity_err 2
        else
          let x = ins.(0) and dy = ins.(1) in
          let rx = rank x and ry = rank dy in
          if rx <> ry || rx < 2 then fail "dense_bwd_weight: rank mismatch"
          else Ok ([| dim x (rx - 1); dim dy (ry - 1) |], dt x)
    | Batch_matmul { trans_a; trans_b } ->
        if Array.length ins <> 2 then arity_err 2
        else
          let a = ins.(0) and b = ins.(1) in
          let ra = rank a and rb = rank b in
          if ra <> rb || ra < 3 then fail "bmm expects equal ranks >= 3"
          else
            let batch_ok = ref true in
            for i = 0 to ra - 3 do
              if not (D.equal (dim a i) (dim b i)) then batch_ok := false
            done;
            if not !batch_ok then
              fail "bmm: cannot prove the batch extents equal"
            else
              let m, ka = mm_view trans_a a and kb, n = mm_view trans_b b in
              if not (D.equal ka kb) then
                fail "bmm: cannot prove the contraction extents equal"
              else
                Ok
                  ( Array.init ra (fun i ->
                        if i < ra - 2 then dim a i
                        else if i = ra - 2 then m
                        else n),
                    dt a )
    | Conv2d { stride; padding } ->
        if Array.length ins <> 2 then arity_err 2
        else
          let x = ins.(0) and w = ins.(1) in
          if rank x <> 4 || rank w <> 4 then fail "conv2d expects NCHW and KCRS"
          else if not (D.equal (dim x 1) (dim w 1)) then
            fail "conv2d: cannot prove the channel extents equal"
          else (
            match
              ( conv_out ~extent:(dim x 2) ~kernel:(dim w 2) ~stride ~padding,
                conv_out ~extent:(dim x 3) ~kernel:(dim w 3) ~stride ~padding )
            with
            | Some oh, Some ow ->
                let* oh = positive "conv2d" oh in
                let* ow = positive "conv2d" ow in
                Ok ([| dim x 0; dim w 0; oh; ow |], dt x)
            | _ -> fail "conv2d: cannot divide the extent by stride %d" stride)
    | Conv2d_bwd_data { stride; padding } ->
        (* two operands: transposed convolution (decoder upsampling);
           three operands: data gradient, with the forward input as a
           shape carrier (strided convolutions floor away the exact
           extent, so it cannot always be recovered from dy alone) *)
        if Array.length ins <> 2 && Array.length ins <> 3 then arity_err 2
        else
          let dy = ins.(0) and w = ins.(1) in
          if rank dy <> 4 || rank w <> 4 then
            fail "conv2d_bwd_data expects rank-4 inputs"
          else if Array.length ins = 3 then Ok ins.(2)
          else
            let ext d kd =
              D.add
                (D.sub (D.mul (D.sub d (D.const 1)) (D.const stride))
                   (D.const (2 * padding)))
                kd
            in
            let* h = positive "conv2d_bwd_data" (ext (dim dy 2) (dim w 2)) in
            let* wd = positive "conv2d_bwd_data" (ext (dim dy 3) (dim w 3)) in
            Ok ([| dim dy 0; dim w 1; h; wd |], dt dy)
    | Conv2d_bwd_weight _ ->
        if Array.length ins <> 3 then arity_err 3
        else
          let dy = ins.(0) and x = ins.(1) and wshape = ins.(2) in
          if rank dy <> 4 || rank x <> 4 || rank wshape <> 4 then
            fail "conv2d_bwd_weight expects rank-4 inputs"
          else Ok (fst wshape, dt dy)
    | Pool2d { kernel; p_stride; _ } ->
        if Array.length ins <> 1 then arity_err 1
        else
          let x = ins.(0) in
          if rank x <> 4 then fail "pool2d expects NCHW"
          else (
            match
              ( conv_out ~extent:(dim x 2) ~kernel:(D.const kernel)
                  ~stride:p_stride ~padding:0,
                conv_out ~extent:(dim x 3) ~kernel:(D.const kernel)
                  ~stride:p_stride ~padding:0 )
            with
            | Some oh, Some ow ->
                let* oh = positive "pool2d" oh in
                let* ow = positive "pool2d" ow in
                Ok ([| dim x 0; dim x 1; oh; ow |], dt x)
            | _ -> fail "pool2d: cannot divide the extent by stride %d" p_stride)
    | Pool2d_bwd _ ->
        (* dx has the forward input's shape *)
        if Array.length ins <> 2 then arity_err 2 else Ok ins.(1)
    | Unary _ -> if Array.length ins <> 1 then arity_err 1 else Ok ins.(0)
    | Binary _ ->
        if Array.length ins <> 2 then arity_err 2
        else
          let a = ins.(0) and b = ins.(1) in
          if rank a <> rank b then fail "%s: rank mismatch" (name k)
          else if
            not (Array.for_all2 D.equal (fst a) (fst b))
          then fail "%s: cannot prove the operand shapes equal" (name k)
          else if not (D.dt_equal (dt a) (dt b)) then
            fail "%s: cannot prove the operand dtypes equal" (name k)
          else Ok a
    | Bias_add axis ->
        if Array.length ins <> 2 then arity_err 2
        else
          let x = ins.(0) and b = ins.(1) in
          if axis < 0 || axis >= rank x then fail "bias_add: bad axis"
          else if rank b <> 1 then fail "bias_add: bias must be rank 1"
          else if not (D.equal (dim b 0) (dim x axis)) then
            fail "bias_add: cannot prove the bias extent equal"
          else Ok x
    | Softmax axis | Softmax_bwd axis ->
        let expected = match k with Softmax _ -> 1 | _ -> 2 in
        if Array.length ins <> expected then arity_err expected
        else if axis < 0 || axis >= rank ins.(0) then fail "softmax: bad axis"
        else Ok ins.(0)
    | Layer_norm axis ->
        if Array.length ins <> 3 then arity_err 3
        else if axis < 0 || axis >= rank ins.(0) then fail "layer_norm: bad axis"
        else Ok ins.(0)
    | Layer_norm_bwd axis ->
        if Array.length ins <> 3 then arity_err 3
        else if axis < 0 || axis >= rank ins.(1) then
          fail "layer_norm_bwd: bad axis"
        else Ok ins.(1)
    | Batch_norm ->
        if Array.length ins <> 3 then arity_err 3
        else if rank ins.(0) <> 4 then fail "batch_norm expects NCHW"
        else Ok ins.(0)
    | Reduce (_, axes) ->
        if Array.length ins <> 1 then arity_err 1
        else
          let x = ins.(0) in
          let r = rank x in
          if List.exists (fun a -> a < 0 || a >= r) axes then
            fail "reduce: bad axis"
          else if
            List.length (List.sort_uniq compare axes) <> List.length axes
          then fail "reduce: duplicate axes"
          else
            let kept =
              List.filteri (fun i _ -> not (List.mem i axes))
                (Array.to_list (fst x))
            in
            let kept = if kept = [] then [ D.const 1 ] else kept in
            Ok (Array.of_list kept, dt x)
    | Broadcast { dims; axes } ->
        if Array.length ins <> 1 then arity_err 1
        else
          let x = ins.(0) in
          let rout = Array.length dims in
          if rank x + List.length axes <> rout then fail "broadcast: rank mismatch"
          else if List.exists (fun a -> a < 0 || a >= rout) axes then
            fail "broadcast: bad axis"
          else
            let kept =
              List.filter
                (fun i -> not (List.mem i axes))
                (List.init rout Fun.id)
            in
            if
              List.for_all2
                (fun i j -> D.equal (D.const dims.(j)) (dim x i))
                (List.init (rank x) Fun.id)
                kept
            then Ok (Array.map D.const dims, dt x)
            else fail "broadcast: cannot prove the kept extents equal"
    | Transpose perm ->
        if Array.length ins <> 1 then arity_err 1
        else
          let x = ins.(0) in
          let r = rank x in
          if Array.length perm <> r then fail "transpose: perm rank mismatch"
          else if
            List.sort_uniq compare (Array.to_list perm) <> List.init r Fun.id
          then fail "transpose: invalid permutation"
          else Ok (Array.init r (fun i -> dim x perm.(i)), dt x)
    | Reshape dims ->
        if Array.length ins <> 1 then arity_err 1
        else
          let x = ins.(0) in
          let numel s = Array.fold_left D.mul (D.const 1) (fst s) in
          let target = Array.fold_left ( * ) 1 dims in
          if not (D.equal (D.const target) (numel x)) then
            fail "reshape: cannot prove the element counts equal"
          else Ok (Array.map D.const dims, dt x)
    | Slice { axis; lo; hi } ->
        if Array.length ins <> 1 then arity_err 1
        else
          let x = ins.(0) in
          if axis < 0 || axis >= rank x then fail "slice: bad axis"
          else if lo < 0 || lo >= hi then fail "slice: bad range %d:%d" lo hi
          else if not (D.geq (dim x axis) (D.const hi)) then
            fail "slice: cannot prove the extent covers %d" hi
          else
            let out = Array.copy (fst x) in
            out.(axis) <- D.const (hi - lo);
            Ok (out, dt x)
    | Concat axis ->
        if Array.length ins < 2 then fail "concat expects >= 2 inputs"
        else
          let first = ins.(0) in
          if axis < 0 || axis >= rank first then fail "concat: bad axis"
          else
            let ok = ref true and total = ref (D.const 0) in
            Array.iter
              (fun s ->
                if rank s <> rank first then ok := false
                else
                  Array.iteri
                    (fun i d ->
                      if i <> axis && not (D.equal d (dim first i)) then
                        ok := false)
                    (fst s);
                total := D.add !total (dim s axis))
              ins;
            if not !ok then fail "concat: cannot prove the shapes compatible"
            else if
              Array.exists (fun s -> not (D.dt_equal (dt s) (dt first))) ins
            then fail "concat: cannot prove the dtypes equal"
            else
              let out = Array.copy (fst first) in
              out.(axis) <- !total;
              Ok (out, dt first)
    | Embedding ->
        if Array.length ins <> 2 then arity_err 2
        else
          let table = ins.(0) and ids = ins.(1) in
          if rank table <> 2 then fail "embedding: table must be rank 2"
          else Ok (Array.append (fst ids) [| dim table 1 |], dt table)
    | Embedding_bwd ->
        (* dtable has the table's shape *)
        if Array.length ins <> 3 then arity_err 3 else Ok ins.(2)
    | Store | Load ->
        if Array.length ins <> 1 then arity_err 1 else Ok ins.(0)
end

(** Concrete [int] instantiation of {!DIM_DOMAIN}: ordinary arithmetic
    with flooring division; the domain of {!infer}. *)
module Int_dims = struct
  type dim = int
  type dt = Shape.dtype

  let const n = n
  let add = ( + )
  let sub = ( - )
  let mul = ( * )
  let equal = Int.equal
  let geq a b = a >= b
  let div_floor a k =
    if k <= 0 then None
    else if a mod k < 0 then Some ((a / k) - 1)
    else Some (a / k)
  let to_const a = Some a
  let dt_equal (a : Shape.dtype) b = a = b
end

module Int_infer = Abstract (Int_dims)

(** {!Abstract} over {!Int_dims}; the operand arrays are shared, not
    copied, and the result is validated by {!Shape.of_array}. *)
let infer (k : kind) (ins : Shape.t array) : (Shape.t, string) result =
  let view s = (Shape.dims_view s, Shape.dtype s) in
  Int_infer.infer k (Array.map view ins)
  |> Result.map (fun (dims, dtype) -> Shape.of_array ~dtype dims)

(* ------------------------------------------------------------------ *)
(* Work estimates                                                     *)
(* ------------------------------------------------------------------ *)

let mm_view trans (s : Shape.t) =
  let r = Shape.rank s in
  if r < 2 then invalid_arg "matmul operand of rank < 2";
  let a = Shape.dim s (r - 2) and b = Shape.dim s (r - 1) in
  if trans then (b, a) else (a, b)

(** Floating-point operations performed by one execution of the operator. *)
let flops (k : kind) (ins : Shape.t array) (out : Shape.t) : float =
  let f = float_of_int in
  let numel_out = f (Shape.numel out) in
  match k with
  | Input _ | Store | Load -> 0.0
  | Matmul { trans_a; _ } ->
      let _, ka = mm_view trans_a ins.(0) in
      2.0 *. numel_out *. f ka
  | Batch_matmul { trans_a; _ } ->
      let _, ka = mm_view trans_a ins.(0) in
      2.0 *. numel_out *. f ka
  | Dense _ ->
      let x = ins.(0) in
      2.0 *. numel_out *. f (Shape.dim x (Shape.rank x - 1))
  | Dense_bwd_weight ->
      let x = ins.(0) in
      let leading = Shape.numel x / Shape.dim x (Shape.rank x - 1) in
      2.0 *. numel_out *. f leading
  | Conv2d _ ->
      let w = ins.(1) in
      2.0 *. numel_out *. f (Shape.dim w 1 * Shape.dim w 2 * Shape.dim w 3)
  | Conv2d_bwd_data _ ->
      let w = ins.(1) in
      2.0 *. numel_out *. f (Shape.dim w 0 * Shape.dim w 2 * Shape.dim w 3)
  | Conv2d_bwd_weight _ ->
      let dy = ins.(0) in
      2.0 *. f (Shape.numel dy) *. f (Shape.dim out 1 * Shape.dim out 2 * Shape.dim out 3)
  | Pool2d { kernel; _ } | Pool2d_bwd { kernel; _ } ->
      numel_out *. f (kernel * kernel)
  | Unary (Gelu | Tanh | Sigmoid | Exp) -> 8.0 *. numel_out
  | Unary _ -> numel_out
  | Binary _ -> numel_out
  | Bias_add _ -> numel_out
  | Softmax _ -> 5.0 *. numel_out
  | Softmax_bwd _ -> 6.0 *. numel_out
  | Layer_norm _ -> 8.0 *. numel_out
  | Layer_norm_bwd _ -> 12.0 *. numel_out
  | Batch_norm -> 2.0 *. numel_out
  | Reduce _ -> f (Shape.numel ins.(0))
  | Transpose _ | Reshape _ | Slice _ | Concat _ | Broadcast _ -> 0.0
  | Embedding -> 0.0
  | Embedding_bwd -> f (Shape.numel ins.(0))

(** Bytes read from / written to device memory by one execution. *)
let bytes_moved (k : kind) (ins : Shape.t array) (out : Shape.t) : float =
  match k with
  | Input _ -> 0.0
  | _ ->
      let input_bytes =
        Array.fold_left (fun acc s -> acc + Shape.size_bytes s) 0 ins
      in
      float_of_int (input_bytes + Shape.size_bytes out)

(* ------------------------------------------------------------------ *)
(* Dimension semantics                                                *)
(* ------------------------------------------------------------------ *)

(** Number of reduce axes ([r_v] in the paper). *)
let reduce_arity (k : kind) (ins : Shape.t array) : int =
  match k with
  | Matmul _ | Batch_matmul _ | Conv2d _ | Conv2d_bwd_data _ | Dense _ -> 1
  | Conv2d_bwd_weight _ -> 1 (* batch axis *)
  | Dense_bwd_weight ->
      if Array.length ins > 0 then Shape.rank ins.(0) - 1 else 1
  | Reduce (_, axes) -> List.length axes
  | Embedding_bwd -> if Array.length ins > 0 then Shape.rank ins.(1) else 2
  | _ -> 0

(** [links k ins out] lists [(slot, in_dim, link)] triples describing how
    each input dimension corresponds to an output dimension or reduce axis.
    Dimensions with no entry are opaque (sliding windows, gather indices,
    broadcast remainders). *)
let links (k : kind) (ins : Shape.t array) (out : Shape.t) :
    (int * int * dim_link) list =
  let all_same slot shape =
    List.init (Shape.rank shape) (fun i -> (slot, i, To_out i))
  in
  match k with
  | Input _ -> []
  | Matmul { trans_a; trans_b } ->
      let a_m = if trans_a then 1 else 0 in
      let a_k = 1 - a_m in
      let b_n = if trans_b then 0 else 1 in
      let b_k = 1 - b_n in
      [ (0, a_m, To_out 0); (0, a_k, To_reduce 0);
        (1, b_k, To_reduce 0); (1, b_n, To_out 1) ]
  | Batch_matmul { trans_a; trans_b } ->
      let r = Shape.rank ins.(0) in
      let batch =
        List.concat_map
          (fun i -> [ (0, i, To_out i); (1, i, To_out i) ])
          (List.init (r - 2) Fun.id)
      in
      let a_m = if trans_a then r - 1 else r - 2 in
      let a_k = if trans_a then r - 2 else r - 1 in
      let b_n = if trans_b then r - 2 else r - 1 in
      let b_k = if trans_b then r - 1 else r - 2 in
      batch
      @ [ (0, a_m, To_out (r - 2)); (0, a_k, To_reduce 0);
          (1, b_k, To_reduce 0); (1, b_n, To_out (r - 1)) ]
  | Dense { trans_w } ->
      let r = Shape.rank ins.(0) in
      let w_k = if trans_w then 1 else 0 in
      List.init (r - 1) (fun i -> (0, i, To_out i))
      @ [ (0, r - 1, To_reduce 0); (1, w_k, To_reduce 0);
          (1, 1 - w_k, To_out (r - 1)) ]
  | Dense_bwd_weight ->
      let r = Shape.rank ins.(0) in
      List.init (r - 1) (fun i -> (0, i, To_reduce i))
      @ [ (0, r - 1, To_out 0) ]
      @ List.init (r - 1) (fun i -> (1, i, To_reduce i))
      @ [ (1, r - 1, To_out 1) ]
  | Conv2d _ ->
      [ (0, 0, To_out 0); (0, 1, To_reduce 0);
        (1, 0, To_out 1); (1, 1, To_reduce 0) ]
  | Conv2d_bwd_data _ ->
      let base =
        [ (0, 0, To_out 0); (0, 1, To_reduce 0);
          (1, 0, To_reduce 0); (1, 1, To_out 1) ]
      in
      if Array.length ins = 3 then
        base @ [ (2, 0, To_out 0); (2, 1, To_out 1) ]
      else base
  | Conv2d_bwd_weight _ ->
      (* dy[N,K,H',W'], x[N,C,H,W], w_shape -> dw[K,C,R,S]; N is the reduce
         axis: splitting the batch yields partial weight gradients summed
         together (the Fig. 5 pattern). *)
      [ (0, 0, To_reduce 0); (0, 1, To_out 0);
        (1, 0, To_reduce 0); (1, 1, To_out 1) ]
  | Pool2d _ -> [ (0, 0, To_out 0); (0, 1, To_out 1) ]
  | Pool2d_bwd _ ->
      [ (0, 0, To_out 0); (0, 1, To_out 1); (1, 0, To_out 0); (1, 1, To_out 1) ]
  | Unary _ -> all_same 0 ins.(0)
  | Binary _ -> all_same 0 ins.(0) @ all_same 1 ins.(1)
  | Bias_add axis -> all_same 0 ins.(0) @ [ (1, 0, To_out axis) ]
  | Softmax _ -> all_same 0 ins.(0)
  | Softmax_bwd _ -> all_same 0 ins.(0) @ all_same 1 ins.(1)
  | Layer_norm axis ->
      (* gamma/beta have the trailing (normalized) dims *)
      let x = ins.(0) in
      let trailing slot s =
        List.init (Shape.rank s) (fun i -> (slot, i, To_out (axis + i)))
      in
      all_same 0 x @ trailing 1 ins.(1) @ trailing 2 ins.(2)
  | Layer_norm_bwd axis ->
      let trailing slot s =
        List.init (Shape.rank s) (fun i -> (slot, i, To_out (axis + i)))
      in
      all_same 0 ins.(0) @ all_same 1 ins.(1) @ trailing 2 ins.(2)
  | Batch_norm ->
      all_same 0 ins.(0) @ [ (1, 0, To_out 1); (2, 0, To_out 1) ]
  | Reduce (_, axes) ->
      let x = ins.(0) in
      let r = Shape.rank x in
      let kept = List.filter (fun i -> not (List.mem i axes)) (List.init r Fun.id) in
      (* a full reduce keeps a single [1] dim: no spatial links then *)
      let spatial =
        if kept = [] then []
        else List.mapi (fun j i -> (0, i, To_out j)) kept
      in
      let reduces = List.mapi (fun j a -> (0, a, To_reduce j)) axes in
      spatial @ reduces
  | Broadcast { dims; axes } ->
      let rout = Array.length dims in
      let kept =
        List.filter (fun i -> not (List.mem i axes)) (List.init rout Fun.id)
      in
      List.mapi (fun i j -> (0, i, To_out j)) kept
  | Transpose perm ->
      List.init (Array.length perm) (fun i -> (0, perm.(i), To_out i))
  | Reshape dims ->
      (* Link dimensions that are preserved verbatim from the left and from
         the right (prefix/suffix products equal). *)
      let x = ins.(0) in
      let rin = Shape.rank x and rout = Array.length dims in
      let rec from_left i acc =
        if i < rin && i < rout && Shape.dim x i = dims.(i) then
          from_left (i + 1) ((0, i, To_out i) :: acc)
        else (i, acc)
      in
      let stop_l, left = from_left 0 [] in
      let rec from_right j acc =
        let i = rin - 1 - j and o = rout - 1 - j in
        if i >= stop_l && o >= stop_l && i >= 0 && o >= 0
           && Shape.dim x i = dims.(o)
        then from_right (j + 1) ((0, i, To_out o) :: acc)
        else acc
      in
      left @ from_right 0 []
  | Slice _ -> all_same 0 ins.(0)
  | Concat _ ->
      List.concat
        (List.init (Array.length ins) (fun slot -> all_same slot ins.(slot)))
  | Embedding ->
      let ids = ins.(1) in
      let id_links =
        List.init (Shape.rank ids) (fun i -> (1, i, To_out i))
      in
      (1, 0, To_out 0) :: List.tl id_links
      @ [ (0, 1, To_out (Shape.rank out - 1)) ]
  | Embedding_bwd ->
      let dy = ins.(0) and ids = ins.(1) in
      let rd = Shape.rank dy in
      List.init (rd - 1) (fun i -> (0, i, To_reduce i))
      @ [ (0, rd - 1, To_out 1) ]
      @ List.init (Shape.rank ids) (fun i -> (1, i, To_reduce i))
  | Store | Load -> all_same 0 ins.(0)

(** Output dimensions along which the operator must not be sliced: either
    the semantics couple the whole extent (softmax / layer-norm normalized
    axes, concat/slice axes) or the axis carries a sliding window. *)
let unsplittable_out_dims (k : kind) (ins : Shape.t array) (out : Shape.t) :
    int list =
  let _ = ins in
  match k with
  | Softmax axis | Softmax_bwd axis -> [ axis ]
  | Layer_norm axis | Layer_norm_bwd axis ->
      List.init (Shape.rank out - axis) (fun i -> axis + i)
  | Conv2d _ | Pool2d _ | Conv2d_bwd_data _ | Pool2d_bwd _ -> [ 2; 3 ]
  | Conv2d_bwd_weight _ -> [ 2; 3 ]
  | Slice { axis; _ } -> [ axis ]
  | Concat axis -> [ axis ]
  | Broadcast { axes; _ } -> axes
  | _ -> []

(** How partial outputs combine when an operator is split along a reduce
    axis: [`Sum] (partial sums added), [`Max], or [`No_merge] when such a
    split is not allowed. *)
let reduce_merge (k : kind) : [ `Sum | `Max | `No_merge ] =
  match k with
  | Matmul _ | Batch_matmul _ | Conv2d _ | Conv2d_bwd_data _
  | Conv2d_bwd_weight _ | Embedding_bwd | Dense _ | Dense_bwd_weight ->
      `Sum
  | Reduce (R_sum, _) -> `Sum
  | Reduce (R_max, _) -> `Max
  | Reduce (R_mean, _) -> `No_merge
  | _ -> `No_merge
