(** PyTorch code generation (§7.1 of the paper: "a code generation backend
    to generate Python code calling PyTorch APIs based on the graph and
    schedule; PyTorch's CUDA Stream API implements asynchronous Store and
    Load").

    [emit g ~schedule] produces a self-contained Python module with a
    [run(inputs)] function that executes the operators in schedule order:

    - tensors are freed (dropped from the environment) right after their
      last consumer, reproducing the basic memory saving of the baseline;
    - [Store] copies a tensor to pinned host memory on a side stream and
      drops the device copy; [Load] copies it back, waiting on the copy
      stream event — the asynchronous-swapping pattern;
    - weights and inputs are taken from the [inputs] dict by node id.

    The generator is deliberately direct: one Python statement per
    operator, no fusion — faithfulness over cleverness. *)

open Magis_ir

let py_dtype = function
  | Shape.F32 -> "torch.float32"
  | Shape.TF32 -> "torch.float32"  (* tf32 is an execution mode, not a dtype *)
  | Shape.BF16 -> "torch.bfloat16"
  | Shape.F16 -> "torch.float16"
  | Shape.I64 -> "torch.int64"
  | Shape.I32 -> "torch.int32"
  | Shape.Bool -> "torch.bool"

let dims_tuple s =
  match Array.to_list (Shape.dims s) with
  | [ d ] -> Printf.sprintf "(%d,)" d
  | dims -> "(" ^ String.concat ", " (List.map string_of_int dims) ^ ")"

let var v = Printf.sprintf "t%d" v

let unary_expr (k : Op.unary_kind) x =
  match k with
  | Op.Relu -> Printf.sprintf "torch.relu(%s)" x
  | Op.Gelu -> Printf.sprintf "torch.nn.functional.gelu(%s)" x
  | Op.Tanh -> Printf.sprintf "torch.tanh(%s)" x
  | Op.Sigmoid -> Printf.sprintf "torch.sigmoid(%s)" x
  | Op.Exp -> Printf.sprintf "torch.exp(%s)" x
  | Op.Sqrt -> Printf.sprintf "torch.sqrt(%s)" x
  | Op.Neg -> Printf.sprintf "-%s" x
  | Op.Identity -> x
  | Op.Dropout -> Printf.sprintf "torch.nn.functional.dropout(%s, 0.1)" x
  | Op.Scale f -> Printf.sprintf "%s * %.9g" x f

let binary_expr (k : Op.binary_kind) a b =
  match k with
  | Op.Add -> Printf.sprintf "%s + %s" a b
  | Op.Sub -> Printf.sprintf "%s - %s" a b
  | Op.Mul -> Printf.sprintf "%s * %s" a b
  | Op.Div -> Printf.sprintf "%s / %s" a b
  | Op.Max -> Printf.sprintf "torch.maximum(%s, %s)" a b

(** Python expression computing node [n] from its operand variables. *)
let expr_of (g : Graph.t) (n : Graph.node) : string =
  let x i = var n.inputs.(i) in
  let in_shape i = Graph.shape g n.inputs.(i) in
  match n.op with
  | Op.Input _ -> Printf.sprintf "inputs[%d]" n.id
  | Op.Matmul { trans_a; trans_b } ->
      let a = if trans_a then x 0 ^ ".t()" else x 0 in
      let b = if trans_b then x 1 ^ ".t()" else x 1 in
      Printf.sprintf "torch.matmul(%s, %s)" a b
  | Op.Dense { trans_w } ->
      let w = if trans_w then x 1 ^ ".t()" else x 1 in
      Printf.sprintf "torch.matmul(%s, %s)" (x 0) w
  | Op.Dense_bwd_weight ->
      (* dw[k,n] = sum over leading dims of x ⊗ dy *)
      let r = Shape.rank (in_shape 0) in
      let flat s = Printf.sprintf "%s.reshape(-1, %d)" s (Shape.dim (in_shape 0) (r - 1)) in
      let flat_dy =
        Printf.sprintf "%s.reshape(-1, %d)" (x 1)
          (Shape.dim (in_shape 1) (Shape.rank (in_shape 1) - 1))
      in
      Printf.sprintf "torch.matmul(%s.t(), %s)" (flat (x 0)) flat_dy
  | Op.Batch_matmul { trans_a; trans_b } ->
      let a = if trans_a then x 0 ^ ".transpose(-2, -1)" else x 0 in
      let b = if trans_b then x 1 ^ ".transpose(-2, -1)" else x 1 in
      Printf.sprintf "torch.matmul(%s, %s)" a b
  | Op.Conv2d { stride; padding } ->
      Printf.sprintf
        "torch.nn.functional.conv2d(%s, %s, stride=%d, padding=%d)" (x 0)
        (x 1) stride padding
  | Op.Conv2d_bwd_data { stride; padding } ->
      if Array.length n.inputs = 3 then
        Printf.sprintf
          "torch.nn.grad.conv2d_input(%s.shape, %s, %s, stride=%d, padding=%d)"
          (x 2) (x 1) (x 0) stride padding
      else
        Printf.sprintf
          "torch.nn.functional.conv_transpose2d(%s, %s, stride=%d, padding=%d)"
          (x 0) (x 1) stride padding
  | Op.Conv2d_bwd_weight { stride; padding } ->
      Printf.sprintf
        "torch.nn.grad.conv2d_weight(%s, %s.shape, %s, stride=%d, padding=%d)"
        (x 1) (x 2) (x 0) stride padding
  | Op.Pool2d { p_kind = Op.P_max; kernel; p_stride } ->
      Printf.sprintf "torch.nn.functional.max_pool2d(%s, %d, stride=%d)" (x 0)
        kernel p_stride
  | Op.Pool2d { p_kind = Op.P_avg; kernel; p_stride } ->
      Printf.sprintf "torch.nn.functional.avg_pool2d(%s, %d, stride=%d)" (x 0)
        kernel p_stride
  | Op.Pool2d_bwd { kernel; p_stride; _ } ->
      Printf.sprintf
        "torch.nn.functional.interpolate(%s, scale_factor=%d) # pool bwd (k=%d)"
        (x 0) p_stride kernel
  | Op.Unary k -> unary_expr k (x 0)
  | Op.Binary k -> binary_expr k (x 0) (x 1)
  | Op.Bias_add axis ->
      let r = Shape.rank n.shape in
      if axis = r - 1 then Printf.sprintf "%s + %s" (x 0) (x 1)
      else
        let view =
          String.concat ", "
            (List.init r (fun i -> if i = axis then "-1" else "1"))
        in
        Printf.sprintf "%s + %s.view(%s)" (x 0) (x 1) view
  | Op.Softmax axis -> Printf.sprintf "torch.softmax(%s, dim=%d)" (x 0) axis
  | Op.Softmax_bwd axis ->
      Printf.sprintf
        "%s * (%s - (%s * %s).sum(dim=%d, keepdim=True))" (x 1) (x 0) (x 0)
        (x 1) axis
  | Op.Layer_norm axis ->
      let norm_dims =
        String.concat ", "
          (List.init
             (Shape.rank n.shape - axis)
             (fun i -> string_of_int (Shape.dim n.shape (axis + i))))
      in
      Printf.sprintf
        "torch.nn.functional.layer_norm(%s, (%s,), weight=%s, bias=%s)" (x 0)
        norm_dims (x 1) (x 2)
  | Op.Layer_norm_bwd _ ->
      Printf.sprintf "%s * %s # layer_norm bwd surrogate" (x 0) (x 2)
  | Op.Batch_norm ->
      Printf.sprintf
        "%s * %s.view(1, -1, 1, 1) + %s.view(1, -1, 1, 1)" (x 0) (x 1) (x 2)
  | Op.Reduce (k, axes) ->
      let dims = String.concat ", " (List.map string_of_int axes) in
      let fn =
        match k with
        | Op.R_sum -> "sum"
        | Op.R_mean -> "mean"
        | Op.R_max -> "amax"
      in
      Printf.sprintf "%s.%s(dim=(%s,))" (x 0) fn dims
  | Op.Broadcast { dims; axes } ->
      let unsq =
        List.fold_left
          (fun acc a -> Printf.sprintf "%s.unsqueeze(%d)" acc a)
          (x 0) axes
      in
      Printf.sprintf "%s.expand%s" unsq (dims_tuple n.shape)
      |> fun s -> ignore dims; s
  | Op.Transpose perm ->
      Printf.sprintf "%s.permute(%s)" (x 0)
        (String.concat ", " (Array.to_list (Array.map string_of_int perm)))
  | Op.Reshape dims ->
      Printf.sprintf "%s.reshape(%s)" (x 0)
        (String.concat ", " (Array.to_list (Array.map string_of_int dims)))
  | Op.Slice { axis; lo; hi } ->
      Printf.sprintf "%s.narrow(%d, %d, %d)" (x 0) axis lo (hi - lo)
  | Op.Concat axis ->
      Printf.sprintf "torch.cat([%s], dim=%d)"
        (String.concat ", "
           (Array.to_list (Array.map (fun u -> var u) n.inputs)))
        axis
  | Op.Embedding ->
      Printf.sprintf "torch.nn.functional.embedding(%s, %s)" (x 1) (x 0)
  | Op.Embedding_bwd ->
      Printf.sprintf
        "torch.zeros_like(%s).index_add_(0, %s.reshape(-1), %s.reshape(-1, %d))"
        (x 2) (x 1) (x 0)
        (Shape.dim n.shape 1)
  | Op.Store | Op.Load -> assert false (* handled by the emitter *)

(** Free positions: after which schedule step each tensor can be dropped
    (weights and graph outputs are kept). *)
let free_after (g : Graph.t) (order : int array) =
  let pos = Hashtbl.create (Array.length order) in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) order;
  let last = Hashtbl.create (Array.length order) in
  Array.iter
    (fun v ->
      if not (Magis_ir.Op.is_weight (Graph.op g v)) then
        let f =
          List.fold_left
            (fun acc s ->
              match Hashtbl.find_opt pos s with
              | Some j -> max acc j
              | None -> acc)
            (Hashtbl.find pos v) (Graph.suc g v)
        in
        if Graph.suc g v <> [] then Hashtbl.replace last v f)
    order;
  (* invert: step -> tensors to free *)
  let frees = Array.make (Array.length order) [] in
  Hashtbl.iter (fun v f -> frees.(f) <- v :: frees.(f)) last;
  frees

(** Generate the Python module text. *)
let emit ?(module_doc = "generated by MAGIS") (g : Graph.t)
    ~(schedule : int list) : string =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let order = Array.of_list schedule in
  let frees = free_after g order in
  line "\"\"\"%s\"\"\"" module_doc;
  line "import torch";
  line "";
  line "COPY_STREAM = torch.cuda.Stream() if torch.cuda.is_available() else None";
  line "";
  line "def input_specs():";
  line "    \"\"\"node id -> (shape, dtype, kind) for every graph input\"\"\"";
  line "    return {";
  Graph.iter
    (fun n ->
      match n.op with
      | Op.Input kind ->
          line "        %d: (%s, %s, %S)," n.id (dims_tuple n.shape)
            (py_dtype (Shape.dtype n.shape))
            (Op.input_kind_name kind)
      | _ -> ())
    g;
  line "    }";
  line "";
  line "def run(inputs, device=\"cuda\"):";
  line "    \"\"\"execute one optimized step; returns the graph outputs\"\"\"";
  Array.iteri
    (fun step v ->
      let n = Graph.node g v in
      (match n.op with
      | Op.Store ->
          line "    with torch.cuda.stream(COPY_STREAM):";
          line "        %s = %s.to(\"cpu\", non_blocking=True)  # swap out"
            (var v) (var n.inputs.(0));
          line "    %s_ev = torch.cuda.Event(); %s_ev.record(COPY_STREAM)"
            (var v) (var v)
      | Op.Load ->
          let store = n.inputs.(0) in
          line "    %s_ev.wait()  # ensure the swap-out finished" (var store);
          line "    with torch.cuda.stream(COPY_STREAM):";
          line "        %s = %s.to(device, non_blocking=True)  # swap in"
            (var v) (var store);
          line "    torch.cuda.current_stream().wait_stream(COPY_STREAM)"
      | _ -> line "    %s = %s" (var v) (expr_of g n));
      List.iter (fun u -> line "    del %s  # dead after step %d" (var u) step)
        frees.(step))
    order;
  let outputs =
    List.filter (fun v -> not (Op.is_input (Graph.op g v))) (Graph.outputs g)
  in
  line "    return [%s]" (String.concat ", " (List.map var outputs));
  Buffer.contents buf

let emit_expanded cost ~title ~accounted_peak (g : Graph.t)
    (ftree : Magis_ftree.Ftree.t) ~(reschedule : Graph.t -> int list) :
    string * int =
  let expanded = Magis_ftree.Ftree.realize g ftree in
  let schedule = reschedule expanded in
  let peak = (Magis_cost.Simulator.run cost expanded schedule).peak_mem in
  let mb b = float_of_int b /. 1e6 in
  let module_doc =
    Printf.sprintf
      "%s\n\naccounted peak %.1f MB (%d bytes): the search's fission \
       accounting\nemitted peak %.1f MB (%d bytes): this program, simulated"
      title (mb accounted_peak) accounted_peak (mb peak) peak
  in
  (emit ~module_doc expanded ~schedule, peak)
