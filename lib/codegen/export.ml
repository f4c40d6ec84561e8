(** Graph exporters: Graphviz dot (for inspection) and a line-based
    tensor-program text format (stable and diffable, for reading an
    optimized graph). *)

open Magis_ir
module Int_set = Util.Int_set

(* ------------------------------------------------------------------ *)
(* Graphviz                                                            *)
(* ------------------------------------------------------------------ *)

(** Render to dot.  [highlight] nodes are filled (e.g. memory hot-spots
    or a fission region). *)
let to_dot ?(highlight = Int_set.empty) ?(name = "magis") (g : Graph.t) :
    string =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "digraph %s {" name;
  line "  rankdir=TB; node [shape=box, fontsize=10];";
  Graph.iter
    (fun n ->
      let fill =
        if Int_set.mem n.id highlight then ", style=filled, fillcolor=lightsalmon"
        else if Op.is_input n.op then ", style=filled, fillcolor=lightgray"
        else if Op.is_swap n.op then ", style=filled, fillcolor=lightblue"
        else ""
      in
      line "  n%d [label=\"%d: %s\\n%s\"%s];" n.id n.id (Op.name n.op)
        (Shape.to_string n.shape) fill)
    g;
  Graph.iter
    (fun n ->
      Array.iteri
        (fun slot u -> line "  n%d -> n%d [label=\"%d\", fontsize=8];" u n.id slot)
        n.inputs)
    g;
  line "}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Text program format                                                 *)
(* ------------------------------------------------------------------ *)

(** One line per node, in topological order:
    [%<id> = <op-name> [<dtype>[d0,d1,...]] (<input ids>) "label"]. *)
let to_text (g : Graph.t) : string =
  let buf = Buffer.create 2048 in
  List.iter
    (fun v ->
      let n = Graph.node g v in
      Buffer.add_string buf
        (Printf.sprintf "%%%d = %s %s (%s) %S\n" n.id (Op.name n.op)
           (Shape.to_string n.shape)
           (String.concat ","
              (Array.to_list (Array.map string_of_int n.inputs)))
           n.label))
    (Graph.topo_order g);
  Buffer.contents buf

(** Summary statistics block, for reports. *)
let summary (g : Graph.t) : string =
  let ops = Hashtbl.create 16 in
  Graph.iter
    (fun n ->
      let key = Op.name n.op in
      Hashtbl.replace ops key (1 + Option.value ~default:0 (Hashtbl.find_opt ops key)))
    g;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) ops []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  String.concat "\n"
    (Printf.sprintf "nodes: %d, weights: %d bytes" (Graph.n_nodes g)
       (Graph.weight_bytes g)
    :: List.map (fun (k, v) -> Printf.sprintf "  %4d x %s" v k) rows)
