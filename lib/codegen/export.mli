(** Graph exporters: Graphviz dot and a stable line-based text program
    format.  Chrome traces of simulated executions come from
    {!Magis_obs.Timeline.chrome}. *)

open Magis_ir
module Int_set = Util.Int_set

(** Graphviz rendering; [highlight] nodes are filled. *)
val to_dot : ?highlight:Int_set.t -> ?name:string -> Graph.t -> string

(** One line per node in topological order:
    [%<id> = <op> <dtype>[dims] (<inputs>) "label"]. *)
val to_text : Graph.t -> string

(** Node counts by operator, for reports. *)
val summary : Graph.t -> string
