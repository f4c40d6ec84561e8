(** Schedule-independent liveness (see the interface).

    Reachability is kept as one ancestor and one descendant bitset per
    node, built by a single pass in topological order (ancestors) and
    its reverse (descendants): [anc v = ∪ (anc p ∪ {p})] over operands
    [p].  Each set costs [n/64] words, so the whole analysis is
    [O(V·E/64)] words of bit-ops — a few microseconds at model-zoo
    scale — and every query below is a constant-time bit test. *)

open Magis_ir
open Magis_cost

type t = {
  g : Graph.t;
  order : int array;  (** slot -> node id, in topological order *)
  index : (int, int) Hashtbl.t;  (** node id -> dense slot *)
  anc : Bytes.t array;  (** per slot: ancestor bitset (over slots) *)
  des : Bytes.t array;  (** per slot: descendant bitset *)
  n_anc : int array;
  n_des : int array;
  sizes : int array;  (** device bytes per slot *)
  is_weight : bool array;
  is_sink : bool array;  (** graph output: no consumers, not an input *)
  weight_bytes : int;
  pinned_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Bitsets                                                             *)
(* ------------------------------------------------------------------ *)

let bitset n = Bytes.make ((n + 7) / 8) '\000'

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

let bit_union ~into src =
  for k = 0 to Bytes.length into - 1 do
    Bytes.unsafe_set into k
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get into k)
         lor Char.code (Bytes.unsafe_get src k)))
  done

let popcount_byte =
  let tbl = Array.init 256 (fun i ->
      let rec go i acc = if i = 0 then acc else go (i lsr 1) (acc + (i land 1)) in
      go i 0)
  in
  fun c -> tbl.(Char.code c)

let bit_count b =
  let acc = ref 0 in
  Bytes.iter (fun c -> acc := !acc + popcount_byte c) b;
  !acc

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(** Size/weight/pinned side tables, per slot. *)
let side_tables ~size_of (g : Graph.t) (order : int array) =
  let n = Array.length order in
  let sizes = Array.make n 0 in
  let is_weight = Array.make n false in
  let is_sink = Array.make n false in
  let weight_bytes = ref 0 and pinned_bytes = ref 0 in
  for i = 0 to n - 1 do
    let v = order.(i) in
    sizes.(i) <- size_of v;
    is_weight.(i) <- Op.is_weight (Graph.op g v);
    is_sink.(i) <-
      Graph.out_degree g v = 0 && not (Op.is_input (Graph.op g v));
    if is_weight.(i) then weight_bytes := !weight_bytes + sizes.(i);
    if is_weight.(i) || is_sink.(i) then
      pinned_bytes := !pinned_bytes + sizes.(i)
  done;
  (sizes, is_weight, is_sink, !weight_bytes, !pinned_bytes)

let compute ?size_of (g : Graph.t) : t =
  let size_of =
    match size_of with Some f -> f | None -> Lifetime.default_size g
  in
  let order = Array.of_list (Graph.topo_order g) in
  let n = Array.length order in
  let index = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace index v i) order;
  let idx v = Hashtbl.find index v in
  let anc = Array.init n (fun _ -> bitset n) in
  let des = Array.init n (fun _ -> bitset n) in
  (* ancestors: forward pass in topological order *)
  for i = 0 to n - 1 do
    List.iter
      (fun p ->
        let pi = idx p in
        bit_union ~into:anc.(i) anc.(pi);
        bit_set anc.(i) pi)
      (Graph.pre g order.(i))
  done;
  (* descendants: backward pass *)
  for i = n - 1 downto 0 do
    List.iter
      (fun s ->
        let si = idx s in
        bit_union ~into:des.(i) des.(si);
        bit_set des.(i) si)
      (Graph.suc g order.(i))
  done;
  let sizes, is_weight, is_sink, weight_bytes, pinned_bytes =
    side_tables ~size_of g order
  in
  {
    g;
    order;
    index;
    anc;
    des;
    n_anc = Array.map bit_count anc;
    n_des = Array.map bit_count des;
    sizes;
    is_weight;
    is_sink;
    weight_bytes;
    pinned_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let graph t = t.g
let length t = Array.length t.order
let idx t v = Hashtbl.find t.index v
let size t v = t.sizes.(idx t v)
let weight_bytes t = t.weight_bytes
let pinned_bytes t = t.pinned_bytes

let pinned t v =
  let i = idx t v in
  t.is_weight.(i) || t.is_sink.(i)

let must_precede t u v = bit_get t.anc.(idx t v) (idx t u)
let earliest t v = t.n_anc.(idx t v)
let latest t v = length t - 1 - t.n_des.(idx t v)
let mobility t v = latest t v - earliest t v

let envelope t v =
  let lo = earliest t v in
  let hi =
    if pinned t v then length t - 1
    else
      List.fold_left (fun acc c -> max acc (latest t c)) lo (Graph.suc t.g v)
  in
  (lo, hi)

(** The cut at [v] (see the interface): weights, [v]'s own output, and
    ancestors [w] with a consumer forced at-or-after [v].  Every term is
    live at [v]'s step in every schedule — the bound is admissible. *)
let always_live_bytes t v =
  let i = idx t v in
  let acc = ref t.weight_bytes in
  if not t.is_weight.(i) then acc := !acc + t.sizes.(i);
  let anc_v = t.anc.(i) and des_v = t.des.(i) in
  for w = 0 to Array.length t.order - 1 do
    if (not t.is_weight.(w)) && bit_get anc_v w then
      let held =
        List.exists
          (fun c ->
            let ci = idx t c in
            ci = i || bit_get des_v ci)
          (Graph.suc t.g t.order.(w))
      in
      if held then acc := !acc + t.sizes.(w)
  done;
  !acc

let fold f t init = Array.fold_left (fun acc v -> f v acc) init t.order
