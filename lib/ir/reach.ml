(** Ancestor and descendant closures (see the interface).

    One bit matrix over the positions of a topological order holds both
    closures.  An ancestor always sits before a node and a descendant
    after it, so row [i] keeps [anc] in its bits below [i] and [des] in
    its bits above [i].  The forward pass fills each row's low half from
    its operands' low halves; the backward pass fills the high half from
    its consumers' high halves.  Each pass touches only the words on its
    side of the diagonal. *)

module Int_set = Util.Int_set

(* bits per word: every bit of a 63-bit OCaml int *)
let word_bits = 63

type t = {
  order : int array;  (** position -> node id *)
  pos : int array;  (** node id -> position; [-1] for absent ids *)
  words : int;  (** words per row *)
  rows : int array;  (** row [i] is words [i*words, (i+1)*words) *)
}

(* set bits of a 63-bit word, by summing bit fields in parallel: pairs,
   nibbles, bytes, then all bytes into the top one.  The top field is
   only bit 62 wide, and the product is exact on the 63 bits kept. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* [pos.(v)] for the nodes of [order] when [order] lists every node of
   [g] exactly once, each after its operands; [None] otherwise *)
let positions (g : Graph.t) (order : int array) =
  let pos = Array.make (Graph.id_bound g) (-1) in
  let n = Array.length order in
  let ok = ref (n = Graph.n_nodes g) in
  let i = ref 0 in
  while !ok && !i < n do
    let v = order.(!i) in
    if Graph.mem g v && pos.(v) < 0 then begin
      pos.(v) <- !i;
      incr i
    end
    else ok := false
  done;
  i := 0;
  while !ok && !i < n do
    Array.iter
      (fun p -> if pos.(p) >= !i then ok := false)
      (Graph.node g order.(!i)).inputs;
    incr i
  done;
  if !ok then Some pos else None

(* Both closures over [order] ([pos] its inverse): [inputs v] are [v]'s
   operands and [iter_consumers f v] applies [f] to its consumers;
   an edge seen twice sets the same bits twice. *)
let closures order pos ~inputs ~iter_consumers : t =
  let n = Array.length order in
  let words = (n + word_bits - 1) / word_bits in
  let rows = Array.make (max 1 (n * words)) 0 in
  (* [row] is the start of the row being filled; the two absorb
     functions are allocated once, not once per row *)
  let row = ref 0 in
  let set_bit j =
    let k = !row + (j / word_bits) in
    rows.(k) <- rows.(k) lor (1 lsl (j mod word_bits))
  in
  (* ancestors: an operand at [j] contributes its bits below [j] *)
  let absorb_anc p =
    let j = pos.(p) in
    let ri = !row and rj = j * words in
    for k = 0 to j / word_bits do
      rows.(ri + k) <- rows.(ri + k) lor rows.(rj + k)
    done;
    set_bit j
  in
  (* descendants: a consumer at [j] contributes its bits above [j] *)
  let absorb_des s =
    let j = pos.(s) in
    let ri = !row and rj = j * words and k0 = j / word_bits in
    let above = -1 lsl ((j mod word_bits) + 1) in
    rows.(ri + k0) <- rows.(ri + k0) lor (rows.(rj + k0) land above);
    for k = k0 + 1 to words - 1 do
      rows.(ri + k) <- rows.(ri + k) lor rows.(rj + k)
    done;
    set_bit j
  in
  for i = 0 to n - 1 do
    row := i * words;
    Array.iter absorb_anc (inputs order.(i))
  done;
  for i = n - 1 downto 0 do
    row := i * words;
    iter_consumers absorb_des order.(i)
  done;
  { order; pos; words; rows }

let compute ?order (g : Graph.t) : t =
  let order, pos =
    match Option.map (fun o -> (o, positions g o)) order with
    | Some (o, Some p) -> (o, p)
    | _ ->
        let order = Array.of_list (Graph.topo_order g) in
        (order, Option.get (positions g order))
  in
  closures order pos
    ~inputs:(fun v -> (Graph.node g v).inputs)
    ~iter_consumers:(fun f v -> Int_set.iter f (Graph.succ_set g v))

let of_arrays ~order ~(nodes : Graph.node array) ~consumer_row ~consumers : t =
  let pos = Array.make (Array.length nodes) (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  closures order pos
    ~inputs:(fun v -> nodes.(v).inputs)
    ~iter_consumers:(fun f v ->
      for k = consumer_row.(v) to consumer_row.(v + 1) - 1 do
        f consumers.(k)
      done)

let length t = Array.length t.order
let order t = t.order

let n_anc t v =
  let i = t.pos.(v) in
  let ri = i * t.words and k0 = i / word_bits in
  let below = (1 lsl (i mod word_bits)) - 1 in
  let c = ref (popcount (t.rows.(ri + k0) land below)) in
  for k = 0 to k0 - 1 do
    c := !c + popcount t.rows.(ri + k)
  done;
  !c

let n_des t v =
  let i = t.pos.(v) in
  let ri = i * t.words and k0 = i / word_bits in
  let above = -1 lsl ((i mod word_bits) + 1) in
  let c = ref (popcount (t.rows.(ri + k0) land above)) in
  for k = k0 + 1 to t.words - 1 do
    c := !c + popcount t.rows.(ri + k)
  done;
  !c

let precedes t u v =
  let i = t.pos.(u) and j = t.pos.(v) in
  i < j
  && t.rows.((j * t.words) + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0

let iter_anc f t v =
  let i = t.pos.(v) in
  let ri = i * t.words in
  for k = 0 to i / word_bits do
    let w = ref t.rows.(ri + k) and j = ref (k * word_bits) in
    while !w <> 0 && !j < i do
      if !w land 1 <> 0 then f t.order.(!j);
      w := !w lsr 1;
      incr j
    done
  done
