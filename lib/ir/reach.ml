(** Ancestor and descendant closures (see the interface).

    One bit matrix over the positions of a topological order holds both
    closures.  An ancestor always sits before a node and a descendant
    after it, so row [i] keeps [anc] in its bits below [i] and [des] in
    its bits above [i].  The forward pass fills each row's low half from
    its operands' low halves; the backward pass fills the high half from
    its consumers' high halves.  Each pass touches only the words on its
    side of the diagonal. *)

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

let of_arrays ~order ~(nodes : Graph.node array) ~consumer_row ~consumers : t =
  let n = Array.length order in
  let pos = Array.make (Array.length nodes) (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let words = (n + word_bits - 1) / word_bits in
  let rows = Array.make (max 1 (n * words)) 0 in
  (* [row] is the start of the row being filled; the two absorb
     functions are allocated once, not once per row.  An edge seen
     twice (an operand read by two slots) sets the same bits twice. *)
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
    Array.iter absorb_anc nodes.(order.(i)).inputs
  done;
  for i = n - 1 downto 0 do
    row := i * words;
    let v = order.(i) in
    for k = consumer_row.(v) to consumer_row.(v + 1) - 1 do
      absorb_des consumers.(k)
    done
  done;
  { order; pos; words; rows }

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
