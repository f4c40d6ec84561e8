(** Small shared utilities for the IR layer: integer maps/sets, a
    union-find over [0 .. n-1], an int min-heap, and a deterministic
    64-bit mixing hash used by {!Wl_hash}. *)

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

module Union_find = struct
  type t = int array

  let create n = Array.init n Fun.id

  let rec find t i =
    let p = t.(i) in
    if p = i then i
    else begin
      t.(i) <- t.(p);
      find t t.(i)
    end

  let union t a b =
    let a = find t a and b = find t b in
    if a < b then t.(b) <- a else if b < a then t.(a) <- b
end

module Int_heap = struct
  type t = { heap : int array; mutable size : int }

  let create n = { heap = Array.make (max n 1) 0; size = 0 }
  let is_empty t = t.size = 0

  let push t v =
    let heap = t.heap in
    let i = ref t.size in
    t.size <- t.size + 1;
    while !i > 0 && heap.((!i - 1) / 2) > v do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- v

  let pop t =
    let heap = t.heap in
    let top = heap.(0) in
    t.size <- t.size - 1;
    let size = t.size in
    let last = heap.(size) in
    let i = ref 0 and continue_ = ref (size > 0) in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= size then continue_ := false
      else begin
        let c = if l + 1 < size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue_ := false
      end
    done;
    if size > 0 then heap.(!i) <- last;
    top
end

(* SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.  We use it
   instead of [Hashtbl.hash] because we need the full 64-bit range and a
   stable definition across OCaml versions.  It and [hash_combine] are
   inlined, so a caller's loop keeps its 64-bit values unboxed. *)
let[@inline] mix64 (x : int64) : int64 =
  let open Int64 in
  let x = logxor x (shift_right_logical x 30) in
  let x = mul x 0xbf58476d1ce4e5b9L in
  let x = logxor x (shift_right_logical x 27) in
  let x = mul x 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let[@inline] hash_combine (h : int64) (x : int64) : int64 =
  mix64 (Int64.add (Int64.mul h 0x100000001b3L) x)

let hash_string (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := hash_combine !h (Int64.of_int (Char.code c))) s;
  !h

let hash_int_seed = 0x9e3779b97f4a7c15L

let hash_int_list (xs : int list) : int64 =
  List.fold_left (fun h x -> hash_combine h (Int64.of_int x)) hash_int_seed xs

let hash_int_array (xs : int array) : int64 =
  Array.fold_left (fun h x -> hash_combine h (Int64.of_int x)) hash_int_seed xs

(** [take n xs] is the first [n] elements of [xs] (all of them if shorter). *)
let rec take n = function
  | [] -> []
  | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs

(** [drop n xs] is [xs] without its first [n] elements. *)
let rec drop n = function
  | [] -> []
  | _ :: xs as l -> if n <= 0 then l else drop (n - 1) xs

let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
