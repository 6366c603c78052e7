(* Order statistics for every figure the benchmark reports, plus a
   growable float buffer for per-request samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile of a sorted array, p in [0, 1] *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median_sorted a =
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs = median_sorted (sorted xs)

(* quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method) *)
let quartiles_sorted a =
  let ld = Array.length a in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* samples recorded from one thread at a time *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let get b k = b.a.(k)

  let sorted_concat bs =
    let a = Array.concat (List.map (fun b -> Array.sub b.a 0 b.n) bs) in
    Array.sort Float.compare a;
    a
end
