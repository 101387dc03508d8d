(* Summaries computed from raw samples, never from histogram buckets. *)

(* a growable float buffer; the samples live outside the OCaml heap so
   that keeping them does not show up in the program's peak heap *)
type samples = { mutable data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t; mutable len : int }

let create () = { data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 4096; len = 0 }

let add s x =
  let cap = Bigarray.Array1.dim s.data in
  if s.len = cap then begin
    let bigger = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (2 * cap) in
    Bigarray.Array1.blit s.data (Bigarray.Array1.sub bigger 0 cap);
    s.data <- bigger
  end;
  Bigarray.Array1.unsafe_set s.data s.len x;
  s.len <- s.len + 1

let to_sorted s =
  let a = Array.init s.len (Bigarray.Array1.get s.data) in
  Array.sort Float.compare a;
  a

(* nearest-rank quantile of a sorted array; nan when empty *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median s = quantile (to_sorted s) 0.5

(* the sorted samples from index [from], [len] of them *)
let sorted_range s ~from ~len =
  let a = Array.init len (fun i -> Bigarray.Array1.get s.data (from + i)) in
  Array.sort Float.compare a;
  a

(* for samples laid out as whole units of [n] (sample i of unit u at
   u*n + i): the median over units of each position, sorted *)
let position_medians s n =
  let units = s.len / n in
  let of_position i =
    let a = Array.init units (fun u -> Bigarray.Array1.get s.data ((u * n) + i)) in
    Array.sort Float.compare a;
    quantile a 0.5
  in
  let a = Array.init n of_position in
  Array.sort Float.compare a;
  a

(* nearest-rank median of a list *)
let median_of l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile a 0.5

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
