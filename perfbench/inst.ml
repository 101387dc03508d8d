(* Allocation instances as the benchmark generates them: one law
   T_c(n) = a/n^c + b*n + d per task class. *)

type cls = { name : string; count : int; a : float; b : float; c : float; d : float }

type inst = { classes : cls array; nodes : int; allowed : int list option }

(* the same arithmetic as Machine.Scaling_law.eval, so the recomputed
   makespan is bit-comparable *)
let time c n =
  let n = float_of_int n in
  (c.a /. (n ** c.c)) +. (c.b *. n) +. c.d

(* max_c T_c(n_c) of an allocation *)
let makespan inst alloc =
  let m = ref 0. in
  Array.iteri (fun ci c -> m := Float.max !m (time c alloc.(ci))) inst.classes;
  !m
