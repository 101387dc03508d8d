(* An exact Min_max oracle, independent of the program's solvers.

   The optimum makespan is one of the finitely many values T_c(n), and
   a target tau is feasible iff sum_c count_c * m_c(tau) <= N, where
   m_c(tau) is the smallest allowed n with T_c(n) <= tau. Feasibility
   is monotone in tau, so a binary search over the sorted candidates
   finds the optimum exactly. *)

open Inst

let sizes inst =
  match inst.allowed with
  | Some l -> Array.of_list (List.filter (fun n -> n >= 1 && n <= inst.nodes) l)
  | None -> Array.init inst.nodes (fun i -> i + 1)

(* [optimum inst] — the least achievable makespan and an allocation
   reaching it (m_c at the optimum), or [None] when nothing fits *)
let optimum inst =
  let ns = sizes inst in
  let times = Array.map (fun c -> Array.map (time c) ns) inst.classes in
  (* index of m_c(tau) in [ns], or -1 *)
  let smallest ci tau =
    let t = times.(ci) in
    let rec first i = if i >= Array.length t then -1 else if t.(i) <= tau then i else first (i + 1) in
    first 0
  in
  let feasible tau =
    let used = ref 0 and ok = ref true in
    Array.iteri
      (fun ci c ->
        match smallest ci tau with
        | -1 -> ok := false
        | i -> used := !used + (c.count * ns.(i)))
      inst.classes;
    !ok && !used <= inst.nodes
  in
  let cands = Array.concat (Array.to_list times) in
  Array.sort Float.compare cands;
  let n = Array.length cands in
  if n = 0 || not (feasible cands.(n - 1)) then None
  else begin
    (* invariant: cands.(hi) is feasible, everything below lo is not *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible cands.(mid) then hi := mid else lo := mid + 1
    done;
    let tau = cands.(!hi) in
    Some (tau, Array.mapi (fun ci _ -> ns.(smallest ci tau)) inst.classes)
  end

(* [relaxation inst] — the continuous min-max bound: drop integrality
   and any allowed list, keep n in [1, N] and the budget. The smallest
   tau with sum_c count_c * x_c(tau) <= N, where x_c(tau) is the least
   real x >= 1 with T_c(x) <= tau; bisection throughout (each T_c is
   convex). Used only to draw resolves whose certificate outcome is
   clear: certified well inside, or rejected well outside, epsilon. *)
let relaxation inst =
  let t c x = (c.a /. (x ** c.c)) +. (c.b *. x) +. c.d in
  let hi_n = float_of_int inst.nodes in
  let bisect f lo hi =
    let lo = ref lo and hi = ref hi in
    for _ = 1 to 80 do
      let mid = 0.5 *. (!lo +. !hi) in
      if f mid then hi := mid else lo := mid
    done;
    !hi
  in
  (* the minimiser: where the slope turns non-negative *)
  let argmin c =
    let slope x = (-.c.c *. c.a /. (x ** (c.c +. 1.))) +. c.b in
    if slope hi_n <= 0. then hi_n else if slope 1. >= 0. then 1. else bisect (fun x -> slope x >= 0.) 1. hi_n
  in
  let stars = Array.map argmin inst.classes in
  let need tau =
    let sum = ref 0. in
    Array.iteri
      (fun ci c ->
        let x =
          if t c 1. <= tau then 1.
          else if t c stars.(ci) > tau then infinity
          else bisect (fun x -> t c x <= tau) 1. stars.(ci)
        in
        sum := !sum +. (float_of_int c.count *. x))
      inst.classes;
    !sum
  in
  let lo = Array.fold_left Float.max neg_infinity (Array.mapi (fun ci c -> t c stars.(ci)) inst.classes) in
  let hi = Array.fold_left Float.max neg_infinity (Array.map (fun c -> t c 1.) inst.classes) in
  if need lo <= hi_n then lo else bisect (fun tau -> need tau <= hi_n) lo hi
