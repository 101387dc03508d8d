(* Reply checks, computed apart from the program: every figure is
   recomputed from the coefficients the benchmark generated and
   compared with the oracle. [Error] carries the kind of failure and a
   one-line reason. *)

open Inst

(* [Above_optimum]: an allocation that passes every other check but
   whose makespan lies above the oracle's optimum; [Wrong]: any other
   failed check *)
type error = Wrong of string | Above_optimum of string

let message = function Wrong s | Above_optimum s -> s
let ( let* ) = Result.bind
let rel_eq a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)
let fail fmt = Printf.ksprintf (fun s -> Error (Wrong s)) fmt

let field k j = match Obs.Json.member k j with Some v -> Ok v | None -> fail "missing %S" k
let num k j = let* v = field k j in match Obs.Json.num v with Some f -> Ok f | None -> fail "%S not a number" k
let str k j = let* v = field k j in match Obs.Json.str v with Some s -> Ok s | None -> fail "%S not a string" k

let int_array k j =
  let* v = field k j in
  match Obs.Json.arr v with
  | None -> fail "%S not an array" k
  | Some l -> (
    let ints = List.filter_map Obs.Json.int_ l in
    if List.length ints <> List.length l then fail "%S not integers" k else Ok (Array.of_list ints))

(* an ok allocation: fits the budget, respects [allowed], reports the
   makespan of its own point, reaches the oracle's optimum and carries
   a verified audit. Returns the makespan. *)
let allocation inst ~opt j =
  let* alloc = int_array "nodes_per_task" j in
  let k = Array.length inst.classes in
  if Array.length alloc <> k then fail "%d entries for %d classes" (Array.length alloc) k
  else
    let used = ref 0 in
    Array.iteri (fun ci c -> used := !used + (c.count * alloc.(ci))) inst.classes;
    let* () = if !used <= inst.nodes then Ok () else fail "uses %d of %d nodes" !used inst.nodes in
    let* () =
      match inst.allowed with
      | Some l when Array.exists (fun n -> not (List.mem n l)) alloc -> fail "size outside allowed list"
      | Some _ | None -> if Array.exists (fun n -> n < 1) alloc then fail "size below 1" else Ok ()
    in
    let* m = num "makespan" j in
    let* () =
      if rel_eq m (makespan inst alloc) then Ok ()
      else fail "makespan %.17g but its point gives %.17g" m (makespan inst alloc)
    in
    let* audit = str "audit" j in
    let* () = if String.starts_with ~prefix:"verified" audit then Ok () else fail "audit %S" audit in
    if rel_eq m opt then Ok m
    else
      let msg = Printf.sprintf "makespan %.17g, oracle optimum %.17g" m opt in
      if m > opt then Error (Above_optimum msg) else Error (Wrong msg)

(* a placement: every class in exactly one group, each group's memory
   knapsack respected, total = makespan + comm. Returns comm_cost_s. *)
let placement (p : Gen.place) j =
  let* pl = field "place" j in
  let* assignment = int_array "assignment" pl in
  let k = Array.length p.Gen.mem_gb in
  let* () = if Array.length assignment = k then Ok () else fail "placement covers %d of %d classes" (Array.length assignment) k in
  let* () =
    if Array.for_all (fun g -> g >= 0 && g < Gen.place_groups) assignment then Ok ()
    else fail "placement names a group outside 0..%d" (Gen.place_groups - 1)
  in
  let load = Array.make Gen.place_groups 0. in
  Array.iteri (fun t g -> load.(g) <- load.(g) +. p.Gen.mem_gb.(t)) assignment;
  let* () =
    if Array.for_all (fun l -> l <= Gen.group_capacity_gb) load then Ok ()
    else fail "placement overfills a group's memory"
  in
  let* ms = num "makespan_s" pl in
  let* comm = num "comm_cost_s" pl in
  let* total = num "total_s" pl in
  if rel_eq total (ms +. comm) then Ok comm else fail "total_s %.17g <> makespan_s + comm_cost_s" total

(* the whole reply to [req]; returns the plan cost of the answer and
   whether it was a resolve answered unchanged *)
let reply (req : Gen.request) line =
  match Obs.Json.parse line with
  | Error e -> fail "unparseable reply: %s" e
  | Ok j -> (
    let* outcome = str "outcome" j in
    if outcome <> "ok" then fail "outcome %S" outcome
    else
      match req with
      | Gen.Solve { inst; opt; place } -> (
        let* m = allocation inst ~opt j in
        match place with
        | None -> Ok (m, false)
        | Some p ->
          let* comm = placement p j in
          Ok (m +. comm, false))
      | Gen.Resolve { prev; updated; updated_opt; _ } -> (
        let* kind = str "resolve" j in
        match kind with
        | "unchanged" ->
          let* alloc = int_array "nodes_per_task" j in
          let* () = if alloc = prev then Ok () else fail "unchanged answer moved the incumbent" in
          let* m = num "makespan" j in
          let u = makespan updated prev in
          let* () = if rel_eq m u then Ok () else fail "unchanged makespan %.17g, incumbent gives %.17g" m u in
          let* cert = field "certificate" j in
          let* bound = num "bound" cert in
          let* gap = num "gap_rel" cert in
          let* () = if bound <= m then Ok () else fail "bound %.17g above makespan %.17g" bound m in
          let* () =
            if bound <= updated_opt *. (1. +. 1e-9) then Ok ()
            else fail "bound %.17g above the optimum %.17g" bound updated_opt
          in
          if gap <= 0.05 then Ok (m, true) else fail "unchanged with gap_rel %.17g > 0.05" gap
        | "resolved" ->
          let* m = allocation updated ~opt:updated_opt j in
          Ok (m, false)
        | other -> fail "resolve %S" other))
