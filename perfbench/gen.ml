(* Request streams: fixed catalogues sent in a seeded order. Every
   input is drawn from the stdlib's Random.State, so that the inputs do
   not depend on the program's own generators.

   Each instance is scaled so that its optimal makespan lands in
   [9, 11] s: multiplying a, b and d by one factor scales every T_c by
   that factor and leaves the optimal allocation unchanged, and the
   narrow band keeps the mean plan cost comparable across seeds. *)

include Inst

type place = {
  mem_gb : float array;
  comm_mb : float array array;  (** symmetric, zero diagonal *)
}

(* fixed shape of every place section: a 4x4x4 torus in 8 compact
   groups of 8 nodes, 2 GB per node (16 GB per group) *)
let torus = (4, 4, 4)
let place_groups = 8
let mem_per_node_gb = 2.0
let hop_cost_s_per_mb = 0.005
let group_capacity_gb = mem_per_node_gb *. 8.

type request =
  | Solve of { inst : inst; opt : float; place : place option }
      (** [opt] is the oracle's optimal makespan *)
  | Resolve of {
      inst : inst;  (** the model as sent: the laws before the samples *)
      prev : int array;  (** an optimal allocation of [inst] *)
      observe : (string * (float * float) array) list;
      updated : inst;  (** the laws after the server folds [observe] in *)
      updated_opt : float;  (** oracle optimum under [updated] *)
    }

(* a request line without its id: [line_body] follows ["{\"id\":N,"].
   [known_fault] marks the one catalogue entry the program is known to
   answer above the exact optimum (see [drift_known_fault]). *)
type item = { req : request; body : string; known_fault : bool }

let uniform st lo hi = lo +. Random.State.float st (hi -. lo)
let log_uniform st lo hi = exp (uniform st (log lo) (log hi))

(* one class with an interior optimum: the scalable term dominates at
   small n, the linear overhead at large n *)
let gen_class st i =
  {
    name = Printf.sprintf "c%d" i;
    count = 1 + Random.State.int st 4;
    a = log_uniform st 20. 2000.;
    b = log_uniform st 1e-4 1e-2;
    c = uniform st 0.6 1.0;
    d = uniform st 0.05 2.;
  }

(* a sweet-spot list: a few distinct sizes spread geometrically over
   [1, nodes/2], always including one small enough that every class
   fits at once *)
let gen_allowed st ~nodes classes =
  let total = Array.fold_left (fun acc c -> acc + c.count) 0 classes in
  let small = max 1 (nodes / total / 2) in
  let hi = float_of_int (max 2 (nodes / 2)) in
  let values =
    List.init (4 + Random.State.int st 4) (fun _ -> int_of_float (log_uniform st 1. hi))
  in
  List.sort_uniq compare (small :: values)

let scale_inst s inst =
  {
    inst with
    classes = Array.map (fun c -> { c with a = c.a *. s; b = c.b *. s; d = c.d *. s }) inst.classes;
  }

(* draw an instance and scale it into the [9, 11] s band; returns it
   with its exact optimum *)
let gen_inst st ~k ~lo ~hi ~sweet =
  let nodes = int_of_float (log_uniform st lo hi) in
  let classes = Array.init k (gen_class st) in
  let raw = { classes; nodes; allowed = (if sweet then Some (gen_allowed st ~nodes classes) else None) } in
  let target = uniform st 9. 11. in
  match Oracle.optimum raw with
  | None -> invalid_arg "Gen.gen_inst: infeasible instance"
  | Some (opt, _) -> (
    let inst = scale_inst (target /. opt) raw in
    match Oracle.optimum inst with
    | Some (opt, _) -> (inst, opt)
    | None -> invalid_arg "Gen.gen_inst: infeasible instance")

let gen_place st k =
  let mem_gb = Array.init k (fun _ -> uniform st 1. 8.) in
  let comm_mb = Array.make_matrix k k 0. in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let v = uniform st 0. 200. in
      comm_mb.(i).(j) <- v;
      comm_mb.(j).(i) <- v
    done
  done;
  { mem_gb; comm_mb }

(* ---------- wire encoding ---------- *)

let num f = Printf.sprintf "%.17g" f
let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"
let nums a = "[" ^ String.concat "," (Array.to_list (Array.map num a)) ^ "]"

(* the inline model: name,count,a,b,c,d per line, newlines escaped *)
let model_csv inst =
  String.concat "\\n"
    (Array.to_list
       (Array.map
          (fun c -> Printf.sprintf "%s,%d,%s,%s,%s,%s" c.name c.count (num c.a) (num c.b) (num c.c) (num c.d))
          inst.classes))

let model_fields inst =
  Printf.sprintf "\"model_csv\":\"%s\",\"nodes\":%d%s" (model_csv inst) inst.nodes
    (match inst.allowed with None -> "" | Some l -> ",\"allowed\":" ^ ints l)

let place_field p =
  let x, y, z = torus in
  Printf.sprintf
    ",\"place\":{\"topology\":[%d,%d,%d],\"groups\":%d,\"mem_per_node_gb\":%s,\"mem_gb\":%s,\"comm_mb\":[%s],\"hop_cost_s_per_mb\":%s}"
    x y z place_groups (num mem_per_node_gb) (nums p.mem_gb)
    (String.concat "," (Array.to_list (Array.map nums p.comm_mb)))
    (num hop_cost_s_per_mb)

let body_of = function
  | Solve { inst; place = None; _ } -> model_fields inst ^ "}"
  | Solve { inst; place = Some p; _ } -> "\"v\":2," ^ model_fields inst ^ place_field p ^ "}"
  | Resolve { inst; prev; observe; _ } ->
    let obs =
      String.concat ","
        (List.map
           (fun (name, samples) ->
             Printf.sprintf "{\"class\":\"%s\",\"samples\":[%s]}" name
               (String.concat ","
                  (Array.to_list
                     (Array.map (fun (n, y) -> Printf.sprintf "[%s,%s]" (num n) (num y)) samples))))
           observe)
    in
    Printf.sprintf "\"v\":2,\"op\":\"resolve\",%s,\"prev\":%s,\"observe\":[%s]}" (model_fields inst)
      (ints (Array.to_list prev)) obs

let item req = { req; body = body_of req; known_fault = false }
let line ~id it = Printf.sprintf "{\"id\":%d,%s" id it.body

(* ---------- resolves ---------- *)

(* the law the server holds after folding [samples] into [c]: the same
   public calls, with the same fixed generator seed, as the serve
   layer's resolve path *)
let online_update c samples =
  let law = Scaling_law.make ~a:c.a ~b:c.b ~c:c.c ~d:c.d in
  let ol = Hslb.Fitting.Online.of_law ~rng:(Numerics.Rng.create 42) law in
  Hslb.Fitting.Online.observe_all ol samples;
  let l = Hslb.Fitting.Online.law ol in
  { c with a = l.Scaling_law.a; b = l.b; c = l.c; d = l.d }

(* a resolve: a fresh 3-4 class instance, its optimal allocation as the
   incumbent, and four samples around the incumbent for one class.
   Within noise, the samples follow the sent law to 1% and the draw is
   kept only if the incumbent stays within 4% of the relaxation bound
   under the updated law, so the server certifies it unchanged. A
   drifted resolve slows the first class by half again and is kept only
   beyond 8%, so the server re-solves it. The margins around the
   server's 5% keep the outcome independent of rounding in the bound. *)
let rec gen_resolve st ~k ~drift =
  let inst, _ = gen_inst st ~k ~lo:256. ~hi:1024. ~sweet:false in
  let prev = match Oracle.optimum inst with Some (_, alloc) -> alloc | None -> assert false in
  let ci = if drift then 0 else Random.State.int st k in
  let c = inst.classes.(ci) in
  let factor = if drift then 1.5 else 1. in
  let samples =
    Array.map
      (fun m ->
        let n = max 1 (int_of_float (float_of_int prev.(ci) *. m)) in
        (float_of_int n, time c n *. factor *. (1. +. uniform st (-0.01) 0.01)))
      [| 0.5; 0.8; 1.25; 2. |]
  in
  let observe = [ (c.name, samples) ] in
  let updated =
    { inst with classes = Array.mapi (fun i c -> if i = ci then online_update c samples else c) inst.classes }
  in
  let bound = Oracle.relaxation updated in
  let gap = (makespan updated prev -. bound) /. bound in
  if (drift && gap < 0.08) || ((not drift) && gap > 0.04) then gen_resolve st ~k ~drift
  else
    let updated_opt =
      match Oracle.optimum updated with Some (o, _) -> o | None -> invalid_arg "Gen.gen_resolve"
    in
    item (Resolve { inst; prev; observe; updated; updated_opt })

(* ---------- catalogues ---------- *)

(* Everything the solver is asked to solve comes from fixed catalogues:
   entry j of a catalogue is a pure function of (catalogue_seed, its
   tag, j). A run's seed sets the order in which the entries go out,
   and a run sends every entry equally often: solve cost is chaotic in
   the coefficients (perturbing them by 0.1% moves a round's NLP
   iterations by about 10%), so runs that sampled different entries
   would not be comparable. *)
let catalogue_seed = 2012

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [it] with every class name suffixed by [tag]: the server's cache key
   (Alloc_model.fingerprint) spells out the names, so the copy misses
   the cache, while the solver does exactly the same work, since names
   only label classes (solver counts compared equal on every solve and
   drifted entry under three tags). The request kept for the checks is
   the original: no check reads a name. *)
let tagged tag it =
  let rename name = Printf.sprintf "%s-%06d" name tag in
  let inst (i : inst) = { i with classes = Array.map (fun c -> { c with name = rename c.name }) i.classes } in
  let req =
    match it.req with
    | Solve s -> Solve { s with inst = inst s.inst }
    | Resolve r ->
      Resolve
        {
          r with
          inst = inst r.inst;
          updated = inst r.updated;
          observe = List.map (fun (name, samples) -> (rename name, samples)) r.observe;
        }
  in
  { it with body = body_of req }

(* solves: 16 strata of 3-6 classes x {no list, sweet spots} x
   {64-256, 256-1024 nodes} *)
let strata = 16

let solve_entry s j =
  let k = 3 + (s mod 4) and sweet = s / 4 mod 2 = 1 in
  let lo, hi = if s < 8 then (64., 256.) else (256., 1024.) in
  let inst, opt = gen_inst (Random.State.make [| catalogue_seed; s; j |]) ~k ~lo ~hi ~sweet in
  item (Solve { inst; opt; place = None })

(* placed solves: 4-6 classes on the fixed torus *)
let place_entries = 4

let place_entry j =
  let st = Random.State.make [| catalogue_seed; 1000; j |] in
  let k = 4 + (j mod 3) in
  let inst, opt = gen_inst st ~k ~lo:128. ~hi:512. ~sweet:false in
  item (Solve { inst; opt; place = Some (gen_place st k) })

(* resolves within noise, which the server answers unchanged *)
let within_entries = 48

let within_entry j =
  gen_resolve (Random.State.make [| catalogue_seed; 3000; j |]) ~k:(3 + (j mod 2)) ~drift:false

(* Minlp.Oa, the server's default route, re-solves drifted entry 112
   to a makespan above the exact optimum, with status optimal and an
   audit verdict "verified (oa)". The entry does not depend on the
   run's seed and goes out once per unit, so its reply is counted as a
   failed request, the same share of every run; any other wrong
   answer, or a wrong answer of another kind to this entry, still
   makes the run incorrect. *)
let drift_known_fault = 112

(* drifted resolves, which re-solve: the first 15 entries of the
   catalogue, and entry 112, kept because the program answers it
   wrongly *)
let drift_ids = Array.append (Array.init 15 Fun.id) [| drift_known_fault |]

let drift_entry j =
  let it = gen_resolve (Random.State.make [| catalogue_seed; 2000; j |]) ~k:(3 + (j mod 2)) ~drift:true in
  { it with known_fault = j = drift_known_fault }

(* ---------- workloads ---------- *)

(* A workload is one unit of requests, sent again and again; a [true]
   slot is sent [tagged] with the unit's number, so that it misses the
   server's cache every time while every unit does the same work. *)
type slot = item * bool

(* solve-cold: the first entry of every stratum, in a seeded order,
   each renamed per unit, so every request misses the cache and no
   single solve dominates *)
let cold_unit st = Array.map (fun s -> (solve_entry s 0, true)) (shuffle st (Array.init strata Fun.id))

(* solve-hot: the same 16 instances, solved during set-up and cached *)
let hot_set st = Array.to_list (Array.map fst (cold_unit st))

(* resolve-place: 8 rounds of 6 resolves within noise, 2 drifted
   resolves (renamed per unit, so each re-solves) and each of the 4
   placed solves, whose allocations are cached during set-up; the
   seed sets the order of the resolves. Returns the unit and the placed
   solves. *)
let resolve_place_unit st =
  let within = shuffle st (Array.init within_entries within_entry) in
  let drifts = shuffle st (Array.map drift_entry drift_ids) in
  let places = Array.init place_entries place_entry in
  let unit =
    List.init (Array.length drifts / 2) (fun r ->
        let w i = (within.((6 * r) + i), false) and d i = (drifts.((2 * r) + i), true) in
        let p i = (places.(i), false) in
        [ w 0; w 1; p 0; w 2; d 0; p 1; w 3; w 4; p 2; w 5; d 1; p 3 ])
  in
  (Array.of_list (List.concat unit), Array.to_list places)
