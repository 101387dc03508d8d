(* The three workloads: set-up, then a measured closed loop against the
   in-process server, then the reply checks.

   A run repeats one unit of requests that does the same work every
   time (solve-hot: a slice of whole rounds over its cached set) until
   [seconds] of measured time have passed, and reports the median over
   units, so that a slow or fast spell of the host shorter than half
   the run does not move the figures. *)

let now = Unix.gettimeofday

type prepared = {
  h : Harness.t;
  unit_ : Gen.slot array;  (** one unit, in sending order *)
  prefill : Gen.item list;  (** answered during set-up; cached from then on; solve-hot's set *)
  expected : string array;  (** solve-hot: the stable part of each first answer *)
  setup_errors : string list;
}

type result = {
  attempted : int;
  failed : int;  (** replies whose outcome was not ok, and the known fault's *)
  wrong : string list;  (** ok replies that failed a check, newest first *)
  throughput : float;  (** answered per second, median over units *)
  p50 : float;  (** ms *)
  p90 : float;  (** ms *)
  typical_ms : float;  (** mean latency of one unit's requests, each its median over units *)
  lat : Stats.samples;  (** ms, send to reply *)
  qwait : Stats.samples;  (** ms, from reply telemetry *)
  handoff : Stats.samples;  (** ms, latency - queue wait - solve wall *)
  plan_cost : float;  (** mean over ok answers *)
  resolves : int;
  unchanged : int;
  cache_hits : int;  (** server cache, over the window *)
  cache_lookups : int;
  major_collections : int;
  peak_heap_mb : float;
  replayed : Gen.item list;  (** one unit, as the traced run replays it *)
}

let window = 8 (* solve-hot: requests outstanding, below the queue limit of 64 *)
let slice_rounds = 256 (* solve-hot: rounds over the set per unit, about a quarter second *)

(* a request answered during set-up must be an ok, checked answer *)
let presolve h errors id (it : Gen.item) =
  let reply, _ = Harness.call h (Gen.line ~id it) in
  (match Check.reply it.Gen.req reply with
  | Ok _ -> ()
  | Error e -> errors := Printf.sprintf "set-up request %d: %s" id (Check.message e) :: !errors);
  reply

(* solve-cold's warm-up: two classes whose only sizes are 1 and 2, so
   the optimum is unambiguous; it pages in the solve path before the
   measured stream starts *)
let warm_up =
  let cls name count a = { Inst.name; count; a; b = 1e-3; c = 1.; d = 0.5 } in
  let inst = { Inst.classes = [| cls "w0" 2 40.; cls "w1" 1 25. |]; nodes = 16; allowed = Some [ 1; 2 ] } in
  let opt = match Oracle.optimum inst with Some (o, _) -> o | None -> assert false in
  Gen.item (Gen.Solve { inst; opt; place = None })

let setup ~workload ~seed =
  let errors = ref [] in
  let st = Random.State.make [| seed; 1 |] in
  match workload with
  | "solve-cold" ->
    let unit_ = Gen.cold_unit st in
    let h = Harness.start () in
    ignore (presolve h errors (-1) warm_up);
    { h; unit_; prefill = []; expected = [||]; setup_errors = !errors }
  | "solve-hot" ->
    let set = Gen.hot_set st in
    let h = Harness.start () in
    let expected = Array.of_list (List.mapi (fun i it -> Harness.stable_part (presolve h errors (-1 - i) it)) set) in
    { h; unit_ = Array.of_list (List.map (fun it -> (it, false)) set); prefill = set; expected; setup_errors = !errors }
  | "resolve-place" ->
    let unit_, places = Gen.resolve_place_unit st in
    let h = Harness.start () in
    List.iteri (fun i it -> ignore (presolve h errors (-1 - i) it)) places;
    (* a fixed warm-up resolve *)
    let warm = Gen.gen_resolve (Random.State.make [| Gen.catalogue_seed; 98 |]) ~k:3 ~drift:false in
    ignore (presolve h errors (-99) warm);
    { h; unit_; prefill = places; expected = [||]; setup_errors = !errors }
  | w -> invalid_arg ("unknown workload " ^ w)

(* a request the server did not answer ok, or the known fault's answer
   above the optimum: counted in [failed], shown on stderr (the first
   few) *)
let failures_shown = ref 0

let note_failure ?(why = "") reply =
  incr failures_shown;
  if !failures_shown <= 5 then prerr_endline ("perfbench: failed request" ^ why ^ ": " ^ reply)

type samples = {
  lat : Stats.samples;
  qwait : Stats.samples;
  handoff : Stats.samples;
  heap : Stats.samples;  (** MB, the major heap at each unit's end *)
}

(* the major heap of every domain, from Gc.quick_stat, where a unit
   ends. The run reports the 90th percentile of these samples: the
   heap's sawtooth peak, without growing with the number of units as
   their maximum does. (top_heap_words is no peak here either: it grows
   with the number of requests served, about 12 bytes per solve-hot
   request, while the heap itself stays the same size.) *)
let sample_heap s =
  Stats.add s.heap (float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.)

let record_timing s reply ms =
  let qw = Harness.scan_num reply "queue_wait_ms" and wall = Harness.scan_num reply "solve_wall_ms" in
  Stats.add s.lat ms;
  Stats.add s.qwait qw;
  Stats.add s.handoff (ms -. qw -. wall)

(* what the checks of a run's replies add up to *)
type tally = {
  mutable answered : int;
  mutable failed : int;
  mutable wrong : string list;
  mutable plan : float;
  mutable resolves : int;
  mutable unchanged : int;
}

let tally () = { answered = 0; failed = 0; wrong = []; plan = 0.; resolves = 0; unchanged = 0 }

(* check one reply of a serial workload against its request *)
let judge c (it : Gen.item) reply =
  (match it.Gen.req with Gen.Resolve _ -> c.resolves <- c.resolves + 1 | Gen.Solve _ -> ());
  match Check.reply it.Gen.req reply with
  | Ok (cost, unchanged) ->
    c.answered <- c.answered + 1;
    c.plan <- c.plan +. cost;
    if unchanged then c.unchanged <- c.unchanged + 1
  | Error _ when Harness.find_after reply "\"outcome\":\"ok\"" 0 < 0 ->
    note_failure reply;
    c.failed <- c.failed + 1
  | Error (Check.Above_optimum msg) when it.Gen.known_fault ->
    note_failure ~why:(" (known fault, " ^ msg ^ ")") reply;
    c.failed <- c.failed + 1
  | Error (Check.Above_optimum msg | Check.Wrong msg) ->
    c.answered <- c.answered + 1;
    c.wrong <- msg :: c.wrong

let result ~attempted c s ~throughput ~p50 ~p90 ~typical_ms ~replayed =
  {
    attempted;
    failed = c.failed;
    wrong = c.wrong;
    throughput;
    p50;
    p90;
    typical_ms;
    lat = s.lat;
    qwait = s.qwait;
    handoff = s.handoff;
    plan_cost = c.plan /. float_of_int (max 1 c.answered);
    resolves = c.resolves;
    unchanged = c.unchanged;
    cache_hits = 0;
    cache_lookups = 0;
    major_collections = 0;
    peak_heap_mb = 0.;
    replayed;
  }

(* one request in flight, whole units until [seconds] of measured time.
   A unit's lines are made before its clock starts and its replies are
   checked after it stops, so neither costs the measured time. Each
   request's latency is taken as its median over units; the quantiles
   are over those. *)
let run_serial p ~seconds s =
  let n = Array.length p.unit_ in
  let c = tally () in
  let replies = Array.make n "" and ms = Array.make n 0. in
  let rates = ref [] and window_s = ref 0. and units = ref 0 in
  while !window_s < seconds do
    let u = !units in
    let lines =
      Array.mapi (fun i (it, fresh) -> Gen.line ~id:((u * n) + i + 1) (if fresh then Gen.tagged u it else it)) p.unit_
    in
    let t0 = now () in
    Array.iteri
      (fun i line ->
        let reply, t = Harness.call p.h line in
        replies.(i) <- reply;
        ms.(i) <- t)
      lines;
    let dt = now () -. t0 in
    sample_heap s;
    window_s := !window_s +. dt;
    incr units;
    let answered0 = c.answered in
    Array.iteri
      (fun i reply ->
        record_timing s reply ms.(i);
        judge c (fst p.unit_.(i)) reply)
      replies;
    rates := (float_of_int (c.answered - answered0) /. dt) :: !rates
  done;
  let medians = Stats.position_medians s.lat n in
  result ~attempted:(!units * n) c s ~throughput:(Stats.median_of !rates)
    ~p50:(Stats.quantile medians 0.5) ~p90:(Stats.quantile medians 0.9) ~typical_ms:(Stats.mean medians)
    ~replayed:(Array.to_list (Array.map fst p.unit_))

(* solve-hot: a fixed window of outstanding requests cycling over the
   cached set; a unit is a slice of [slice_rounds] whole rounds of
   replies. Each reply must repeat the set-up answer for its instance
   byte for byte and report a cache hit. *)
let run_window p ~seconds s =
  let set = Array.map fst p.unit_ in
  let n = Array.length set in
  let slice = n * slice_rounds in
  let costs = Array.map (fun (it : Gen.item) -> match it.Gen.req with Gen.Solve { opt; _ } -> opt | Gen.Resolve _ -> 0.) set in
  let c = tally () in
  let sent = Array.make 64 0. in
  let next_id = ref 0 and outstanding = ref 0 and stopping = ref false and received = ref 0 in
  let ends = ref [] and answered_at_ends = ref [] in
  let t_start = now () in
  let send () =
    let id = !next_id in
    incr next_id;
    incr outstanding;
    sent.(id land 63) <- now ();
    Harness.submit p.h (Gen.line ~id set.(id mod n))
  in
  while !outstanding < window do
    send ()
  done;
  while !outstanding > 0 do
    let reply = Harness.next p.h in
    let t = now () in
    decr outstanding;
    incr received;
    let id = Harness.reply_id reply in
    if id < 0 then begin
      record_timing s reply Float.nan;
      c.wrong <- ("reply without an id: " ^ reply) :: c.wrong
    end
    else begin
      record_timing s reply ((t -. sent.(id land 63)) *. 1000.);
      let i = id mod n in
      if Harness.find_after reply "\"outcome\":\"ok\"" 0 < 0 then begin
        c.failed <- c.failed + 1;
        note_failure reply
      end
      else begin
        c.answered <- c.answered + 1;
        c.plan <- c.plan +. costs.(i);
        if not (Harness.stable_part_is reply p.expected.(i)) then
          c.wrong <- Printf.sprintf "answer %d differs from the first answer for its instance" id :: c.wrong
        else if Harness.find_after reply "\"cache_hit\":true" 0 < 0 then
          c.wrong <- Printf.sprintf "answer %d was not a cache hit" id :: c.wrong
      end
    end;
    if !received mod slice = 0 then begin
      sample_heap s;
      ends := t :: !ends;
      answered_at_ends := c.answered :: !answered_at_ends
    end;
    if (not !stopping) && !next_id mod slice = 0 && now () -. t_start >= seconds then stopping := true;
    if not !stopping then send ()
  done;
  (* per slice: answered per second, and the quantiles of its raw
     latency samples; the run reports the median of each *)
  let ends = Array.of_list (List.rev !ends) and answered = Array.of_list (List.rev !answered_at_ends) in
  let units = Array.length ends in
  let per_slice f = Stats.median_of (List.init units f) in
  let rate k =
    let t0 = if k = 0 then t_start else ends.(k - 1) and a0 = if k = 0 then 0 else answered.(k - 1) in
    float_of_int (answered.(k) - a0) /. (ends.(k) -. t0)
  in
  let q k q = Stats.quantile (Stats.sorted_range s.lat ~from:(k * slice) ~len:slice) q in
  result ~attempted:!next_id c s ~throughput:(per_slice rate) ~p50:(per_slice (fun k -> q k 0.5))
    ~p90:(per_slice (fun k -> q k 0.9)) ~typical_ms:(Stats.mean (Stats.to_sorted s.lat)) ~replayed:(Array.to_list set)

let run ~workload p ~seconds =
  let hits0, misses0 = Harness.cache_counts p.h in
  let gc0 = Gc.quick_stat () in
  let s = { lat = Stats.create (); qwait = Stats.create (); handoff = Stats.create (); heap = Stats.create () } in
  let r = if workload = "solve-hot" then run_window p ~seconds s else run_serial p ~seconds s in
  let gc1 = Gc.quick_stat () in
  let hits1, misses1 = Harness.cache_counts p.h in
  {
    r with
    wrong = List.rev_append p.setup_errors r.wrong;
    cache_hits = hits1 - hits0;
    cache_lookups = hits1 - hits0 + (misses1 - misses0);
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    peak_heap_mb = Stats.quantile (Stats.to_sorted s.heap) 0.9;
  }
