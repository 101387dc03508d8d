(* perfbench: one in-process serve benchmark.

     main.exe --workload solve-cold|solve-hot|resolve-place --seed N
              --seconds S --trace 0|1

   Sets up several times (reporting the median set-up time), then drives
   the last server with whole units of closed-loop traffic until S
   seconds are measured, and checks every reply. With --trace 1 it then
   drains the server and replays one unit through the layer calls,
   timing each. The last line of stdout is one JSON object: correct,
   attempted, failed and the end-to-end (--trace 0) or per-layer
   (--trace 1) metrics. *)

let usage = "main.exe --workload solve-cold|solve-hot|resolve-place --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | arg :: _ -> die ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload [ "solve-cold"; "solve-hot"; "resolve-place" ]) then
    die ("unknown workload " ^ !workload);
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0. -> (!workload, seed, seconds, trace)
  | _ -> die "missing or invalid --seed, --seconds or --trace"

(* set-ups per run: at least three, and more until a second has been
   spent, so that a set-up of a few milliseconds gets a median over
   dozens *)
let setups_min = 3
let setups_s = 1.

let () =
  let workload, seed, seconds, trace = parse_args () in
  (* keep the last server, report the median set-up time *)
  let rec prepare acc =
    let t0 = Unix.gettimeofday () in
    let p = Workload.setup ~workload ~seed in
    let acc = (Unix.gettimeofday () -. t0) :: acc in
    if List.length acc < setups_min || List.fold_left ( +. ) 0. acc < setups_s then begin
      Harness.stop p.Workload.h;
      prepare acc
    end
    else (p, acc)
  in
  let p, setup_times = prepare [] in
  let setup_s = Stats.median_of setup_times in
  let r = Workload.run ~workload p ~seconds in
  Harness.stop p.Workload.h;
  let metrics, replay_error =
    if not trace then
      ( [
          ("throughput_rps", r.Workload.throughput, "1/s");
          ("latency_p50_ms", r.p50, "ms");
          ("latency_p90_ms", r.p90, "ms");
          ("setup_s", setup_s, "s");
          ("peak_heap_mb", r.peak_heap_mb, "MB");
          ("plan_cost_s", r.plan_cost, "pred_s");
        ],
        None )
    else begin
      (* solve-hot's set is short: replay it enough times to time it;
         the other workloads replay one unit *)
      let reps = if workload = "solve-hot" then 1000 else 1 in
      let t, u, mismatch = Replay.run ~prefill:p.prefill ~reps r.replayed in
      let per n x = if n = 0 then 0. else x /. float_of_int n in
      let reqs = t.Replay.reqs and solves = t.Replay.n_solves in
      let phase tally label = Option.value (List.assoc_opt label (Engine.Telemetry.phases tally)) ~default:0. in
      let presolve = phase t.tally "presolve" and root = phase t.tally "root-nlp" and master = phase t.tally "master" in
      let count f = per solves (float_of_int (f t.Replay.tally)) in
      ( [
          ("serve.decode_us", per reqs t.decode *. 1e6, "us");
          ("serve.encode_us", per reqs t.encode *. 1e6, "us");
          ("serve.queue_wait_ms", Stats.median r.qwait, "ms");
          ("serve.handoff_ms", Stats.median r.handoff, "ms");
          ("hslb.specs_us", per reqs t.specs *. 1e6, "us");
          ("hslb.fingerprint_us", per t.n_fp t.fp *. 1e6, "us");
          ("runtime.cache_hit_ratio", per r.cache_lookups (float_of_int r.cache_hits), "ratio");
          ("solve.wall_ms", per solves t.solve *. 1e3, "ms");
          ("minlp.presolve_ms", per solves presolve *. 1e3, "ms");
          ("minlp.root_nlp_ms", per solves root *. 1e3, "ms");
          ("minlp.master_ms", per solves master *. 1e3, "ms");
          ("minlp.rest_ms", per solves (t.solve -. presolve -. root -. master) *. 1e3, "ms");
          ("minlp.nodes", count (fun x -> x.Engine.Telemetry.nodes_expanded), "count");
          ("minlp.oa_cuts", count (fun x -> x.oa_cuts), "count");
          ("lp.solves", count (fun x -> x.lp_solves), "count");
          ("lp.pivots", count (fun x -> x.simplex_pivots), "count");
          ("nlp.solves", count (fun x -> x.nlp_solves), "count");
          ("nlp.iterations", count (fun x -> x.nlp_iterations), "count");
          ("nlp.line_search_steps", count (fun x -> x.line_search_steps), "count");
          ("audit.check_us", per t.n_audit t.audit *. 1e6, "us");
          ("audit.sensitivity_us", per t.n_sens t.sens *. 1e6, "us");
          ("resolve.unchanged_ratio", per r.resolves (float_of_int r.unchanged), "ratio");
          ("fitting.observe_us", per t.n_observe t.observe *. 1e6, "us");
          ("place.optimize_ms", per t.n_place t.optimize *. 1e3, "ms");
          ("place.local_search_ms", per t.n_place (phase t.place_tally "place.local_search") *. 1e3, "ms");
          ("place.comm_cost_s", per t.n_place t.comm_cost, "pred_s");
          ("gc.minor_words_per_req", per reqs t.minor_words, "words");
          ("gc.major_collections", float_of_int r.major_collections, "count");
          ("trace.coverage", per reqs (Replay.layer_sum t) *. 1e3 /. r.typical_ms, "ratio");
          ("trace.overhead_ratio", t.total /. u.Replay.total, "ratio");
        ],
        mismatch )
    end
  in
  let wrong = (match replay_error with Some e -> [ e ] | None -> []) @ List.rev r.wrong in
  List.iteri (fun i e -> if i < 10 then prerr_endline ("perfbench: wrong answer: " ^ e)) wrong;
  let value x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0" in
  let metrics =
    String.concat ","
      (List.map
         (fun (name, x, unit) -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (value x) unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" (wrong = [])
    r.attempted r.failed metrics
