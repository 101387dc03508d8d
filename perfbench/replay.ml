(* The traced run's per-layer replay: each request of one round is
   replayed in the benchmark's own domain through the same public layer
   calls the server makes for it, and every call is timed. The
   program's own counters (the ?trace tally of Alloc_model.solve and of
   Place.Optimizer.optimize) ride along. *)

open Serve

let now = Unix.gettimeofday

type acc = {
  mutable reqs : int;
  mutable total : float;  (** wall of the whole pass *)
  mutable decode : float;
  mutable encode : float;
  mutable specs : float;
  mutable fp : float;
  mutable n_fp : int;
  mutable other : float;  (** cache lookups, model lowering, scoring *)
  mutable solve : float;
  mutable n_solves : int;
  mutable audit : float;
  mutable n_audit : int;
  mutable sens : float;
  mutable n_sens : int;
  mutable observe : float;
  mutable n_observe : int;
  mutable optimize : float;
  mutable n_place : int;
  mutable comm_cost : float;
  mutable minor_words : float;
  tally : Engine.Telemetry.t;  (** solver counters and phases, summed *)
  place_tally : Engine.Telemetry.t;
}

let create () =
  {
    reqs = 0;
    total = 0.;
    decode = 0.;
    encode = 0.;
    specs = 0.;
    fp = 0.;
    n_fp = 0;
    other = 0.;
    solve = 0.;
    n_solves = 0;
    audit = 0.;
    n_audit = 0;
    sens = 0.;
    n_sens = 0;
    observe = 0.;
    n_observe = 0;
    optimize = 0.;
    n_place = 0;
    comm_cost = 0.;
    minor_words = 0.;
    tally = Engine.Telemetry.create ();
    place_tally = Engine.Telemetry.create ();
  }

(* sum of the timed layer calls: what trace.coverage sets against the
   end-to-end latency *)
let layer_sum a =
  a.decode +. a.encode +. a.specs +. a.fp +. a.other +. a.solve +. a.audit +. a.sens +. a.observe
  +. a.optimize

let get = function Ok v -> v | Error e -> failwith ("replay: " ^ e)

(* the verdict string the server puts in the envelope *)
let audit_verdict ~n_total specs (alloc : Hslb.Alloc_model.allocation) =
  match alloc.Hslb.Alloc_model.certificate with
  | None -> "no certificate emitted"
  | Some cert -> (
    let problem, _, _ = Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total specs in
    match Audit.check_minlp problem cert with
    | Ok () -> "verified (" ^ cert.Engine.Certificate.producer ^ ")"
    | Error _ as v -> "REJECTED: " ^ Audit.summary v)

let tele = Obs.Json.Obj [ ("queue_wait_ms", Obs.Json.Num 0.); ("solve_wall_ms", Obs.Json.Num 0.); ("cache_hit", Obs.Json.Bool true) ]
let nums f a = Obs.Json.Arr (Array.to_list (Array.map f a))
let inum n = Obs.Json.Num (float_of_int n)

(* one pass over [lines]; [timed] false runs the same calls without
   reading the clock, for the tracing overhead *)
let pass ~timed ~prefill lines =
  let a = create () in
  let cache = Runtime.Cache.create ~capacity:128 () in
  List.iter (fun (k, v) -> Runtime.Cache.put cache k v) prefill;
  let tm f =
    if timed then begin
      let t0 = now () in
      let r = f () in
      (r, now () -. t0)
    end
    else (f (), 0.)
  in
  let cached_solve ?warm_start ~n_total specs key =
    let hit, t = tm (fun () -> Runtime.Cache.find cache key) in
    a.other <- a.other +. t;
    match hit with
    | Some alloc -> alloc
    | None ->
      let tally = Engine.Telemetry.create () in
      let budget = Engine.Budget.arm (Engine.Budget.make ()) in
      let r, t =
        tm (fun () ->
            Hslb.Alloc_model.solve ~strategy:`Auto ~solver:Engine.Solver_choice.Oa ~budget ?warm_start
              ~trace:tally ~n_total specs)
      in
      a.solve <- a.solve +. t;
      a.n_solves <- a.n_solves + 1;
      Engine.Telemetry.merge_into a.tally tally;
      let alloc = get (Result.map_error Minlp.Solution.status_to_string r) in
      if alloc.Hslb.Alloc_model.status = Minlp.Solution.Optimal then Runtime.Cache.put cache key alloc;
      alloc
  in
  let audited ~n_total specs alloc =
    let v, t = tm (fun () -> audit_verdict ~n_total specs alloc) in
    a.audit <- a.audit +. t;
    a.n_audit <- a.n_audit + 1;
    v
  in
  let encode ~v ~id fields =
    let _, t = tm (fun () -> Protocol.response ~v ~id fields) in
    a.encode <- a.encode +. t
  in
  let alloc_fields (alloc : Hslb.Alloc_model.allocation) =
    [
      ("status", Obs.Json.Str (Minlp.Solution.status_to_string alloc.Hslb.Alloc_model.status));
      ("makespan", Obs.Json.Num alloc.predicted_makespan);
      ("nodes_per_task", nums inum alloc.nodes_per_task);
      ("predicted_times", nums (fun x -> Obs.Json.Num x) alloc.predicted_times);
    ]
  in
  let one line =
    let parsed, t = tm (fun () -> Protocol.parse_line line) in
    a.decode <- a.decode +. t;
    let v = parsed.Protocol.v and id = parsed.Protocol.id in
    match get parsed.Protocol.req with
    | Protocol.Solve p ->
      let specs, t = tm (fun () -> get (Protocol.resolve_specs p)) in
      a.specs <- a.specs +. t;
      let key, t = tm (fun () -> get (Protocol.solve_key p specs)) in
      a.fp <- a.fp +. t;
      a.n_fp <- a.n_fp + 1;
      let n_total = p.Protocol.n_total in
      let alloc = cached_solve ~n_total specs key in
      let verdict = audited ~n_total specs alloc in
      let place =
        match p.Protocol.place with
        | None -> []
        | Some pl ->
          let names = Protocol.spec_names specs in
          let duration_s =
            Array.map (fun t -> Array.make pl.Protocol.place_groups t) alloc.Hslb.Alloc_model.predicted_times
          in
          let inst, t = tm (fun () -> get (Protocol.place_instance ~duration_s ~names pl)) in
          a.other <- a.other +. t;
          let assignment, t = tm (fun () -> Place.Optimizer.optimize ~trace:a.place_tally inst) in
          a.optimize <- a.optimize +. t;
          a.n_place <- a.n_place + 1;
          let e, t = tm (fun () -> Place.Model.eval inst assignment) in
          a.other <- a.other +. t;
          a.comm_cost <- a.comm_cost +. e.Place.Model.comm_cost_s;
          [
            ( "place",
              Obs.Json.Obj
                [
                  ("assignment", nums inum assignment);
                  ("groups", inum (Place.Model.num_groups inst));
                  ("makespan_s", Obs.Json.Num e.Place.Model.makespan_s);
                  ("comm_cost_s", Obs.Json.Num e.Place.Model.comm_cost_s);
                  ("total_s", Obs.Json.Num e.Place.Model.total_s);
                ] );
          ]
      in
      encode ~v ~id
        ((("outcome", Obs.Json.Str "ok") :: alloc_fields alloc)
        @ [ ("audit", Obs.Json.Str verdict) ]
        @ place
        @ [ ("telemetry", tele) ])
    | Protocol.Resolve rp ->
      let p = rp.Protocol.base in
      let n_total = p.Protocol.n_total in
      let specs, t = tm (fun () -> get (Protocol.resolve_specs p)) in
      a.specs <- a.specs +. t;
      (* the online update, one timed observe per sample *)
      let specs =
        List.map
          (fun (spec : Hslb.Alloc_model.spec) ->
            let fc = spec.Hslb.Alloc_model.fc in
            match List.assoc_opt fc.Hslb.Classes.cls.Hslb.Classes.name rp.Protocol.observe with
            | None | Some [||] -> spec
            | Some samples ->
              let fit0 = fc.Hslb.Classes.fit in
              let ol, t =
                tm (fun () -> Hslb.Fitting.Online.of_law ~rng:(Numerics.Rng.create 42) fit0.Hslb.Fitting.law)
              in
              a.other <- a.other +. t;
              Array.iter
                (fun s ->
                  let (), t = tm (fun () -> Hslb.Fitting.Online.observe ol s) in
                  a.observe <- a.observe +. t;
                  a.n_observe <- a.n_observe + 1)
                samples;
              let fit = { fit0 with Hslb.Fitting.law = Hslb.Fitting.Online.law ol } in
              { spec with Hslb.Alloc_model.fc = { fc with Hslb.Classes.fit } })
          specs
      in
      let classes =
        List.map
          (fun (s : Hslb.Alloc_model.spec) ->
            {
              Audit.Sensitivity.law = s.Hslb.Alloc_model.fc.Hslb.Classes.fit.Hslb.Fitting.law;
              count = s.fc.Hslb.Classes.cls.Hslb.Classes.count;
              n_min = s.n_min;
              n_max = min s.n_max n_total;
              allowed = s.allowed;
            })
          specs
      in
      let verdict, t =
        tm (fun () -> Audit.Sensitivity.check ~eps:0.05 ~n_total ~incumbent:rp.Protocol.prev classes)
      in
      a.sens <- a.sens +. t;
      a.n_sens <- a.n_sens + 1;
      (match verdict with
      | Audit.Sensitivity.Certified c ->
        encode ~v ~id
          [
            ("outcome", Obs.Json.Str "ok");
            ("resolve", Obs.Json.Str "unchanged");
            ("makespan", Obs.Json.Num c.Audit.Sensitivity.incumbent_obj);
            ("nodes_per_task", nums inum rp.Protocol.prev);
            ("certificate", Obs.Json.Obj [ ("bound", Obs.Json.Num c.relaxation_bound); ("gap_rel", Obs.Json.Num c.gap_rel) ]);
            ("telemetry", tele);
          ]
      | Audit.Sensitivity.Rejected { certificate; _ } ->
        let key, t =
          tm (fun () -> Hslb.Alloc_model.fingerprint ~objective:p.Protocol.objective ~n_total specs)
        in
        a.fp <- a.fp +. t;
        a.n_fp <- a.n_fp + 1;
        let warm_start = if certificate <> None then Some rp.Protocol.prev else None in
        let alloc = cached_solve ?warm_start ~n_total specs key in
        let verdict = audited ~n_total specs alloc in
        encode ~v ~id
          ((("outcome", Obs.Json.Str "ok") :: alloc_fields alloc)
          @ [ ("audit", Obs.Json.Str verdict); ("resolve", Obs.Json.Str "resolved"); ("telemetry", tele) ]))
    | Protocol.Sleep _ | Protocol.Ping | Protocol.Stats | Protocol.Drain -> ()
  in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  List.iter
    (fun line ->
      one line;
      a.reqs <- a.reqs + 1)
    lines;
  a.total <- now () -. t0;
  a.minor_words <- Gc.minor_words () -. w0;
  a

(* the allocations the server cached during set-up, keyed as it keys
   them *)
let prefill_of items =
  List.filter_map
    (fun (it : Gen.item) ->
      match (Protocol.parse_line (Gen.line ~id:0 it)).Protocol.req with
      | Ok (Protocol.Solve p) ->
        let specs = get (Protocol.resolve_specs p) in
        let key = get (Protocol.solve_key p specs) in
        let r = Hslb.Alloc_model.solve ~n_total:p.Protocol.n_total specs in
        Some (key, get (Result.map_error Minlp.Solution.status_to_string r))
      | Ok _ | Error _ -> None)
    items

let counts a =
  let t = a.tally in
  [
    t.Engine.Telemetry.nodes_expanded;
    t.nodes_pruned;
    t.lp_solves;
    t.simplex_pivots;
    t.nlp_solves;
    t.nlp_iterations;
    t.line_search_steps;
    t.oa_cuts;
    t.incumbent_updates;
    a.place_tally.Engine.Telemetry.incumbent_updates;
    int_of_float a.minor_words;
  ]

(* a timed pass (it also warms every lazy initialisation), an untimed
   pass, and a second timed pass whose work counts must equal the
   first's exactly. Each pass sends [reps] copies of [items]. Returns
   the second timed pass, the untimed one, and a mismatch message if
   any. *)
let run ~prefill ~reps items =
  let round = List.mapi (fun i it -> Gen.line ~id:(i + 1) it) items in
  let lines = List.concat (List.init reps (fun _ -> round)) in
  let prefill = prefill_of prefill in
  let t1 = pass ~timed:true ~prefill lines in
  let u = pass ~timed:false ~prefill lines in
  let t2 = pass ~timed:true ~prefill lines in
  let mismatch =
    if counts t1 = counts t2 then None
    else
      Some
        (Printf.sprintf "replay work counts differ between two passes: [%s] vs [%s]"
           (String.concat ";" (List.map string_of_int (counts t1)))
           (String.concat ";" (List.map string_of_int (counts t2))))
  in
  (t2, u, mismatch)
