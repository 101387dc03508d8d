(* An in-process Serve.Server with one worker domain and the default
   config, driven from the main domain: request lines go in through
   Serve.Server.submit, replies come back through the emit sink into a
   queue the main domain polls. No sockets, no subprocesses. *)

let now = Unix.gettimeofday

type t = { srv : Serve.Server.t; m : Mutex.t; q : string Queue.t }

let start () =
  let m = Mutex.create () and q = Queue.create () in
  let emit line =
    Mutex.lock m;
    Queue.push line q;
    Mutex.unlock m
  in
  let cfg = { (Serve.Server.default_config ()) with Serve.Server.jobs = 1 } in
  { srv = Serve.Server.create cfg ~emit; m; q }

(* wait for the next reply line by polling, never blocking: every
   minor collection stops all domains, and a main domain asleep on a
   condition variable would have to be woken for each one (about 47 per
   cold solve). Measured alternately against a blocking wait, polling
   gave 3.8 and 4.0 solve-cold requests per second where blocking gave
   2.8 and 3.3, and 47 and 48 resolve-place requests per second where
   blocking gave 41 and 42; solve-hot, where the worker rarely waits,
   was the same either way. Domain.cpu_relax serves those stop
   requests while polling. *)
let next t =
  let rec spin () =
    Mutex.lock t.m;
    match Queue.take_opt t.q with
    | Some line ->
      Mutex.unlock t.m;
      line
    | None ->
      Mutex.unlock t.m;
      Domain.cpu_relax ();
      spin ()
  in
  spin ()

let submit t line = Serve.Server.submit t.srv line

(* drain: every queued request answered, the worker domain joined *)
let stop t = ignore (Serve.Server.await_drain t.srv)

(* one request with nothing else in flight: the reply and its latency
   in ms, send to reply as the caller sees it *)
let call t line =
  let t0 = now () in
  submit t line;
  let reply = next t in
  (reply, (now () -. t0) *. 1000.)

(* ---------- cheap scans of a reply line ---------- *)

(* index just past the first occurrence of [sub] in [s] at or after
   [from], or -1 *)
let find_after s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1
    else
      let rec eq j = j = m || (String.unsafe_get s (i + j) = String.unsafe_get sub j && eq (j + 1)) in
      if eq 0 then i + m else go (i + 1)
  in
  go from

(* the number following ["key":] in [s], or nan *)
let scan_num s key =
  match find_after s ("\"" ^ key ^ "\":") 0 with
  | -1 -> Float.nan
  | i ->
    let j = ref i in
    while !j < String.length s && s.[!j] <> ',' && s.[!j] <> '}' do
      incr j
    done;
    Option.value (float_of_string_opt (String.sub s i (!j - i))) ~default:Float.nan

(* the integer id a reply opens with: {"id":N, *)
let reply_id s =
  let p = String.length "{\"id\":" in
  let rec go i acc =
    if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then
      go (i + 1) ((acc * 10) + Char.code s.[i] - 48)
    else if i > p then acc
    else -1
  in
  if String.starts_with ~prefix:"{\"id\":" s then go p 0 else -1

(* the part of an ok reply that must repeat exactly for a cached
   answer: everything between the id and the telemetry object *)
let stable_part s =
  let start = match String.index_opt s ',' with Some i -> i + 1 | None -> 0 in
  match find_after s ",\"telemetry\":" start with
  | -1 -> String.sub s start (String.length s - start)
  | stop -> String.sub s start (stop - start)

(* [stable_part s = expected], without allocating *)
let stable_part_is s expected =
  match String.index_opt s ',' with
  | None -> false
  | Some i ->
    let start = i + 1 and m = String.length expected in
    start + m <= String.length s
    &&
    let rec eq j = j = m || (String.unsafe_get s (start + j) = String.unsafe_get expected j && eq (j + 1)) in
    eq 0

(* server-side cache counters from the stats op: (hits, misses) *)
let cache_counts t =
  let reply, _ = call t {|{"id":"stats","op":"stats"}|} in
  match Obs.Json.parse reply with
  | Ok j -> (
    let get k = Option.bind (Obs.Json.member "stats" j) (fun s -> Option.bind (Obs.Json.member "cache" s) (Obs.Json.member k)) in
    match (Option.bind (get "hits") Obs.Json.int_, Option.bind (get "misses") Obs.Json.int_) with
    | Some h, Some m -> (h, m)
    | _ -> failwith ("stats reply without cache counters: " ^ reply))
  | Error e -> failwith ("unparseable stats reply: " ^ e)
