(* serve_evaluate: one closed-loop client drives `syndex serve` over its
   line-delimited wire protocol.  The service keeps its memo log in a
   fresh directory; every round submits new generated documents, repeats
   of half of them (memo hits) and the pinned known-fault document.  The
   traced run replays the same submissions in-process through the public
   functions the service composes. *)

module M = Lifecycle.Methodology

let request_line ~id (d : Gen.doc) =
  Printf.sprintf
    "{\"kind\": \"evaluate\", \"id\": %d, \"source\": %s, \"montecarlo\": %d, \"seed\": %d, \
     \"robustness\": true}"
    id (Util.json_string d.Gen.source) d.Gen.runs d.Gen.mc_seed

let doc_of = function Gen.Fresh d | Gen.Repeat d | Gen.Pinned d -> d

(* Checks one evaluate reply; returns whether the request failed (the
   pinned fault: a robustness nominal cost scored on another deployment
   than the reported one), and the report. *)
let check_reply ~id ~request reply =
  let d = doc_of request in
  let v = try Mjson.parse reply with Mjson.Bad msg -> Util.check false "reply %d: %s" id msg; Mjson.Null in
  Util.check (Mjson.bool [ "ok" ] v = Some true) "reply %d not ok: %s" id
    (String.sub reply 0 (min 300 (String.length reply)));
  Util.check (Mjson.member "id" v = Some (Mjson.Num (float_of_int id))) "reply %d: id not echoed" id;
  let cached = Mjson.bool [ "cached" ] v in
  (match request with
  | Gen.Repeat _ -> Util.check (cached = Some true) "reply %d: repeat not served from the memo" id
  | Gen.Fresh _ | Gen.Pinned _ -> Util.check (cached = Some false) "reply %d: fresh request cached" id);
  let report = Mjson.path [ "report" ] v in
  let n k = Mjson.num k report in
  let mn = n [ "montecarlo"; "min" ] and mx = n [ "montecarlo"; "max" ] in
  let mean = n [ "montecarlo"; "mean" ] and p95 = n [ "montecarlo"; "p95" ] in
  Util.check (mn <= mean && mean <= mx) "reply %d: Monte-Carlo min <= mean <= max fails" id;
  Util.check (mn <= p95 && p95 <= mx) "reply %d: Monte-Carlo min <= p95 <= max fails" id;
  Util.check
    (n [ "montecarlo"; "runs" ] = float_of_int d.Gen.runs)
    "reply %d: Monte-Carlo runs differ from the count sent" id;
  let implemented = n [ "implemented_cost" ] in
  Util.check (implemented = n [ "montecarlo"; "static_cost" ])
    "reply %d: implemented_cost <> montecarlo.static_cost" id;
  let nominal = n [ "robustness"; "nominal_cost" ] in
  let failed = d.Gen.pinned && not (implemented = nominal) in
  if not d.Gen.pinned then
    Util.check (implemented = nominal) "reply %d: implemented_cost <> robustness.nominal_cost" id;
  Util.check
    (n [ "schedule"; "makespan" ] >= d.Gen.chain -. 1e-9)
    "reply %d: makespan %g below the WCET chain %g" id (n [ "schedule"; "makespan" ]) d.Gen.chain;
  (failed, report)

(* Runs the round loop, calling [send ~id request] for every request,
   until the summed latencies reach [seconds] (the elapsed wall time
   with [wall]); whole rounds only. *)
let rounds ?(wall = false) ~seed ~seconds send =
  let start = Util.now () in
  let reports = Hashtbl.create 64 in
  let fresh = ref [] and hits = ref [] and all = ref [] and failed = ref 0 in
  let ratios = ref [] and samples = ref [] in
  let busy = ref 0. and round = ref 0 and id = ref 0 in
  while (if wall then Util.now () -. start else !busy) < seconds do
    List.iteri
      (fun i request ->
        incr id;
        let d = doc_of request in
        let latency, reply = send ~id:!id request in
        busy := !busy +. latency;
        all := latency :: !all;
        let f, report = check_reply ~id:!id ~request reply in
        if f then incr failed;
        match request with
        | Gen.Fresh _ ->
            fresh := latency :: !fresh;
            Hashtbl.replace reports d.Gen.name report;
            ratios := (Mjson.num [ "schedule"; "makespan" ] report /. d.Gen.chain) :: !ratios;
            if i = 0 && !round < 2 then samples := (d, report) :: !samples
        | Gen.Repeat _ ->
            hits := latency :: !hits;
            Util.check
              (Hashtbl.find_opt reports d.Gen.name = Some report)
              "reply %d: memo hit differs from the first report" !id
        | Gen.Pinned _ -> ())
      (Gen.serve_round ~seed ~round:!round);
    incr round
  done;
  (!fresh, !hits, !all, !failed, !ratios, List.rev !samples)

(* Recomputes a report's Monte-Carlo extremes and mean from per-seed
   co-simulations on freshly built engines. *)
let recheck_montecarlo ((d : Gen.doc), report) =
  let { Lifecycle.Diagram.design; architecture; durations; pins } = Lifecycle.Diagram.parse d.Gen.source in
  let impl = M.implement ~pins ~design ~architecture ~durations () in
  let costs =
    List.init d.Gen.runs (fun k ->
        let mode =
          Translator.Delay_graph.Jittered
            { law = Exec.Timing_law.Uniform; bcet_frac = 0.4; seed = d.Gen.mc_seed + k }
        in
        design.Lifecycle.Design.cost (M.simulate_implemented ~mode design impl))
  in
  let n k = Mjson.num [ "montecarlo"; k ] report in
  Util.check (n "min" = List.fold_left Float.min infinity costs) "%s: Monte-Carlo min differs from per-seed runs" d.Gen.name;
  Util.check (n "max" = List.fold_left Float.max neg_infinity costs) "%s: Monte-Carlo max differs from per-seed runs" d.Gen.name;
  Util.check (Util.close_to ~rel:1e-12 (n "mean") (Util.mean costs)) "%s: Monte-Carlo mean differs from per-seed runs" d.Gen.name

(* The pinned document's pin really moves its operation: without it the
   adequation places the operation elsewhere. *)
let recheck_pin () =
  let file = Lifecycle.Diagram.parse Gen.pinned_source in
  let op, operator = Gen.pinned_op in
  let pins = List.filter (fun (o, _) -> o <> op) file.Lifecycle.Diagram.pins in
  let impl =
    M.implement ~pins ~design:file.Lifecycle.Diagram.design
      ~architecture:file.Lifecycle.Diagram.architecture ~durations:file.Lifecycle.Diagram.durations ()
  in
  let schedule = impl.M.schedule in
  let placed =
    match Aaa.Algorithm.find_op schedule.Aaa.Schedule.algorithm op with
    | Some id -> Aaa.Architecture.operator_name schedule.Aaa.Schedule.architecture (Aaa.Schedule.operator_of schedule id)
    | None -> "?"
  in
  Util.check (placed <> operator) "pinned document: %s lands on %s even unpinned" op operator

let temp_dir () =
  let dir = Filename.concat Util.out_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Util.ensure_dir dir;
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let finish ~fresh ~hits ~all ~failed ~ratios ~samples ~setup ~rss =
  List.iter recheck_montecarlo samples;
  recheck_pin ();
  let ms q xs = 1e3 *. Util.percentile xs q in
  Printf.printf "fresh evaluate requests: %d, memo hits: %d, pinned: %d\n" (List.length fresh)
    (List.length hits) (List.length all - List.length fresh - List.length hits);
  Printf.printf "memo-hit latency p50: %.4f ms\n" (ms 0.5 hits);
  ( List.length all,
    failed,
    [
      ("setup_s", "s", setup);
      ("peak_rss_mb", "MiB", rss);
      ("op_p50_ms", "ms", ms 0.5 fresh);
      ("op_p90_ms", "ms", ms 0.9 fresh);
      ("work_per_s", "1/s", float_of_int (List.length all) /. Util.sum all);
      ("makespan_ratio", "ratio", Util.mean ratios);
    ] )

(* Untraced run: the wire client. *)
let run ~syndex ~seed ~seconds =
  let dir = temp_dir () in
  let memo = Filename.concat dir "memo.log" in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t_spawn = Util.now () in
  let pid = Unix.create_process syndex [| syndex; "serve"; "--cache"; memo |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w and ic = Unix.in_channel_of_descr out_r in
  let call line =
    let t0 = Util.now () in
    output_string oc line;
    output_char oc '\n';
    flush oc;
    let reply = input_line ic in
    (Util.now () -. t0, reply)
  in
  let session () =
    let _, pong = call "{\"kind\": \"ping\", \"id\": 0}" in
    let setup = Util.now () -. t_spawn in
    Util.check (Mjson.bool [ "ok" ] (Mjson.parse pong) = Some true) "ping failed: %s" pong;
    let result = rounds ~seed ~seconds (fun ~id request -> call (request_line ~id (doc_of request))) in
    (setup, result, Util.peak_rss_mb (string_of_int pid))
  in
  (* a benchmark failure must not leave the service running *)
  let setup, (fresh, hits, all, failed, ratios, samples), rss =
    try session ()
    with e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e
  in
  let _, bye = call "{\"kind\": \"shutdown\"}" in
  Util.check (Mjson.bool [ "ok" ] (Mjson.parse bye) = Some true) "shutdown failed: %s" bye;
  close_out oc;
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Util.check false "syndex serve did not exit cleanly");
  Util.check ((Unix.stat memo).Unix.st_size > 0) "the memo log is empty";
  remove_dir dir;
  finish ~fresh ~hits ~all ~failed ~ratios ~samples ~setup ~rss

(* ------------------------------------------------------------------ *)
(* Traced run: the service's composition replayed in-process. *)

type acc = {
  mutable events : (int * int) list;  (** (request id, event deliveries) per scenario *)
  mutable batch_wall : float;
  mutable scenario_time : float;
}

(* The pipeline of one fresh submission, call by call, each wrapped in
   its span.  The results must match the service's own report. *)
let replay ~pool ~tag acc (d : Gen.doc) =
  let file = Spans.with_ ~tag "lifecycle.parse" (fun () -> Lifecycle.Diagram.parse d.Gen.source) in
  let { Lifecycle.Diagram.design; architecture; durations; pins } = file in
  let ideal =
    Spans.with_ ~tag "lifecycle.simulate_ideal" (fun () ->
        design.Lifecycle.Design.cost (M.simulate_ideal design))
  in
  let impl =
    Spans.with_ ~tag "lifecycle.implement" (fun () ->
        Replay.implement ~tag ~pins ~design ~architecture ~durations ())
  in
  let implemented =
    Spans.with_ ~tag "lifecycle.simulate_implemented" (fun () ->
        design.Lifecycle.Design.cost (M.simulate_implemented design impl))
  in
  ignore (Spans.with_ ~tag "verify.run_all" (fun () -> Verify.run_all ~architecture ~durations ~pins design));
  let t0 = Util.now () in
  let mc =
    Spans.with_ ~tag "serve.montecarlo_batch" (fun () ->
        Serve.Batch.montecarlo ~runs:d.Gen.runs ~base_seed:d.Gen.mc_seed ~pool ~design
          ~implementation:impl ())
  in
  acc.batch_wall <- acc.batch_wall +. (Util.now () -. t0);
  (* the batch's scenarios again, one by one on this domain *)
  let session =
    Spans.with_ ~tag "lifecycle.session_create" (fun () -> Serve.Batch.create ~design ~implementation:impl ())
  in
  for k = 0 to d.Gen.runs - 1 do
    let t0 = Util.now () in
    let c = Spans.with_ ~tag "sim.scenario" (fun () -> Serve.Batch.cost session ~seed:(d.Gen.mc_seed + k)) in
    acc.scenario_time <- acc.scenario_time +. (Util.now () -. t0);
    acc.events <- (tag, Sim.Engine.steps (Lifecycle.Session.engine session)) :: acc.events;
    Util.check (c = mc.Lifecycle.Montecarlo.costs.(k)) "%s: scenario %d differs from the batch" d.Gen.name k
  done;
  let rob =
    Spans.with_ ~tag "fault.robustness" (fun () ->
        Fault.Robustness.evaluate ~iterations:50 ~pool ~standby:false ~design ~architecture ~durations
          ~scenarios:(Fault.Scenario.single_processor_failures ~seed:d.Gen.mc_seed architecture)
          ())
  in
  (ideal, implemented, mc, rob.Fault.Robustness.nominal_cost, impl.M.schedule.Aaa.Schedule.makespan)

let run_traced ~seed ~seconds =
  let dir = temp_dir () in
  let t_setup = Util.now () in
  let pool = Explore.Pool.default () in
  let svc =
    Serve.Service.create ~pool
      { Serve.Service.default_config with cache_path = Some (Filename.concat dir "memo.log") }
  in
  let setup = Util.now () -. t_setup in
  let acc = { events = []; batch_wall = 0.; scenario_time = 0. } in
  let fresh, hits, all, failed, ratios, samples =
    rounds ~wall:true ~seed ~seconds (fun ~id request ->
        let d = doc_of request in
        let line = request_line ~id d in
        let req = Spans.with_ ~tag:id "serve.protocol_parse" (fun () -> Serve.Protocol.request_of_line line) in
        let replayed =
          match request with
          | Gen.Repeat _ -> None
          | Gen.Fresh _ | Gen.Pinned _ -> Some (Spans.with_ ~tag:id "serve.replay" (fun () -> replay ~pool ~tag:id acc d))
        in
        let name = match request with Gen.Repeat _ -> "serve.hit" | _ -> "serve.respond" in
        let t0 = Util.now () in
        let resp = Spans.with_ ~tag:id name (fun () -> Serve.Service.respond svc req) in
        let latency = Util.now () -. t0 in
        let text = Spans.with_ ~tag:id "serve.json_render" (fun () -> Serve.Json.to_string resp) in
        (match replayed with
        | Some (ideal, implemented, mc, nominal, makespan) ->
            let report = Mjson.path [ "report" ] (Mjson.parse text) in
            let n k = Mjson.num k report in
            Util.check
              (n [ "ideal_cost" ] = ideal
              && n [ "implemented_cost" ] = implemented
              && n [ "montecarlo"; "mean" ] = mc.Lifecycle.Montecarlo.mean
              && n [ "robustness"; "nominal_cost" ] = nominal
              && n [ "schedule"; "makespan" ] = makespan)
              "request %d: the in-process replay differs from the service's report" id
        | None -> ());
        (latency, text))
  in
  Serve.Service.close svc;
  remove_dir dir;
  let attempted, failed, e2e =
    finish ~fresh ~hits ~all ~failed ~ratios ~samples ~setup ~rss:(Util.peak_rss_mb "self")
  in
  let domains = float_of_int (Explore.Pool.domains pool) in
  Printf.printf "pool efficiency base: %.3f s of scenarios / (%g domains x %.3f s of batches)\n"
    acc.scenario_time domains acc.batch_wall;
  (* the counts come from the first round's requests alone, so they
     repeat exactly for a seed however many rounds the run holds *)
  let first_round id = id <= List.length (Gen.serve_round ~seed ~round:0) in
  let events l = float_of_int (List.fold_left (fun acc (_, e) -> acc + e) 0 l) in
  let first = List.filter (fun (id, _) -> first_round id) acc.events in
  let words =
    Util.sum (List.filter_map (fun s -> if first_round s.Spans.tag then Some s.Spans.words else None) (Spans.named "sim.scenario"))
  in
  let per_layer =
    [
      ("sim.events_per_scenario", "count", events first /. float_of_int (List.length first));
      ("sim.ns_per_event", "ns", 1e9 *. acc.scenario_time /. events acc.events);
      ("sim.minor_words_per_event", "words", words /. events first);
      ("explore.pool_efficiency", "ratio", acc.scenario_time /. (domains *. acc.batch_wall));
    ]
  in
  (attempted, failed, e2e, per_layer)
