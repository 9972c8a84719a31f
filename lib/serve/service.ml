module P = Protocol
module D = Lifecycle.Design
module M = Lifecycle.Methodology

type config = {
  montecarlo_runs : int;
  base_seed : int;
  law : Exec.Timing_law.t;
  bcet_frac : float;
  robustness : bool;
  robustness_iterations : int;
  standby : bool;
      (** score each robustness scenario's hot-standby replica run
          (voted takeover, three-way post-failure costs) too *)
  max_submission_bytes : int;
  max_pending : int;
  cache_capacity : int;
  cache_path : string option;
}

let default_config =
  {
    montecarlo_runs = 100;
    base_seed = 1000;
    law = Exec.Timing_law.Uniform;
    bcet_frac = 0.4;
    robustness = true;
    robustness_iterations = 50;
    standby = false;
    max_submission_bytes = 1 lsl 20;
    max_pending = 64;
    cache_capacity = 4096;
    cache_path = None;
  }

type t = {
  cfg : config;
  pool : Explore.Pool.t;
  cache : Json.t Explore.Cache.t;
  started : float;
  mutable requests : int;
  mutable evaluations : int;
  mutable errors : int;
  mutable scenarios : int;  (** co-simulated scenario runs (cache misses only) *)
  mutable busy_s : float;  (** wall time spent inside the pipeline *)
  mutable lat_count : int;
  mutable lat_sum : float;
  mutable lat_min : float;
  mutable lat_max : float;
}

let create ?pool cfg =
  let pool = match pool with Some p -> p | None -> Explore.Pool.default () in
  let cache = Explore.Cache.create ~capacity:cfg.cache_capacity () in
  (match cfg.cache_path with
  | Some path ->
      ignore
        (Explore.Cache.open_backing cache ~path ~encode:Json.to_string
           ~decode:(fun s ->
             match Json.parse s with Ok v -> v | Error msg -> failwith msg))
  | None -> ());
  {
    cfg;
    pool;
    cache;
    started = Unix.gettimeofday ();
    requests = 0;
    evaluations = 0;
    errors = 0;
    scenarios = 0;
    busy_s = 0.;
    lat_count = 0;
    lat_sum = 0.;
    lat_min = infinity;
    lat_max = 0.;
  }

let config t = t.cfg

(* ------------------------------------------------------------------ *)
(* report rendering *)

let diag_json (d : Verify.Diag.t) =
  Json.Obj
    [
      ("rule", Json.Str d.Verify.Diag.rule);
      ("severity", Json.Str (Verify.Diag.severity_to_string d.Verify.Diag.severity));
      ("artifact", Json.Str d.Verify.Diag.artifact);
      ("location", Json.Str d.Verify.Diag.location);
      ("message", Json.Str d.Verify.Diag.message);
      ("hint", match d.Verify.Diag.hint with Some h -> Json.Str h | None -> Json.Null);
    ]

let lint_json diags =
  let count sev =
    List.length (List.filter (fun d -> d.Verify.Diag.severity = sev) diags)
  in
  Json.Obj
    [
      ("errors", Json.Num (float_of_int (count Verify.Diag.Error)));
      ("warnings", Json.Num (float_of_int (count Verify.Diag.Warning)));
      ("infos", Json.Num (float_of_int (count Verify.Diag.Info)));
      ("diagnostics", Json.Arr (List.map diag_json (List.sort Verify.Diag.compare diags)));
    ]

let montecarlo_json (s : Lifecycle.Montecarlo.summary) =
  Json.Obj
    [
      ("runs", Json.Num (float_of_int s.Lifecycle.Montecarlo.runs));
      ("mean", Json.num_of s.Lifecycle.Montecarlo.mean);
      ("stddev", Json.num_of s.Lifecycle.Montecarlo.stddev);
      ("min", Json.num_of s.Lifecycle.Montecarlo.cmin);
      ("max", Json.num_of s.Lifecycle.Montecarlo.cmax);
      ("p95", Json.num_of s.Lifecycle.Montecarlo.p95);
      ("static_cost", Json.num_of s.Lifecycle.Montecarlo.static_cost);
    ]

let standby_json (sb : Fault.Robustness.standby_outcome) =
  let opt = function Some v -> Json.num_of v | None -> Json.Null in
  Json.Obj
    [
      ("vote_primary", Json.Num (float_of_int sb.Fault.Robustness.vote_primary));
      ("vote_standby", Json.Num (float_of_int sb.Fault.Robustness.vote_standby));
      ("vote_held", Json.Num (float_of_int sb.Fault.Robustness.vote_held));
      ( "takeover",
        match sb.Fault.Robustness.takeover with
        | Some (k, t) ->
            Json.Obj [ ("iteration", Json.Num (float_of_int k)); ("time", Json.num_of t) ]
        | None -> Json.Null );
      ( "divergences",
        Json.Arr
          (List.map
             (fun i -> Json.Num (float_of_int i))
             sb.Fault.Robustness.divergences) );
      ("standby_post_cost", opt sb.Fault.Robustness.standby_post_cost);
      ("switch_post_cost", opt sb.Fault.Robustness.switch_post_cost);
      ("frozen_post_cost", opt sb.Fault.Robustness.frozen_post_cost);
    ]

let robustness_json (s : Fault.Robustness.summary) =
  let outcome (o : Fault.Robustness.outcome) =
    Json.Obj
      [
        ("scenario", Json.Str o.Fault.Robustness.scenario.Fault.Scenario.name);
        ("replanned", Json.Bool o.Fault.Robustness.replanned);
        ("infeasible", Json.Bool o.Fault.Robustness.infeasible);
        ("fits_period", Json.Bool o.Fault.Robustness.fits_period);
        ("cost", Json.num_of o.Fault.Robustness.cost);
        ("degradation_pct", Json.num_of o.Fault.Robustness.degradation_pct);
        ("lost_transfers", Json.Num (float_of_int o.Fault.Robustness.lost_transfers));
        ("stale_reads", Json.Num (float_of_int o.Fault.Robustness.stale_reads));
        ("overruns", Json.Num (float_of_int o.Fault.Robustness.overruns));
        ( "standby",
          match o.Fault.Robustness.recovery with
          | Some { Fault.Robustness.standby = Some sb; _ } -> standby_json sb
          | _ -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("nominal_cost", Json.num_of s.Fault.Robustness.nominal_cost);
      ("worst_degradation_pct", Json.num_of s.Fault.Robustness.worst_degradation_pct);
      ("mean_degradation_pct", Json.num_of s.Fault.Robustness.mean_degradation_pct);
      ("all_feasible", Json.Bool s.Fault.Robustness.all_feasible);
      ("all_fit", Json.Bool s.Fault.Robustness.all_fit);
      ("scenarios", Json.Arr (List.map outcome s.Fault.Robustness.outcomes));
    ]

let report_json (file : Lifecycle.Diagram.t) (comparison : M.comparison) ~lint ~mc ~rob =
  let design = file.Lifecycle.Diagram.design in
  let schedule = comparison.M.implementation.M.schedule in
  Json.Obj
    [
      ("design", Json.Str design.D.name);
      ("ts", Json.num_of design.D.ts);
      ("horizon", Json.num_of design.D.horizon);
      ("ideal_cost", Json.num_of comparison.M.ideal_cost);
      ("implemented_cost", Json.num_of comparison.M.implemented_cost);
      ("degradation_pct", Json.num_of comparison.M.degradation_pct);
      ( "schedule",
        Json.Obj
          [
            ("makespan", Json.num_of schedule.Aaa.Schedule.makespan);
            ("fits_period", Json.Bool (Aaa.Schedule.fits_period schedule));
            ( "operators",
              Json.Num
                (float_of_int
                   (Aaa.Architecture.operator_count file.Lifecycle.Diagram.architecture))
            );
          ] );
      ("lint", lint_json lint);
      ("montecarlo", match mc with Some s -> montecarlo_json s | None -> Json.Null);
      ( "robustness",
        match rob with
        | Some (Ok s) -> robustness_json s
        | Some (Error msg) -> Json.Obj [ ("error", Json.Str msg) ]
        | None -> Json.Null );
    ]

(* ------------------------------------------------------------------ *)
(* the pipeline *)

let submission_key t source ~runs ~seed ~robustness =
  Explore.Key.digest
    [
      "scilife.serve.evaluate";
      Explore.Key.string source;
      Explore.Key.int runs;
      Explore.Key.int seed;
      Explore.Key.law t.cfg.law;
      Explore.Key.float t.cfg.bcet_frac;
      Explore.Key.int (if robustness then 1 else 0);
      Explore.Key.int t.cfg.robustness_iterations;
      Explore.Key.int (if t.cfg.standby then 1 else 0);
    ]

(* run the full pipeline on one parsed-from-[source] submission;
   returns the report plus the number of co-simulated scenarios *)
let compute t ~source ~runs ~seed ~robustness =
  match Lifecycle.Diagram.parse source with
  | exception Failure msg -> Error (P.Submission, msg)
  | exception Invalid_argument msg -> Error (P.Submission, msg)
  | file -> (
      let { Lifecycle.Diagram.design; architecture; durations; pins } = file in
      match M.evaluate ~pins ~design ~architecture ~durations () with
      | exception Aaa.Adequation.Infeasible msg -> Error (P.Infeasible, msg)
      | exception Invalid_argument msg -> Error (P.Submission, msg)
      | exception Failure msg -> Error (P.Submission, msg)
      | comparison ->
          let lint = Verify.run_all ~architecture ~durations ~pins design in
          let mc =
            if runs > 0 then
              Some
                (Lifecycle.Montecarlo.run ~runs ~base_seed:seed ~law:t.cfg.law
                   ~bcet_frac:t.cfg.bcet_frac ~pool:t.pool ~design
                   ~implementation:comparison.M.implementation ())
            else None
          in
          let rob =
            if robustness then
              let scenarios =
                Fault.Scenario.single_processor_failures ~seed architecture
              in
              (* hot-standby scoring needs a recovery policy so the
                 supervisor confirms the fail-stop the voter pins on *)
              let recovery =
                if t.cfg.standby then
                  Some
                    (Exec.Recovery.make
                       ~period:
                         (Aaa.Algorithm.period comparison.M.implementation.M.algorithm)
                       ())
                else None
              in
              Some
                (try
                   Ok
                     (Fault.Robustness.evaluate
                        ~iterations:t.cfg.robustness_iterations ~pool:t.pool ?recovery
                        ~standby:t.cfg.standby ~design ~architecture ~durations
                        ~scenarios ())
                 with e -> Error (Printexc.to_string e))
            else None
          in
          let scenario_count =
            runs
            + (match rob with
              | Some (Ok s) -> List.length s.Fault.Robustness.outcomes
              | Some (Error _) | None -> 0)
          in
          Ok (report_json file comparison ~lint ~mc ~rob, scenario_count))

(* resolve a submission to its text, enforcing the size limit *)
let load_submission t submission =
  let source =
    match submission with
    | P.Inline s -> Ok s
    | P.Path path -> (
        try Ok (In_channel.with_open_bin path In_channel.input_all)
        with Sys_error msg -> Error (P.Submission, msg))
  in
  match source with
  | Error e -> Error e
  | Ok source ->
      if String.length source > t.cfg.max_submission_bytes then
        Error
          ( P.Oversized,
            Printf.sprintf "submission is %d bytes (limit %d)" (String.length source)
              t.cfg.max_submission_bytes )
      else Ok source

let evaluate t ~submission (opts : P.evaluate_opts) =
  let runs = Option.value opts.P.montecarlo ~default:t.cfg.montecarlo_runs in
  let seed = Option.value opts.P.base_seed ~default:t.cfg.base_seed in
  let robustness = Option.value opts.P.robustness ~default:t.cfg.robustness in
  match load_submission t submission with
  | Error e -> Error e
  | Ok source ->
      begin
        let key = submission_key t source ~runs ~seed ~robustness in
        match Explore.Cache.find_opt t.cache ~key with
        | Some report -> Ok (report, true)
        | None -> (
            let t0 = Unix.gettimeofday () in
            match compute t ~source ~runs ~seed ~robustness with
            | Ok (report, scenario_count) ->
                t.scenarios <- t.scenarios + scenario_count;
                t.busy_s <- t.busy_s +. (Unix.gettimeofday () -. t0);
                Explore.Cache.add t.cache ~key report;
                (* cheap next to an evaluation; makes every reply durable *)
                Explore.Cache.flush t.cache;
                Ok (report, false)
            | Error e ->
                t.busy_s <- t.busy_s +. (Unix.gettimeofday () -. t0);
                Error e)
      end

(* ------------------------------------------------------------------ *)
(* raw Monte-Carlo batches *)

let montecarlo_key t source ~runs ~seed =
  Explore.Key.digest
    [
      "scilife.serve.montecarlo";
      Explore.Key.string source;
      Explore.Key.int runs;
      Explore.Key.int seed;
      Explore.Key.law t.cfg.law;
      Explore.Key.float t.cfg.bcet_frac;
    ]

(* the pipeline cut down to the shared-engine batch: parse, adequate,
   run every seed through [Montecarlo.costs] and hand the list back raw *)
let compute_montecarlo t ~source ~runs ~seed =
  match Lifecycle.Diagram.parse source with
  | exception Failure msg -> Error (P.Submission, msg)
  | exception Invalid_argument msg -> Error (P.Submission, msg)
  | file -> (
      let { Lifecycle.Diagram.design; architecture; durations; pins } = file in
      match M.implement ~pins ~design ~architecture ~durations () with
      | exception Aaa.Adequation.Infeasible msg -> Error (P.Infeasible, msg)
      | exception Invalid_argument msg -> Error (P.Submission, msg)
      | exception Failure msg -> Error (P.Submission, msg)
      | implementation ->
          let seeds = List.init runs (fun k -> seed + k) in
          let costs =
            Lifecycle.Montecarlo.costs ~pool:t.pool ~law:t.cfg.law
              ~bcet_frac:t.cfg.bcet_frac ~design ~implementation seeds
          in
          Ok
            (Json.Obj
               [
                 ("design", Json.Str design.D.name);
                 ("runs", Json.Num (float_of_int runs));
                 ("seed", Json.Num (float_of_int seed));
                 ("seeds", Json.Arr (List.map (fun s -> Json.Num (float_of_int s)) seeds));
                 ("costs", Json.Arr (List.map Json.num_of costs));
               ]))

let montecarlo t ~submission ~runs ~base_seed =
  let runs = Option.value runs ~default:t.cfg.montecarlo_runs in
  let seed = Option.value base_seed ~default:t.cfg.base_seed in
  match load_submission t submission with
  | Error e -> Error e
  | Ok source -> (
      let key = montecarlo_key t source ~runs ~seed in
      match Explore.Cache.find_opt t.cache ~key with
      | Some payload -> Ok (payload, true)
      | None -> (
          let t0 = Unix.gettimeofday () in
          match compute_montecarlo t ~source ~runs ~seed with
          | Ok payload ->
              t.scenarios <- t.scenarios + runs;
              t.busy_s <- t.busy_s +. (Unix.gettimeofday () -. t0);
              Explore.Cache.add t.cache ~key payload;
              Explore.Cache.flush t.cache;
              Ok (payload, false)
          | Error e ->
              t.busy_s <- t.busy_s +. (Unix.gettimeofday () -. t0);
              Error e))

(* ------------------------------------------------------------------ *)
(* stats & dispatch *)

let stats_json t =
  let cs = Explore.Cache.stats t.cache in
  let hit_rate = Explore.Cache.hit_rate cs in
  Json.Obj
    [
      ("requests", Json.Num (float_of_int t.requests));
      ("evaluations", Json.Num (float_of_int t.evaluations));
      ("errors", Json.Num (float_of_int t.errors));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Num (float_of_int cs.Explore.Cache.hits));
            ("misses", Json.Num (float_of_int cs.Explore.Cache.misses));
            ("evictions", Json.Num (float_of_int cs.Explore.Cache.evictions));
            ("size", Json.Num (float_of_int cs.Explore.Cache.size));
            ("capacity", Json.Num (float_of_int cs.Explore.Cache.capacity));
            ("hit_rate", Json.num_of hit_rate);
          ] );
      ("scenarios", Json.Num (float_of_int t.scenarios));
      ( "scenarios_per_sec",
        if t.busy_s > 0. then Json.num_of (float_of_int t.scenarios /. t.busy_s)
        else Json.Null );
      ( "latency_ms",
        if t.lat_count = 0 then Json.Null
        else
          Json.Obj
            [
              ("min", Json.num_of (1000. *. t.lat_min));
              ("mean", Json.num_of (1000. *. t.lat_sum /. float_of_int t.lat_count));
              ("max", Json.num_of (1000. *. t.lat_max));
            ] );
      ("uptime_s", Json.num_of (Unix.gettimeofday () -. t.started));
    ]

let record_latency t elapsed =
  t.lat_count <- t.lat_count + 1;
  t.lat_sum <- t.lat_sum +. elapsed;
  if elapsed < t.lat_min then t.lat_min <- elapsed;
  if elapsed > t.lat_max then t.lat_max <- elapsed

let respond t request =
  t.requests <- t.requests + 1;
  match request with
  | Error (code, msg) ->
      t.errors <- t.errors + 1;
      P.error_response ~code msg
  | Ok req -> (
      let id = P.request_id req in
      match req with
      | P.Stats _ -> P.ok_response ?id ~kind:"stats" [ ("stats", stats_json t) ]
      | P.Ping _ -> P.ok_response ?id ~kind:"pong" []
      | P.Shutdown _ ->
          P.ok_response ?id ~kind:"bye"
            [ ("served", Json.Num (float_of_int t.requests)) ]
      | P.Evaluate { submission; opts; _ } -> (
          t.evaluations <- t.evaluations + 1;
          let t0 = Unix.gettimeofday () in
          let result =
            try evaluate t ~submission opts
            with e -> Error (P.Internal, Printexc.to_string e)
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          record_latency t elapsed;
          match result with
          | Ok (report, cached) ->
              P.ok_response ?id ~kind:"report"
                [
                  ("cached", Json.Bool cached);
                  ("elapsed_ms", Json.num_of (1000. *. elapsed));
                  ("report", report);
                ]
          | Error (code, msg) ->
              t.errors <- t.errors + 1;
              P.error_response ?id ~code msg)
      | P.Montecarlo { submission; runs; base_seed; _ } -> (
          t.evaluations <- t.evaluations + 1;
          let t0 = Unix.gettimeofday () in
          let result =
            try montecarlo t ~submission ~runs ~base_seed
            with e -> Error (P.Internal, Printexc.to_string e)
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          record_latency t elapsed;
          match result with
          | Ok (payload, cached) ->
              P.ok_response ?id ~kind:"costs"
                [
                  ("cached", Json.Bool cached);
                  ("elapsed_ms", Json.num_of (1000. *. elapsed));
                  ("batch", payload);
                ]
          | Error (code, msg) ->
              t.errors <- t.errors + 1;
              P.error_response ?id ~code msg))

let close t = Explore.Cache.close t.cache
