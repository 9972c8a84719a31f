(* explore_sweep: a streamed design-space sweep on the default pool, as
   `experiments explore-scale` runs it — designs x generated priced
   platforms x latency fractions x jitter seeds through
   Lifecycle.Explorer.evaluate_seq.  Every round sweeps the same grid;
   the traced run replays each sweep's cells one by one on this domain. *)

let sample_every = 8

let candidates (g : Gen.grid) =
  Explore.Grid.seq ~fractions:g.Gen.fractions ~seeds:g.Gen.seeds ~platforms:g.Gen.platforms ()

let grid_size (g : Gen.grid) =
  List.length g.Gen.designs * List.length g.Gen.platforms * List.length g.Gen.fractions * List.length g.Gen.seeds

let sweep ~pool (g : Gen.grid) =
  Lifecycle.Explorer.evaluate_seq ~pool ~sample_every ~designs:g.Gen.designs ~candidates:(candidates g) ()

let objectives (p : Lifecycle.Explorer.point) = (p.Lifecycle.Explorer.price, p.Lifecycle.Explorer.cost)

let dominates (a1, a2) (b1, b2) = a1 <= b1 && a2 <= b2 && (a1 < b1 || a2 < b2)

let is_feasible (p : Lifecycle.Explorer.point) =
  (not p.Lifecycle.Explorer.infeasible) && p.Lifecycle.Explorer.fits_period && Float.is_finite p.Lifecycle.Explorer.cost

(* Feasible, unmappable and period-missing candidates counted from first
   principles: one implementation per cell, and per seed a co-simulation
   on a freshly built engine. *)
let recount (g : Gen.grid) =
  let feasible = ref 0 and infeasible = ref 0 and unfit = ref 0 in
  let seeds = List.length g.Gen.seeds in
  List.iter
    (fun (design : Lifecycle.Design.t) ->
      List.iter
        (fun (platform : Explore.Grid.platform) ->
          List.iter
            (fun fraction ->
              match
                Lifecycle.Methodology.implement ~design ~architecture:platform.Explore.Grid.architecture
                  ~durations:(platform.Explore.Grid.durations_of fraction) ()
              with
              | exception Aaa.Adequation.Infeasible _ -> infeasible := !infeasible + seeds
              | impl ->
                  let schedule = impl.Lifecycle.Methodology.schedule in
                  if schedule.Aaa.Schedule.makespan > Aaa.Algorithm.period schedule.Aaa.Schedule.algorithm then
                    unfit := !unfit + seeds
                  else
                    List.iter
                      (fun seed ->
                        let mode =
                          Translator.Delay_graph.Jittered { law = Exec.Timing_law.Uniform; bcet_frac = 0.4; seed }
                        in
                        let cost =
                          design.Lifecycle.Design.cost (Lifecycle.Methodology.simulate_implemented ~mode design impl)
                        in
                        if Float.is_finite cost then incr feasible else incr unfit)
                      g.Gen.seeds)
            g.Gen.fractions)
        g.Gen.platforms)
    g.Gen.designs;
  (!feasible, !infeasible, !unfit)

let check_summary (g : Gen.grid) (s : Lifecycle.Explorer.summary) =
  let open Lifecycle.Explorer in
  let feasible_n, infeasible_n, unfit = recount g in
  Util.check
    (s.s_evaluated = grid_size g && s.s_feasible = feasible_n && s.s_infeasible = infeasible_n
    && feasible_n + infeasible_n + unfit = grid_size g)
    "sweep: evaluated %d, feasible %d, infeasible %d; recounted %d feasible, %d infeasible, %d missing the \
     period, grid of %d"
    s.s_evaluated s.s_feasible s.s_infeasible feasible_n infeasible_n unfit (grid_size g);
  Printf.printf "sweep counters: %d evaluated = %d feasible + %d infeasible + %d adequated but missing the period\n"
    s.s_evaluated s.s_feasible s.s_infeasible unfit;
  Util.check (s.s_front <> []) "sweep: empty front";
  List.iter
    (fun p ->
      Util.check (is_feasible p) "sweep: an infeasible point on the front";
      List.iter
        (fun q -> Util.check (not (dominates (objectives q) (objectives p))) "sweep: a front point is dominated")
        s.s_front;
      List.iter
        (fun (i, q) ->
          Util.check
            (not (is_feasible q && dominates (objectives q) (objectives p)))
            "sweep: sample %d dominates the front" i)
        s.s_samples)
    s.s_front

(* Every retained sample against the rebuild-per-candidate reference. *)
let check_samples ~pool (g : Gen.grid) (s : Lifecycle.Explorer.summary) =
  let all = Array.of_seq (candidates g) in
  let n = Array.length all in
  List.iter
    (fun (i, p) ->
      let design = List.nth g.Gen.designs (i / n) in
      let reference =
        Lifecycle.Explorer.evaluate ~pool ~engine_reuse:false ~designs:[ design ] ~candidates:[ all.(i mod n) ] ()
      in
      Util.check (compare reference [ p ] = 0) "sweep: sample %d differs from the rebuild-per-candidate reference" i)
    s.Lifecycle.Explorer.s_samples

(* mean over the retained samples of makespan / WCET-chain lower bound *)
let makespan_ratio (g : Gen.grid) (s : Lifecycle.Explorer.summary) =
  Util.mean
    (List.map
       (fun (_, (p : Lifecycle.Explorer.point)) ->
         p.Lifecycle.Explorer.makespan
         /. Gen.sweep_chain g ~platform:p.Lifecycle.Explorer.platform ~fraction:p.Lifecycle.Explorer.fraction)
       s.Lifecycle.Explorer.s_samples)

type acc = { mutable events : int; mutable sim_time : float; mutable replay_time : float; mutable sweep_wall : float }

(* One sweep's work again, cell by cell on this domain: the per-cell
   implementation, one compiled session per cell, every seed through
   it, and the Pareto inserts of the resulting points. *)
let replay ~tag acc (g : Gen.grid) (summary : Lifecycle.Explorer.summary) =
  let t0 = Util.now () in
  let front = ref Explore.Pareto.Front.empty and index = ref 0 in
  let samples = summary.Lifecycle.Explorer.s_samples in
  List.iter
    (fun design ->
      List.iter
        (fun (platform : Explore.Grid.platform) ->
          List.iter
            (fun fraction ->
              let durations = platform.Explore.Grid.durations_of fraction in
              let implementation =
                Spans.with_ ~tag "aaa.cell_implement" (fun () ->
                    Replay.implement ~tag ~design ~architecture:platform.Explore.Grid.architecture ~durations ())
              in
              let session =
                Spans.with_ ~tag "lifecycle.session_create" (fun () ->
                    Lifecycle.Session.create ~design ~implementation ())
              in
              List.iter
                (fun seed ->
                  let t = Util.now () in
                  let cost = Spans.with_ ~tag "sim.candidate" (fun () -> Lifecycle.Session.cost session ~seed) in
                  acc.sim_time <- acc.sim_time +. (Util.now () -. t);
                  acc.events <- acc.events + Sim.Engine.steps (Lifecycle.Session.engine session);
                  (match List.assoc_opt !index samples with
                  | Some p ->
                      Util.check (p.Lifecycle.Explorer.cost = cost) "sweep replay: candidate %d costs differ" !index
                  | None -> ());
                  incr index;
                  Spans.with_ ~tag "explore.pareto_insert" (fun () ->
                      front := Explore.Pareto.Front.insert !front [| platform.Explore.Grid.price; cost |] ()))
                g.Gen.seeds)
            g.Gen.fractions)
        g.Gen.platforms)
    g.Gen.designs;
  acc.replay_time <- acc.replay_time +. (Util.now () -. t0)

let run_rounds ~traced ~seed ~seconds ~started =
  let pool = Explore.Pool.default () in
  let g = Gen.sweep_grid ~seed in
  let setup = Util.now () -. started in
  let start = Util.now () in
  let lat = ref [] and busy = ref 0. and first = ref None and round = ref 0 in
  let acc = { events = 0; sim_time = 0.; replay_time = 0.; sweep_wall = 0. } in
  while (if traced then Util.now () -. start else !busy) < seconds do
    (* no garbage of earlier sweeps or of the checks is left for this
       one to collect *)
    Gc.full_major ();
    let t0 = Util.now () in
    let s = Spans.with_ ~tag:!round "explore.sweep" (fun () -> sweep ~pool g) in
    let dt = Util.now () -. t0 in
    busy := !busy +. dt;
    lat := dt :: !lat;
    (match !first with
    | None ->
        check_summary g s;
        check_samples ~pool g s;
        first := Some s
    | Some f -> Util.check (compare f s = 0) "sweep %d differs from the first sweep" !round);
    if traced then begin
      acc.sweep_wall <- acc.sweep_wall +. dt;
      replay ~tag:!round acc g s
    end;
    incr round
  done;
  let summary = Option.get !first in
  let n = grid_size g in
  let ms q = 1e3 *. Util.percentile !lat q in
  Printf.printf "grid of %d candidates (%d cells) x %d sweeps, front of %d\n" n
    (n / List.length g.Gen.seeds) !round
    (List.length summary.Lifecycle.Explorer.s_front);
  ( !round,
    [
      ("setup_s", "s", setup);
      ("peak_rss_mb", "MiB", Util.peak_rss_mb "self");
      ("op_p50_ms", "ms", ms 0.5);
      ("op_p90_ms", "ms", ms 0.9);
      ("work_per_s", "1/s", float_of_int (n * !round) /. !busy);
      ("makespan_ratio", "ratio", makespan_ratio g summary);
    ],
    (pool, g, acc) )

let run ~seed ~seconds ~started =
  let attempted, e2e, _ = run_rounds ~traced:false ~seed ~seconds ~started in
  (attempted, 0, e2e)

let run_traced ~seed ~seconds ~started =
  let attempted, e2e, (pool, g, acc) = run_rounds ~traced:true ~seed ~seconds ~started in
  (* pulling the grid alone *)
  let pulls = 20 in
  let t0 = Util.now () in
  for _ = 1 to pulls do
    Spans.with_ "explore.grid_pull" (fun () -> Seq.iter ignore (candidates g))
  done;
  let pull = (Util.now () -. t0) /. float_of_int (pulls * Explore.Grid.count ~fractions:g.Gen.fractions ~seeds:g.Gen.seeds ~platforms:g.Gen.platforms ()) in
  let candidates = List.length (Spans.named "sim.candidate") in
  let words = Util.sum (List.map (fun s -> s.Spans.words) (Spans.named "sim.candidate")) in
  let domains = float_of_int (Explore.Pool.domains pool) in
  Printf.printf "sweep pool efficiency base: %.3f s replayed on one domain / (%g domains x %.3f s of sweeps)\n"
    acc.replay_time domains acc.sweep_wall;
  let per_layer =
    [
      ("explore.grid_ns_per_candidate", "ns", 1e9 *. pull);
      ("sim.events_per_candidate", "count", float_of_int acc.events /. float_of_int candidates);
      ("sim.ns_per_event", "ns", 1e9 *. acc.sim_time /. float_of_int acc.events);
      ("sim.minor_words_per_event", "words", words /. float_of_int acc.events);
      ("explore.sweep_pool_efficiency", "ratio", acc.replay_time /. (domains *. acc.sweep_wall));
    ]
  in
  (attempted, 0, e2e, per_layer)
