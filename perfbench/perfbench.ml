(* The repository's end-to-end benchmark.  See README.md for the
   workloads, metrics, seeds and how to run it.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --selfcheck
     perfbench --gen-inputs DIR --seed N

   With --trace 0 the last line of stdout is the JSON result carrying the
   end-to-end metrics; with --trace 1 it carries the per-layer metrics of
   a traced run, whose spans are also written as JSON lines. *)

let workloads = [ "serve_evaluate"; "networked_deploy"; "explore_sweep" ]

(* Per-layer metrics taken from span means: metric, unit, span, scale. *)
let span_means =
  [
    ("lifecycle.parse_ms", "ms", "lifecycle.parse", 1e3);
    ("lifecycle.simulate_ideal_ms", "ms", "lifecycle.simulate_ideal", 1e3);
    ("lifecycle.simulate_implemented_ms", "ms", "lifecycle.simulate_implemented", 1e3);
    ("lifecycle.implement_ms", "ms", "lifecycle.implement", 1e3);
    ("lifecycle.session_create_ms", "ms", "lifecycle.session_create", 1e3);
    ("sim.scenario_ms", "ms", "sim.scenario", 1e3);
    ("sim.candidate_us", "us", "sim.candidate", 1e6);
    ("serve.montecarlo_batch_ms", "ms", "serve.montecarlo_batch", 1e3);
    ("serve.respond_ms", "ms", "serve.respond", 1e3);
    ("serve.hit_us", "us", "serve.hit", 1e6);
    ("serve.protocol_parse_us", "us", "serve.protocol_parse", 1e6);
    ("serve.json_render_us", "us", "serve.json_render", 1e6);
    ("verify.run_all_ms", "ms", "verify.run_all", 1e3);
    ("fault.robustness_ms", "ms", "fault.robustness", 1e3);
    ("aaa.sdx_parse_ms", "ms", "aaa.sdx_parse", 1e3);
    ("aaa.adequation_ms", "ms", "aaa.adequation", 1e3);
    ("aaa.codegen_ms", "ms", "aaa.codegen", 1e3);
    ("aaa.cell_implement_ms", "ms", "aaa.cell_implement", 1e3);
    ("translator.temporal_model_ms", "ms", "translator.temporal_model", 1e3);
    ("exec.machine_run_ms", "ms", "exec.machine_run", 1e3);
    ("verify.media_rules_ms", "ms", "verify.media_rules", 1e3);
    ("explore.pareto_insert_ns", "ns", "explore.pareto_insert", 1e9);
  ]

(* Minor words allocated by the calling domain per traced call. *)
let span_words = [ ("aaa.adequation_minor_words", "aaa.adequation"); ("exec.machine_run_minor_words", "exec.machine_run") ]

(* Metrics a workload computes itself; a workload that does not cross a
   layer reports 0 for its metrics. *)
let provided =
  [
    ("sim.events_per_scenario", "count");
    ("sim.ns_per_event", "ns");
    ("sim.minor_words_per_event", "words");
    ("explore.pool_efficiency", "ratio");
    ("media.frames", "count");
    ("exec.us_per_frame", "us");
    ("aaa.makespan_sum_ms", "ms");
    ("explore.grid_ns_per_candidate", "ns");
    ("sim.events_per_candidate", "count");
    ("explore.sweep_pool_efficiency", "ratio");
  ]
  @ List.concat_map
      (fun label -> [ ("aaa.adequation_ms." ^ label, "ms"); ("aaa.adequation_minor_words." ^ label, "words") ])
      Gen.deploy_labels

let per_layer_metrics own =
  let mean f spans = if spans = [] then 0. else Util.mean (List.map f spans) in
  List.map (fun (m, u, span, scale) -> (m, u, scale *. mean Spans.duration (Spans.named span))) span_means
  @ List.map (fun (m, span) -> (m, "words", mean (fun s -> s.Spans.words) (Spans.named span))) span_words
  @ List.map
      (fun (m, u) -> (m, u, match List.find_opt (fun (n, _, _) -> n = m) own with Some (_, _, v) -> v | None -> 0.))
      provided

(* Cost of one span around an empty call, measured after the run. *)
let span_overhead () =
  let saved = !Spans.finished and n = 100_000 in
  let t0 = Util.now () in
  for _ = 1 to n do
    Spans.with_ "overhead" ignore
  done;
  let per = (Util.now () -. t0) /. float_of_int n in
  Spans.finished := saved;
  per

let run_untraced ~syndex ~workload ~seed ~seconds ~started =
  match workload with
  | "serve_evaluate" -> W_serve.run ~syndex ~seed ~seconds
  | "networked_deploy" -> W_deploy.run ~seed ~seconds ~started
  | _ -> W_sweep.run ~seed ~seconds ~started

let run_traced ~workload ~seed ~seconds ~started =
  Spans.enabled := true;
  let attempted, failed, e2e, own =
    match workload with
    | "serve_evaluate" -> W_serve.run_traced ~seed ~seconds
    | "networked_deploy" -> W_deploy.run_traced ~seed ~seconds ~started
    | _ -> W_sweep.run_traced ~seed ~seconds ~started
  in
  Util.ensure_dir Util.out_dir;
  let path = Filename.concat Util.out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
  Spans.write_jsonl path;
  let spans = List.length (Spans.all ()) in
  let per_span = span_overhead () in
  Spans.print_self_times ();
  print_endline "traced-run end-to-end figures (compare with an untraced run for the tracing overhead):";
  List.iter (fun (n, u, v) -> Printf.printf "  %-16s %14.6g %s\n" n v u) e2e;
  Printf.printf "spans: %d written to %s; %.0f ns per span, %.3f s of span bookkeeping in all\n" spans path
    (1e9 *. per_span) (per_span *. float_of_int spans);
  (attempted, failed, per_layer_metrics own)

let gen_inputs ~dir ~seed =
  Util.ensure_dir dir;
  List.iteri
    (fun i req ->
      let d = W_serve.doc_of req in
      let kind = match req with Gen.Fresh _ -> "fresh" | Gen.Repeat _ -> "repeat" | Gen.Pinned _ -> "pinned" in
      Util.write_file
        (Filename.concat dir (Printf.sprintf "serve-r0-%02d-%s-%s.lcs" i kind d.Gen.name))
        (Printf.sprintf "; montecarlo %d, seed %d\n%s\n" d.Gen.runs d.Gen.mc_seed d.Gen.source))
    (Gen.serve_round ~seed ~round:0);
  List.iter
    (fun (a : Gen.app) -> Util.write_file (Filename.concat dir (Printf.sprintf "deploy-%s.sdx" a.Gen.label)) a.Gen.sdx)
    (Gen.deploy_set ~seed);
  let g = Gen.sweep_grid ~seed in
  Util.write_file (Filename.concat dir "sweep-grid.txt")
    (String.concat "\n"
       (List.map (fun (d : Lifecycle.Design.t) -> Printf.sprintf "design %s ts %g horizon %g" d.Lifecycle.Design.name d.Lifecycle.Design.ts d.Lifecycle.Design.horizon) g.Gen.designs
       @ List.map
           (fun (p : Explore.Grid.platform) ->
             Printf.sprintf "platform %s price %g operators %d speeds %s" p.Explore.Grid.label p.Explore.Grid.price
               (Aaa.Architecture.operator_count p.Explore.Grid.architecture)
               (String.concat " " (List.map (Printf.sprintf "%g") (List.assoc p.Explore.Grid.label g.Gen.speeds))))
           g.Gen.platforms
       @ [
           "fractions " ^ String.concat " " (List.map (Printf.sprintf "%g") g.Gen.fractions);
           "seeds " ^ String.concat " " (List.map string_of_int g.Gen.seeds);
         ])
    ^ "\n");
  Printf.printf "inputs for seed %d written to %s\n" seed dir

(* Every workload at small size, untraced then traced, with all checks. *)
let selfcheck ~syndex ~started =
  Gen.small := true;
  let ok =
    List.for_all
      (fun workload ->
        let t0 = Util.now () in
        Util.check_failures := [];
        let attempted, failed, _ = run_untraced ~syndex ~workload ~seed:1 ~seconds:0.01 ~started in
        let attempted', failed', _ = run_traced ~workload ~seed:1 ~seconds:0.01 ~started in
        Spans.enabled := false;
        Spans.finished := [];
        let correct = Util.correct () in
        Printf.printf "selfcheck %-16s %s: %d+%d operations, %d+%d failed, %.1f s\n%!" workload
          (if correct then "ok" else "FAILED")
          attempted attempted' failed failed' (Util.now () -. t0);
        correct)
      workloads
  in
  exit (if ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let syndex = ref "" and started = ref (Util.now ()) in
  let self = ref false and inputs = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--syndex", Arg.Set_string syndex, "PATH the syndex executable (serve_evaluate)");
      ("--started-ns", Arg.String (fun s -> started := float_of_string s /. 1e9), "NS process start");
      ("--selfcheck", Arg.Set self, " every workload at small size with all checks");
      ("--gen-inputs", Arg.Set_string inputs, "DIR write the inputs generated from --seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selfcheck ~syndex:!syndex ~started:!started
  else if !inputs <> "" then gen_inputs ~dir:!inputs ~seed:!seed
  else begin
    if not (List.mem !workload workloads) then begin
      Printf.eprintf "unknown workload %S (expected one of %s)\n" !workload (String.concat ", " workloads);
      exit 2
    end;
    let attempted, failed, metrics =
      if !trace = 1 then run_traced ~workload:!workload ~seed:!seed ~seconds:!seconds ~started:!started
      else run_untraced ~syndex:!syndex ~workload:!workload ~seed:!seed ~seconds:!seconds ~started:!started
    in
    let correct = Util.correct () in
    Util.print_result ~correct ~attempted ~failed metrics;
    exit (if correct then 0 else 1)
  end
