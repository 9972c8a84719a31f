(* networked_deploy: generated .sdx applications taken in-process from
   text to a checked executed trace — parse, adequation, executive
   generation, a many-iteration run on the simulated machine over a
   shared bus with background load, the static bus-schedulability lint
   and the measured latency series.  Every round deploys the whole
   generated set again. *)

let eps = 1e-9

let deploy ~tag (a : Gen.app) =
  let app = Spans.with_ ~tag "aaa.sdx_parse" (fun () -> Aaa.Sdx.parse a.Gen.sdx) in
  let schedule =
    Spans.with_ ~tag "aaa.adequation" (fun () ->
        Aaa.Adequation.run ~pins:app.Aaa.Sdx.pins ~algorithm:app.Aaa.Sdx.algorithm
          ~architecture:app.Aaa.Sdx.architecture ~durations:app.Aaa.Sdx.durations ())
  in
  let executive = Spans.with_ ~tag "aaa.codegen" (fun () -> Aaa.Codegen.generate schedule) in
  let trace =
    Spans.with_ ~tag "exec.machine_run" (fun () ->
        Exec.Machine.run
          ~config:
            {
              Exec.Machine.default_config with
              iterations = a.Gen.iterations;
              law = Exec.Timing_law.Uniform;
              durations = Some app.Aaa.Sdx.durations;
              seed = a.Gen.exec_seed;
              bus_models = [ ("bus", a.Gen.bus) ];
            }
          executive)
  in
  let diags =
    Spans.with_ ~tag "verify.media_rules" (fun () ->
        Verify.Media_rules.check ~schedule [ ("bus", a.Gen.bus) ])
  in
  let series =
    Spans.with_ ~tag "translator.temporal_model" (fun () ->
        let static = Translator.Temporal_model.of_schedule schedule in
        (static, Translator.Temporal_model.sampling_series trace, Translator.Temporal_model.actuation_series trace))
  in
  (schedule, trace, diags, series)

(* The schedule's public records against the generator's own graph and
   WCET table, and the executed trace against the schedule. *)
let check (a : Gen.app) (schedule : Aaa.Schedule.t) (trace : Exec.Machine.trace) =
  let alg = schedule.Aaa.Schedule.algorithm and arch = schedule.Aaa.Schedule.architecture in
  let id name =
    match Aaa.Algorithm.find_op alg name with Some i -> i | None -> failwith ("missing op " ^ name)
  in
  let op_name = Aaa.Algorithm.op_name alg and proc = Aaa.Architecture.operator_name arch in
  let slot = Hashtbl.create 64 in
  List.iter (fun (c : Aaa.Schedule.comp_slot) -> Hashtbl.add slot c.Aaa.Schedule.cs_op c) schedule.Aaa.Schedule.comp;
  let ops = Aaa.Algorithm.ops a.Gen.algorithm in
  Util.check
    (List.for_all (fun op -> List.length (Hashtbl.find_all slot (id (Aaa.Algorithm.op_name a.Gen.algorithm op))) = 1) ops
    && Hashtbl.length slot = List.length ops)
    "%s: not every operation is scheduled exactly once" a.Gen.label;
  let finish (c : Aaa.Schedule.comp_slot) = c.Aaa.Schedule.cs_start +. c.Aaa.Schedule.cs_duration in
  List.iter
    (fun (c : Aaa.Schedule.comp_slot) ->
      let _, w = Hashtbl.find a.Gen.times (op_name c.Aaa.Schedule.cs_op, proc c.Aaa.Schedule.cs_operator) in
      Util.check (Float.abs (c.Aaa.Schedule.cs_duration -. w) <= eps) "%s: slot of %s is not its WCET" a.Gen.label
        (op_name c.Aaa.Schedule.cs_op))
    schedule.Aaa.Schedule.comp;
  (* precedence: local producers finish first; remote ones reach the
     consumer through a contiguous chain of transfer hops *)
  List.iter
    (fun ((src, sp), (dst, dp)) ->
      let src = id (Aaa.Algorithm.op_name a.Gen.algorithm src)
      and dst = id (Aaa.Algorithm.op_name a.Gen.algorithm dst) in
      let s = Hashtbl.find slot src and d = Hashtbl.find slot dst in
      if s.Aaa.Schedule.cs_operator = d.Aaa.Schedule.cs_operator then
        Util.check (d.Aaa.Schedule.cs_start >= finish s -. eps) "%s: %s starts before local producer %s finishes"
          a.Gen.label (op_name dst) (op_name src)
      else begin
        let hops =
          List.filter
            (fun (c : Aaa.Schedule.comm_slot) -> c.Aaa.Schedule.cm_src = (src, sp) && c.Aaa.Schedule.cm_dst = (dst, dp))
            schedule.Aaa.Schedule.comm
          |> List.sort (fun x y -> compare x.Aaa.Schedule.cm_hop y.Aaa.Schedule.cm_hop)
        in
        match hops with
        | [] -> Util.check false "%s: no transfer from %s to %s" a.Gen.label (op_name src) (op_name dst)
        | first :: _ ->
            let last = List.nth hops (List.length hops - 1) in
            Util.check
              (first.Aaa.Schedule.cm_from = s.Aaa.Schedule.cs_operator
              && last.Aaa.Schedule.cm_to = d.Aaa.Schedule.cs_operator
              && first.Aaa.Schedule.cm_start >= finish s -. eps
              && d.Aaa.Schedule.cs_start >= last.Aaa.Schedule.cm_start +. last.Aaa.Schedule.cm_duration -. eps)
              "%s: transfer %s -> %s does not connect producer finish to consumer start" a.Gen.label (op_name src)
              (op_name dst);
            ignore
              (List.fold_left
                 (fun (prev : Aaa.Schedule.comm_slot) (h : Aaa.Schedule.comm_slot) ->
                   Util.check
                     (h.Aaa.Schedule.cm_from = prev.Aaa.Schedule.cm_to
                     && h.Aaa.Schedule.cm_start >= prev.Aaa.Schedule.cm_start +. prev.Aaa.Schedule.cm_duration -. eps)
                     "%s: hops of %s -> %s are not contiguous" a.Gen.label (op_name src) (op_name dst);
                   h)
                 first (List.tl hops))
      end)
    (Aaa.Algorithm.dependencies a.Gen.algorithm);
  (* no overlap on an operator, none on the bus *)
  let disjoint what intervals =
    let sorted = List.sort compare intervals in
    ignore
      (List.fold_left
         (fun prev_end (start, stop) ->
           Util.check (start >= prev_end -. eps) "%s: two %s overlap" a.Gen.label what;
           Float.max prev_end stop)
         neg_infinity sorted)
  in
  List.iter
    (fun p ->
      disjoint ("computations on " ^ proc p)
        (List.filter_map
           (fun (c : Aaa.Schedule.comp_slot) ->
             if c.Aaa.Schedule.cs_operator = p then Some (c.Aaa.Schedule.cs_start, finish c) else None)
           schedule.Aaa.Schedule.comp))
    (Aaa.Architecture.operators arch);
  disjoint "transfers on the bus"
    (List.map
       (fun (c : Aaa.Schedule.comm_slot) -> (c.Aaa.Schedule.cm_start, c.Aaa.Schedule.cm_start +. c.Aaa.Schedule.cm_duration))
       schedule.Aaa.Schedule.comm);
  Util.check (schedule.Aaa.Schedule.makespan >= a.Gen.chain -. eps) "%s: makespan %g below the WCET chain %g"
    a.Gen.label schedule.Aaa.Schedule.makespan a.Gen.chain;
  (* the trace: durations within [BCET, WCET], and on every operator the
     schedule's order in every iteration *)
  let order = Hashtbl.create 16 in
  List.iter
    (fun (c : Aaa.Schedule.comp_slot) ->
      let p = c.Aaa.Schedule.cs_operator in
      Hashtbl.replace order p ((c.Aaa.Schedule.cs_start, c.Aaa.Schedule.cs_op) :: Option.value (Hashtbl.find_opt order p) ~default:[]))
    schedule.Aaa.Schedule.comp;
  let expected = Hashtbl.create 16 in
  Hashtbl.iter (fun p l -> Hashtbl.replace expected p (List.map snd (List.sort compare l))) order;
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (e : Exec.Machine.op_exec) ->
      let b, w = Hashtbl.find a.Gen.times (op_name e.Exec.Machine.oe_op, proc e.Exec.Machine.oe_operator) in
      let dur = e.Exec.Machine.oe_finish -. e.Exec.Machine.oe_start in
      Util.check
        ((not e.Exec.Machine.oe_skipped) && (not e.Exec.Machine.oe_failed) && dur >= b -. eps && dur <= w +. eps)
        "%s: %s ran %g s, outside [%g, %g]" a.Gen.label (op_name e.Exec.Machine.oe_op) dur b w;
      let k = (e.Exec.Machine.oe_iteration, e.Exec.Machine.oe_operator) in
      Hashtbl.replace seen k (e.Exec.Machine.oe_op :: Option.value (Hashtbl.find_opt seen k) ~default:[]))
    trace.Exec.Machine.ops;
  Util.check (Hashtbl.length seen = a.Gen.iterations * Hashtbl.length expected) "%s: iterations missing from the trace"
    a.Gen.label;
  Hashtbl.iter
    (fun (k, p) ran ->
      Util.check (List.rev ran = Hashtbl.find expected p) "%s: iteration %d on %s leaves the schedule's order"
        a.Gen.label k (proc p))
    seen

(* One operation is one round: the whole generated set deployed back to
   back.  The checks run after the round, outside the timed region. *)
let run_rounds ~wall ~seed ~seconds ~started =
  let apps = Gen.deploy_set ~seed in
  let setup = Util.now () -. started in
  let start = Util.now () in
  let rounds = ref [] and busy = ref 0. and tag = ref 0 in
  let makespans = ref [] and frames = ref 0 in
  let label_of_tag = Hashtbl.create 64 in
  while (if wall then Util.now () -. start else !busy) < seconds do
    (* no garbage of the previous round or of its checks is left for
       this one to collect *)
    Gc.full_major ();
    let t0 = Util.now () in
    let results =
      List.map
        (fun (a : Gen.app) ->
          incr tag;
          Hashtbl.replace label_of_tag !tag a.Gen.label;
          Spans.with_ ~tag:!tag "deploy.app" (fun () -> deploy ~tag:!tag a))
        apps
    in
    let dt = Util.now () -. t0 in
    busy := !busy +. dt;
    rounds := dt :: !rounds;
    let ms =
      List.map2
        (fun (a : Gen.app) (schedule, trace, _, _) ->
          check a schedule trace;
          schedule.Aaa.Schedule.makespan)
        apps results
    in
    (match !makespans with
    | [] ->
        makespans := ms;
        List.iter
          (fun (_, (trace : Exec.Machine.trace), _, _) ->
            frames := !frames + List.fold_left (fun acc (_, log) -> acc + List.length log) 0 trace.Exec.Machine.bus_log)
          results
    | first -> Util.check (first = ms) "round %d: makespans differ from the first round" (List.length !rounds))
  done;
  let ms q = 1e3 *. Util.percentile !rounds q in
  let n = List.length apps * List.length !rounds in
  Printf.printf "%d applications x %d rounds; whole set p50 %.3f s\n" (List.length apps) (List.length !rounds)
    (Util.percentile !rounds 0.5);
  ( n,
    [
      ("setup_s", "s", setup);
      ("peak_rss_mb", "MiB", Util.peak_rss_mb "self");
      ("op_p50_ms", "ms", ms 0.5);
      ("op_p90_ms", "ms", ms 0.9);
      ("work_per_s", "1/s", float_of_int n /. !busy);
      ("makespan_ratio", "ratio", Util.mean (List.map2 (fun m (a : Gen.app) -> m /. a.Gen.chain) !makespans apps));
    ],
    (apps, !makespans, !frames, label_of_tag) )

let run ~seed ~seconds ~started =
  let attempted, e2e, _ = run_rounds ~wall:false ~seed ~seconds ~started in
  (attempted, 0, e2e)

let run_traced ~seed ~seconds ~started =
  let attempted, e2e, (apps, makespans, frames, label_of_tag) = run_rounds ~wall:true ~seed ~seconds ~started in
  let adequations label =
    List.filter (fun s -> Hashtbl.find_opt label_of_tag s.Spans.tag = Some label) (Spans.named "aaa.adequation")
  in
  let machine = Util.sum (List.map Spans.duration (Spans.named "exec.machine_run")) in
  let runs = float_of_int (List.length (Spans.named "exec.machine_run")) in
  let per_app = float_of_int frames /. float_of_int (List.length apps) in
  let per_layer =
    List.concat_map
      (fun label ->
        let s = adequations label in
        [
          ("aaa.adequation_ms." ^ label, "ms", 1e3 *. Util.mean (List.map Spans.duration s));
          ("aaa.adequation_minor_words." ^ label, "words", Util.mean (List.map (fun s -> s.Spans.words) s));
        ])
      Gen.deploy_labels
    @ [
        ("media.frames", "count", per_app);
        ("exec.us_per_frame", "us", 1e6 *. machine /. (runs *. per_app));
        ("aaa.makespan_sum_ms", "ms", 1e3 *. Util.sum makespans);
      ]
  in
  (attempted, 0, e2e, per_layer)
