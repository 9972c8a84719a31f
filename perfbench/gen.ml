(* Seeded input generators.  Every input the program under test receives
   is built here from (seed, stream, index) alone, so one seed fixes a
   run's inputs.  Sizes (processor counts, grid axes, round make-up) and
   the layered graphs' shapes do not depend on the seed; values (plants,
   periods, WCET tables, processor speeds, bus loads, prices) do. *)

(* the self-check's reduced sizes *)
let small = ref false

let rng ~seed ~stream ~index = Random.State.make [| 0x5eed; seed; stream; index |]
let uniform st lo hi = lo +. Random.State.float st (hi -. lo)
let int_in st lo hi = lo + Random.State.int st (hi - lo + 1)
let g = Printf.sprintf "%.6g"

(* ------------------------------------------------------------------ *)
(* serve_evaluate: lifecycle documents *)

type doc = {
  name : string;
  source : string;  (** the .lcs text sent inline *)
  runs : int;  (** Monte-Carlo count sent with the request *)
  mc_seed : int;  (** first Monte-Carlo seed sent with the request *)
  chain : float;  (** longest WCET chain, each operation on its fastest operator *)
  pinned : bool;
}

let plants = [| "dc-motor"; "cruise"; "first-order"; "mass-spring-damper"; "thermal" |]

(* Monte-Carlo count and co-simulated periods per fresh document *)
let mc_runs = (6, 14)
let periods = (150, 300)

(* plant block(s) given the horizon, extra links, sampling period,
   reference and the controller's parameters, per plant kind *)
let plant_part st kind =
  match kind with
  | "dc-motor" ->
      let ts = uniform st 0.03 0.06 in
      ( Fun.const "(block (name plant) (type lti) (plant dc-motor) (x0 0 0))",
        "",
        ts,
        1.,
        Printf.sprintf "(kp %s) (ki %s) (kd 0)" (g (uniform st 40. 70.)) (g (uniform st 60. 90.)) )
  | "cruise" ->
      let ts = uniform st 0.08 0.15 in
      ( (fun horizon ->
          Printf.sprintf
            "(block (name plant) (type lti) (plant cruise) (x0 0) (split-inputs))\n\
            \    (block (name grade) (type step) (at %s) (after -350))"
            (g (horizon /. 3.))),
        "(link grade 0 plant 1)",
        ts,
        25.,
        Printf.sprintf "(kp %s) (ki %s) (kd 0) (umin -2000) (umax 2000) (windup 2000)"
          (g (uniform st 300. 450.)) (g (uniform st 90. 130.)) )
  | "first-order" ->
      let tau = uniform st 0.5 2. and gain = uniform st 1. 4. in
      let ts = tau /. uniform st 15. 30. in
      let kp = uniform st 1.5 2.5 /. gain in
      ( Fun.const
          (Printf.sprintf "(block (name plant) (type lti) (plant first-order %s %s) (x0 0))" (g tau)
             (g gain)),
        "",
        ts,
        1.,
        Printf.sprintf "(kp %s) (ki %s) (kd 0)" (g kp) (g (kp /. tau)) )
  | "mass-spring-damper" ->
      let k = uniform st 1. 4. and c = uniform st 0.5 1.5 in
      ( Fun.const
          (Printf.sprintf "(block (name plant) (type lti) (plant mass-spring-damper 1 %s %s) (x0 0 0))"
             (g k) (g c)),
        "",
        uniform st 0.02 0.05,
        1.,
        Printf.sprintf "(kp %s) (ki %s) (kd %s)" (g (uniform st 12. 18.)) (g (uniform st 8. 12.))
          (g (uniform st 2. 3.)) )
  | _ ->
      ( Fun.const "(block (name plant) (type lti) (plant thermal) (x0 0 0))",
        "",
        uniform st 0.5 1.5,
        10.,
        Printf.sprintf "(kp %s) (ki %s) (kd 0) (umin 0) (umax 2000) (windup 2000)"
          (g (uniform st 30. 50.)) (g (uniform st 1. 2.)) )

let lifecycle_doc ~seed ~index =
  let st = rng ~seed ~stream:1 ~index in
  let kind = plants.((index + seed) mod Array.length plants) in
  let plant, extra_link, ts, reference, gains = plant_part st kind in
  let n_periods = int_in st (fst periods) (snd periods) in
  let horizon = ts *. float_of_int n_periods in
  let plant = plant horizon in
  let ecus = int_in st 2 4 in
  let names = List.init ecus (Printf.sprintf "ecu%d") in
  let base = uniform st 0.15 0.45 *. ts in
  let w_ref = 0.05 *. base and w_in = 0.2 *. base and w_out = 0.15 *. base in
  let w_pid = List.mapi (fun k _ -> 0.6 *. base *. if k = 0 then 1. else uniform st 0.4 1.2) names in
  let name = Printf.sprintf "gen_%d_%d" seed index in
  let source =
    String.concat "\n"
      [
        "(lifecycle";
        Printf.sprintf "  (design (name %s) (ts %s) (horizon %s) (cost iae y 0 %s))" name (g ts)
          (g horizon) (g reference);
        "  (diagram";
        "    " ^ plant;
        Printf.sprintf "    (block (name reference) (type const) (value %s))" (g reference);
        "    (block (name sample_y) (type sample-hold) (width 1))";
        Printf.sprintf "    (block (name pid) (type pid) %s (ts %s))" gains (g ts);
        "    (block (name hold_u) (type sample-hold) (width 1))";
        "    (link plant 0 sample_y 0)";
        "    (link reference 0 pid 0)";
        "    (link sample_y 0 pid 1)";
        "    (link pid 0 hold_u 0)";
        "    (link hold_u 0 plant 0)";
        (if extra_link = "" then "" else "    " ^ extra_link);
        "    (members reference sample_y pid hold_u)";
        "    (clocked sample_y pid hold_u)";
        "    (probe y plant 0)";
        "    (probe u hold_u 0))";
        Printf.sprintf "  (architecture (name bus%d)" ecus;
        String.concat "\n" (List.map (Printf.sprintf "    (operator %s)") names);
        Printf.sprintf "    (bus (name can) (latency %s) (rate %s) (connects %s)))"
          (g (ts *. uniform st 0.005 0.02))
          (g (ts *. uniform st 0.005 0.02))
          (String.concat " " names);
        "  (durations";
        Printf.sprintf "    (wcet reference * %s)" (g w_ref);
        Printf.sprintf "    (wcet sample_y ecu0 %s)" (g w_in);
        String.concat "\n"
          (List.map2 (fun n w -> Printf.sprintf "    (wcet pid %s %s)" n (g w)) names w_pid);
        Printf.sprintf "    (wcet hold_u ecu0 %s)))" (g w_out);
      ]
  in
  (* the document prints WCETs rounded to 6 digits; the bound uses the
     printed values *)
  let r x = float_of_string (g x) in
  {
    name;
    source;
    runs = int_in st (fst mc_runs) (snd mc_runs);
    mc_seed = 1000 + (37 * index);
    chain = Float.max (r w_ref) (r w_in) +. List.fold_left Float.min infinity (List.map r w_pid) +. r w_out;
    pinned = false;
  }

(* The known-fault submission: the DC-motor loop of
   examples/data/dc_motor.lcs with its controller pinned to ecu1, where
   the unpinned adequation places it on ecu0.  It does not depend on the
   seed; only its Monte-Carlo seed changes from round to round, so each
   round submits it fresh. *)
let pinned_source =
  {|(lifecycle
  (design (name dc_motor_pinned) (ts 0.05) (horizon 10)
          (cost iae y 0 1.0))
  (diagram
    (block (name plant) (type lti) (plant dc-motor) (x0 0 0))
    (block (name reference) (type const) (value 1))
    (block (name sample_y) (type sample-hold) (width 1))
    (block (name pid) (type pid) (kp 60) (ki 80) (kd 0) (ts 0.05))
    (block (name hold_u) (type sample-hold) (width 1))
    (link plant 0 sample_y 0)
    (link reference 0 pid 0)
    (link sample_y 0 pid 1)
    (link pid 0 hold_u 0)
    (link hold_u 0 plant 0)
    (members reference sample_y pid hold_u)
    (clocked sample_y pid hold_u)
    (probe y plant 0)
    (probe u hold_u 0))
  (architecture (name two_ecu)
    (operator ecu0)
    (operator ecu1)
    (bus (name can) (latency 0.001) (rate 0.002) (connects ecu0 ecu1)))
  (durations
    (wcet reference * 0.001)
    (wcet sample_y ecu0 0.009)
    (wcet pid * 0.027)
    (wcet hold_u ecu0 0.007))
  (pins (pin sample_y ecu0) (pin hold_u ecu0) (pin pid ecu1)))|}

let pinned_op = ("pid", "ecu1")

let pinned_doc ~round =
  {
    name = "dc_motor_pinned";
    source = pinned_source;
    runs = 8;
    mc_seed = 7000 + round;
    chain = 0.009 +. 0.027 +. 0.007;
    pinned = true;
  }

(* One round of requests: [fresh_per_round] new documents, a repeat of
   every second one right after it (answered from the memo), and one
   pinned document in the middle. *)
type request = Fresh of doc | Repeat of doc | Pinned of doc

let fresh_per_round = 8

let serve_round ~seed ~round =
  let docs = List.init fresh_per_round (fun i -> lifecycle_doc ~seed ~index:((round * fresh_per_round) + i)) in
  List.concat
    (List.mapi
       (fun i d ->
         let pinned = if i = fresh_per_round / 2 then [ Pinned (pinned_doc ~round) ] else [] in
         pinned @ [ Fresh d ] @ if i mod 2 = 1 then [ Repeat d ] else [])
       docs)

(* ------------------------------------------------------------------ *)
(* networked_deploy: .sdx applications on one shared bus *)

type app = {
  label : string;
  sdx : string;  (** the .sdx text the program parses *)
  algorithm : Aaa.Algorithm.t;  (** the generator's own graph, for the checks *)
  times : (string * string, float * float) Hashtbl.t;  (** (op, operator) -> (bcet, wcet) *)
  bus : Media.Bus.config;  (** the shared bus model, background load included *)
  iterations : int;
  exec_seed : int;
  chain : float;  (** longest WCET chain, each operation on its fastest operator *)
}

(* (shape, processors): fork-join with one branch per processor and
   random three-layer DAGs as wide as the processor count, alternating
   up to 20 processors on one bus *)
let deploy_slots =
  [ (`Fork_join, 4); (`Layered, 6); (`Fork_join, 8); (`Layered, 10); (`Fork_join, 12);
    (`Layered, 14); (`Fork_join, 16); (`Layered, 18); (`Fork_join, 20) ]

let shape_name = function `Fork_join -> "forkjoin" | `Layered -> "layered"

let deploy_labels = List.map (fun (shape, p) -> Printf.sprintf "%s-p%02d" (shape_name shape) p) deploy_slots

let iterations = 150

let deploy_app ~seed ~index (shape, procs) =
  let st = rng ~seed ~stream:2 ~index in
  let operators = List.init procs (Printf.sprintf "N%d") in
  (* time scale: layered graphs have a fixed 10 s period *)
  let time_per_word, algorithm, durations =
    match shape with
    | `Fork_join ->
        let tpw = uniform st 1.5e-4 2.5e-4 in
        let branches = procs in
        let sensor = uniform st 0.001 0.003 and branch = uniform st 0.003 0.006 in
        let fusion = uniform st 0.002 0.004 in
        let transfers = float_of_int (2 * branches) *. 6. *. tpw in
        let period = 1.5 *. (transfers +. sensor +. branch +. fusion +. sensor) in
        let alg, d =
          Aaa.Workloads.fork_join ~period ~sensor_wcet:sensor ~branch_wcet:branch
            ~fusion_wcet:fusion ~branches ~operators ()
        in
        (tpw, alg, d)
    | `Layered ->
        (* the graph's shape is fixed per slot: how long the adequation
           takes depends strongly on it, and a seed-drawn shape made the
           whole-set time spread by a third across seeds *)
        let rng = Numerics.Rng.create (1_000 + index) in
        let alg, d =
          Aaa.Workloads.layered ~rng ~layers:3 ~width:procs ~wcet_min:0.05 ~wcet_max:0.5
            ~operators ()
        in
        (uniform st 0.004 0.008, alg, d)
  in
  (* heterogeneous processors and a BCET below every WCET *)
  let speed = List.map (fun o -> (o, uniform st 0.7 1.3)) operators in
  let bcet_frac = uniform st 0.3 0.7 in
  let times = Hashtbl.create 64 in
  List.iter
    (fun op ->
      let name = Aaa.Algorithm.op_name algorithm op in
      List.iter
        (fun (o, s) ->
          match Aaa.Durations.wcet durations ~op:name ~operator:o with
          | Some w ->
              let w = float_of_string (g (w *. s)) in
              let b = float_of_string (g (w *. bcet_frac)) in
              Aaa.Durations.set durations ~op:name ~operator:o w;
              Aaa.Durations.set_bcet durations ~op:name ~operator:o b;
              Hashtbl.replace times (name, o) (b, w)
          | None -> ())
        speed)
    (Aaa.Algorithm.ops algorithm);
  let architecture = Aaa.Architecture.bus_topology ~name:"net" ~time_per_word operators in
  let sdx = Aaa.Sdx.print { Aaa.Sdx.algorithm; architecture; durations; pins = [] } in
  (* background chatter from every third node, about 25 % of the bus *)
  let chatter = List.filter (fun i -> i mod 3 = 0) (List.init procs Fun.id) in
  let overhead = 10. *. time_per_word in
  let frame = overhead +. (4. *. time_per_word) in
  let period = frame *. float_of_int (List.length chatter) /. uniform st 0.2 0.3 in
  let load =
    List.map
      (fun node ->
        Media.Load.periodic ~jitter_frac:0.3 ~node:(1000 + node) ~ident:(10 + node) ~words:4 ~period ())
      chatter
  in
  let bus =
    Media.Bus.make ~name:"bus" ~time_per_word ~frame_overhead:overhead ~max_wait:1e3
      ~seed:(seed + index) ~load ()
  in
  (* longest chain of WCETs, each operation on its fastest operator *)
  let fastest op =
    let name = Aaa.Algorithm.op_name algorithm op in
    List.fold_left
      (fun acc o -> match Hashtbl.find_opt times (name, o) with Some (_, w) -> Float.min acc w | None -> acc)
      infinity operators
  in
  let finish = Hashtbl.create 64 in
  List.iter
    (fun op ->
      let ready =
        List.fold_left
          (fun acc p -> Float.max acc (Hashtbl.find finish p))
          0. (Aaa.Algorithm.predecessors algorithm op)
      in
      Hashtbl.replace finish op (ready +. fastest op))
    (Aaa.Algorithm.topological_order algorithm);
  let chain = Hashtbl.fold (fun _ f acc -> Float.max acc f) finish 0. in
  {
    label = List.nth deploy_labels index;
    sdx;
    algorithm;
    times;
    bus;
    iterations;
    exec_seed = seed + index;
    chain;
  }

let deploy_set ~seed =
  let slots = if !small then List.filteri (fun i _ -> i < 3) deploy_slots else deploy_slots in
  List.mapi (fun index slot -> deploy_app ~seed ~index slot) slots

(* ------------------------------------------------------------------ *)
(* explore_sweep: designs x priced platforms x latency fractions x seeds *)

type grid = {
  designs : Lifecycle.Design.t list;
  platforms : Explore.Grid.platform list;
  speeds : (string * float list) list;  (** per platform label, operator speed factors *)
  fractions : float list;
  seeds : int list;
}

let sweep_periods = [ 0.04; 0.05; 0.06 ]
let sweep_platforms = 6
let sweep_fractions = [ 0.3; 0.6; 0.9 ]
let sweep_seeds = 8
let shares = [ ("reference", 0.05); ("sample_y", 0.2); ("pid", 0.6); ("hold_u", 0.15) ]

(* WCET of [op] on an operator of speed factor [s] at latency fraction [f] *)
let sweep_wcet ~share ~s f = share *. f *. 0.05 *. s

let sweep_grid ~seed =
  let st = rng ~seed ~stream:3 ~index:0 in
  let first n l = if !small then List.filteri (fun i _ -> i < n) l else l in
  let designs =
    List.map
      (fun ts ->
        Lifecycle.Design.pid_loop
          ~name:(Printf.sprintf "dc_motor_ts%g_%d" ts seed)
          ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
          ~x0:[| 0.; 0. |]
          ~gains:{ Control.Pid.kp = uniform st 50. 70.; ki = uniform st 70. 90.; kd = 0. }
          ~ts ~reference:1. ~horizon:(10. *. ts) ())
      (first 1 sweep_periods)
  in
  let platform k =
    let procs = 1 + (k mod 3) in
    let names = List.init procs (Printf.sprintf "P%d") in
    let speeds = List.map (fun _ -> uniform st 0.4 1.2) names in
    let architecture =
      if procs = 1 then Aaa.Architecture.single ~proc_name:"P0" ()
      else
        Aaa.Architecture.bus_topology ~latency:(uniform st 2e-4 8e-4) ~time_per_word:(uniform st 2e-4 8e-4)
          names
    in
    let durations_of f =
      let d = Aaa.Durations.create () in
      List.iter
        (fun (op, share) ->
          List.iter2
            (fun operator s ->
              let w = sweep_wcet ~share ~s f in
              Aaa.Durations.set d ~op ~operator w;
              Aaa.Durations.set_bcet d ~op ~operator (0.4 *. w))
            names speeds)
        shares;
      d
    in
    let label = Printf.sprintf "plat%d_%dp" k procs in
    (* faster operators cost more, so the front trades price for cost *)
    let price = List.fold_left (fun acc s -> acc +. (1. /. s)) 0. speeds *. uniform st 0.9 1.1 in
    ( { Explore.Grid.label; price; architecture; durations_of },
      (label, speeds) )
  in
  let ps = List.init (if !small then 2 else sweep_platforms) platform in
  {
    designs;
    platforms = List.map fst ps;
    speeds = List.map snd ps;
    fractions = first 2 sweep_fractions;
    seeds = List.init (if !small then 2 else sweep_seeds) (fun i -> (seed * 100) + i);
  }

(* Lower bound on a candidate's makespan: sensor and controller and
   actuator in sequence, each on the platform's fastest operator. *)
let sweep_chain grid ~platform ~fraction =
  let s = List.fold_left Float.min infinity (List.assoc platform grid.speeds) in
  let w op = sweep_wcet ~share:(List.assoc op shares) ~s fraction in
  Float.max (w "reference") (w "sample_y") +. w "pid" +. w "hold_u"
