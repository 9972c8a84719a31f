type t = {
  design : Design.t;
  engine : Sim.Engine.t;
  rng : Numerics.Rng.t;
}

let meth_tag = function
  | None -> "meth:default"
  | Some Numerics.Ode.Euler -> "meth:euler"
  | Some Numerics.Ode.Rk2 -> "meth:rk2"
  | Some Numerics.Ode.Rk4 -> "meth:rk4"
  | Some (Numerics.Ode.Rkf45 { rtol; atol }) ->
      Printf.sprintf "meth:rkf45:%h:%h" rtol atol

let key ?meth ?(law = Exec.Timing_law.Uniform) ?(bcet_frac = 0.4)
    ?comm_jitter_frac ~design ~implementation () =
  Explore.Key.digest
    [
      "scilife.session";
      (design : Design.t).Design.name;
      Explore.Key.float design.Design.ts;
      Explore.Key.float design.Design.horizon;
      Explore.Key.schedule implementation.Methodology.schedule;
      Explore.Key.law law;
      Explore.Key.float bcet_frac;
      (match comm_jitter_frac with
      | None -> "nojitter"
      | Some f -> Explore.Key.float f);
      meth_tag meth;
    ]

let create ?meth ?(law = Exec.Timing_law.Uniform) ?(bcet_frac = 0.4)
    ?comm_jitter_frac ~design ~implementation () =
  (* [Design.build] is deterministic, so the binding's block ids
     recorded at extraction are valid in this fresh instance — the
     same invariant [Methodology.simulate_implemented] relies on *)
  let built = (design : Design.t).Design.build () in
  let rng = Numerics.Rng.create 0 in
  let _dg =
    Translator.Cosim.attach_delay_graph
      ~mode:(Translator.Delay_graph.Jittered { law; bcet_frac; seed = 0 })
      ?comm_jitter_frac ?condition_feed:built.Design.condition_feed
      ~graph:built.Design.graph ~schedule:implementation.Methodology.schedule
      ~binding:implementation.Methodology.binding ~rng ()
  in
  { design; engine = Methodology.engine_with_probes ?meth built; rng }

let cost t ~seed =
  Numerics.Rng.reseed t.rng seed;
  Sim.Engine.reset t.engine;
  Sim.Engine.run ~t_end:t.design.Design.horizon t.engine;
  t.design.Design.cost t.engine

let engine t = t.engine

(* one cached session per domain: the exploration scheduler keeps a
   design's candidates mostly contiguous on a domain, so a single
   keyed slot captures nearly all the reuse without holding more than
   one compiled engine alive per domain *)
let slot : (string * t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let obtain ~key:k ~create:make =
  let r = Domain.DLS.get slot in
  match !r with
  | Some (k', s) when String.equal k' k -> s
  | _ ->
      let s = make () in
      r := Some (k, s);
      s

let clear_cached () = Domain.DLS.get slot := None
