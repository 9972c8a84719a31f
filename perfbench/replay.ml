(* Lifecycle.Methodology.implement taken apart into its public calls, so
   the traced runs attribute extraction, adequation, executive
   generation and the temporal model separately. *)

module M = Lifecycle.Methodology

let implement ~tag ?(pins = []) ~design ~architecture ~durations () =
  let built, algorithm, binding = Spans.with_ ~tag "lifecycle.extract" (fun () -> M.extract design) in
  let schedule =
    Spans.with_ ~tag "aaa.adequation" (fun () ->
        Aaa.Adequation.run ~pins ~algorithm ~architecture ~durations ())
  in
  let executive = Spans.with_ ~tag "aaa.codegen" (fun () -> Aaa.Codegen.generate schedule) in
  let static =
    Spans.with_ ~tag "translator.temporal_model" (fun () -> Translator.Temporal_model.of_schedule schedule)
  in
  { M.built; algorithm; binding; schedule; executive; static }
