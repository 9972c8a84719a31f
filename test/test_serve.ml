open Helpers
module Json = Serve.Json
module P = Serve.Protocol

(* one worker pool for every service in this file: spawning domains
   per test would dominate the suite's runtime *)
let pool = lazy (Explore.Pool.create ~domains:2 ())

let sample =
  {|
(lifecycle
  (design (name serve_loop) (ts 0.05) (horizon 2)
          (cost iae y 0 1.0))
  (diagram
    (block (name plant) (type lti) (plant first-order 0.5 1) (x0 0))
    (block (name reference) (type const) (value 1))
    (block (name sample_y) (type sample-hold) (width 1))
    (block (name pid) (type pid) (kp 4) (ki 8) (kd 0) (ts 0.05))
    (block (name hold_u) (type sample-hold) (width 1))
    (link plant 0 sample_y 0)
    (link reference 0 pid 0)
    (link sample_y 0 pid 1)
    (link pid 0 hold_u 0)
    (link hold_u 0 plant 0)
    (members reference sample_y pid hold_u)
    (clocked sample_y pid hold_u)
    (probe y plant 0))
  (architecture (name solo) (operator P0))
  (durations
    (wcet reference P0 0.001)
    (wcet sample_y P0 0.004)
    (wcet pid P0 0.012)
    (wcet hold_u P0 0.004)))
|}

(* ------------------------------------------------------------------ *)
(* json: the hand-rolled codec behind the wire protocol *)

let parse_ok s =
  match Json.parse s with Ok v -> v | Error msg -> Alcotest.failf "parse %S: %s" s msg

let parse_err s =
  match Json.parse s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "parse %S: expected an error" s

let json_tests =
  [
    test "values round-trip through print and parse" (fun () ->
        let v =
          Json.Obj
            [
              ("s", Json.Str "line\nbreak \"quoted\" \\ tab\t");
              ("n", Json.Num 42.);
              ("f", Json.Num 0.1);
              ("neg", Json.Num (-3.5));
              ("big", Json.Num 9.007199254740991e15);
              ("t", Json.Bool true);
              ("nil", Json.Null);
              ("a", Json.Arr [ Json.Num 1.; Json.Str ""; Json.Obj [] ]);
            ]
        in
        Alcotest.(check bool) "round-trip" true (parse_ok (Json.to_string v) = v));
    test "printed JSON never contains a raw newline" (fun () ->
        let v = Json.Obj [ ("k", Json.Str "a\nb\r\nc\x00d") ] in
        check_false "no newline" (contains (Json.to_string v) "\n"));
    test "integral numbers print without a decimal point" (fun () ->
        Alcotest.(check string) "int" "42" (Json.to_string (Json.Num 42.));
        Alcotest.(check string) "neg" "-7" (Json.to_string (Json.Num (-7.))));
    test "non-finite numbers print as null" (fun () ->
        Alcotest.(check string) "nan" "null" (Json.to_string (Json.Num nan));
        Alcotest.(check string) "inf" "null" (Json.to_string (Json.Num infinity)));
    test "unicode escapes decode to UTF-8" (fun () ->
        match parse_ok {|"Aé"|} with
        | Json.Str s -> Alcotest.(check string) "decoded" "A\xc3\xa9" s
        | _ -> Alcotest.fail "expected a string");
    test "malformed documents are rejected with a located error" (fun () ->
        List.iter parse_err
          [ "{"; "[1,2"; "tru"; "1 x"; "{\"a\":}"; "\"ctrl\n\""; "{'a':1}"; "" ];
        match Json.parse "[1, ]" with
        | Error msg -> check_true "byte offset" (contains msg "byte")
        | Ok _ -> Alcotest.fail "expected an error");
    test "nesting beyond the depth bound is rejected" (fun () ->
        let deep = String.make 200 '[' ^ String.make 200 ']' in
        parse_err deep);
    test "to_int accepts only integral numbers" (fun () ->
        check_true "integral" (Json.to_int (Json.Num 3.) = Some 3);
        check_true "fractional" (Json.to_int (Json.Num 3.5) = None);
        check_true "string" (Json.to_int (Json.Str "3") = None));
  ]

(* ------------------------------------------------------------------ *)
(* protocol: request parsing and response shapes *)

let req_ok line =
  match P.request_of_line line with
  | Ok r -> r
  | Error (_, msg) -> Alcotest.failf "request %S: %s" line msg

let req_err line =
  match P.request_of_line line with
  | Error (code, _) -> code
  | Ok _ -> Alcotest.failf "request %S: expected an error" line

let protocol_tests =
  [
    test "evaluate with inline source parses" (fun () ->
        match req_ok {|{"kind":"evaluate","id":7,"source":"(x)","montecarlo":5}|} with
        | P.Evaluate { id; submission = P.Inline "(x)"; opts } ->
            check_true "id" (id = Some (Json.Num 7.));
            check_true "runs" (opts.P.montecarlo = Some 5);
            check_true "seed default" (opts.P.base_seed = None)
        | _ -> Alcotest.fail "expected Evaluate");
    test "evaluate with a path parses" (fun () ->
        match req_ok {|{"kind":"evaluate","path":"f.lcs","robustness":false}|} with
        | P.Evaluate { submission = P.Path "f.lcs"; opts; _ } ->
            check_true "robustness" (opts.P.robustness = Some false)
        | _ -> Alcotest.fail "expected Evaluate");
    test "stats, ping and shutdown parse" (fun () ->
        check_true "stats" (match req_ok {|{"kind":"stats"}|} with P.Stats _ -> true | _ -> false);
        check_true "ping" (match req_ok {|{"kind":"ping"}|} with P.Ping _ -> true | _ -> false);
        check_true "shutdown"
          (match req_ok {|{"kind":"shutdown"}|} with P.Shutdown _ -> true | _ -> false));
    test "montecarlo with inline source parses" (fun () ->
        match req_ok {|{"kind":"montecarlo","id":3,"source":"(x)","runs":8,"seed":100}|} with
        | P.Montecarlo { id; submission = P.Inline "(x)"; runs; base_seed } ->
            check_true "id" (id = Some (Json.Num 3.));
            check_true "runs" (runs = Some 8);
            check_true "seed" (base_seed = Some 100)
        | _ -> Alcotest.fail "expected Montecarlo");
    test "montecarlo defaults runs and seed to the service's" (fun () ->
        match req_ok {|{"kind":"montecarlo","path":"f.lcs"}|} with
        | P.Montecarlo { submission = P.Path "f.lcs"; runs = None; base_seed = None; _ } ->
            ()
        | _ -> Alcotest.fail "expected Montecarlo with defaults");
    test "montecarlo violations are typed" (fun () ->
        check_true "no submission" (req_err {|{"kind":"montecarlo"}|} = P.Protocol);
        check_true "both submissions"
          (req_err {|{"kind":"montecarlo","source":"a","path":"b"}|} = P.Protocol);
        check_true "negative runs"
          (req_err {|{"kind":"montecarlo","source":"a","runs":-1}|} = P.Protocol);
        check_true "ill-typed seed"
          (req_err {|{"kind":"montecarlo","source":"a","seed":"x"}|} = P.Protocol));
    test "protocol violations are typed" (fun () ->
        check_true "not json" (req_err "nope" = P.Parse);
        check_true "no kind" (req_err "{}" = P.Protocol);
        check_true "unknown kind" (req_err {|{"kind":"frobnicate"}|} = P.Protocol);
        check_true "no submission" (req_err {|{"kind":"evaluate"}|} = P.Protocol);
        check_true "both submissions"
          (req_err {|{"kind":"evaluate","source":"a","path":"b"}|} = P.Protocol);
        check_true "negative runs"
          (req_err {|{"kind":"evaluate","source":"a","montecarlo":-1}|} = P.Protocol);
        check_true "ill-typed field"
          (req_err {|{"kind":"evaluate","source":"a","seed":"x"}|} = P.Protocol));
    test "unknown fields are ignored" (fun () ->
        match req_ok {|{"kind":"ping","extra":[1,2,3]}|} with
        | P.Ping _ -> ()
        | _ -> Alcotest.fail "expected Ping");
    test "responses carry id, ok and a code" (fun () ->
        let e = P.error_response ~id:(Json.Num 3.) ~code:P.Oversized "too big" in
        check_true "id" (Json.member "id" e = Some (Json.Num 3.));
        check_true "not ok" (Json.member "ok" e = Some (Json.Bool false));
        (match Json.member "error" e with
        | Some err ->
            check_true "code" (Json.member "code" err = Some (Json.Str "oversized"))
        | None -> Alcotest.fail "no error object");
        let o = P.ok_response ~kind:"pong" [] in
        check_true "ok" (Json.member "ok" o = Some (Json.Bool true));
        check_true "kind" (Json.member "kind" o = Some (Json.Str "pong")));
  ]

(* ------------------------------------------------------------------ *)
(* batch: shared-engine scenarios are bit-for-bit the rebuilt ones *)

let batch_design =
  Lifecycle.Design.pid_loop ~name:"serve_batch_dc"
    ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
    ~x0:[| 0.; 0. |]
    ~gains:{ Control.Pid.kp = 60.; ki = 80.; kd = 0. }
    ~ts:0.05 ~reference:1. ~horizon:0.5 ()

let batch_impl =
  let d = Aaa.Durations.create () in
  List.iter
    (fun (op, share) -> Aaa.Durations.set d ~op ~operator:"P0" (share *. 0.6 *. 0.05))
    [ ("reference", 0.05); ("sample_y", 0.2); ("pid", 0.6); ("hold_u", 0.15) ];
  Lifecycle.Methodology.implement ~design:batch_design
    ~architecture:(Aaa.Architecture.single ()) ~durations:d ()

let batch_tests =
  [
    test "montecarlo equals Lifecycle.Montecarlo.run bit for bit" (fun () ->
        let shared =
          Serve.Batch.montecarlo ~runs:6 ~base_seed:500 ~pool:(Lazy.force pool)
            ~design:batch_design ~implementation:batch_impl ()
        in
        let rebuilt =
          Lifecycle.Montecarlo.run ~runs:6 ~base_seed:500 ~pool:(Lazy.force pool)
            ~design:batch_design ~implementation:batch_impl ()
        in
        check_true "costs" (shared.Lifecycle.Montecarlo.costs = rebuilt.Lifecycle.Montecarlo.costs);
        check_true "seeds" (shared.Lifecycle.Montecarlo.seeds = rebuilt.Lifecycle.Montecarlo.seeds);
        check_true "static" (shared.Lifecycle.Montecarlo.static_cost = rebuilt.Lifecycle.Montecarlo.static_cost);
        check_true "mean" (shared.Lifecycle.Montecarlo.mean = rebuilt.Lifecycle.Montecarlo.mean));
    test "one engine serves any seed order, repeatably" (fun () ->
        let b = Serve.Batch.create ~design:batch_design ~implementation:batch_impl () in
        let c7 = Serve.Batch.cost b ~seed:7 in
        let c9 = Serve.Batch.cost b ~seed:9 in
        check_true "distinct seeds differ" (c7 <> c9);
        check_float "seed 7 again" c7 (Serve.Batch.cost b ~seed:7);
        check_float "seed 9 again" c9 (Serve.Batch.cost b ~seed:9));
    test "costs is order-preserving and chunk-independent" (fun () ->
        let seeds = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
        let parallel =
          Lifecycle.Montecarlo.costs ~pool:(Lazy.force pool) ~design:batch_design
            ~implementation:batch_impl seeds
        in
        let b = Serve.Batch.create ~design:batch_design ~implementation:batch_impl () in
        let sequential = List.map (fun seed -> Serve.Batch.cost b ~seed) seeds in
        check_true "equal" (parallel = sequential));
    test "montecarlo rejects non-positive run counts" (fun () ->
        check_raises_invalid "runs" (fun () ->
            Serve.Batch.montecarlo ~runs:0 ~design:batch_design
              ~implementation:batch_impl ()));
  ]

(* ------------------------------------------------------------------ *)
(* service: the evaluation pipeline behind one request *)

let test_config =
  {
    Serve.Service.default_config with
    Serve.Service.montecarlo_runs = 4;
    robustness = false;
  }

let service ?(config = test_config) () =
  Serve.Service.create ~pool:(Lazy.force pool) config

let evaluate_req ?(extra = []) source =
  P.request_of_line
    (Json.to_string
       (Json.Obj
          ([ ("kind", Json.Str "evaluate"); ("source", Json.Str source) ] @ extra)))

let expect_report resp =
  check_true "ok" (Json.member "ok" resp = Some (Json.Bool true));
  match Json.member "report" resp with
  | Some r -> r
  | None -> Alcotest.fail "no report"

let expect_error code resp =
  check_true "not ok" (Json.member "ok" resp = Some (Json.Bool false));
  match Json.member "error" resp with
  | Some err ->
      check_true "code"
        (Json.member "code" err = Some (Json.Str (P.error_code_to_string code)))
  | None -> Alcotest.fail "no error object"

let service_tests =
  [
    test "an evaluation reports costs, lint and schedule" (fun () ->
        let s = service () in
        let resp = Serve.Service.respond s (evaluate_req sample) in
        check_true "not cached" (Json.member "cached" resp = Some (Json.Bool false));
        let report = expect_report resp in
        check_true "design" (Json.member "design" report = Some (Json.Str "serve_loop"));
        check_true "ideal cost"
          (match Json.member "ideal_cost" report with
           | Some (Json.Num c) -> c > 0.
           | _ -> false);
        (match Json.member "montecarlo" report with
        | Some mc -> check_true "runs" (Json.member "runs" mc = Some (Json.Num 4.))
        | None -> Alcotest.fail "no montecarlo");
        (match Json.member "schedule" report with
        | Some sched -> check_true "fits" (Json.member "fits_period" sched <> None)
        | None -> Alcotest.fail "no schedule");
        Serve.Service.close s);
    test "a repeated submission is a cache hit with the same report" (fun () ->
        let s = service () in
        let first = Serve.Service.respond s (evaluate_req sample) in
        let second = Serve.Service.respond s (evaluate_req sample) in
        check_true "hit" (Json.member "cached" second = Some (Json.Bool true));
        check_true "same report"
          (Json.member "report" first = Json.member "report" second);
        (match Serve.Service.stats_json s |> Json.member "cache" with
        | Some cache -> check_true "one hit" (Json.member "hits" cache = Some (Json.Num 1.))
        | None -> Alcotest.fail "no cache stats");
        Serve.Service.close s);
    test "changed evaluation knobs miss the cache" (fun () ->
        let s = service () in
        ignore (Serve.Service.respond s (evaluate_req sample));
        let resp =
          Serve.Service.respond s
            (evaluate_req ~extra:[ ("seed", Json.Num 2024.) ] sample)
        in
        check_true "different key" (Json.member "cached" resp = Some (Json.Bool false));
        Serve.Service.close s);
    test "a malformed submission is a structured error, not a crash" (fun () ->
        let s = service () in
        expect_error P.Submission (Serve.Service.respond s (evaluate_req "(lifecycle"));
        (* the service keeps serving afterwards *)
        ignore (expect_report (Serve.Service.respond s (evaluate_req sample)));
        Serve.Service.close s);
    test "a missing submission file is a submission error" (fun () ->
        let s = service () in
        expect_error P.Submission
          (Serve.Service.respond s
             (P.request_of_line {|{"kind":"evaluate","path":"/nonexistent/x.lcs"}|}));
        Serve.Service.close s);
    test "oversized submissions are rejected by size, not parsed" (fun () ->
        let s =
          service
            ~config:{ test_config with Serve.Service.max_submission_bytes = 64 }
            ()
        in
        expect_error P.Oversized
          (Serve.Service.respond s (evaluate_req (String.make 100 'x')));
        Serve.Service.close s);
    test "a montecarlo request returns the raw batch" (fun () ->
        let s = service () in
        let req =
          P.request_of_line
            (Json.to_string
               (Json.Obj
                  [
                    ("kind", Json.Str "montecarlo");
                    ("source", Json.Str sample);
                    ("runs", Json.Num 5.);
                    ("seed", Json.Num 40.);
                  ]))
        in
        let resp = Serve.Service.respond s req in
        check_true "ok" (Json.member "ok" resp = Some (Json.Bool true));
        check_true "kind" (Json.member "kind" resp = Some (Json.Str "costs"));
        check_true "fresh" (Json.member "cached" resp = Some (Json.Bool false));
        (match Json.member "batch" resp with
        | Some batch ->
            check_true "design" (Json.member "design" batch = Some (Json.Str "serve_loop"));
            check_true "runs" (Json.member "runs" batch = Some (Json.Num 5.));
            (match Json.member "costs" batch with
            | Some (Json.Arr costs) ->
                check_int "one cost per run" 5 (List.length costs);
                check_true "all positive"
                  (List.for_all
                     (function Json.Num c -> c > 0. | _ -> false)
                     costs)
            | _ -> Alcotest.fail "no costs array");
            (match Json.member "seeds" batch with
            | Some (Json.Arr seeds) ->
                check_true "consecutive from the base seed"
                  (seeds = List.init 5 (fun k -> Json.Num (float_of_int (40 + k))))
            | _ -> Alcotest.fail "no seeds array")
        | None -> Alcotest.fail "no batch payload");
        (* a repeat is a cache hit with the identical payload *)
        let second = Serve.Service.respond s req in
        check_true "cached" (Json.member "cached" second = Some (Json.Bool true));
        check_true "same batch" (Json.member "batch" resp = Json.member "batch" second);
        Serve.Service.close s);
    test "a malformed montecarlo submission is a structured error" (fun () ->
        let s = service () in
        expect_error P.Submission
          (Serve.Service.respond s
             (P.request_of_line {|{"kind":"montecarlo","source":"(lifecycle"}|}));
        Serve.Service.close s);
    test "robustness scenarios appear when enabled" (fun () ->
        let s =
          service
            ~config:
              {
                test_config with
                Serve.Service.robustness = true;
                robustness_iterations = 5;
                montecarlo_runs = 0;
              }
            ()
        in
        let report = expect_report (Serve.Service.respond s (evaluate_req sample)) in
        (match Json.member "robustness" report with
        | Some rob ->
            check_true "per-operator scenarios"
              (match Json.member "scenarios" rob with
               | Some (Json.Arr (_ :: _)) -> true
               | _ -> false)
        | None -> Alcotest.fail "no robustness");
        check_true "montecarlo off" (Json.member "montecarlo" report = Some Json.Null);
        Serve.Service.close s);
  ]

(* ------------------------------------------------------------------ *)
(* server: the wire loop, driven synchronously through file fds *)

let with_temp f =
  let path = Filename.temp_file "scilife_serve" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* writes [input] to a file, serves it, returns the outcome and the
   response lines — exactly how a session over a pipe unfolds, minus
   the concurrency *)
let run_session ?(config = test_config) input =
  with_temp (fun in_path ->
      with_temp (fun out_path ->
          Out_channel.with_open_bin in_path (fun oc -> Out_channel.output_string oc input);
          let fd_in = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
          let fd_out = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
          let s = service ~config () in
          let outcome =
            Fun.protect
              ~finally:(fun () ->
                Unix.close fd_in;
                Unix.close fd_out;
                Serve.Service.close s)
              (fun () -> Serve.Server.serve ~service:s ~input:fd_in ~output:fd_out)
          in
          let out = In_channel.with_open_bin out_path In_channel.input_all in
          let lines =
            List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
          in
          (outcome, List.map parse_ok lines)))

let line json = Json.to_string json ^ "\n"

let evaluate_line ?(fields = []) source =
  line (Json.Obj ([ ("kind", Json.Str "evaluate"); ("source", Json.Str source) ] @ fields))

let server_tests =
  [
    test "ping then shutdown ends the session with a bye" (fun () ->
        let outcome, responses =
          run_session {|{"kind":"ping","id":1}
{"kind":"shutdown","id":2}
|}
        in
        check_true "shutdown" (outcome = `Shutdown);
        match responses with
        | [ pong; bye ] ->
            check_true "pong" (Json.member "kind" pong = Some (Json.Str "pong"));
            check_true "bye" (Json.member "kind" bye = Some (Json.Str "bye"));
            check_true "served" (Json.member "served" bye = Some (Json.Num 2.))
        | _ -> Alcotest.failf "expected 2 responses, got %d" (List.length responses));
    test "malformed JSON gets an error and the server keeps serving" (fun () ->
        let outcome, responses = run_session "{not json}\n{\"kind\":\"ping\"}\n" in
        check_true "eof" (outcome = `Eof);
        match responses with
        | [ err; pong ] ->
            expect_error P.Parse err;
            check_true "pong" (Json.member "kind" pong = Some (Json.Str "pong"))
        | _ -> Alcotest.fail "expected 2 responses");
    test "an unknown request kind is a protocol error" (fun () ->
        let _, responses = run_session "{\"kind\":\"frobnicate\"}\n{\"kind\":\"ping\"}\n" in
        match responses with
        | [ err; _pong ] -> expect_error P.Protocol err
        | _ -> Alcotest.fail "expected 2 responses");
    test "an oversized request line is discarded, not buffered" (fun () ->
        (* the line cap is 2x the submission limit + 64 KiB of slack:
           only a line beyond ~66 KiB trips the reader itself *)
        let config = { test_config with Serve.Service.max_submission_bytes = 16 } in
        let big = evaluate_line (String.make 100_000 'x') in
        let outcome, responses = run_session ~config (big ^ "{\"kind\":\"ping\"}\n") in
        check_true "eof" (outcome = `Eof);
        match responses with
        | [ err; pong ] ->
            expect_error P.Oversized err;
            check_true "pong" (Json.member "kind" pong = Some (Json.Str "pong"))
        | _ -> Alcotest.fail "expected 2 responses");
    test "a submission over the service limit is an oversized error" (fun () ->
        let config = { test_config with Serve.Service.max_submission_bytes = 64 } in
        let _, responses = run_session ~config (evaluate_line (String.make 100 'y')) in
        match responses with
        | [ err ] -> expect_error P.Oversized err
        | _ -> Alcotest.fail "expected 1 response");
    test "input ending mid-request is answered then disconnects" (fun () ->
        let outcome, responses =
          run_session "{\"kind\":\"ping\"}\n{\"kind\":\"st"
        in
        check_true "disconnect" (outcome = `Disconnect);
        match responses with
        | [ pong; err ] ->
            check_true "pong" (Json.member "kind" pong = Some (Json.Str "pong"));
            expect_error P.Parse err
        | _ -> Alcotest.fail "expected 2 responses");
    test "a full evaluation flows over the wire, then hits the cache" (fun () ->
        let input = evaluate_line ~fields:[ ("id", Json.Num 1.) ] sample
                    ^ evaluate_line ~fields:[ ("id", Json.Num 2.) ] sample in
        let _, responses = run_session input in
        match responses with
        | [ first; second ] ->
            check_true "first is fresh"
              (Json.member "cached" first = Some (Json.Bool false));
            check_true "second is cached"
              (Json.member "cached" second = Some (Json.Bool true));
            check_true "ids in order"
              (Json.member "id" first = Some (Json.Num 1.)
              && Json.member "id" second = Some (Json.Num 2.))
        | _ -> Alcotest.fail "expected 2 responses");
    test "responses stay ordered past the pending-queue bound" (fun () ->
        let config = { test_config with Serve.Service.max_pending = 2 } in
        let input =
          String.concat ""
            (List.init 7 (fun i ->
                 line (Json.Obj [ ("kind", Json.Str "ping"); ("id", Json.Num (float_of_int i)) ])))
        in
        let _, responses = run_session ~config input in
        check_int "all answered" 7 (List.length responses);
        List.iteri
          (fun i resp ->
            check_true "in order"
              (Json.member "id" resp = Some (Json.Num (float_of_int i))))
          responses);
    test "blank lines between requests are skipped" (fun () ->
        let _, responses = run_session "\n\n{\"kind\":\"ping\"}\n\n" in
        check_int "one response" 1 (List.length responses));
    test "stats over the wire has the full shape" (fun () ->
        let _, responses = run_session "{\"kind\":\"stats\"}\n" in
        match responses with
        | [ resp ] -> (
            match Json.member "stats" resp with
            | Some stats ->
                List.iter
                  (fun field -> check_true field (Json.member field stats <> None))
                  [ "requests"; "evaluations"; "errors"; "cache"; "scenarios"; "uptime_s" ]
            | None -> Alcotest.fail "no stats payload")
        | _ -> Alcotest.fail "expected 1 response");
  ]

let suites =
  [
    ("serve.json", json_tests);
    ("serve.protocol", protocol_tests);
    ("serve.batch", batch_tests);
    ("serve.service", service_tests);
    ("serve.server", server_tests);
  ]
