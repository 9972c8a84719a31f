(* Helpers shared by the workloads: clock, quantiles, memory readings,
   correctness bookkeeping and the result line. *)

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks; [xs] need not be sorted. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sum = List.fold_left ( +. ) 0.
let mean xs = if xs = [] then nan else sum xs /. float_of_int (List.length xs)

(* Peak resident set size (VmHWM) of process [pid] ("self" for this one),
   in MiB. *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Correctness bookkeeping: every failed check is recorded; the run is
   correct when none was. *)
let check_failures = ref []

let check cond fmt =
  Printf.ksprintf
    (fun msg -> if not cond then check_failures := msg :: !check_failures)
    fmt

let correct () =
  let failures = List.rev !check_failures in
  List.iteri (fun i msg -> if i < 20 then Printf.eprintf "CHECK FAILED: %s\n" msg) failures;
  if List.length failures > 20 then
    Printf.eprintf "... %d more failed checks\n" (List.length failures - 20);
  failures = []

let close_to ?(rel = 1e-9) a b =
  Float.abs (a -. b) <= rel *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* The last line of standard output: the run's verdict and metrics. *)
let print_result ~correct ~attempted ~failed metrics =
  let field (name, unit_, value) =
    if not (Float.is_finite value) then
      failwith (Printf.sprintf "metric %s is not finite" name);
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

(* Directory for the benchmark's outputs (traces, temporary memo logs,
   generated inputs), relative to the checkout root. *)
let out_dir = Filename.concat "perfbench" "out"

let ensure_dir dir =
  let rec mk d =
    if not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mk dir

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* A JSON string literal. *)
let json_string s =
  let b = Buffer.create (String.length s + 16) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
