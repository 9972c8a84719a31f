(* In-memory spans for the traced run.  Each span records the wall
   interval and the minor words allocated by the calling domain around
   one call into a library layer; spans nest, and spans of one request
   or candidate share its tag.  Off by default: an untraced run pays one
   branch per wrapped call. *)

type span = {
  id : int;
  name : string;  (** "<layer>.<call>" *)
  parent : int;  (** -1 for a root span *)
  tag : int;  (** request, application or sweep id; -1 when none *)
  t0 : float;
  t1 : float;
  words : float;  (** minor words allocated by this domain *)
}

let enabled = ref false
let finished = ref []
let open_ids = ref []
let next_id = ref 0

let with_ ?(tag = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let w0 = Gc.minor_words () in
    let t0 = Util.now () in
    let close () =
      let t1 = Util.now () in
      let words = Gc.minor_words () -. w0 in
      open_ids := List.tl !open_ids;
      finished := { id; name; parent; tag; t0; t1; words } :: !finished
    in
    match f () with
    | r -> close (); r
    | exception e -> close (); raise e
  end

let all () = List.rev !finished
let duration s = s.t1 -. s.t0
let named name = List.filter (fun s -> s.name = name) (all ())

(* Self time: the span's duration minus the time its children cover. *)
let self_times () =
  let spans = all () in
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    spans

let write_jsonl path =
  let spans = all () in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": \"%s\", \"parent\": %d, \"tag\": %d, \"start_us\": %.3f, \
             \"end_us\": %.3f, \"minor_words\": %.0f}\n"
            s.id s.name s.parent s.tag
            (1e6 *. (s.t0 -. base))
            (1e6 *. (s.t1 -. base))
            s.words)
        spans)

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Per-call and per-layer self-time table, on stdout. *)
let print_self_times () =
  let rows = Hashtbl.create 64 and layers = Hashtbl.create 16 in
  let bump tbl k (calls, self, total, words) =
    let c, s, t, w = Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0., 0., 0.) in
    Hashtbl.replace tbl k (c + calls, s +. self, t +. total, w +. words)
  in
  List.iter
    (fun (s, self) ->
      bump rows s.name (1, self, duration s, s.words);
      bump layers (layer_of s.name) (1, self, 0., 0.))
    (self_times ());
  let sorted tbl =
    List.sort (fun (_, (_, a, _, _)) (_, (_, b, _, _)) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl))
  in
  let grand = Hashtbl.fold (fun _ (_, s, _, _) acc -> acc +. s) layers 0. in
  print_endline "per-call self time (traced run):";
  Printf.printf "  %-36s %8s %12s %12s %14s\n" "span" "calls" "self ms" "total ms" "minor words/call";
  List.iter
    (fun (name, (calls, self, total, words)) ->
      Printf.printf "  %-36s %8d %12.3f %12.3f %14.0f\n" name calls (1e3 *. self) (1e3 *. total)
        (words /. float_of_int calls))
    (sorted rows);
  print_endline "per-layer self time (traced run):";
  List.iter
    (fun (layer, (_, self, _, _)) ->
      Printf.printf "  %-12s %12.3f ms %6.1f %%\n" layer (1e3 *. self)
        (if grand > 0. then 100. *. self /. grand else 0.))
    (sorted layers)
