(* The per-layer ledger of a traced run: spans recorded by the benchmark
   around each call into a layer, kept in memory and written at exit as
   Chrome trace-event JSON (load it in ui.perfetto.dev).

   Spans nest through an explicit stack on the benchmark's own domain.
   Each records wall seconds and the minor words the domain allocated
   while it was open; a span's self time is its duration minus the part
   its children cover (children run one after another, so that part is
   the sum of their durations). *)

module Json = Psb_obs.Json
module Trace_event = Psb_obs.Trace_event

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  label : string;  (** program, model or experiment; [""] when none *)
  rep : int;  (** rep or trial index; [-1] when none *)
  t0 : float;
  t1 : float;
  words : float;
  args : (string * Json.t) list;
}

type t = {
  origin : float;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** most recently closed first *)
}

let create () =
  { origin = Workload.now (); next = 0; stack = []; spans = [] }

let span t ?(label = "") ?(rep = -1) ?(args = fun () -> []) name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = Gc.minor_words () in
  let t0 = Workload.now () in
  Fun.protect f ~finally:(fun () ->
      let t1 = Workload.now () in
      let words = Gc.minor_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; parent; name; label; rep; t0; t1; words; args = args () }
        :: t.spans)

(* Timed runs pass no ledger: tracing off costs nothing. *)
let opt_span ledger ?label ?rep name f =
  match ledger with None -> f () | Some t -> span t ?label ?rep name f

let duration s = s.t1 -. s.t0

type stat = {
  calls : int;
  seconds : float;  (** inclusive *)
  self_seconds : float;
  words : float;  (** inclusive *)
}

let zero = { calls = 0; seconds = 0.; self_seconds = 0.; words = 0. }

(* Each span's root and self time. *)
let index t =
  let by_id = Hashtbl.create 1024 and children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id s;
      let prev = Option.value (Hashtbl.find_opt children s.parent) ~default:0. in
      Hashtbl.replace children s.parent (prev +. duration s))
    t.spans;
  let rec root s =
    match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s
  in
  let self s =
    duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.
  in
  (root, self)

(* Aggregate the spans named [name] (and labelled [label], when given)
   that lie under a root span named [within] (anywhere, when not). *)
let stat t ?within ?label name =
  let root, self = index t in
  List.fold_left
    (fun acc s ->
      if
        s.name = name
        && Option.fold ~none:true ~some:(String.equal s.label) label
        && Option.fold ~none:true ~some:(fun w -> (root s).name = w) within
      then
        {
          calls = acc.calls + 1;
          seconds = acc.seconds +. duration s;
          self_seconds = acc.self_seconds +. self s;
          words = acc.words +. s.words;
        }
      else acc)
    zero t.spans

(* The durations of the spans named [name] (and labelled [label]). *)
let durations t ?label name =
  t.spans
  |> List.filter (fun s ->
         s.name = name && Option.fold ~none:true ~some:(String.equal s.label) label)
  |> List.map duration

(* The metrics a layer's spans give, named after the spans: cost per
   call over all of them, and the share by self time of the wall time
   [total] of the roots named [within] (a rep: sim-long compiles only in
   its set-up, outside every rep). *)
let call_metrics t ~within ~total name =
  let s = stat t name in
  let per_call x = if s.calls = 0 then 0. else x /. float_of_int s.calls in
  [
    (name ^ ".us_per_call", per_call s.seconds *. 1e6);
    (name ^ ".words_per_call", per_call s.words);
    (name ^ ".share", Workload.ratio (stat t ~within name).self_seconds total);
  ]

(* Trace timestamps are whole microseconds since the ledger was created;
   flooring both ends keeps a child inside its parent (Trace_event widens
   a zero-length span to 1us, the one place a child can overhang). *)
let to_trace t ~metadata =
  let tr = Trace_event.create ~process_name:"psb-benchmark" () in
  let track = Trace_event.track tr "benchmark" in
  let us x = int_of_float (Float.floor ((x -. t.origin) *. 1e6)) in
  t.spans
  |> List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id))
  |> List.iter (fun s ->
         let ts = us s.t0 in
         Trace_event.span tr track ~name:s.name ~ts ~dur:(us s.t1 - ts)
           ~args:
             ([
                ("id", Json.Int s.id);
                ("parent", Json.Int s.parent);
                ("minor_words", Json.Float s.words);
              ]
             @ (if s.label = "" then [] else [ ("label", Json.String s.label) ])
             @ (if s.rep < 0 then [] else [ ("rep", Json.Int s.rep) ])
             @ s.args)
           ());
  Trace_event.to_json tr ~metadata ()

let write t ~metadata path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (Json.to_string ~minify:true (to_trace t ~metadata)))

(* The trace's "X" events nest: every span with a parent lies inside it,
   up to the 1us a widened zero-length span may overhang. *)
let check_nesting doc =
  let events =
    Json.to_list (Option.value (Json.member "traceEvents" doc) ~default:Json.Null)
    |> List.filter (fun e -> Json.member "ph" e = Some (Json.String "X"))
  in
  let field k e = Option.bind (Json.member k e) Json.to_int in
  let arg k e = Option.bind (Json.member "args" e) (fun a -> Option.bind (Json.member k a) Json.to_int) in
  let interval e =
    match (field "ts" e, field "dur" e) with
    | Some ts, Some dur -> Some (ts, ts + dur)
    | _ -> None
  in
  let by_id = Hashtbl.create 1024 in
  List.iter
    (fun e -> Option.iter (fun id -> Hashtbl.replace by_id id e) (arg "id" e))
    events;
  events <> []
  && List.for_all
       (fun e ->
         match (arg "parent" e, interval e) with
         | Some -1, Some _ -> true
         | Some p, Some (c0, c1) -> (
             match Option.bind (Hashtbl.find_opt by_id p) interval with
             | Some (p0, p1) -> c0 >= p0 && c1 <= p1 + 1
             | None -> false)
         | _ -> false)
       events
