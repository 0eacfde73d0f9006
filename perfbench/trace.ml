(* Benchmark-side tracing: spans recorded around the calls the benchmark
   makes into each layer of the simulator.  Nothing inside the program is
   instrumented; the only program-recorded regions used here are the
   "golden/snapshot" and "exec/restore" phase spans that {!Fault} already
   folds into an {!Obs.Span} recorder, attached as child spans.

   A span name is "<layer>.<call>" ("cpu.run", "fault.golden_capture");
   the layer is the part before the first dot.  Spans are kept in memory
   and written out when the benchmark ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, or -1 for a top-level span *)
  run : int;  (** traced pass the span belongs to *)
  t0 : float;
  t1 : float;
}

type t = {
  mutable run : int;
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable spans : span list;  (** completed spans, newest first *)
}

let create () = { run = 0; next = 0; stack = []; spans = [] }

(* Later spans belong to traced pass [run]. *)
let set_run (tr : t) (run : int) = tr.run <- run

let now = Unix.gettimeofday

let record tr ~id ~parent name t0 t1 =
  tr.spans <- { id; name; parent; run = tr.run; t0; t1 } :: tr.spans

(* [span tr name f] runs [f], recording a span around it when tracing is
   on ([tr] is [Some _]); with [None] it costs one match. *)
let span (tr : t option) (name : string) (f : unit -> 'a) : 'a =
  match tr with
  | None -> f ()
  | Some tr ->
      let id = tr.next in
      tr.next <- id + 1;
      let parent = match tr.stack with p :: _ -> p | [] -> -1 in
      tr.stack <- id :: tr.stack;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          tr.stack <- List.tl tr.stack;
          record tr ~id ~parent name t0 (now ()))
        f

(* Attaches a region the program timed itself (a duration, not an
   interval) as a child of the latest completed span named [parent],
   placed at that span's start; only its duration enters the self-time
   accounting. *)
let attach (tr : t option) ~(parent : string) (name : string) (dur : float) =
  match tr with
  | None -> ()
  | Some tr -> (
      match List.find_opt (fun s -> s.name = parent) tr.spans with
      | None -> invalid_arg ("Trace.attach: no span " ^ parent)
      | Some p ->
          let id = tr.next in
          tr.next <- id + 1;
          record tr ~id ~parent:p.id name p.t0 (p.t0 +. dur))

(* The completed spans of traced pass [run]. *)
let of_run (tr : t) (run : int) = List.filter (fun (s : span) -> s.run = run) tr.spans

let layer (name : string) =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let dur s = s.t1 -. s.t0

(* Self time of every span: its duration minus the time its children
   cover.  Children of one span never overlap (the benchmark drives the
   layers from one domain), so covering time is the sum of their
   durations. *)
let self_times (spans : span list) : (span * float) list =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    spans

(* Sum of self time per layer, sorted by layer name. *)
let layer_self (spans : span list) : (string * float) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      Hashtbl.replace tbl l (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl [])

(* Total duration of the spans named [name]. *)
let total (spans : span list) (name : string) =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0.0 spans

(* Fraction of [wall] that the top-level spans of pass [run] cover. *)
let coverage (spans : span list) ~(run : int) ~(wall : float) =
  let top =
    List.fold_left
      (fun acc (s : span) -> if s.run = run && s.parent < 0 then acc +. dur s else acc)
      0.0 spans
  in
  if wall <= 0.0 then 1.0 else top /. wall

(* Spans as JSON, oldest first; start and end are seconds since the
   earliest span's start (absolute epoch times would lose their
   sub-millisecond digits in the JSON float rendering). *)
let to_json (spans : span list) : Obs.Json.t =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  Obs.Json.List
    (List.rev_map
       (fun s ->
         Obs.Json.Obj
           [
             ("id", Obs.Json.Int s.id);
             ("name", Obs.Json.Str s.name);
             ("parent", Obs.Json.Int s.parent);
             ("run", Obs.Json.Int s.run);
             ("start", Obs.Json.Float (s.t0 -. origin));
             ("end", Obs.Json.Float (s.t1 -. origin));
           ])
       spans)
