(* A bench-owned aggregating trace sink. Spans carry simulated time only,
   so the sink stamps the monotonic wall clock on every span start and end
   and folds self time (duration minus the time covered by child spans)
   per span name, in both clocks. Nothing is buffered per record, so a
   long run cannot wrap it the way a ring would. *)

module Trace = Ktrace.Trace

type live = {
  name : string;
  parent : int;
  w0 : int;
  s0 : int;
  mutable child_w : int;
  mutable child_s : int;
}

type agg = {
  mutable count : int;
  mutable self_w : int;
  mutable self_s : int;
  mutable dur_s : int;
}

type t = {
  live : (int, live) Hashtbl.t;
  spans : (string, agg) Hashtbl.t;
  events : (string, int ref) Hashtbl.t;
  mutable sink : Trace.sink option;
}

let create () =
  {
    live = Hashtbl.create 256;
    spans = Hashtbl.create 64;
    events = Hashtbl.create 16;
    sink = None;
  }

let agg t name =
  match Hashtbl.find_opt t.spans name with
  | Some a -> a
  | None ->
    let a = { count = 0; self_w = 0; self_s = 0; dur_s = 0 } in
    Hashtbl.replace t.spans name a;
    a

let record t = function
  | Trace.Span_start { id; parent; name; ts; _ } ->
    Hashtbl.replace t.live id
      { name; parent; w0 = Util.now_ns (); s0 = ts; child_w = 0; child_s = 0 }
  | Trace.Span_end { id; ts; _ } -> (
    match Hashtbl.find_opt t.live id with
    | None -> ()
    | Some l ->
      Hashtbl.remove t.live id;
      let dw = Util.now_ns () - l.w0 and ds = ts - l.s0 in
      let a = agg t l.name in
      a.count <- a.count + 1;
      a.dur_s <- a.dur_s + ds;
      (* Concurrent children (pipelined page acquires) can cover more than
         their parent's interval; clamp rather than go negative. *)
      a.self_w <- a.self_w + max 0 (dw - l.child_w);
      a.self_s <- a.self_s + max 0 (ds - l.child_s);
      match Hashtbl.find_opt t.live l.parent with
      | Some p ->
        p.child_w <- p.child_w + dw;
        p.child_s <- p.child_s + ds
      | None -> ())
  | Trace.Event { name; _ } -> (
    match Hashtbl.find_opt t.events name with
    | Some r -> incr r
    | None -> Hashtbl.replace t.events name (ref 1))

let install t =
  Trace.reset ();
  t.sink <- Some (Trace.install (record t))

let uninstall t =
  Option.iter Trace.uninstall t.sink;
  t.sink <- None;
  Trace.reset ()

(* Run a bench-side call in a span of its own. *)
let with_span ~engine name f =
  Trace.with_span ~engine ~parent:Trace.null name (fun _ -> f ())

let per_span t name f =
  match Hashtbl.find_opt t.spans name with
  | Some a when a.count > 0 -> f a /. float_of_int a.count
  | Some _ | None -> 0.0

(* Mean wall self time per span, in microseconds. *)
let self_us t name = per_span t name (fun a -> float_of_int a.self_w /. 1e3)

(* Mean simulated self time per span, in microseconds and milliseconds. *)
let self_sim_us t name = per_span t name (fun a -> float_of_int a.self_s /. 1e3)
let self_sim_ms t name = self_sim_us t name /. 1e3

(* Mean simulated duration per span, in milliseconds. *)
let dur_sim_ms t name = per_span t name (fun a -> float_of_int a.dur_s /. 1e6)

(* Operations traced: the bench's own per-operation spans. *)
let ops t =
  Hashtbl.fold
    (fun name a acc -> if String.starts_with ~prefix:"bench." name then acc + a.count else acc)
    t.spans 0

let events t name = match Hashtbl.find_opt t.events name with Some r -> !r | None -> 0
