(* Clocks, sample sets, process memory and the metric record shared by the
   workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Wall-clock latencies, summarised as they arrive so a long run holds
   three figures per second instead of every sample. Samples fall into
   windows of one second of wall time (a window closes once it also holds
   [min_samples]); each window keeps its p50, p90 and p99. A reported
   percentile is the lower quartile of the windows' values: the latency
   the program reaches in its better seconds. A neighbour that slows part
   of a run on a shared host moves the slower windows only, while a slower
   code path moves every window. A run shorter than one window reports
   the percentile of what it has. *)
module Windows = struct
  module Stats = Kutil.Stats

  let span_ns = 1_000_000_000
  let min_samples = 50
  let pcts = [| 50.0; 90.0; 99.0 |]

  type t = {
    mutable cur : Stats.summary;
    mutable opened : int;  (** start of the current window, ns *)
    mutable full : float array list;  (** per window, one value per [pcts] *)
    mutable n : int;
    mutable sum : float;
    mutable over_5ms : int;
  }

  let create () =
    { cur = Stats.summary (); opened = 0; full = []; n = 0; sum = 0.0; over_5ms = 0 }

  (* One sample of [us] microseconds, taken at [at] ns. *)
  let add t ~at us =
    if Stats.samples t.cur = 0 then t.opened <- at
    else if at - t.opened >= span_ns && Stats.samples t.cur >= min_samples then begin
      t.full <- Array.map (Stats.percentile t.cur) pcts :: t.full;
      t.cur <- Stats.summary ();
      t.opened <- at
    end;
    Stats.add t.cur us;
    t.n <- t.n + 1;
    t.sum <- t.sum +. us;
    if us > 5000.0 then t.over_5ms <- t.over_5ms + 1

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let percentile t p =
    let i =
      match Array.find_index (Float.equal p) pcts with
      | Some i -> i
      | None -> invalid_arg "Windows.percentile"
    in
    match t.full with
    | [] -> Stats.percentile t.cur p
    | windows ->
      let v = Stats.summary () in
      List.iter (fun w -> Stats.add v w.(i)) windows;
      Stats.percentile v 25.0
end

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak resident set of this process in MB, from the kernel's high-water
   mark. The OCaml heap statistics undercount what the process holds. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* One reported figure. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Every attempted operation is tallied here; an [Error] of any class is a
   failure, and nothing is retried. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  errors : (string, int) Hashtbl.t;
  mutable wrong : string list;  (* correctness violations, newest first *)
}

let tally () =
  { attempted = 0; failed = 0; errors = Hashtbl.create 8; wrong = [] }

let error_class : Khazana.Daemon.error -> string = function
  | `Timeout -> "Timeout"
  | `Conflict _ -> "Conflict"
  | `Unreachable -> "Unreachable"
  | `Unavailable _ -> "Unavailable"
  | `Access_denied | `Not_allocated | `Bad_range | `Rpc _ -> "Other"

let error_classes = [ "Timeout"; "Conflict"; "Unreachable"; "Unavailable"; "Other" ]

let count_error t e =
  t.failed <- t.failed + 1;
  let k = error_class e in
  Hashtbl.replace t.errors k
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.errors k))

let wrong t fmt =
  Printf.ksprintf
    (fun s -> if List.length t.wrong < 20 then t.wrong <- s :: t.wrong)
    fmt

(* The eight-byte big-endian [seq] repeated across [len] bytes: every write
   carries a distinct value, and a torn read shows as disagreeing words. *)
let seq_payload len seq =
  let b = Bytes.create len in
  for i = 0 to (len / 8) - 1 do
    Bytes.set_int64_be b (i * 8) (Int64.of_int seq)
  done;
  b

(* All eight-byte words equal: a uniform fill or one [seq_payload]. *)
let words_agree b =
  let n = Bytes.length b / 8 in
  n > 0
  &&
  let w = Bytes.get_int64_be b 0 in
  let ok = ref true in
  for i = 1 to n - 1 do
    if Bytes.get_int64_be b (i * 8) <> w then ok := false
  done;
  !ok

(* Set-up steps must succeed; a failure aborts the run. *)
let ok_or what = function
  | Ok v -> v
  | Error e ->
    failwith
      (Printf.sprintf "set-up failed (%s): %s" what (Khazana.Daemon.error_to_string e))
