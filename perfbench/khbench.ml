(* The benchmark's measuring program.

     khbench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Workloads: local-write and shared-mix (simulator), sockets-rw (two OS
   processes over Unix-domain sockets). With --trace 0 it measures the
   end-to-end figures with tracing off; with --trace 1 it reports the
   per-layer figures from a separate set of phases: untraced, traced with
   a bench-owned sink, a tapped wire round, and direct timings of single
   layers. Either way it checks every read it makes and, on the simulated
   workloads, runs a history-checked verification pass. Every figure is
   printed on its own line; the last line is one JSON object. The exit
   code is 1 if any check failed. *)

open Util
module S = Sim_load
module Sk = Sockets_rw
module System = Khazana.System

(* ------------------------------------------------------------------ *)
(* Metric names                                                        *)
(* ------------------------------------------------------------------ *)

(* Wall-clock latency by op kind (see [Windows]). The gated figures are
   the p50s of writes and transactions. The other percentiles are printed
   beside them. On local-write a read takes 3 to 7 us, and its
   percentiles moved by up to a third between runs as the load of the
   rest of the host changed; on sockets-rw about a tenth of reads stall
   for 10 ms, and whether a write or transaction p90 lands in that mode
   depends on microseconds of timing. *)
let lat_at (lat : S.lat) kind p = Windows.percentile lat.wall_us.(S.kind_index kind) p

let at_pct lat k p = m (Printf.sprintf "%s_p%02.0f_us" (S.kind_name k) p) "us" (lat_at lat k p)
let lat_metrics lat = [ at_pct lat S.Write 50.0; at_pct lat S.Txn 50.0 ]

let tail_metrics lat =
  at_pct lat S.Read 50.0
  :: List.concat_map (fun k -> [ at_pct lat k 90.0; at_pct lat k 99.0 ]) [ S.Read; S.Write; S.Txn ]

let sample_counts (lat : S.lat) =
  [
    m "read_samples" "count" (float_of_int (Windows.count lat.wall_us.(0)));
    m "write_samples" "count" (float_of_int (Windows.count lat.wall_us.(1)));
    m "txn_samples" "count" (float_of_int (Windows.count lat.wall_us.(2)));
  ]

(* Simulated-time latencies and the failure ratio; deterministic per seed
   on the simulated workloads. *)
let sim_metrics (lat : S.lat) t =
  let s k = lat.sim_ms.(S.kind_index k) in
  [
    m "op_fail_ratio" "ratio"
      (if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted);
    m "sim_read_p50_ms" "ms" (Kutil.Stats.percentile (s S.Read) 50.0);
    m "sim_read_p99_ms" "ms" (Kutil.Stats.percentile (s S.Read) 99.0);
    m "sim_write_p99_ms" "ms" (Kutil.Stats.percentile (s S.Write) 99.0);
    m "sim_txn_p99_ms" "ms" (Kutil.Stats.percentile (s S.Txn) 99.0);
  ]

let rpc_kinds =
  [ "cm.read_req"; "cm.write_req"; "cm.fetch"; "cm.fetch_own"; "cm.invalidate"; "cm.done";
    "tx_prepare"; "page_flush" ]

(* Every per-layer figure, in report order, with its unit. *)
let layer_names =
  [
    ("daemon.lock.self_us", "us"); ("daemon.read.self_us", "us");
    ("daemon.write.self_us", "us"); ("daemon.unlock.self_us", "us");
    ("daemon.txn_commit.self_us", "us"); ("daemon.lock_wait.sim_ms_p99", "ms");
    ("daemon.lock_reject_per_kop", "1/kop"); ("daemon.lock_timeout_per_kop", "1/kop");
    ("daemon.rpc_timeout_per_kop", "1/kop"); ("daemon.publish_retry_per_kop", "1/kop");
    ("daemon.metric_samples", "count"); ("daemon.unattributed_us", "us");
    ("location.rdir_hit_ratio", "ratio"); ("location.cluster_hits_per_op", "1/op");
    ("location.map_walks_per_op", "1/op"); ("location.walk_depth_mean", "count");
    ("location.failures", "count"); ("location.locate.sim_ms", "ms");
    ("consistency.transitions_per_op", "1/op"); ("consistency.acquire.sim_ms", "ms");
    ("consistency.page_reject_per_kop", "1/kop"); ("consistency.page_timeout_per_kop", "1/kop");
    ("consistency.crew_cycle_ns", "ns");
    ("page_store.ram_hit_ratio", "ratio"); ("page_store.disk_hits_per_op", "1/op");
    ("page_store.ram_evictions_per_op", "1/op"); ("page_store.writebacks_per_op", "1/op");
    ("page_store.syncs_per_op", "1/op"); ("page_store.write_read_ns", "ns");
    ("wal.appends_per_write", "1/op"); ("wal.syncs_per_write", "1/op");
    ("wal.checkpoints", "count"); ("wal.records_retained", "count");
    ("wal.tx_ns", "ns"); ("wal.checksum_4k_ns", "ns");
    ("rpc.envelopes_per_op", "1/op"); ("rpc.atoms_per_op", "1/op");
    ("rpc.coalesce_ratio", "ratio");
  ]
  @ List.map (fun k -> ("rpc.kind." ^ k ^ "_per_op", "1/op")) rpc_kinds
  @ [
      ("net.dropped", "count");
      ("wire.codec_ns_per_msg", "ns"); ("wire.encoded_bytes_per_op", "B/op");
      ("wire.estimate_ratio", "ratio");
      ("transport.frames_per_op", "1/op"); ("transport.bytes_per_op", "B/op");
      ("transport.dropped", "count"); ("transport.stall_ratio", "ratio");
      ("sim.events_per_op", "1/op"); ("sim.virtual_ms_per_op", "ms");
      ("trace.overhead_ratio", "ratio");
      ("gc.minor_words_per_op", "words/op"); ("gc.major_collections_per_kop", "1/kop");
    ]
  @ List.map (fun c -> ("client.errors." ^ c, "count")) error_classes
  @ [
      ("ops_per_s", "ops/s"); ("read_p50_us", "us"); ("read_p90_us", "us"); ("read_p99_us", "us");
      ("write_p90_us", "us"); ("write_p99_us", "us"); ("txn_p90_us", "us"); ("txn_p99_us", "us");
      ("op_fail_ratio", "ratio"); ("sim_read_p50_ms", "ms"); ("sim_read_p99_ms", "ms");
      ("sim_write_p99_ms", "ms"); ("sim_txn_p99_ms", "ms"); ("wire_bytes_per_op", "B/op");
    ]

(* Fill [layer_names] from a table of computed values; a figure a workload
   has no use for reads 0. *)
let layer_report values =
  List.map
    (fun (name, unit_) -> m name unit_ (Option.value ~default:0.0 (Hashtbl.find_opt values name)))
    layer_names

(* ------------------------------------------------------------------ *)
(* Per-layer figures shared by every workload                           *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Counters measured by the untraced phase [c] over [ops] operations of
   which [writes] wrote. *)
let counter_layers v c ~ops ~writes =
  let g = S.get c in
  let set = Hashtbl.replace v in
  let per k = ratio (g k) ops and per_kop k = 1000.0 *. ratio (g k) ops in
  set "daemon.lock_reject_per_kop" (per_kop "m.lock.reject");
  set "daemon.lock_timeout_per_kop" (per_kop "m.lock.timeout");
  set "daemon.rpc_timeout_per_kop" (per_kop "m.rpc.timeout");
  set "daemon.publish_retry_per_kop" (per_kop "m.publish.retry");
  let lookups =
    List.fold_left (fun acc k -> acc +. g k) 0.0
      [ "loc.homed"; "loc.rdir"; "loc.cluster"; "loc.walks"; "loc.cluster_walks"; "loc.failures" ]
  in
  set "location.rdir_hit_ratio" (ratio (g "loc.rdir") lookups);
  set "location.cluster_hits_per_op" (per "loc.cluster");
  set "location.map_walks_per_op" (per "loc.walks");
  set "location.walk_depth_mean" (ratio (g "loc.depth") (g "loc.walks"));
  set "location.failures" (g "loc.failures");
  set "consistency.page_reject_per_kop" (per_kop "m.page.reject");
  set "consistency.page_timeout_per_kop" (per_kop "m.page.timeout");
  let accesses = g "store.ram_hits" +. g "store.disk_hits" +. g "store.misses" in
  set "page_store.ram_hit_ratio" (ratio (g "store.ram_hits") accesses);
  set "page_store.disk_hits_per_op" (per "store.disk_hits");
  set "page_store.ram_evictions_per_op" (per "store.ram_evictions");
  set "page_store.writebacks_per_op" (per "store.writebacks");
  set "page_store.syncs_per_op" (per "store.syncs");
  set "wal.appends_per_write" (ratio (g "wal.appends") writes);
  set "wal.syncs_per_write" (ratio (g "wal.syncs") writes);
  set "wal.checkpoints" (g "wal.checkpoints")

(* Simulated-network and engine counters [c] over [ops] operations. *)
let net_layers v c ~ops =
  let g = S.get c in
  let set = Hashtbl.replace v in
  set "rpc.envelopes_per_op" (ratio (g "net.sent") ops);
  set "rpc.atoms_per_op" (ratio (g "net.atoms") ops);
  set "rpc.coalesce_ratio" (ratio (g "net.atoms") (g "net.sent"));
  List.iter (fun k -> set ("rpc.kind." ^ k ^ "_per_op") (ratio (g ("kind." ^ k)) ops)) rpc_kinds;
  set "net.dropped" (g "net.dropped");
  set "sim.events_per_op" (ratio (g "events") ops);
  set "sim.virtual_ms_per_op" (ratio (g "sim_ns" /. 1e6) ops);
  set "wire_bytes_per_op" (ratio (g "net.bytes") ops)

(* Self time of the daemon's spans: wall clock where one client runs
   alone, simulated time where fibers interleave. *)
let span_layers v tr ~wall =
  let self name = if wall then Tracer.self_us tr name else Tracer.self_sim_us tr name in
  List.iter
    (fun s -> Hashtbl.replace v ("daemon." ^ s ^ ".self_us") (self ("daemon." ^ s)))
    [ "lock"; "read"; "write"; "unlock"; "txn_commit" ];
  Hashtbl.replace v "location.locate.sim_ms" (Tracer.self_sim_ms tr "daemon.locate");
  Hashtbl.replace v "consistency.acquire.sim_ms" (Tracer.dur_sim_ms tr "daemon.lock");
  Hashtbl.replace v "consistency.transitions_per_op"
    (ratio (float_of_int (Tracer.events tr "cm.transition")) (float_of_int (Tracer.ops tr)))

let wire_layers v (w : Wire_tap.t) ~ops =
  let set = Hashtbl.replace v in
  set "wire.codec_ns_per_msg" (Layers.codec_ns (Wire_tap.bodies w));
  set "wire.encoded_bytes_per_op" (ratio (float_of_int w.encoded) ops);
  set "wire.estimate_ratio" (ratio (float_of_int w.estimated) (float_of_int w.encoded))

type direct = { tx : float; checksum : float; store : float; crew : float }

let direct_timings ~images ~payloads =
  {
    tx = Layers.wal_tx_ns images;
    checksum = Layers.checksum_4k_ns images;
    store = Layers.page_store_write_read_ns images;
    crew = Layers.crew_cycle_ns payloads;
  }

let direct_layers v d =
  let set = Hashtbl.replace v in
  set "wal.tx_ns" d.tx;
  set "wal.checksum_4k_ns" d.checksum;
  set "page_store.write_read_ns" d.store;
  set "consistency.crew_cycle_ns" d.crew

let common_layers v ~tally ~lat ~ops ~untraced_ops_s ~traced_ops_s ~minor ~major =
  let set = Hashtbl.replace v in
  set "ops_per_s" untraced_ops_s;
  List.iter (fun x -> set x.name x.value) (tail_metrics lat);
  set "trace.overhead_ratio" (ratio untraced_ops_s traced_ops_s);
  set "gc.minor_words_per_op" (ratio minor ops);
  set "gc.major_collections_per_kop" (1000.0 *. ratio (float_of_int major) ops);
  List.iter
    (fun c ->
      set ("client.errors." ^ c)
        (float_of_int (Option.value ~default:0 (Hashtbl.find_opt tally.errors c))))
    error_classes;
  set "op_fail_ratio" (ratio (float_of_int tally.failed) (float_of_int tally.attempted))

(* ------------------------------------------------------------------ *)
(* Simulated workloads                                                 *)
(* ------------------------------------------------------------------ *)

let writes_of (lat : S.lat) =
  float_of_int (Windows.count lat.wall_us.(1) + Windows.count lat.wall_us.(2))

let sim_checks spec ~seed t =
  let gt, report = S.gate spec ~seed in
  let ok = t.wrong = [] && gt.wrong = [] && Kcheck.Check.passed report in
  if not ok then begin
    List.iter prerr_endline (List.rev t.wrong @ List.rev gt.wrong);
    Format.eprintf "%a@." Kcheck.Check.pp report
  end;
  (ok, [ m "gate_ops" "count" (float_of_int gt.attempted); m "gate_failed" "count" (float_of_int gt.failed) ])

let sim_e2e (spec : S.spec) ~seed ~seconds =
  let t = tally () and lat = S.lat () in
  let ph = S.run_phase spec ~seed ~seconds ~first:0 ~tally:t ~lat in
  let setups = S.more_setups spec ~seed ph.setups 3 in
  let rss = peak_rss_mb () in
  let correct, gate = sim_checks spec ~seed t in
  let ops = float_of_int ph.ops in
  let metrics = (m "setup_s" "s" (median setups) :: m "peak_rss_mb" "MB" rss :: lat_metrics lat) in
  let notes =
    (m "ops_per_s" "ops/s" (median ph.rates) :: tail_metrics lat) @ sample_counts lat @ sim_metrics lat t
    @ [ m "wire_bytes_per_op" "B/op" (ratio (S.get ph.counters "net.bytes") ops) ]
    @ gate
  in
  (correct, t, metrics, notes)

(* One plain write's cost, attributed: the untraced mean write latency
   minus each layer's direct timing times the calls one write makes. *)
let unattributed_us (spec : S.spec) ~seed d =
  let n = 2_000 in
  let rig = spec.setup ~seed ~round:300 in
  let before = S.snapshot rig.sys and lat = S.lat () in
  rig.writes ~ops:n (tally ()) lat;
  let c = Hashtbl.create 64 in
  S.accumulate c ~before ~after:(S.snapshot rig.sys);
  let tr = Tracer.create () in
  Tracer.install tr;
  rig.writes ~ops:n (tally ()) (S.lat ());
  Tracer.uninstall tr;
  let per_write x = x /. float_of_int n in
  let store_writes = per_write (float_of_int (Tracer.events tr "store.write")) in
  let store_reads = per_write (float_of_int (Tracer.events tr "store.read")) in
  let attributed =
    (per_write (S.get c "wal.commits") *. d.tx)
    +. (store_writes *. d.checksum)
    +. ((store_writes +. store_reads) /. 2.0 *. d.store)
    +. (per_write (S.get c "m.lock.grant") *. d.crew)
  in
  Windows.mean lat.wall_us.(1) -. (attributed /. 1e3)

let sim_layers (spec : S.spec) ~seed ~seconds =
  let v = Hashtbl.create 128 in
  let ta = tally () and la = S.lat () in
  let a = S.run_phase spec ~seed ~seconds:(0.4 *. seconds) ~first:0 ~tally:ta ~lat:la in
  let tr = Tracer.create () in
  let b = S.run_phase ~tracer:tr spec ~seed ~seconds:(0.4 *. seconds) ~first:100 ~tally:(tally ()) ~lat:(S.lat ()) in
  let ops = float_of_int a.ops in
  counter_layers v a.counters ~ops ~writes:(writes_of la);
  net_layers v a.counters ~ops;
  span_layers v tr ~wall:(spec.name <> "shared-mix");
  Hashtbl.replace v "daemon.lock_wait.sim_ms_p99" a.lock_p99;
  Hashtbl.replace v "daemon.metric_samples" (float_of_int a.metric_samples);
  Hashtbl.replace v "wal.records_retained" (float_of_int a.wal_max);
  List.iter (fun x -> Hashtbl.replace v x.name x.value) (sim_metrics la ta);
  common_layers v ~tally:ta ~lat:la ~ops ~untraced_ops_s:(ops /. a.timed_s)
    ~traced_ops_s:(float_of_int b.ops /. b.timed_s) ~minor:a.minor_words ~major:a.major_collections;
  (* A tapped round for the message mix, then the direct timings on this
     workload's own pages, payloads and messages. *)
  let rig = spec.setup ~seed ~round:200 in
  let w = Wire_tap.create () and tapped = 3_000 in
  S.Net.set_trace (System.net rig.sys) (Wire_tap.record w);
  rig.run ~ops:tapped (tally ()) (S.lat ()) ~sim:false;
  S.Net.clear_trace (System.net rig.sys);
  wire_layers v w ~ops:(float_of_int tapped);
  let d = direct_timings ~images:(rig.images ()) ~payloads:rig.payloads in
  direct_layers v d;
  if spec.name = "local-write" then Hashtbl.replace v "daemon.unattributed_us" (unattributed_us spec ~seed d);
  let correct, _ = sim_checks spec ~seed ta in
  (correct, ta, layer_report v, [])

(* ------------------------------------------------------------------ *)
(* sockets-rw                                                          *)
(* ------------------------------------------------------------------ *)

(* Sessions from round [first] on, until their timed operations have
   taken [seconds] and at least [min] have run. *)
let sessions ?tracer ~seed ~first ~min ~seconds t lat =
  let rec go acc timed i =
    if i >= min && timed >= seconds then List.rev acc
    else
      let s = Sk.session ?tracer ~seed ~round:(first + i) t lat in
      go (s :: acc) (timed +. s.Sk.timed_s) (i + 1)
  in
  go [] 0.0 0

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let merged_counters (ss : Sk.session list) =
  let c = Hashtbl.create 64 in
  List.iter (fun (s : Sk.session) -> Hashtbl.iter (fun k v -> Hashtbl.replace c k (v +. S.get c k)) s.counters) ss;
  c

let sockets_e2e ~seed ~seconds =
  let t = tally () and lat = S.lat () in
  (* Sessions of a few seconds each: throughput differs from one server
     process to the next, so a run averages over many. *)
  let ss = sessions ~seed ~first:0 ~min:3 ~seconds t lat in
  let server_rss = List.fold_left (fun acc (s : Sk.session) -> Float.max acc s.server_rss_mb) 0.0 ss in
  let rss = peak_rss_mb () +. server_rss in
  let ops = sum (fun (s : Sk.session) -> float_of_int s.n_ops) ss in
  let c = merged_counters ss in
  let correct = t.wrong = [] in
  if not correct then List.iter prerr_endline (List.rev t.wrong);
  let metrics =
    m "setup_s" "s" (median (List.map (fun (s : Sk.session) -> s.setup_s) ss))
    :: m "peak_rss_mb" "MB" rss :: lat_metrics lat
  in
  let notes =
    (m "ops_per_s" "ops/s" (ops /. sum (fun (s : Sk.session) -> s.timed_s) ss) :: tail_metrics lat)
    @ sample_counts lat
    @ [
        m "op_fail_ratio" "ratio" (ratio (float_of_int t.failed) (float_of_int t.attempted));
        m "wire_bytes_per_op" "B/op" (ratio (S.get c "frame_bytes") ops);
      ]
  in
  (correct, t, metrics, notes)

let twin_ops = 3_000

let sockets_layers ~seed ~seconds =
  let v = Hashtbl.create 128 in
  let ta = tally () and la = S.lat () in
  let a = sessions ~seed ~first:0 ~min:2 ~seconds:(0.3 *. seconds) ta la in
  let tr = Tracer.create () in
  let tb = tally () in
  let b = sessions ~tracer:tr ~seed ~first:100 ~min:2 ~seconds:(0.3 *. seconds) tb (S.lat ()) in
  let ops = sum (fun (s : Sk.session) -> float_of_int s.n_ops) a in
  let ops_s l = sum (fun (s : Sk.session) -> float_of_int s.n_ops) l /. sum (fun (s : Sk.session) -> s.timed_s) l in
  let c = merged_counters a in
  counter_layers v c ~ops ~writes:(writes_of la);
  span_layers v tr ~wall:true;
  let g = S.get c in
  let set = Hashtbl.replace v in
  set "rpc.envelopes_per_op" (ratio (g "frames") ops);
  set "rpc.atoms_per_op" (ratio (g "atoms") ops);
  set "rpc.coalesce_ratio" (ratio (g "atoms") (g "frames"));
  List.iter (fun k -> set ("rpc.kind." ^ k ^ "_per_op") (ratio (g ("kind." ^ k)) ops)) rpc_kinds;
  set "transport.frames_per_op" (ratio (g "frames") ops);
  set "transport.bytes_per_op" (ratio (g "frame_bytes") ops);
  set "transport.dropped" (g "frames_dropped");
  let total f = float_of_int (Array.fold_left (fun acc b -> acc + f b) 0 la.wall_us) in
  set "transport.stall_ratio" (ratio (total (fun b -> b.Windows.over_5ms)) (total Windows.count));
  set "wire_bytes_per_op" (ratio (g "frame_bytes") ops);
  let worst f = List.fold_left (fun acc (s : Sk.session) -> Float.max acc (f s)) 0.0 a in
  set "daemon.lock_wait.sim_ms_p99" (worst (fun s -> s.lock_p99));
  set "daemon.metric_samples" (worst (fun s -> float_of_int s.metric_samples));
  set "wal.records_retained" (worst (fun s -> float_of_int s.wal_size));
  common_layers v ~tally:ta ~lat:la ~ops ~untraced_ops_s:(ops_s a) ~traced_ops_s:(ops_s b)
    ~minor:(sum (fun (s : Sk.session) -> s.minor_words) a)
    ~major:(List.fold_left (fun acc (s : Sk.session) -> acc + s.major_collections) 0 a);
  (* The simulated twin: message mix, simulated latencies, engine work. *)
  let w = Wire_tap.create () and tt = tally () and tl = S.lat () in
  let tc = Sk.twin ~seed ~n_ops:twin_ops ~tap:(Wire_tap.record w) tt tl in
  wire_layers v w ~ops:(float_of_int twin_ops);
  let tg = S.get tc in
  set "net.dropped" (tg "net.dropped");
  set "sim.events_per_op" (ratio (tg "events") (float_of_int twin_ops));
  set "sim.virtual_ms_per_op" (ratio (tg "sim_ns" /. 1e6) (float_of_int twin_ops));
  List.iter
    (fun x -> if x.name <> "op_fail_ratio" then set x.name x.value)
    (sim_metrics tl tt);
  let images =
    Array.init (Sk.server_regions * Sk.pages_per_region) (fun p ->
        Bytes.sub (Sk.image Sk.server_fill (p / Sk.pages_per_region)) ((p mod Sk.pages_per_region) * 4096) 4096)
  in
  direct_layers v
    (direct_timings ~images
       ~payloads:(Array.init 64 (fun i -> seq_payload S.slot (i + 1))));
  let correct = ta.wrong = [] && tb.wrong = [] && tt.wrong = [] in
  if not correct then List.iter prerr_endline (List.rev ta.wrong @ List.rev tb.wrong @ List.rev tt.wrong);
  (correct, ta, layer_report v, [])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: khbench.exe --workload local-write|shared-mix|sockets-rw --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* sockets-rw starts its server process as this program in this mode. *)
  (match args with [ "--serve"; dir ] -> Sk.serve ~dir; exit 0 | _ -> ());
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let seed = int_of_string (get "--seed") and seconds = float_of_string (get "--seconds") in
  let trace = get "--trace" = "1" in
  let correct, t, metrics, notes =
    match workload with
    | "local-write" | "shared-mix" ->
      let spec = if workload = "local-write" then S.Local_write.spec else S.Shared_mix.spec in
      if trace then sim_layers spec ~seed ~seconds else sim_e2e spec ~seed ~seconds
    | "sockets-rw" ->
      if trace then sockets_layers ~seed ~seconds else sockets_e2e ~seed ~seconds
    | _ -> usage ()
  in
  Report.print ~workload ~correct ~attempted:t.attempted ~failed:t.failed ~notes metrics;
  if not correct then exit 1
