(* sockets-rw: the daemon over real Unix-domain sockets, in two OS
   processes. A server process (this program in its --serve mode) is node
   0 (bootstrap, cluster manager, home of 192 pages in 24 eight-page
   regions); this process is
   node 1 (a daemon homing 32 pages, plus one client issuing operations one
   at a time). The mix is 60% reads and 25% writes, uniform over the
   server's pages, and 15% two-page transactions with one page homed at
   each node. The intent log stays in memory: commits sync the in-memory
   log, nothing is fsynced. Every read is checked against a shadow copy,
   which is exact because this client is the only writer.

   For the per-layer figures the same operation stream also runs on a
   two-node simulated twin, which gives the simulated latencies and the
   message mix for the codec timings. *)

open Util
module Client = Khazana.Client
module Daemon = Khazana.Daemon
module Region = Khazana.Region
module System = Khazana.System
module Gaddr = Kutil.Gaddr
module Sockets = Khazana.Wire.Sockets
module Transport = Khazana.Wire.Transport

let pages_per_region = 8
let server_regions = 24
let local_regions = 4
let slot = Sim_load.slot
let slots = 4096 / slot
let topology () = Knet.Topology.symmetric ~nodes_per_cluster:2 ~clusters:1

let server_fill p = Char.chr (1 + (p mod 200))
let local_fill p = Char.chr (201 + (p mod 50))

(* The prefill image of region [r]: one fill byte per page. *)
let image fill r =
  Bytes.init (pages_per_region * 4096) (fun b -> fill ((r * pages_per_region) + (b / 4096)))

let create_regions c n fill =
  Array.init n (fun r ->
      let reg = ok_or "create_region" (Client.create_region c (pages_per_region * 4096)) in
      ok_or "prefill" (Client.write_bytes c ~addr:reg.Region.base (image fill r));
      reg.Region.base)

(* Where the operations go and how a fiber is driven to completion. *)
type target = {
  client : Client.t;
  engine : Ksim.Engine.t;
  run : 'a. (unit -> 'a) -> 'a;
  server : Gaddr.t array;
  local : Gaddr.t array;
}

(* The closed-loop operation stream of round [round]; each call issues one
   operation and checks what it read. *)
let ops tgt ~seed ~round =
  let rng = Random.State.make [| seed; round; 7 |] in
  let shadow_of bases fill = Array.mapi (fun r _ -> image fill r) bases in
  let shadow_s = shadow_of tgt.server server_fill and shadow_l = shadow_of tgt.local local_fill in
  let unknown = Hashtbl.create 16 in
  let seq = ref (round * 100_000_000) in
  let np = server_regions * pages_per_region and nl = local_regions * pages_per_region in
  let loc bases shadow p s =
    let r = p / pages_per_region and off = ((p mod pages_per_region) * 4096) + (s * slot) in
    (Gaddr.add_int bases.(r) off, shadow.(r), off)
  in
  let put (a, img, off) v =
    Bytes.blit v 0 img off slot;
    Hashtbl.remove unknown a
  in
  let run kind lat ~sim f = Sim_load.timed ~engine:tgt.engine lat ~sim kind (fun () -> tgt.run f) in
  fun t lat ~sim ->
    let u = Random.State.float rng 1.0 in
    let ((a, img, off) as target) =
      loc tgt.server shadow_s (Random.State.int rng np) (Random.State.int rng slots)
    in
    t.attempted <- t.attempted + 1;
    if u < 0.60 then begin
      match run Sim_load.Read lat ~sim (fun () -> Client.read_bytes tgt.client ~addr:a slot) with
      | Ok b ->
        if (not (Hashtbl.mem unknown a)) && not (Bytes.equal b (Bytes.sub img off slot)) then
          wrong t "sockets-rw: read at %s mismatches shadow" (Gaddr.to_string a)
      | Error e -> count_error t e
    end
    else begin
      incr seq;
      let v = seq_payload slot !seq in
      if u < 0.85 then begin
        match run Sim_load.Write lat ~sim (fun () -> Client.write_bytes tgt.client ~addr:a v) with
        | Ok () -> put target v
        | Error e -> count_error t e; Hashtbl.replace unknown a ()
      end
      else begin
        let ((b, _, _) as other) =
          loc tgt.local shadow_l (Random.State.int rng nl) (Random.State.int rng slots)
        in
        let a1, a2 = if Gaddr.compare a b < 0 then (a, b) else (b, a) in
        match run Sim_load.Txn lat ~sim (fun () -> Sim_load.txn_write2 tgt.client a1 v a2 v) with
        | Ok () -> put target v; put other v
        | Error e ->
          count_error t e;
          Hashtbl.replace unknown a ();
          Hashtbl.replace unknown b ()
      end
    end

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

let ( / ) = Filename.concat

let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (dir / f) with Sys_error _ -> ()) (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let make_daemon ~dir ~id =
  let ep = Sockets.create ~dir ~id (topology ()) in
  let d =
    Daemon.create ~peer_managers:[ 0 ] ~id ~bootstrap:0 ~cluster_manager:0 (Sockets.pack ep)
  in
  (ep, d)

(* An endpoint's frame counters by name; per-kind counts are messages. *)
let frame_counters ep =
  let st = Transport.stats (Sockets.pack ep) in
  let f = float_of_int in
  ("frames", f st.Ktransport.Transport.sent)
  :: ("atoms", f st.atoms)
  :: ("frame_bytes", f st.bytes_sent)
  :: ("frames_dropped", f st.dropped)
  :: List.map (fun (k, v) -> ("kind." ^ k, f v)) st.by_kind

(* Node 0: bootstrap, create and prefill the server's regions, publish
   their addresses, then serve until SIGTERM (or until the load process
   is gone). Reports its frame counters and peak memory on the way out. *)
let serve ~dir =
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  let parent = Unix.getppid () in
  let ep, d = make_daemon ~dir ~id:0 in
  Sockets.run_fiber ep (fun () -> Daemon.bootstrap_map d);
  let c = Client.connect d ~principal:0 in
  let bases = Sockets.run_fiber ep (fun () -> create_regions c server_regions server_fill) in
  write_atomic (dir / "regions")
    (String.concat " " (Array.to_list (Array.map Kutil.U128.to_hex bases)));
  let turns = ref 0 and counting = ref false in
  while not !stop do
    (try Sockets.pump ~max_wait:0.01 ep with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* Count only the timed phase's frames: zero when the load says go. *)
    if (not !counting) && Sys.file_exists (dir / "go") then begin
      Transport.reset_stats (Sockets.pack ep);
      counting := true
    end;
    incr turns;
    if !turns land 255 = 0 && Unix.getppid () <> parent then stop := true
  done;
  write_atomic (dir / "server")
    (String.concat ""
       (List.map
          (fun (k, v) -> Printf.sprintf "%s %.17g\n" k v)
          (("rss_mb", peak_rss_mb ()) :: frame_counters ep)));
  Sockets.close ep

(* ------------------------------------------------------------------ *)
(* One session: start the server, set up, run the timed ops, tear down *)
(* ------------------------------------------------------------------ *)

type session = {
  setup_s : float;
  timed_s : float;
  n_ops : int;
  counters : (string, float) Hashtbl.t;  (** node 1's layers, plus frames *)
  server_rss_mb : float;
  minor_words : float;  (** allocated by this process in the timed loop *)
  major_collections : int;
  wal_size : int;  (** node 1's intent log at the end *)
  metric_samples : int;  (** samples held by node 1's metric summaries *)
  lock_p99 : float;  (** node 1's lock.ms p99 *)
}

let run_dir = ".perfbench-run"

(* Operations per session. A fixed count, not a time, so both processes'
   intent logs, and so their peak memory, do not depend on how fast the
   host ran. *)
let session_ops = 2_000

let session ?tracer ~seed ~round t lat =
  let t0 = now_ns () in
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let dir = run_dir / Printf.sprintf "%d-%d" (Unix.getpid ()) round in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  (* The server is this program started afresh, not a fork: a forked
     child would start with this process's pages as its resident set, and
     its peak memory would count them a second time. *)
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--serve"; dir |] Unix.stdin Unix.stderr Unix.stderr in
  let reaped = ref false in
  let reap signal =
    if not !reaped then begin
      (try Unix.kill pid signal with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      reaped := true
    end
  in
  let ep, d = make_daemon ~dir ~id:1 in
  let finally () =
    reap Sys.sigkill;
    Sockets.close ep;
    rm_rf dir;
    try Unix.rmdir run_dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      let deadline = Unix.gettimeofday () +. 30.0 in
      while (not (Sys.file_exists (dir / "regions"))) && Unix.gettimeofday () < deadline do
        try Sockets.pump ~max_wait:0.01 ep with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      if not (Sys.file_exists (dir / "regions")) then failwith "server did not start";
      let server =
        Array.of_list
          (List.map Kutil.U128.of_hex
             (String.split_on_char ' ' (String.trim (read_file (dir / "regions")))))
      in
      let client = Client.connect d ~principal:1 in
      let local = Sockets.run_fiber ep (fun () -> create_regions client local_regions local_fill) in
      let tgt =
        { client; engine = Sockets.engine ep; run = (fun f -> Sockets.run_fiber ep f); server; local }
      in
      (* Warm node 1's cache: one read of every server page. *)
      tgt.run (fun () ->
          Array.iter
            (fun base ->
              for p = 0 to pages_per_region - 1 do
                ignore (ok_or "warm-up read" (Client.read_bytes client ~addr:(Gaddr.add_int base (p * 4096)) slot))
              done)
            server);
      let op = ops tgt ~seed ~round in
      let setup_s = secs_since t0 in
      let counters = Hashtbl.create 64 in
      let snap () =
        let acc = Hashtbl.create 64 in
        let add = Sim_load.adder acc in
        Sim_load.daemon_counters add [ d ];
        List.iter (fun (k, v) -> Hashtbl.replace acc k (v +. Sim_load.get acc k)) (frame_counters ep);
        acc
      in
      let before = snap () in
      write_atomic (dir / "go") "";
      Option.iter Tracer.install tracer;
      let g0 = Gc.quick_stat () in
      let t1 = now_ns () in
      for _ = 1 to session_ops do
        op t lat ~sim:false
      done;
      let timed_s = secs_since t1 in
      let g1 = Gc.quick_stat () in
      Option.iter Tracer.uninstall tracer;
      Sim_load.accumulate counters ~before ~after:(snap ());
      reap Sys.sigterm;
      let server_rss_mb = ref 0.0 in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "rss_mb"; v ] -> server_rss_mb := float_of_string v
          | [ k; v ] -> Hashtbl.replace counters k (Sim_load.get counters k +. float_of_string v)
          | _ -> ())
        (String.split_on_char '\n' (read_file (dir / "server")));
      {
        setup_s;
        timed_s;
        n_ops = session_ops;
        counters;
        server_rss_mb = !server_rss_mb;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        wal_size = Kstorage.Wal.size (Daemon.wal d);
        metric_samples =
          List.fold_left
            (fun acc (_, x) -> acc + Kutil.Stats.samples x)
            0 (Ktrace.Metrics.summaries (Daemon.metrics d));
        lock_p99 = Kutil.Stats.percentile (Ktrace.Metrics.summary (Daemon.metrics d) "lock.ms") 99.0;
      })

(* ------------------------------------------------------------------ *)
(* The simulated twin                                                  *)
(* ------------------------------------------------------------------ *)

(* The same stream on a two-node simulated system, every message passed
   to [tap]: node 0 homes the server regions, node 1 the local ones and
   issues the operations. *)
let twin ~seed ~n_ops ~tap t lat =
  let sys = System.create ~seed ~nodes_per_cluster:2 ~clusters:1 () in
  let c0 = System.client sys 0 () and c1 = System.client sys 1 () in
  let server = System.run_fiber sys (fun () -> create_regions c0 server_regions server_fill) in
  let local = System.run_fiber sys (fun () -> create_regions c1 local_regions local_fill) in
  let tgt =
    { client = c1; engine = System.engine sys; run = (fun f -> System.run_fiber sys f); server; local }
  in
  tgt.run (fun () ->
      Array.iter
        (fun base ->
          for p = 0 to pages_per_region - 1 do
            ignore (ok_or "warm-up read" (Client.read_bytes c1 ~addr:(Gaddr.add_int base (p * 4096)) slot))
          done)
        server);
  let op = ops tgt ~seed ~round:0 in
  let before = Sim_load.snapshot sys in
  Sim_load.Net.set_trace (System.net sys) tap;
  for _ = 1 to n_ops do
    op t lat ~sim:true
  done;
  Sim_load.Net.clear_trace (System.net sys);
  let counters = Hashtbl.create 64 in
  Sim_load.accumulate counters ~before ~after:(Sim_load.snapshot sys);
  counters
