(* The two simulated workloads, local-write and shared-mix, and the round
   loop they share.

   A round builds a fresh six-node system (2 clusters x 3 nodes), creates
   and prefills the workload's regions, then runs a fixed number of
   closed-loop operations. A run repeats rounds until its time is used, so
   set-up is measured several times and memory that grows with run length
   (the intent log keeps every record while simulated time stands still)
   stays bounded by the round size. The first rounds' operation streams
   depend only on the seed, so every simulated-time figure is taken from
   them and repeats exactly for a given seed. *)

open Util
module System = Khazana.System
module Client = Khazana.Client
module Daemon = Khazana.Daemon
module Region = Khazana.Region
module Gaddr = Kutil.Gaddr
module History = Kcheck.History
module Net = Khazana.Wire.Sim.Net

type kind = Read | Write | Txn

let kind_index = function Read -> 0 | Write -> 1 | Txn -> 2

(* Per-op latencies by kind: wall-clock microseconds, simulated ms. *)
type lat = { wall_us : Windows.t array; sim_ms : Kutil.Stats.summary array }

let lat () =
  {
    wall_us = Array.init 3 (fun _ -> Windows.create ());
    sim_ms = Array.init 3 (fun _ -> Kutil.Stats.summary ());
  }

let slot = 64

(* Index of the region, among [bases] of [len] bytes each, holding [a]. *)
let region_of bases len a =
  let found = ref (-1) in
  Array.iteri
    (fun i b -> if Gaddr.compare b a <= 0 && Gaddr.diff a b < len then found := i)
    bases;
  !found

let kind_name = function Read -> "read" | Write -> "write" | Txn -> "txn"

(* Time one operation in both clocks. [engine] reads simulated time. While
   a trace sink is installed the operation also runs inside a span of the
   bench's own, [bench.<kind>]. *)
let timed ~engine lat ~sim kind f =
  let w0 = now_ns () and s0 = Ksim.Engine.now engine in
  let r =
    if Ktrace.Trace.enabled () then Tracer.with_span ~engine ("bench." ^ kind_name kind) f
    else f ()
  in
  Windows.add lat.wall_us.(kind_index kind) ~at:w0 (float_of_int (now_ns () - w0) /. 1e3);
  if sim then
    Kutil.Stats.add lat.sim_ms.(kind_index kind)
      (Ksim.Time.to_ms_f (Ksim.Engine.now engine - s0));
  r

let txn_write2 c a1 p1 a2 p2 : (unit, Daemon.error) result =
  Client.txn c (fun tx ->
      match Client.txn_write c tx ~addr:a1 p1 with
      | Error _ as e -> e
      | Ok () -> Client.txn_write c tx ~addr:a2 p2)

(* A built system, ready for its timed operations. *)
type rig = {
  sys : System.t;
  clients : Client.t list;
  run : ops:int -> tally -> lat -> sim:bool -> unit;
      (** run [ops] operations; [sim] records simulated latencies *)
  init : Gaddr.t -> string;  (** each slot's value before the first op *)
  images : unit -> bytes array;  (** 4 KiB page images of the working set *)
  payloads : bytes array;  (** 64-byte payloads of the kind the ops write *)
  writes : ops:int -> tally -> lat -> unit;
      (** plain writes only, for attributing one write's cost *)
}

type spec = {
  name : string;
  ops_per_round : int;
  gate_ops : int;  (** ops in the history-checked verification pass *)
  sim_rounds : int;  (** leading rounds whose simulated latencies count *)
  setup : seed:int -> round:int -> rig;
}

let system ~seed ~round =
  System.create ~seed:((seed * 7919) + round) ~nodes_per_cluster:3 ~clusters:2 ()

(* ------------------------------------------------------------------ *)
(* local-write: one client on node 1, 85% writes, 10% reads, 5% two-page
   transactions, all on 64 one-page regions that node 1 homes.          *)
(* ------------------------------------------------------------------ *)

module Local_write = struct
  let regions = 64
  let slots = 4096 / slot
  let fill i = Char.chr (1 + i)

  let setup ~seed ~round =
    let sys = system ~seed ~round in
    let c = System.client sys 1 () in
    let bases =
      System.run_fiber sys (fun () ->
          Array.init regions (fun i ->
              let r = ok_or "create_region" (Client.create_region c 4096) in
              ok_or "prefill"
                (Client.write_bytes c ~addr:r.Region.base (Bytes.make 4096 (fill i)));
              r.Region.base))
    in
    let shadow = Array.init regions (fun i -> Bytes.make 4096 (fill i)) in
    (* Slots whose content an ambiguous failure left unknown. *)
    let unknown = Array.make (regions * slots) false in
    let rng = Random.State.make [| seed; round; 1 |] in
    let seq = ref 0 in
    let engine = System.engine sys in
    let addr r s = Gaddr.add_int bases.(r) (s * slot) in
    let put r s p =
      Bytes.blit p 0 shadow.(r) (s * slot) slot;
      unknown.((r * slots) + s) <- false
    in
    let op ?(u = Random.State.float rng 1.0) t lat ~sim =
      let r = Random.State.int rng regions and s = Random.State.int rng slots in
      t.attempted <- t.attempted + 1;
      let run kind f = timed ~engine lat ~sim kind (fun () -> System.run_fiber sys f) in
      if u < 0.10 then begin
        match run Read (fun () -> Client.read_bytes c ~addr:(addr r s) slot) with
        | Ok b ->
          if (not unknown.((r * slots) + s))
             && not (Bytes.equal b (Bytes.sub shadow.(r) (s * slot) slot))
          then wrong t "local-write: read of region %d slot %d mismatches shadow" r s
        | Error e -> count_error t e
      end
      else begin
        incr seq;
        let p = seq_payload slot !seq in
        if u < 0.15 then begin
          let r2 = (r + 1 + Random.State.int rng (regions - 1)) mod regions in
          let s2 = Random.State.int rng slots in
          (* Lock in address order, as a deadlock-free client would. *)
          let (r1, s1), (r2, s2) =
            if Gaddr.compare bases.(r) bases.(r2) < 0 then ((r, s), (r2, s2))
            else ((r2, s2), (r, s))
          in
          match run Txn (fun () -> txn_write2 c (addr r1 s1) p (addr r2 s2) p) with
          | Ok () -> put r1 s1 p; put r2 s2 p
          | Error e ->
            count_error t e;
            unknown.((r1 * slots) + s1) <- true;
            unknown.((r2 * slots) + s2) <- true
        end
        else
          match run Write (fun () -> Client.write_bytes c ~addr:(addr r s) p) with
          | Ok () -> put r s p
          | Error e -> count_error t e; unknown.((r * slots) + s) <- true
      end
    in
    let init a = String.make slot (fill (region_of bases 4096 a)) in
    {
      sys;
      clients = [ c ];
      run = (fun ~ops t lat ~sim -> for _ = 1 to ops do op t lat ~sim done);
      init;
      images = (fun () -> Array.map Bytes.copy shadow);
      payloads = Array.init 64 (fun i -> seq_payload slot (i + 1));
      writes = (fun ~ops t lat -> for _ = 1 to ops do op ~u:1.0 t lat ~sim:false done);
    }

  let spec =
    { name = "local-write"; ops_per_round = 12_000; gate_ops = 3_000; sim_rounds = 2; setup }
end

(* ------------------------------------------------------------------ *)
(* shared-mix: six client fibers, one per node, 80% reads, 15% writes,
   5% two-page transactions across homes; skewed popularity over 2,048
   pages in 256 eight-page regions homed round-robin. Pages start as
   uniform fills, writes store distinct sequence payloads, and every read
   must be one or the other.                                           *)
(* ------------------------------------------------------------------ *)

module Shared_mix = struct
  let nodes = 6
  let regions = 256
  let pages_per_region = 8
  let pages = regions * pages_per_region
  let slots = 4096 / slot
  let fill page = Char.chr (1 + (page mod 250))
  let home page = page / pages_per_region mod nodes

  (* Popularity skew: the cube of a uniform draw. *)
  let pick rng =
    let u = Random.State.float rng 1.0 in
    min (pages - 1) (int_of_float (u *. u *. u *. float_of_int pages))

  let setup ~seed ~round =
    let sys = system ~seed ~round in
    let engine = System.engine sys in
    let clients = List.init nodes (fun n -> System.client sys n ()) in
    let clients_a = Array.of_list clients in
    (* Regions are created one at a time: concurrent creators contend on
       the address map's root page and time out. *)
    let bases =
      System.run_fiber sys (fun () ->
          Array.init regions (fun i ->
              let c = clients_a.(i mod nodes) in
              let len = pages_per_region * 4096 in
              let r = ok_or "create_region" (Client.create_region c len) in
              let image =
                Bytes.init len (fun b -> fill ((i * pages_per_region) + (b / 4096)))
              in
              ok_or "prefill" (Client.write_bytes c ~addr:r.Region.base image);
              r.Region.base))
    in
    let page_addr p s =
      Gaddr.add_int bases.(p / pages_per_region) (((p mod pages_per_region) * 4096) + (s * slot))
    in
    let fiber n c ~ops t lat ~sim ~round =
      let rng = Random.State.make [| seed; round; n |] in
      for k = 1 to ops do
        let u = Random.State.float rng 1.0 in
        let p = pick rng and s = Random.State.int rng slots in
        t.attempted <- t.attempted + 1;
        let run kind f = timed ~engine lat ~sim kind f in
        (* Distinct per write, so the history checker can tell writes
           apart; a torn read shows as disagreeing words. *)
        let value = seq_payload slot ((((round * 1_000_000) + k) * nodes) + n) in
        if u < 0.80 then begin
          match run Read (fun () -> Client.read_bytes c ~addr:(page_addr p s) slot) with
          | Ok b -> if not (words_agree b) then wrong t "shared-mix: torn read of page %d slot %d" p s
          | Error e -> count_error t e
        end
        else if u < 0.95 then begin
          match run Write (fun () -> Client.write_bytes c ~addr:(page_addr p s) value) with
          | Ok () -> ()
          | Error e -> count_error t e
        end
        else begin
          let rec other () =
            let q = pick rng in
            if home q <> home p then q else other ()
          in
          let a1 = page_addr p s and a2 = page_addr (other ()) (Random.State.int rng slots) in
          let a1, a2 = if Gaddr.compare a1 a2 < 0 then (a1, a2) else (a2, a1) in
          match run Txn (fun () -> txn_write2 c a1 value a2 value) with
          | Ok () -> ()
          | Error e -> count_error t e
        end
      done
    in
    let rounds_run = ref 0 in
    let run ~ops t lat ~sim =
      let round = (round * 1000) + !rounds_run in
      incr rounds_run;
      System.run_fiber sys (fun () ->
          Ksim.Fiber.join_all
            (List.mapi
               (fun n c ->
                 Ksim.Fiber.async engine (fun () ->
                     fiber n c ~ops:(ops / nodes) t lat ~sim ~round))
               clients))
    in
    let init a =
      let r = region_of bases (pages_per_region * 4096) a in
      String.make slot (fill ((r * pages_per_region) + (Gaddr.diff a bases.(r) / 4096)))
    in
    let images () =
      Array.init 64 (fun i -> Bytes.make 4096 (fill (i * 31)))
    in
    {
      sys;
      clients;
      run;
      init;
      images;
      payloads = Array.init 64 (fun i -> seq_payload slot (i + 1));
      writes = (fun ~ops:_ _ _ -> ());
    }

  let spec =
    { name = "shared-mix"; ops_per_round = 12_000; gate_ops = 3_000; sim_rounds = 2; setup }
end

(* ------------------------------------------------------------------ *)
(* Layer counters                                                      *)
(* ------------------------------------------------------------------ *)

(* Every additive counter a daemon's layers expose, by name, through
   [add]; summed when several daemons report. *)
let daemon_counters add ds =
  List.iter
    (fun d ->
      let l = Daemon.lookup_stats d in
      add "loc.homed" l.Daemon.homed_hits;
      add "loc.rdir" l.rdir_hits;
      add "loc.cluster" l.cluster_hits;
      add "loc.walks" l.map_walks;
      add "loc.depth" l.map_walk_depth_total;
      add "loc.cluster_walks" l.cluster_walks;
      add "loc.failures" l.failures;
      List.iter (fun (k, v) -> add ("m." ^ k) v) (Ktrace.Metrics.counters (Daemon.metrics d));
      let s = Kstorage.Page_store.stats (Daemon.store d) in
      add "store.ram_hits" s.Kstorage.Page_store.ram_hits;
      add "store.disk_hits" s.disk_hits;
      add "store.misses" s.misses;
      add "store.ram_evictions" s.ram_evictions;
      add "store.writebacks" s.writebacks;
      add "store.syncs" s.syncs;
      let w = Kstorage.Wal.stats (Daemon.wal d) in
      add "wal.appends" w.Kstorage.Wal.appends;
      add "wal.syncs" w.syncs;
      add "wal.commits" w.commits;
      add "wal.checkpoints" w.checkpoints)
    ds

let adder acc k v =
  Hashtbl.replace acc k (float_of_int v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))

(* Counters of a whole simulated system: every daemon, the network and
   the engine. Rounds subtract a post-set-up snapshot from a post-run one. *)
let snapshot sys =
  let acc = Hashtbl.create 64 in
  let add = adder acc in
  daemon_counters add (System.daemons sys);
  let n = Net.stats (System.net sys) in
  add "net.sent" n.Net.sent;
  add "net.atoms" n.atoms;
  add "net.bytes" n.bytes_sent;
  add "net.dropped" n.dropped;
  List.iter (fun (k, v) -> add ("kind." ^ k) v) n.by_kind;
  add "events" (Ksim.Engine.events_fired (System.engine sys));
  add "sim_ns" (System.now sys);
  acc

let accumulate total ~before ~after =
  Hashtbl.iter
    (fun k v ->
      let d = v -. Option.value ~default:0.0 (Hashtbl.find_opt before k) in
      Hashtbl.replace total k (d +. Option.value ~default:0.0 (Hashtbl.find_opt total k)))
    after

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

(* ------------------------------------------------------------------ *)
(* The round loop                                                      *)
(* ------------------------------------------------------------------ *)

type phase = {
  setups : float list;
  rates : float list;  (** ops per second of each round *)
  timed_s : float;
  ops : int;
  counters : (string, float) Hashtbl.t;
  wal_max : int;  (** largest intent log at the end of a round *)
  metric_samples : int;  (** samples held by every daemon summary *)
  lock_p99 : float;  (** worst daemon's lock.ms p99, simulated ms *)
  minor_words : float;
  major_collections : int;
}

(* Run rounds until [seconds] of timed operations have passed. [first] is
   the index of the first round; rounds 0 to [sim_rounds - 1] always run
   when [first] is 0, and only they record simulated latencies. *)
let run_phase ?tracer spec ~seed ~seconds ~first ~tally ~lat =
  let counters = Hashtbl.create 64 and lock_p99 = ref 0.0 in
  let setups = ref [] and rates = ref [] and timed = ref 0 and ops = ref 0 and round = ref first in
  let wal_max = ref 0 and msamples = ref 0 and minor = ref 0.0 and major = ref 0 in
  while !round < spec.sim_rounds || float_of_int !timed /. 1e9 < seconds do
    Gc.full_major ();
    let t0 = now_ns () in
    let rig = spec.setup ~seed ~round:!round in
    setups := secs_since t0 :: !setups;
    let before = snapshot rig.sys in
    let g0 = Gc.quick_stat () in
    Option.iter Tracer.install tracer;
    let t1 = now_ns () in
    rig.run ~ops:spec.ops_per_round tally lat ~sim:(!round < spec.sim_rounds);
    let dt = now_ns () - t1 in
    timed := !timed + dt;
    rates := (float_of_int spec.ops_per_round /. (float_of_int dt /. 1e9)) :: !rates;
    Option.iter Tracer.uninstall tracer;
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    ops := !ops + spec.ops_per_round;
    accumulate counters ~before ~after:(snapshot rig.sys);
    let held = ref 0 in
    List.iter
      (fun d ->
        wal_max := max !wal_max (Kstorage.Wal.size (Daemon.wal d));
        let m = Daemon.metrics d in
        held :=
          List.fold_left (fun acc (_, s) -> acc + Kutil.Stats.samples s) !held
            (Ktrace.Metrics.summaries m);
        let l = Ktrace.Metrics.summary m "lock.ms" in
        if Kutil.Stats.samples l > 0 then
          lock_p99 := Float.max !lock_p99 (Kutil.Stats.percentile l 99.0))
      (System.daemons rig.sys);
    msamples := max !msamples !held;
    incr round
  done;
  {
    setups = !setups;
    rates = !rates;
    timed_s = float_of_int !timed /. 1e9;
    ops = !ops;
    counters;
    wal_max = !wal_max;
    metric_samples = !msamples;
    lock_p99 = !lock_p99;
    minor_words = !minor;
    major_collections = !major;
  }

(* Set up again without running ops, until [n] set-up times exist. *)
let more_setups spec ~seed setups n =
  let rec go setups k =
    if List.length setups >= n then setups
    else begin
      Gc.full_major ();
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (spec.setup ~seed ~round:(500 + k)));
      go (secs_since t0 :: setups) (k + 1)
    end
  in
  go setups 0

(* The correctness gate: a separate seeded pass with every client's
   history recorded, checked for linearizability per address and strict
   serializability of the transactions. *)
let gate spec ~seed =
  let rig = spec.setup ~seed ~round:9_999 in
  let entries = ref [] and tick = ref 0 in
  let now () = incr tick; !tick in
  List.iteri
    (fun i c ->
      Client.set_history c
        (Some (History.recorder ~now ~proc:i (fun e -> entries := e :: !entries))))
    rig.clients;
  let t = tally () in
  rig.run ~ops:spec.gate_ops t (lat ()) ~sim:false;
  let report = Kcheck.Check.analyze ~init:rig.init (History.assemble (List.rev !entries)) in
  (t, report)
