(* E8 — Two-tier local storage (§3.4).

   "When memory is full, the local storage system can victimize pages from
   RAM to disk. When the disk cache wants to victimize a page, it must
   invoke the consistency protocol associated with the page." Sweep the
   working set against the RAM capacity and watch the latency cliff; then
   shrink the disk too and watch dirty evictions invoke the CM. *)

open Bench_common
module Store = Kstorage.Page_store
module Wal = Kstorage.Wal

let accesses = 2000

let sweep_working_set ~ram_pages ~working_set =
  let eng = Ksim.Engine.create ~seed:7 () in
  let store = Store.create eng (Store.config ~ram_pages ~disk_pages:100_000 ()) in
  let rng = Kutil.Rng.create ~seed:13 in
  let page i = Gaddr.of_int (i * 4096) in
  let done_ = ref false in
  Ksim.Fiber.spawn eng (fun () ->
      (* Populate. *)
      for i = 0 to working_set - 1 do
        Store.write store (page i) (Bytes.make 64 'p') ~dirty:false
      done;
      Store.reset_stats store;
      for _ = 1 to accesses do
        ignore (Store.read store (page (Kutil.Rng.int rng working_set)))
      done;
      done_ := true);
  let t0 = Ksim.Engine.now eng in
  Ksim.Engine.run eng;
  assert !done_;
  let elapsed_ms = Ksim.Time.to_ms_f (Ksim.Engine.now eng - t0) in
  let st = Store.stats store in
  let hit_rate =
    100.0 *. float_of_int st.Store.ram_hits /. float_of_int accesses
  in
  (hit_rate, elapsed_ms /. float_of_int accesses)

let run () =
  header "E8: local storage hierarchy"
    "Uniform access over a working set; RAM capacity fixed at 256 frames.";
  let table =
    Stats.table
      ~columns:[ "working set / RAM"; "RAM hit %"; "mean access (ms)" ]
  in
  List.iter
    (fun factor ->
      let ws = int_of_float (256.0 *. factor) in
      let hit, ms = sweep_working_set ~ram_pages:256 ~working_set:ws in
      Stats.row table [ Printf.sprintf "%.2fx" factor; f1 hit; f3 ms ])
    [ 0.5; 1.0; 1.5; 2.0; 4.0 ];
  print_table table;

  (* Dirty eviction invokes the CM: watch writebacks flow to the home when
     a WAN reader's tiny cache thrashes. *)
  Printf.printf "\ndirty eviction writebacks (8-frame RAM, 16-frame disk node):\n";
  let config =
    { Daemon.default_config with Daemon.ram_pages = 8; disk_pages = 16 }
  in
  let sys = System.create ~config ~nodes_per_cluster:3 ~clusters:2 () in
  let c1 = System.client sys 1 () in
  let regions =
    System.run_fiber sys (fun () ->
        List.init 32 (fun _ ->
            let r = ok (Client.create_region c1 4096) in
            ok (Client.write_bytes c1 ~addr:r.Region.base (Bytes.make 16 'a'));
            r))
  in
  let reader = System.client sys 4 () in
  System.run_fiber sys (fun () ->
      List.iter
        (fun (r : Region.t) ->
          ok (Client.write_bytes reader ~addr:r.Region.base (Bytes.make 16 'z')))
        regions);
  System.run_until_quiet ~limit:(Ksim.Time.sec 5) sys;
  let st = Store.stats (Daemon.store (System.daemon sys 4)) in
  let t2 = Stats.table ~columns:[ "metric"; "count" ] in
  Stats.row t2 [ "RAM->disk evictions"; string_of_int st.Store.ram_evictions ];
  Stats.row t2 [ "disk evictions"; string_of_int st.Store.disk_evictions ];
  Stats.row t2 [ "dirty writebacks via CM"; string_of_int st.Store.writebacks ];
  print_table t2;
  (* Every dirtied-then-evicted page returned its ownership home; the data
     must still be readable there. *)
  let alive =
    List.for_all
      (fun (r : Region.t) ->
        System.run_fiber sys (fun () ->
            match Client.read_bytes c1 ~addr:r.Region.base 16 with
            | Ok b -> Bytes.get b 0 = 'z'
            | Error _ -> false))
      regions
  in
  Printf.printf "\nall 32 evicted-dirty pages still serve the newest data: %b\n" alive;

  (* E8c: crash-recovery replay. One node homes a region (no replicas, so
     the intent log is the only recovery path), takes a stream of writes,
     crashes, recovers. The checkpoint interval controls how long the log
     grows and therefore how long the node stays unavailable replaying
     it. *)
  Printf.printf
    "\nrecovery replay vs checkpoint interval (240 writes, then crash):\n";
  let recovery_run ~checkpoint_every =
    let config =
      { Daemon.default_config with Daemon.wal_checkpoint_every = checkpoint_every }
    in
    let sys = System.create ~config ~seed:29 ~nodes_per_cluster:4 ~clusters:1 () in
    let c1 = System.client sys 1 () in
    let pages = 4 in
    let region =
      System.run_fiber sys (fun () ->
          let attr = Attr.make ~owner:1 ~min_replicas:1 () in
          ok (Client.create_region c1 ~attr (pages * 4096)))
    in
    let addr i = Gaddr.add_int region.Region.base (i mod pages * 4096) in
    let last = Array.make pages "" in
    System.run_fiber sys (fun () ->
        for i = 0 to 239 do
          let v = Printf.sprintf "w%06d!" i in
          last.(i mod pages) <- v;
          ok (Client.write_bytes c1 ~addr:(addr i) (Bytes.of_string v))
        done);
    System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
    let d1 = System.daemon sys 1 in
    let log_len = Wal.size (Daemon.wal d1) in
    let replay_ms = Ksim.Time.to_ms_f (Wal.replay_cost (Daemon.wal d1)) in
    System.crash sys 1;
    let t0 = System.now sys in
    System.recover sys 1;
    while not (Daemon.is_up d1) do
      System.run_until_quiet ~limit:(Ksim.Time.ms 1) sys
    done;
    let gap_ms = Ksim.Time.to_ms_f (System.now sys - t0) in
    System.run_until_quiet ~limit:(Ksim.Time.sec 2) sys;
    let intact =
      List.for_all
        (fun p ->
          System.run_fiber sys (fun () ->
              match Client.read_bytes c1 ~addr:(addr p) 8 with
              | Ok b -> Bytes.to_string b = last.(p)
              | Error _ -> false))
        (List.init pages Fun.id)
    in
    (log_len, replay_ms, gap_ms, intact)
  in
  let t3 =
    Stats.table
      ~columns:
        [ "checkpoint every"; "log records at crash"; "replay cost (ms)";
          "availability gap (ms)"; "all writes recovered" ]
  in
  let lost =
    List.filter
      (fun (label, interval) ->
        let log_len, replay_ms, gap_ms, intact =
          recovery_run ~checkpoint_every:interval
        in
        Stats.row t3
          [ label; string_of_int log_len; f2 replay_ms; f2 gap_ms;
            string_of_bool intact ];
        not intact)
      [ ("64", 64); ("256", 256); ("1024", 1024); ("never", max_int) ]
  in
  print_table t3;
  if (not alive) || lost <> [] then
    failwith "E8: a recovered or evicted page lost an acknowledged write"
