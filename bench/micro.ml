(* Wall-clock microbenchmarks (Bechamel) of the hot code paths: one
   Test.make per experiment family, so regressions in the substrate show up
   independently of the simulated-time experiment tables. *)

open Bechamel
open Toolkit

let u128_tests =
  let a = Kutil.U128.of_hex "deadbeefcafebabe0123456789abcdef" in
  let b = Kutil.U128.of_hex "0fedcba987654321" in
  [
    Test.make ~name:"u128 add+sub" (Staged.stage (fun () ->
        Kutil.U128.sub (Kutil.U128.add a b) b));
    Test.make ~name:"u128 divmod 4096" (Staged.stage (fun () ->
        Kutil.U128.divmod_int a 4096));
    Test.make ~name:"u128 divmod non-pot" (Staged.stage (fun () ->
        Kutil.U128.divmod_int a 37));
  ]

let container_tests =
  [
    Test.make ~name:"heap push+pop x100" (Staged.stage (fun () ->
        let h = Kutil.Heap.create ~cmp:compare in
        for i = 0 to 99 do
          Kutil.Heap.push h ((i * 37) mod 100)
        done;
        while Kutil.Heap.pop h <> None do () done));
    Test.make ~name:"lru put+find x100"
      (let lru = Kutil.Lru.create ~capacity:64 () in
       Staged.stage (fun () ->
           for i = 0 to 99 do
             ignore (Kutil.Lru.put lru (i mod 80) i);
             ignore (Kutil.Lru.find lru (i mod 80))
           done));
    Test.make ~name:"gaddr table find (256 pages)"
      (* One lookup per iteration in a table of 256 page-aligned keys, the
         shape of a node's page store and page directory. *)
      (let pages = Array.init 256 (fun i -> Kutil.Gaddr.of_int (i * 4096)) in
       let t = Kutil.Gaddr.Table.create 256 in
       Array.iteri (fun i a -> Kutil.Gaddr.Table.replace t a i) pages;
       let counter = ref 0 in
       Staged.stage (fun () ->
           incr counter;
           Kutil.Gaddr.Table.find_opt t pages.(!counter land 255)));
  ]

let engine_tests =
  [
    Test.make ~name:"engine schedule+run x100" (Staged.stage (fun () ->
        let eng = Ksim.Engine.create () in
        for i = 1 to 100 do
          ignore (Ksim.Engine.schedule eng ~after:i ignore)
        done;
        Ksim.Engine.run eng));
    Test.make ~name:"fiber spawn+sleep x10" (Staged.stage (fun () ->
        let eng = Ksim.Engine.create () in
        for _ = 1 to 10 do
          Ksim.Fiber.spawn eng (fun () -> Ksim.Fiber.sleep 100)
        done;
        Ksim.Engine.run eng));
  ]

let crew_tests =
  [
    Test.make ~name:"crew local acquire/release" (Staged.stage (fun () ->
        let cfg = Kconsistency.Types.default_config ~self:0 ~home:0 in
        let m = Kconsistency.Crew.create cfg (Kconsistency.Types.Start_owner (Bytes.create 64)) in
        for i = 0 to 9 do
          ignore (Kconsistency.Crew.handle m
                    (Kconsistency.Types.Acquire { req = i; mode = Kconsistency.Types.Write }));
          ignore (Kconsistency.Crew.handle m
                    (Kconsistency.Types.Release
                       { mode = Kconsistency.Types.Write; data = Some (Bytes.create 64) }))
        done));
  ]

let storage_tests =
  [
    Test.make ~name:"page_store write+read immediate"
      (let eng = Ksim.Engine.create () in
       let store = Kstorage.Page_store.create eng (Kstorage.Page_store.config ()) in
       let data = Bytes.create 4096 in
       let counter = ref 0 in
       Staged.stage (fun () ->
           incr counter;
           let addr = Kutil.Gaddr.of_int ((!counter mod 128) * 4096) in
           Kstorage.Page_store.write_immediate store addr data ~dirty:false;
           ignore (Kstorage.Page_store.read_immediate store addr)));
    Test.make ~name:"page_store write+flush immediate 4KiB"
      (let eng = Ksim.Engine.create () in
       let store = Kstorage.Page_store.create eng (Kstorage.Page_store.config ()) in
       let data = Bytes.make 4096 'p' in
       let counter = ref 0 in
       Staged.stage (fun () ->
           incr counter;
           let addr = Kutil.Gaddr.of_int ((!counter mod 128) * 4096) in
           Kstorage.Page_store.write_immediate store addr data ~dirty:true;
           Kstorage.Page_store.flush_immediate store addr));
    Test.make ~name:"disk_fault checksum 4KiB"
      (let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
       Staged.stage (fun () -> Kstorage.Disk_fault.checksum data));
    Test.make ~name:"wal begin+log_page 4KiB+commit"
      (* A fresh in-memory log every 256 transactions keeps the retained
         log (and the heap) from growing with the iteration count. *)
      (let fresh () = Kstorage.Wal.create ~rng:(Kutil.Rng.create ~seed:7) () in
       let wal = ref (fresh ()) in
       let data = Bytes.make 4096 'w' in
       let counter = ref 0 in
       Staged.stage (fun () ->
           incr counter;
           if !counter mod 256 = 0 then wal := fresh ();
           let addr = Kutil.Gaddr.of_int ((!counter mod 128) * 4096) in
           let tx = Kstorage.Wal.begin_tx !wal in
           Kstorage.Wal.log_page !wal tx addr data;
           Kstorage.Wal.commit !wal tx));
  ]

let codec_tests =
  let node =
    {
      Khazana.Address_map.Node.base = Kutil.U128.zero;
      span_log2 = 64;
      next_free = 5;
      entries =
        List.init 20 (fun i ->
            Khazana.Address_map.Reserved
              {
                Khazana.Address_map.base = Kutil.Gaddr.of_int (i * 65536);
                len = 4096;
                page_size = 4096;
                homes = [ i mod 4 ];
              });
    }
  in
  [
    Test.make ~name:"address-map node encode+decode" (Staged.stage (fun () ->
        Khazana.Address_map.Node.decode (Khazana.Address_map.Node.encode node)));
  ]

let end_to_end_tests =
  (* A full simulated lock/write/unlock against a pre-built 6-node system:
     measures the whole daemon/CM/engine stack per operation. *)
  let sys = Khazana.System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let c = Khazana.System.client sys 1 () in
  let region =
    Khazana.System.run_fiber sys (fun () ->
        match Khazana.Client.create_region c 4096 with
        | Ok r -> r
        | Error _ -> assert false)
  in
  let payload = Bytes.make 64 'b' in
  [
    Test.make ~name:"simulated local write op (full stack)"
      (Staged.stage (fun () ->
           Khazana.System.run_fiber sys (fun () ->
               match Khazana.Client.write_bytes c ~addr:region.Khazana.Region.base payload with
               | Ok () -> ()
               | Error _ -> assert false)));
  ]

let all_tests () =
  Test.make_grouped ~name:"khazana" ~fmt:"%s %s"
    (u128_tests @ container_tests @ engine_tests @ crew_tests @ storage_tests
    @ codec_tests @ end_to_end_tests)

let run () =
  Printf.printf "\n=== Microbenchmarks (wall clock) ===\n\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (all_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Kutil.Stats.table ~columns:[ "benchmark"; "ns/op" ] in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (n :: _) -> Printf.sprintf "%.1f" n
        | Some [] | None -> "n/a"
      in
      Kutil.Stats.row table [ name; ns ])
    (List.sort compare rows);
  print_endline (Kutil.Stats.render table)
