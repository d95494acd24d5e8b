(* Tests for the two-tier local page store. *)

module Store = Kstorage.Page_store
module Gaddr = Kutil.Gaddr
module Time = Ksim.Time

let page n = Gaddr.of_int (n * 4096)
let data s = Bytes.of_string s

let in_fiber eng f =
  let result = ref None in
  Ksim.Fiber.spawn eng (fun () -> result := Some (f ()));
  Ksim.Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "fiber did not finish"

let mk ?(ram = 4) ?(disk = 16) () =
  let eng = Ksim.Engine.create () in
  (eng, Store.create eng (Store.config ~ram_pages:ram ~disk_pages:disk ()))

let test_write_read () =
  let eng, s = mk () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "hello") ~dirty:false;
      match Store.read s (page 1) with
      | Some b -> Alcotest.(check string) "content" "hello" (Bytes.to_string b)
      | None -> Alcotest.fail "missing");
  Alcotest.(check int) "one ram page" 1 (Store.ram_used s)

let test_read_returns_copy () =
  let eng, s = mk () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "abc") ~dirty:false;
      (match Store.read s (page 1) with
       | Some b -> Bytes.set b 0 'X'
       | None -> Alcotest.fail "missing");
      match Store.read s (page 1) with
      | Some b -> Alcotest.(check string) "unchanged" "abc" (Bytes.to_string b)
      | None -> Alcotest.fail "missing")

let test_miss () =
  let eng, s = mk () in
  in_fiber eng (fun () ->
      Alcotest.(check (option unit)) "miss" None
        (Option.map ignore (Store.read s (page 9))));
  Alcotest.(check int) "counted" 1 (Store.stats s).misses

let test_ram_latency_vs_disk () =
  let eng, s = mk ~ram:1 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "a") ~dirty:false;
      (* Push page 1 to disk by filling RAM. *)
      Store.write s (page 2) (data "b") ~dirty:false;
      let t0 = Ksim.Engine.now eng in
      ignore (Store.read s (page 2));
      let ram_cost = Ksim.Engine.now eng - t0 in
      let t1 = Ksim.Engine.now eng in
      ignore (Store.read s (page 1));
      let disk_cost = Ksim.Engine.now eng - t1 in
      Alcotest.(check bool) "disk much slower" true (disk_cost > 100 * ram_cost))

let test_eviction_to_disk () =
  let eng, s = mk ~ram:2 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "one") ~dirty:false;
      Store.write s (page 2) (data "two") ~dirty:false;
      Store.write s (page 3) (data "three") ~dirty:false;
      Alcotest.(check int) "ram capped" 2 (Store.ram_used s);
      Alcotest.(check int) "victim on disk" 1 (Store.disk_used s);
      Alcotest.(check bool) "lru victim" true (Store.where s (page 1) = Some Store.Disk);
      (* Disk hit promotes back into RAM. *)
      match Store.read s (page 1) with
      | Some b ->
        Alcotest.(check string) "survived" "one" (Bytes.to_string b);
        Alcotest.(check bool) "promoted" true (Store.where s (page 1) = Some Store.Ram)
      | None -> Alcotest.fail "lost");
  let st = Store.stats s in
  Alcotest.(check bool) "evictions counted" true (st.ram_evictions >= 1);
  Alcotest.(check int) "disk hit" 1 st.disk_hits

let test_pinned_not_victimised () =
  let eng, s = mk ~ram:2 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "pinned") ~dirty:false;
      Store.pin s (page 1);
      Store.write s (page 2) (data "b") ~dirty:false;
      Store.write s (page 3) (data "c") ~dirty:false;
      Store.write s (page 4) (data "d") ~dirty:false;
      Alcotest.(check bool) "pinned stays in ram" true
        (Store.where s (page 1) = Some Store.Ram);
      Store.unpin s (page 1);
      Store.write s (page 5) (data "e") ~dirty:false;
      Store.write s (page 6) (data "f") ~dirty:false;
      Alcotest.(check bool) "unpinned can move" true
        (Store.where s (page 1) <> Some Store.Ram))

let test_evict_hook_on_disk_overflow () =
  let eng, s = mk ~ram:1 ~disk:2 () in
  let evicted = ref [] in
  Store.set_evict_hook s (fun addr _bytes ~dirty -> evicted := (addr, dirty) :: !evicted);
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "1") ~dirty:true;
      Store.write s (page 2) (data "2") ~dirty:false;
      Store.write s (page 3) (data "3") ~dirty:false;
      Store.write s (page 4) (data "4") ~dirty:false);
  (* ram=1, disk=2: the fourth write must push one page off the disk. *)
  Alcotest.(check bool) "hook called" true (List.length !evicted >= 1);
  let st = Store.stats s in
  Alcotest.(check bool) "writeback counted for dirty" true
    (st.writebacks >= if List.exists snd !evicted then 1 else 0)

let test_dirty_tracking () =
  let eng, s = mk () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "x") ~dirty:true;
      Alcotest.(check bool) "dirty" true (Store.is_dirty s (page 1));
      Store.mark_clean s (page 1);
      Alcotest.(check bool) "clean" false (Store.is_dirty s (page 1));
      (* Dirty bit is sticky across clean writes. *)
      Store.write s (page 1) (data "y") ~dirty:true;
      Store.write s (page 1) (data "z") ~dirty:false;
      Alcotest.(check bool) "sticky" true (Store.is_dirty s (page 1)))

let test_immediate_ops () =
  let _eng, s = mk () in
  (* No fiber needed: immediate ops never sleep. *)
  Store.write_immediate s (page 1) (data "imm") ~dirty:false;
  (match Store.read_immediate s (page 1) with
   | Some b -> Alcotest.(check string) "content" "imm" (Bytes.to_string b)
   | None -> Alcotest.fail "missing");
  Alcotest.(check (option unit)) "absent" None
    (Option.map ignore (Store.read_immediate s (page 2)))

let test_drop () =
  let eng, s = mk () in
  in_fiber eng (fun () -> Store.write s (page 1) (data "x") ~dirty:true);
  Store.drop s (page 1);
  Alcotest.(check (option unit)) "gone" None
    (Option.map ignore (Store.read_immediate s (page 1)))

let test_crash_loses_ram_keeps_disk () =
  let eng, s = mk ~ram:1 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "old") ~dirty:false;
      Store.write s (page 2) (data "new") ~dirty:false);
  (* page 1 is on disk, page 2 in RAM. *)
  Store.crash s;
  Alcotest.(check bool) "ram gone" true (Store.where s (page 2) = None);
  Alcotest.(check bool) "disk survives" true (Store.where s (page 1) = Some Store.Disk)

let test_pages_listing () =
  let eng, s = mk ~ram:1 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "a") ~dirty:false;
      Store.write s (page 2) (data "b") ~dirty:false);
  let pages = List.sort Gaddr.compare (Store.pages s) in
  Alcotest.(check int) "two pages" 2 (List.length pages);
  Alcotest.(check bool) "page1 listed" true
    (List.exists (Gaddr.equal (page 1)) pages)

(* ------------------------- disk fault model ------------------------ *)

let all_faults =
  {
    Kstorage.Disk_fault.lost_write_prob = 1.0;
    torn_write_prob = 0.0;
    crash_during_io_prob = 0.0;
  }

let torn_faults = { all_faults with Kstorage.Disk_fault.torn_write_prob = 1.0 }

let test_lost_unsynced_write_rolls_back () =
  let _eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "v1") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  Store.write_immediate s (page 1) (data "v2") ~dirty:true;
  Store.flush_immediate s (page 1);
  (* The v2 flush missed the sync barrier: crash rolls it back to v1. *)
  Store.crash s;
  (match Store.read_immediate s (page 1) with
   | Some b -> Alcotest.(check string) "rolled back" "v1" (Bytes.to_string b)
   | None -> Alcotest.fail "durable copy lost");
  Alcotest.(check bool) "loss counted" true ((Store.stats s).lost_writes >= 1)

let test_never_synced_write_vanishes () =
  let _eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "only") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.crash s;
  Alcotest.(check (option unit)) "no prior durable content" None
    (Option.map ignore (Store.read_immediate s (page 1)))

let test_sync_barrier_protects () =
  let _eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "safe") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  Store.crash s;
  (match Store.read_immediate s (page 1) with
   | Some b -> Alcotest.(check string) "survived" "safe" (Bytes.to_string b)
   | None -> Alcotest.fail "synced write lost")

let test_torn_write_never_served () =
  let _eng, s = mk () in
  Store.set_faults s torn_faults;
  Store.write_immediate s (page 1) (data "TORNTORN") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.crash s;
  Alcotest.(check bool) "tear recorded" true ((Store.stats s).torn_writes >= 1);
  (* The torn image is on disk but must read as a miss, never as data. *)
  Alcotest.(check (option unit)) "torn not served" None
    (Option.map ignore (Store.read_immediate s (page 1)));
  Alcotest.(check bool) "detection counted" true
    ((Store.stats s).torn_detected >= 1)

let test_scrub_drops_torn () =
  let _eng, s = mk () in
  Store.set_faults s torn_faults;
  Store.write_immediate s (page 1) (data "TORNTORN") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.write_immediate s (page 2) (data "fine") ~dirty:true;
  Store.flush_immediate s (page 2);
  Store.sync s;
  Store.write_immediate s (page 1) (data "overwrit") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.crash s;
  let dropped = Store.scrub s in
  Alcotest.(check int) "one torn frame dropped" 1 dropped;
  (match Store.read_immediate s (page 2) with
   | Some b -> Alcotest.(check string) "clean page intact" "fine" (Bytes.to_string b)
   | None -> Alcotest.fail "clean synced page lost")

let test_crash_clears_pins () =
  let eng, s = mk ~ram:1 ~disk:2 () in
  in_fiber eng (fun () ->
      Store.write s (page 1) (data "a") ~dirty:false;
      Store.write s (page 2) (data "b") ~dirty:false);
  (* page 1 demoted to disk; pin it there, then crash: the pinning fiber
     is dead, so the pin must die too or the page is stuck forever. *)
  Store.pin s (page 1);
  Store.crash s;
  in_fiber eng (fun () ->
      Store.write s (page 3) (data "c") ~dirty:false;
      Store.write s (page 4) (data "d") ~dirty:false;
      Store.write s (page 5) (data "e") ~dirty:false);
  Alcotest.(check bool) "page 1 was evictable after crash" true
    (Store.where s (page 1) = None);
  (* Symmetry: pin and unpin of a non-resident page are both no-ops. *)
  Store.pin s (page 99);
  Store.unpin s (page 99)

(* Regression: promoting a disk hit into RAM must keep the disk frame
   (inclusive caching). After a WAL checkpoint truncates a page's log
   records, that frame can be the only durable copy of a committed image;
   an exclusive promotion would turn it RAM-only and a crash would lose an
   acked write with nothing left to replay. *)
let test_promotion_keeps_durable_copy () =
  let eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "keep") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  (* RAM dies with the crash; only the synced disk frame remains. *)
  Store.crash s;
  in_fiber eng (fun () ->
      match Store.read s (page 1) with
      | Some b ->
        Alcotest.(check string) "disk hit" "keep" (Bytes.to_string b);
        Alcotest.(check bool) "promoted" true
          (Store.where s (page 1) = Some Store.Ram)
      | None -> Alcotest.fail "durable page unreadable");
  Store.crash s;
  match Store.read_immediate s (page 1) with
  | Some b ->
    Alcotest.(check string) "durable copy survived the promotion" "keep"
      (Bytes.to_string b)
  | None -> Alcotest.fail "promotion dropped the only durable copy"

(* Regression: overwriting a disk-resident page in RAM must keep the prior
   durable image on disk until the new content is flushed — a crash before
   the flush reverts to the old committed bytes instead of losing the page
   outright. *)
let test_overwrite_keeps_prior_durable () =
  let _eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "v1") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  Store.crash s;
  (* Page now lives only on disk; overwrite it without flushing. *)
  Store.write_immediate s (page 1) (data "v2") ~dirty:true;
  (match Store.read_immediate s (page 1) with
   | Some b -> Alcotest.(check string) "RAM fronts disk" "v2" (Bytes.to_string b)
   | None -> Alcotest.fail "overwritten page unreadable");
  Store.crash s;
  match Store.read_immediate s (page 1) with
  | Some b ->
    Alcotest.(check string) "prior durable image survived" "v1"
      (Bytes.to_string b)
  | None -> Alcotest.fail "overwrite destroyed the durable copy"

let test_flush_immediate_single_writeback () =
  let eng, s = mk ~ram:1 ~disk:1 () in
  let dirty_evictions = ref 0 in
  Store.set_evict_hook s (fun _ _ ~dirty -> if dirty then incr dirty_evictions);
  Store.write_immediate s (page 1) (data "x") ~dirty:true;
  Store.flush_immediate s (page 1);
  Alcotest.(check int) "flush counted once" 1 (Store.stats s).writebacks;
  Alcotest.(check bool) "ram copy now clean" false (Store.is_dirty s (page 1));
  (* Demote the (now clean) RAM frame and push it off the disk: the bytes
     were already flushed, so no second writeback may happen. *)
  in_fiber eng (fun () ->
      Store.write s (page 2) (data "y") ~dirty:false;
      Store.write s (page 3) (data "z") ~dirty:false);
  Alcotest.(check int) "no double writeback" 1 (Store.stats s).writebacks;
  Alcotest.(check int) "hook saw no dirty page 1" 0 !dirty_evictions

(* ----------------------------- WAL --------------------------------- *)

module Wal = Kstorage.Wal

let mk_wal ?config ?(faults = Kstorage.Disk_fault.none) ?(seed = 7) () =
  let w = Wal.create ?config ~rng:(Kutil.Rng.create ~seed) () in
  Wal.set_faults w faults;
  w

let payload_strings r =
  List.map
    (function
      | Wal.Page (a, b) ->
        Printf.sprintf "page:%d:%s" (Gaddr.diff a Gaddr.zero) (Bytes.to_string b)
      | Wal.Note (tag, b) -> Printf.sprintf "note:%s:%s" tag (Bytes.to_string b))
    r.Wal.ops

let test_wal_commit_replay () =
  let w = mk_wal () in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "one");
  Wal.log_note w tx "meta" (data "m");
  Wal.commit w tx;
  Wal.control w "ctl" (data "c");
  (* An intent without a commit must never surface. *)
  let dead = Wal.begin_tx w in
  Wal.log_page w dead (page 2) (data "ghost");
  let r = Wal.replay w in
  Alcotest.(check (list string)) "committed ops in order"
    [ "page:4096:one"; "note:meta:m"; "note:ctl:c" ]
    (payload_strings r);
  Alcotest.(check bool) "uncommitted discarded" true (r.Wal.discarded >= 1)

let test_wal_replay_idempotent () =
  let w = mk_wal () in
  for i = 1 to 5 do
    let tx = Wal.begin_tx w in
    Wal.log_page w tx (page i) (data (string_of_int i));
    Wal.commit w tx
  done;
  let r1 = Wal.replay w in
  let r2 = Wal.replay w in
  Alcotest.(check (list string)) "replay twice = once" (payload_strings r1)
    (payload_strings r2);
  (* Applying the op list is idempotent: payloads are plain sets. *)
  let apply ops =
    let t = Gaddr.Table.create 8 in
    List.iter
      (function
        | Wal.Page (a, b) -> Gaddr.Table.replace t a (Bytes.to_string b)
        | Wal.Note _ -> ())
      ops;
    List.sort compare (Gaddr.Table.fold (fun _ v acc -> v :: acc) t [])
  in
  Alcotest.(check (list string)) "apply twice = once" (apply r1.Wal.ops)
    (apply (r1.Wal.ops @ r1.Wal.ops))

let test_wal_checkpoint_truncates () =
  let w =
    mk_wal ~config:{ Wal.default_config with Wal.checkpoint_every = 10 } ()
  in
  for i = 1 to 4 do
    let tx = Wal.begin_tx w in
    Wal.log_page w tx (page i) (data "d");
    Wal.commit w tx
  done;
  Alcotest.(check bool) "needs checkpoint" true (Wal.needs_checkpoint w);
  Wal.checkpoint w (data "SNAP");
  Alcotest.(check int) "truncated to one record" 1 (Wal.size w);
  Alcotest.(check bool) "no longer needs one" false (Wal.needs_checkpoint w);
  let r = Wal.replay w in
  Alcotest.(check (option string)) "snapshot survives" (Some "SNAP")
    (Option.map Bytes.to_string r.Wal.snapshot);
  Alcotest.(check (list string)) "old ops truncated away" [] (payload_strings r)

let test_wal_crash_loses_unsynced_tail () =
  let w = mk_wal ~faults:all_faults () in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "kept");
  Wal.commit w tx;
  (* commit synced; these hint-grade records did not. *)
  Wal.control w ~sync:false "hint" (data "a");
  Wal.control w ~sync:false "hint" (data "b");
  Wal.crash w;
  let r = Wal.replay w in
  Alcotest.(check (list string)) "synced prefix only" [ "page:4096:kept" ]
    (payload_strings r);
  Alcotest.(check bool) "losses counted" true ((Wal.stats w).lost_records >= 1)

let test_wal_torn_frontier_record () =
  let w = mk_wal ~faults:torn_faults () in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "durable");
  Wal.commit w tx;
  Wal.control w ~sync:false "tail" (data "unsynced-payload");
  Wal.crash w;
  Alcotest.(check bool) "torn tail recorded" true ((Wal.stats w).torn_tail >= 1);
  let r = Wal.replay w in
  (* The torn record ends the readable log; the committed prefix is whole. *)
  Alcotest.(check (list string)) "prefix intact, torn dropped"
    [ "page:4096:durable" ] (payload_strings r);
  Alcotest.(check bool) "torn discarded" true (r.Wal.discarded >= 1)

(* Regression: a torn frontier record ends the readable log, so it must
   not be allowed to linger once recovery has replayed around it — records
   appended after it would be unreachable at the next replay. The owner's
   recovery checkpoint truncates it away; commits made after that must
   survive a second crash. *)
let test_wal_checkpoint_clears_torn_frontier () =
  let w = mk_wal ~faults:torn_faults () in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "old-data");
  Wal.commit w tx;
  Wal.control w ~sync:false "tail" (data "doomed");
  Wal.crash w;
  Alcotest.(check bool) "torn frontier left behind" true
    ((Wal.stats w).torn_tail >= 1);
  (* Recovery: replay, then checkpoint what was recovered (simulating the
     daemon snapshotting its restored state). *)
  ignore (Wal.replay w);
  Wal.checkpoint w (data "SNAP");
  Alcotest.(check int) "log truncated to the checkpoint" 1 (Wal.size w);
  (* A transaction committed after recovery... *)
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 2) (data "new-data");
  Wal.commit w tx;
  (* ...must be readable after a second crash: nothing torn may remain
     ahead of it in the log. *)
  Wal.crash w;
  let r = Wal.replay w in
  Alcotest.(check (option string)) "snapshot intact" (Some "SNAP")
    (Option.map Bytes.to_string r.Wal.snapshot);
  Alcotest.(check (list string)) "post-recovery commit replayed"
    [ "page:8192:new-data" ] (payload_strings r)

(* Regression: crash truncation must recount records-since-checkpoint from
   what actually survived, not clamp the old counter to the log length
   (which counts the checkpoint record itself and over-reports after a
   lossy crash, skewing checkpoint cadence). *)
let test_wal_crash_recounts_since_checkpoint () =
  let w = mk_wal ~faults:all_faults () in
  Wal.checkpoint w (data "S");
  Wal.control w "kept" (data "1");
  Wal.control w ~sync:false "lost" (data "2");
  Wal.control w ~sync:false "lost" (data "3");
  Wal.crash w;
  (* The whole unsynced tail is dropped: one synced record survives after
     the checkpoint. *)
  Alcotest.(check int) "survivors after checkpoint" 1
    (Wal.records_since_checkpoint w)

(* Crash-at-every-point sweep: build the same operation script, crash it
   after every prefix length with a mid-flight uncommitted intent, and
   check the recovery contract both ways — every committed write is in the
   replay, no uncommitted write ever is. The fault model drops every
   unsynced record, which makes "crash anywhere between two syncs"
   equivalent to crashing right after the earlier one — the worst case. *)
let test_wal_crash_every_point_sweep () =
  let script = [ "alpha"; "bravo"; "charlie"; "delta"; "echo" ] in
  let n = List.length script in
  for cut = 0 to n do
    let w = mk_wal ~faults:all_faults ~seed:(100 + cut) () in
    let committed = ref [] in
    List.iteri
      (fun i content ->
        if i < cut then begin
          let tx = Wal.begin_tx w in
          Wal.log_page w tx (page (i + 1)) (data content);
          Wal.commit w tx;
          committed := Printf.sprintf "page:%d:%s" ((i + 1) * 4096) content
                       :: !committed
        end)
      script;
    (* A crash catches the next intent mid-flight: begun, logged, never
       committed. *)
    if cut < n then begin
      let tx = Wal.begin_tx w in
      Wal.log_page w tx (page (cut + 1)) (data "UNCOMMITTED")
    end;
    Wal.crash w;
    let r = Wal.replay w in
    Alcotest.(check (list string))
      (Printf.sprintf "crash point %d: exactly the committed prefix" cut)
      (List.rev !committed) (payload_strings r);
    (* Committing the dead intent after the crash must be a no-op. *)
    Alcotest.(check (list string))
      (Printf.sprintf "crash point %d: stable after replay" cut)
      (List.rev !committed)
      (payload_strings (Wal.replay w))
  done

(* A checkpoint re-verifies only the records a crash could have torn;
   records appended since are trusted. That must give exactly what
   re-verifying the whole log gives. Script: a committed image and a
   prepared (in-doubt) transaction, both synced, then an unsynced control
   record the crash tears or loses. After the crash the log takes a second
   prepared transaction and a commit, then checkpoints. With a tear, the
   torn record ends the readable log, so the post-crash records are
   dropped and only the pre-crash in-doubt transaction is carried. With no
   tear, both in-doubt transactions are carried. *)
let gtx_a = Kutil.Txid.make ~coord:3 ~epoch:1 ~seq:1
let gtx_b = Kutil.Txid.make ~coord:3 ~epoch:1 ~seq:2

let checkpoint_after_crash ~faults ~append_after =
  let w = mk_wal ~faults () in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "old");
  Wal.commit w tx;
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 2) (data "limbo-a");
  Wal.prepare w tx gtx_a;
  Wal.control w ~sync:false "tail" (data "unsynced-payload");
  Wal.crash w;
  if append_after then begin
    let tx = Wal.begin_tx w in
    Wal.log_page w tx (page 3) (data "limbo-b");
    Wal.prepare w tx gtx_b;
    let tx = Wal.begin_tx w in
    Wal.log_page w tx (page 4) (data "new");
    Wal.commit w tx
  end;
  Wal.checkpoint w (data "SNAP");
  w

let in_doubt_strings r =
  List.map
    (fun (gtx, payloads) ->
      Kutil.Txid.to_string gtx ^ "="
      ^ String.concat "," (payload_strings { r with Wal.ops = payloads }))
    r.Wal.in_doubt

let check_checkpoint_replay ~label ~in_doubt w =
  let r = Wal.replay w in
  Alcotest.(check (option string)) (label ^ ": snapshot") (Some "SNAP")
    (Option.map Bytes.to_string r.Wal.snapshot);
  Alcotest.(check (list string)) (label ^ ": nothing but the snapshot") []
    (payload_strings r);
  Alcotest.(check (list string)) (label ^ ": in-doubt carried") in_doubt
    (in_doubt_strings r);
  (* The checkpoint record, then begin + image + prepare per transaction. *)
  Alcotest.(check int) (label ^ ": log size") (1 + (3 * List.length in_doubt))
    (Wal.size w);
  (* The checkpoint is synced: a further crash changes nothing. *)
  Wal.crash w;
  Alcotest.(check (list string)) (label ^ ": stable across a crash") in_doubt
    (in_doubt_strings (Wal.replay w))

let test_wal_checkpoint_after_tear () =
  let w = checkpoint_after_crash ~faults:torn_faults ~append_after:true in
  Alcotest.(check int) "the crash tore the frontier" 1 (Wal.stats w).torn_tail;
  (* Reference: the same crash with nothing appended after it, so the
     checkpoint re-verifies every record it keeps. *)
  let reference =
    Wal.replay (checkpoint_after_crash ~faults:torn_faults ~append_after:false)
  in
  Alcotest.(check (list string)) "equal to full re-verification"
    (in_doubt_strings reference) (in_doubt_strings (Wal.replay w));
  check_checkpoint_replay ~label:"torn"
    ~in_doubt:[ Kutil.Txid.to_string gtx_a ^ "=page:8192:limbo-a" ] w

let test_wal_checkpoint_after_clean_crash () =
  let w = checkpoint_after_crash ~faults:all_faults ~append_after:true in
  Alcotest.(check int) "no tear" 0 (Wal.stats w).torn_tail;
  Alcotest.(check bool) "the unsynced record was lost" true
    ((Wal.stats w).lost_records >= 1);
  check_checkpoint_replay ~label:"clean"
    ~in_doubt:
      [ Kutil.Txid.to_string gtx_a ^ "=page:8192:limbo-a";
        Kutil.Txid.to_string gtx_b ^ "=page:12288:limbo-b" ] w

(* ------------------------------------------------------------------ *)
(* File-backed WAL: the durability a real killed process comes back to *)
(* ------------------------------------------------------------------ *)

let with_wal_file f () =
  let path =
    Filename.temp_file
      (Printf.sprintf "kwal-test-%d" (Unix.getpid ()))
      ".wal"
  in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f path)

(* A second Wal attached to the same path is "the restarted process". *)
let reload path =
  let w = mk_wal ~seed:8 () in
  Wal.attach_file w path;
  w

let test_wal_file_round_trip path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  Alcotest.(check bool) "file-backed" true (Wal.file_backed w);
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "one");
  Wal.log_note w tx "meta" (data "m");
  Wal.commit w tx;
  Wal.control w "ctl" (data "c");
  (* An uncommitted intent may reach the file via a later sync; replay
     must still discard it. *)
  let dead = Wal.begin_tx w in
  Wal.log_page w dead (page 2) (data "ghost");
  Wal.sync w;
  let w' = reload path in
  let r = Wal.replay w' in
  Alcotest.(check (list string)) "reloaded committed ops"
    [ "page:4096:one"; "note:meta:m"; "note:ctl:c" ]
    (payload_strings r);
  Alcotest.(check bool) "ghost discarded" true (r.Wal.discarded >= 1)

let test_wal_file_checkpoint_rewrite path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  for i = 1 to 6 do
    let tx = Wal.begin_tx w in
    Wal.log_page w tx (page i) (data (string_of_int i));
    Wal.commit w tx
  done;
  let size_before = (Unix.stat path).Unix.st_size in
  Wal.checkpoint w (data "SNAP");
  let size_after = (Unix.stat path).Unix.st_size in
  Alcotest.(check bool) "file shrank with the log" true
    (size_after < size_before);
  (* Post-checkpoint appends land after the rewritten log. *)
  Wal.control w "after" (data "x");
  let r = Wal.replay (reload path) in
  Alcotest.(check (option string)) "snapshot survives reload" (Some "SNAP")
    (Option.map Bytes.to_string r.Wal.snapshot);
  Alcotest.(check (list string)) "post-checkpoint op survives"
    [ "note:after:x" ] (payload_strings r)

let test_wal_file_torn_tail_dropped path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) (data "kept");
  Wal.commit w tx;
  (* A SIGKILL mid-append leaves a partial frame: fake one by appending
     half a record by hand. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o600 in
  let junk = Bytes.create 6 in
  Bytes.set_int32_be junk 0 99l;
  ignore (Unix.write fd junk 0 6);
  Unix.close fd;
  let w' = reload path in
  let r = Wal.replay w' in
  Alcotest.(check (list string)) "committed prefix survives the tear"
    [ "page:4096:kept" ] (payload_strings r);
  (* The torn bytes were truncated away: appending now must produce a log
     a third incarnation reads cleanly. *)
  Wal.control w' "post" (data "p");
  let r2 = Wal.replay (reload path) in
  Alcotest.(check (list string)) "clean after truncate + append"
    [ "page:4096:kept"; "note:post:p" ] (payload_strings r2)

let test_wal_file_in_doubt_survives path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  let gtx = Kutil.Txid.make ~coord:3 ~epoch:1 ~seq:7 in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 5) (data "limbo");
  Wal.prepare w tx gtx;
  let r = Wal.replay (reload path) in
  Alcotest.(check int) "one in-doubt transaction" 1
    (List.length r.Wal.in_doubt);
  let gtx', payloads = List.hd r.Wal.in_doubt in
  Alcotest.(check bool) "same global id" true (Kutil.Txid.equal gtx gtx');
  Alcotest.(check int) "its image held, not applied" 1 (List.length payloads);
  Alcotest.(check (list string)) "nothing applied" [] (payload_strings r)

(* Sync appends only the records not yet on disk. Many appends and syncs
   (some records riding unsynced until a later sync) on both sides of a
   checkpoint must leave a file that reloads to the same log — one frame
   per record, nothing written twice — and replays identically. *)
let test_wal_file_sync_appends_only_new path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  let round lo hi =
    for i = lo to hi do
      let tx = Wal.begin_tx w in
      Wal.log_page w tx (page (i mod 7)) (data (Printf.sprintf "img-%d" i));
      Wal.commit w tx;
      if i mod 3 = 0 then
        Wal.control w ~sync:false "hint" (data (string_of_int i))
    done
  in
  round 1 60;
  Wal.checkpoint w (data "SNAP");
  round 61 150;
  Wal.sync w;
  let frames =
    let ic = open_in_bin path in
    let size = in_channel_length ic in
    let b = Bytes.of_string (really_input_string ic size) in
    close_in ic;
    let rec count pos n =
      if pos = size then n
      else if pos + 4 > size then Alcotest.fail "partial frame header"
      else
        let len = Int32.to_int (Bytes.get_int32_be b pos) in
        if pos + 4 + len > size then Alcotest.fail "partial frame"
        else count (pos + 4 + len) (n + 1)
    in
    count 0 0
  in
  Alcotest.(check int) "one frame per record" (Wal.size w) frames;
  let w' = reload path in
  Alcotest.(check int) "reloaded log size" (Wal.size w) (Wal.size w');
  let r = Wal.replay w and r' = Wal.replay w' in
  Alcotest.(check (option string)) "same snapshot"
    (Option.map Bytes.to_string r.Wal.snapshot)
    (Option.map Bytes.to_string r'.Wal.snapshot);
  Alcotest.(check (list string)) "same ops" (payload_strings r)
    (payload_strings r');
  Alcotest.(check int) "every post-checkpoint op replayed" (90 + 30)
    (List.length r'.Wal.ops)

(* ------------------------------------------------------------------ *)
(* Checksum properties                                                 *)
(* ------------------------------------------------------------------ *)

module Disk_fault = Kstorage.Disk_fault

let random_bytes ~seed len =
  let rng = Kutil.Rng.create ~seed in
  Bytes.init len (fun _ -> Char.chr (Kutil.Rng.int rng 256))

(* Every single-byte change is caught, at lengths that straddle the word
   loop, the byte tail and the page size. *)
let test_checksum_single_byte_flips () =
  let lengths = List.init 18 Fun.id @ [ 63; 64; 4095; 4096; 4097 ] in
  List.iter
    (fun len ->
      let b = random_bytes ~seed:len len in
      let sum = Disk_fault.checksum b in
      for i = 0 to len - 1 do
        List.iter
          (fun mask ->
            let b' = Bytes.copy b in
            Bytes.set b' i (Char.chr (Char.code (Bytes.get b i) lxor mask));
            if Disk_fault.checksum b' = sum then
              Alcotest.failf "len %d: flipping byte %d by 0x%02x kept the checksum"
                len i mask)
          [ 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0xff ]
      done)
    lengths

let test_checksum_mixes_length () =
  let sums = List.init 65 (fun n -> Disk_fault.checksum (Bytes.make n '\000')) in
  Alcotest.(check int) "all-zero buffers of 0..64 bytes hash apart" 65
    (List.length (List.sort_uniq compare sums))

(* A tear of a 4 KiB page over a prior image that differs in every byte:
   whatever the cut, the torn image must fail the intended checksum. The
   cut comes from the rng, so draw until every cut 1..4095 has shown up. *)
let test_checksum_catches_every_tear () =
  let intended = random_bytes ~seed:1 4096 in
  let prior = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5a)) intended in
  let sum = Disk_fault.checksum intended in
  let rng = Kutil.Rng.create ~seed:2 in
  let seen = Array.make 4096 false in
  let missing = ref 4095 in
  let draws = ref 0 in
  while !missing > 0 && !draws < 200_000 do
    incr draws;
    let torn = Disk_fault.tear rng ~intended ~prior:(Some prior) in
    let cut = ref 0 in
    while Bytes.get torn !cut = Bytes.get intended !cut do incr cut done;
    if not (Bytes.equal (Bytes.sub torn !cut (4096 - !cut))
              (Bytes.sub prior !cut (4096 - !cut))) then
      Alcotest.failf "tear at %d is not intended prefix + prior suffix" !cut;
    if Disk_fault.checksum torn = sum then
      Alcotest.failf "tear at cut %d kept the intended checksum" !cut;
    if not seen.(!cut) then begin
      seen.(!cut) <- true;
      decr missing
    end
  done;
  Alcotest.(check int) "every cut 1..4095 drawn" 0 !missing

(* ------------------------------------------------------------------ *)
(* Buffer ownership: the WAL and the store keep no alias of a caller's  *)
(* buffer, and frames shared between tiers are never mutated in place   *)
(* ------------------------------------------------------------------ *)

(* Log one of each kind of payload, then scribble over the caller's
   buffers: replay must return what was logged. *)
let check_log_owns_payloads w =
  let pg = data "page-image" and nt = data "note" and ctl = data "control" in
  let tx = Wal.begin_tx w in
  Wal.log_page w tx (page 1) pg;
  Wal.log_note w tx "meta" nt;
  Wal.commit w tx;
  Wal.control w "ctl" ctl;
  List.iter (fun b -> Bytes.fill b 0 (Bytes.length b) 'X') [ pg; nt; ctl ];
  let expected = [ "page:4096:page-image"; "note:meta:note"; "note:ctl:control" ] in
  let r = Wal.replay w in
  Alcotest.(check (list string)) "replay ignores later caller writes" expected
    (payload_strings r);
  (* Nor may a replay's result alias the log. *)
  List.iter
    (function Wal.Page (_, b) | Wal.Note (_, b) -> Bytes.fill b 0 (Bytes.length b) 'Y')
    r.Wal.ops;
  Alcotest.(check (list string)) "replay result is a copy" expected
    (payload_strings (Wal.replay w));
  expected

let test_wal_owns_payloads () = ignore (check_log_owns_payloads (mk_wal ()))

let test_wal_file_owns_payloads path =
  Sys.remove path;
  let w = mk_wal () in
  Wal.attach_file w path;
  let expected = check_log_owns_payloads w in
  Alcotest.(check (list string)) "reloaded log ignores later caller writes"
    expected
    (payload_strings (Wal.replay (reload path)))

let test_flush_then_write_keeps_disk_frame () =
  let _eng, s = mk () in
  let buf = data "v1" in
  Store.write_immediate s (page 1) buf ~dirty:true;
  Store.flush_immediate s (page 1);
  Bytes.fill buf 0 2 'X';
  Store.write_immediate s (page 1) (data "v2") ~dirty:true;
  (* The crash drops RAM; with no fault model the disk frame stands. *)
  Store.crash s;
  Alcotest.(check int) "disk frame verifies" 0 (Store.scrub s);
  match Store.read_immediate s (page 1) with
  | Some b -> Alcotest.(check string) "flushed bytes on disk" "v1" (Bytes.to_string b)
  | None -> Alcotest.fail "flushed page lost"

let test_rollback_frame_verifies () =
  let _eng, s = mk () in
  Store.set_faults s all_faults;
  Store.write_immediate s (page 1) (data "v1") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.sync s;
  Store.write_immediate s (page 1) (data "v2") ~dirty:true;
  Store.flush_immediate s (page 1);
  Store.write_immediate s (page 1) (data "v3") ~dirty:true;
  (* The unsynced v2 flush rolls back to the synced v1 frame. *)
  Store.crash s;
  Alcotest.(check int) "rolled-back frame verifies" 0 (Store.scrub s);
  match Store.read_immediate s (page 1) with
  | Some b -> Alcotest.(check string) "rolled back" "v1" (Bytes.to_string b)
  | None -> Alcotest.fail "durable copy lost"

let () =
  Alcotest.run "kstorage"
    [
      ( "page_store",
        [
          Alcotest.test_case "write/read" `Quick test_write_read;
          Alcotest.test_case "read copies" `Quick test_read_returns_copy;
          Alcotest.test_case "miss" `Quick test_miss;
          Alcotest.test_case "ram vs disk latency" `Quick test_ram_latency_vs_disk;
          Alcotest.test_case "eviction to disk" `Quick test_eviction_to_disk;
          Alcotest.test_case "pinning" `Quick test_pinned_not_victimised;
          Alcotest.test_case "evict hook" `Quick test_evict_hook_on_disk_overflow;
          Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
          Alcotest.test_case "immediate ops" `Quick test_immediate_ops;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "crash semantics" `Quick test_crash_loses_ram_keeps_disk;
          Alcotest.test_case "pages listing" `Quick test_pages_listing;
        ] );
      ( "disk_faults",
        [
          Alcotest.test_case "lost unsynced write rolls back" `Quick
            test_lost_unsynced_write_rolls_back;
          Alcotest.test_case "never-synced write vanishes" `Quick
            test_never_synced_write_vanishes;
          Alcotest.test_case "sync barrier protects" `Quick
            test_sync_barrier_protects;
          Alcotest.test_case "torn write never served" `Quick
            test_torn_write_never_served;
          Alcotest.test_case "scrub drops torn frames" `Quick
            test_scrub_drops_torn;
          Alcotest.test_case "crash clears pins" `Quick test_crash_clears_pins;
          Alcotest.test_case "promotion keeps durable copy" `Quick
            test_promotion_keeps_durable_copy;
          Alcotest.test_case "overwrite keeps prior durable" `Quick
            test_overwrite_keeps_prior_durable;
          Alcotest.test_case "flush_immediate single writeback" `Quick
            test_flush_immediate_single_writeback;
        ] );
      ( "wal",
        [
          Alcotest.test_case "commit and replay" `Quick test_wal_commit_replay;
          Alcotest.test_case "replay idempotent" `Quick
            test_wal_replay_idempotent;
          Alcotest.test_case "checkpoint truncates" `Quick
            test_wal_checkpoint_truncates;
          Alcotest.test_case "crash loses unsynced tail" `Quick
            test_wal_crash_loses_unsynced_tail;
          Alcotest.test_case "torn frontier record" `Quick
            test_wal_torn_frontier_record;
          Alcotest.test_case "checkpoint clears torn frontier" `Quick
            test_wal_checkpoint_clears_torn_frontier;
          Alcotest.test_case "crash recounts since_checkpoint" `Quick
            test_wal_crash_recounts_since_checkpoint;
          Alcotest.test_case "crash at every point" `Quick
            test_wal_crash_every_point_sweep;
          Alcotest.test_case "checkpoint after a torn crash" `Quick
            test_wal_checkpoint_after_tear;
          Alcotest.test_case "checkpoint after a clean crash" `Quick
            test_wal_checkpoint_after_clean_crash;
        ] );
      ( "wal_file",
        [
          Alcotest.test_case "round trip" `Quick
            (with_wal_file test_wal_file_round_trip);
          Alcotest.test_case "checkpoint rewrites" `Quick
            (with_wal_file test_wal_file_checkpoint_rewrite);
          Alcotest.test_case "torn tail dropped" `Quick
            (with_wal_file test_wal_file_torn_tail_dropped);
          Alcotest.test_case "in-doubt survives reload" `Quick
            (with_wal_file test_wal_file_in_doubt_survives);
          Alcotest.test_case "sync appends only new records" `Quick
            (with_wal_file test_wal_file_sync_appends_only_new);
        ] );
      ( "checksum",
        [
          Alcotest.test_case "single-byte flips" `Quick
            test_checksum_single_byte_flips;
          Alcotest.test_case "length mixed in" `Quick test_checksum_mixes_length;
          Alcotest.test_case "every tear cut caught" `Quick
            test_checksum_catches_every_tear;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "wal payloads" `Quick test_wal_owns_payloads;
          Alcotest.test_case "wal file payloads" `Quick
            (with_wal_file test_wal_file_owns_payloads);
          Alcotest.test_case "flush then write keeps disk frame" `Quick
            test_flush_then_write_keeps_disk_frame;
          Alcotest.test_case "rollback frame verifies" `Quick
            test_rollback_frame_verifies;
        ] );
    ]
