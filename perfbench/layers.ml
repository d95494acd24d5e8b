(* Direct timings of single layers' public functions, fed the workload's
   own inputs (its 4 KiB page images, its 64-byte payloads, the messages it
   put on the wire). Each returns nanoseconds per call: the median over
   short batches, so one GC pause does not move it. The caller multiplies
   by per-op call counts measured in the same workload. *)

open Util

let budget_s = 0.08
let batch = 256

let time_per_call ?(between = ignore) f =
  let per = ref [] in
  let t_end = now_ns () + int_of_float (budget_s *. 1e9) in
  while now_ns () < t_end || List.length !per < 5 do
    let t0 = now_ns () in
    for i = 0 to batch - 1 do
      f i
    done;
    per := (float_of_int (now_ns () - t0) /. float_of_int batch) :: !per;
    between ()
  done;
  median !per

let addr_of i = Kutil.Gaddr.of_int (i * 4096)

(* begin_tx + one 4 KiB log_page + commit on a standalone in-memory log;
   the log is truncated between batches so it does not grow. *)
let wal_tx_ns images =
  let wal = Kstorage.Wal.create ~rng:(Kutil.Rng.create ~seed:7) () in
  let n = Array.length images in
  time_per_call
    ~between:(fun () -> Kstorage.Wal.checkpoint wal Bytes.empty)
    (fun i ->
      let tx = Kstorage.Wal.begin_tx wal in
      Kstorage.Wal.log_page wal tx (addr_of (i mod n)) images.(i mod n);
      Kstorage.Wal.commit wal tx)

let checksum_4k_ns images =
  let n = Array.length images in
  time_per_call (fun i ->
      ignore (Sys.opaque_identity (Kstorage.Disk_fault.checksum images.(i mod n))))

(* One write_immediate + read_immediate pair over the workload's working
   set of pages, all resident in RAM. *)
let page_store_write_read_ns images =
  let eng = Ksim.Engine.create () in
  let store = Kstorage.Page_store.create eng (Kstorage.Page_store.config ()) in
  let n = Array.length images in
  time_per_call (fun i ->
      let a = addr_of (i mod n) in
      Kstorage.Page_store.write_immediate store a images.(i mod n) ~dirty:false;
      ignore (Sys.opaque_identity (Kstorage.Page_store.read_immediate store a)))

(* One CREW write acquire + release at the owning home, handing back the
   workload's 64-byte payloads. *)
let crew_cycle_ns payloads =
  let module T = Kconsistency.Types in
  let cfg = T.default_config ~self:0 ~home:0 in
  let m = Kconsistency.Crew.create cfg (T.Start_owner (Bytes.make 4096 '\000')) in
  let n = Array.length payloads in
  time_per_call (fun i ->
      ignore (Kconsistency.Crew.handle m (T.Acquire { req = i; mode = T.Write }));
      ignore
        (Kconsistency.Crew.handle m
           (T.Release { mode = T.Write; data = Some payloads.(i mod n) })))

type body = Req of Khazana.Wire.request | Resp of Khazana.Wire.response

let encode = function
  | Req r ->
    let e = Kutil.Codec.encoder () in
    Khazana.Wire.encode_request e r;
    Kutil.Codec.to_bytes e
  | Resp r ->
    let e = Kutil.Codec.encoder () in
    Khazana.Wire.encode_response e r;
    Kutil.Codec.to_bytes e

(* Hand-written size estimate the simulated network charges for a body. *)
let estimate = function
  | Req r -> Khazana.Wire.request_size r
  | Resp r -> Khazana.Wire.response_size r

(* Encode then decode one captured message body. *)
let codec_ns bodies =
  let n = Array.length bodies in
  if n = 0 then 0.0
  else
    time_per_call (fun i ->
        let b = bodies.(i mod n) in
        let d = Kutil.Codec.decoder (encode b) in
        match b with
        | Req _ -> ignore (Sys.opaque_identity (Khazana.Wire.decode_request d))
        | Resp _ -> ignore (Sys.opaque_identity (Khazana.Wire.decode_response d)))
