module type PROTOCOL = sig
  type request
  type response

  val request_size : request -> int
  val response_size : response -> int
  val request_kind : request -> string
end

module Codec = Kutil.Codec

module Make (P : PROTOCOL) = struct
  module Msg = struct
    type t =
      | Request of { id : int; span : int; body : P.request }
      | Response of { id : int; body : P.response }
      | Oneway of { span : int; body : P.request }
      | Batch of { items : (int * P.request) list }

    (* The envelope frame (layout in rpc.mli): the socket backend writes
       these bytes and the simulator charges them. *)

    let frame_prefix = 4

    let tag_request = 1
    and tag_response = 2
    and tag_oneway = 3
    and tag_batch = 4

    let encode ~request ~response enc ~src m =
      Codec.reserve enc frame_prefix;
      match m with
      | Request { id; span; body } ->
        Codec.u8 enc tag_request;
        Codec.u32 enc src;
        Codec.int enc id;
        Codec.int enc span;
        request enc body
      | Response { id; body } ->
        Codec.u8 enc tag_response;
        Codec.u32 enc src;
        Codec.int enc id;
        response enc body
      | Oneway { span; body } ->
        Codec.u8 enc tag_oneway;
        Codec.u32 enc src;
        Codec.int enc span;
        request enc body
      | Batch { items } ->
        Codec.u8 enc tag_batch;
        Codec.u32 enc src;
        Codec.list enc
          (fun (span, body) ->
            Codec.int enc span;
            request enc body)
          items

    (* Bodies are charged their protocol size, not re-encoded, so protocols
       without a codec are sized by the same frame. *)
    let charge =
      encode
        ~request:(fun enc body -> Codec.reserve enc (P.request_size body))
        ~response:(fun enc body -> Codec.reserve enc (P.response_size body))
        ~src:0

    let size_bytes m = Codec.encoded_size charge m

    let encode_frame ~request ~response ~src m =
      let enc = Codec.encoder ~size:(size_bytes m) () in
      encode ~request ~response enc ~src m;
      let frame = Codec.to_bytes enc in
      Bytes.set_int32_be frame 0
        (Int32.of_int (Bytes.length frame - frame_prefix));
      frame

    let payload_length buf pos = Int32.to_int (Bytes.get_int32_be buf pos)

    let payload_src payload =
      if Bytes.length payload < 5 then None
      else Some (Int32.to_int (Bytes.get_int32_be payload 1))

    let decode_payload ~request ~response payload =
      let dec = Codec.decoder payload in
      let tag = Codec.read_u8 dec in
      let src = Codec.read_u32 dec in
      let msg =
        if tag = tag_request then
          let id = Codec.read_int dec in
          let span = Codec.read_int dec in
          Request { id; span; body = request dec }
        else if tag = tag_response then
          let id = Codec.read_int dec in
          Response { id; body = response dec }
        else if tag = tag_oneway then
          let span = Codec.read_int dec in
          Oneway { span; body = request dec }
        else if tag = tag_batch then
          Batch
            {
              items =
                Codec.read_list dec (fun () ->
                    let span = Codec.read_int dec in
                    (span, request dec));
            }
        else raise (Codec.Decode_error "Rpc.Msg: unknown frame tag")
      in
      (src, msg)

    let kind = function
      | Request { body; _ } -> P.request_kind body
      | Response _ -> "response"
      | Oneway { body; _ } -> P.request_kind body
      | Batch _ -> "rpc.batch"

    let kinds = function
      | Batch { items } -> List.map (fun (_, body) -> P.request_kind body) items
      | m -> [ kind m ]
  end

  module Net = Knet.Network.Make (Msg)

  type t = {
    net : Net.t;
    engine : Ksim.Engine.t;
    mutable next_id : int;
    pending : (int, P.response Ksim.Promise.t) Hashtbl.t;
    servers :
      (src:Knet.Topology.node_id ->
       span:int ->
       P.request ->
       reply:(P.response -> unit) ->
       unit)
        option
        array;
    mutable coalescing : bool;
    (* Per-(src, dst) queues of oneways waiting for the end-of-tick flush,
       items in reverse send order. A key is present iff a flush for it is
       scheduled at the current instant. *)
    queues : (int * int, (int * P.request) list ref) Hashtbl.t;
  }

  let create engine topology =
    let net = Net.create engine topology in
    let t =
      {
        net;
        engine;
        next_id = 0;
        pending = Hashtbl.create 64;
        servers = Array.make (Knet.Topology.node_count topology) None;
        coalescing = true;
        queues = Hashtbl.create 16;
      }
    in
    List.iter
      (fun node ->
        Net.set_handler net node (fun ~src msg ->
            match msg with
            | Msg.Request { id; span; body } -> (
              match t.servers.(node) with
              | None -> ()
              | Some server ->
                let reply resp =
                  Net.send net ~src:node ~dst:src (Msg.Response { id; body = resp })
                in
                server ~src ~span body ~reply)
            | Msg.Response { id; body } -> (
              match Hashtbl.find_opt t.pending id with
              | None -> () (* late reply after timeout: drop *)
              | Some promise ->
                Hashtbl.remove t.pending id;
                ignore (Ksim.Promise.try_resolve promise body))
            | Msg.Oneway { span; body } -> (
              match t.servers.(node) with
              | None -> ()
              | Some server -> server ~src ~span body ~reply:(fun _ -> ()))
            | Msg.Batch { items } -> (
              match t.servers.(node) with
              | None -> ()
              | Some server ->
                List.iter
                  (fun (span, body) -> server ~src ~span body ~reply:(fun _ -> ()))
                  items)))
      (Knet.Topology.nodes topology);
    t

  let net t = t.net
  let engine t = t.engine

  let set_server t node handler = t.servers.(node) <- Some handler

  let call t ~src ~dst ?(policy = Policy.default) ?(span = 0) request =
    let attempt_timeout = Policy.timeout_source policy in
    let attempts = policy.Policy.attempts in
    let rec attempt n =
      if n <= 0 then Error `Timeout
      else begin
        let id = t.next_id in
        t.next_id <- t.next_id + 1;
        let promise = Ksim.Promise.create () in
        Hashtbl.replace t.pending id promise;
        Net.send t.net ~src ~dst (Msg.Request { id; span; body = request });
        let timeout = attempt_timeout () in
        match Ksim.Fiber.await_timeout t.engine promise ~timeout with
        | Some resp -> Ok resp
        | None ->
          Hashtbl.remove t.pending id;
          attempt (n - 1)
      end
    in
    if attempts <= 0 then invalid_arg "Rpc.call: policy attempts must be positive";
    attempt attempts

  let flush_queue t ~src ~dst =
    match Hashtbl.find_opt t.queues (src, dst) with
    | None -> ()
    | Some q ->
      Hashtbl.remove t.queues (src, dst);
      (match List.rev !q with
       | [] -> ()
       | [ (span, body) ] ->
         (* A batch of one gains nothing: send the plain envelope so the
            uncontended path is byte-identical to the uncoalesced one. *)
         Net.send t.net ~src ~dst (Msg.Oneway { span; body })
       | items ->
         (if Ktrace.Trace.enabled () then
            (* Parent the batch event under the first traced item so E1/E3
               breakdowns can attribute the envelope saving to an op. *)
            match List.find_opt (fun (s, _) -> s <> 0) items with
            | Some (s, _) ->
              Ktrace.Trace.event ~engine:t.engine ~node:src
                ~span:(Ktrace.Trace.of_id s) "rpc.batch"
                ~attrs:
                  [ ("dst", string_of_int dst);
                    ("items", string_of_int (List.length items)) ]
            | None -> ());
         Net.send t.net ~src ~dst (Msg.Batch { items }))

  let notify t ~src ~dst ?(span = 0) ?(coalesce = false) request =
    if coalesce && t.coalescing then begin
      match Hashtbl.find_opt t.queues (src, dst) with
      | Some q -> q := (span, request) :: !q
      | None ->
        Hashtbl.replace t.queues (src, dst) (ref [ (span, request) ]);
        (* ~after:0 = end of the current instant: every coalescable send
           to this destination issued while the current event cascade runs
           lands in the same envelope; the flush costs no simulated time. *)
        ignore
          (Ksim.Engine.schedule t.engine ~after:0 (fun () ->
               flush_queue t ~src ~dst))
    end
    else Net.send t.net ~src ~dst (Msg.Oneway { span; body = request })

  let set_coalescing t on =
    (* Draining on disable keeps the no-queued-message invariant trivial:
       a queue entry always has a scheduled flush, and a scheduled flush
       always finds its entry or an empty slot. *)
    if not on then
      List.iter
        (fun (src, dst) -> flush_queue t ~src ~dst)
        (Hashtbl.fold (fun k _ acc -> k :: acc) t.queues []);
    t.coalescing <- on

  let coalescing t = t.coalescing

  let pending_calls t = Hashtbl.length t.pending
end
