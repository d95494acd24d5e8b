(** Request/response messaging over the simulated network.

    Wraps {!Knet.Network} with correlation ids, timeouts and retries.
    Khazana daemons use this for all inter-node protocol traffic. Retried
    requests give at-least-once execution: handlers must be idempotent or
    deduplicate, as the paper's own retry-until-success error handling
    requires.

    One-way messages marked coalescable are not sent immediately: they sit
    in a per-destination queue until the end of the current simulated
    instant, then travel as one {!Make.Msg.t.Batch} envelope. A home
    invalidating N pages at one sharer in a single event cascade therefore
    pays one envelope, not N. *)

(** The user-supplied wire protocol: one request and one response type,
    with enough metadata for the network's size and kind accounting. *)
module type PROTOCOL = sig
  type request
  type response

  val request_size : request -> int
  (** Encoded size of a request body in bytes: for a protocol with a
      codec, exactly the bytes its encoder writes
      ({!Kutil.Codec.encoded_size}). *)

  val response_size : response -> int
  (** Encoded size of a response body in bytes, likewise. *)

  val request_kind : request -> string
  (** Short label for per-kind traffic counters ({!Knet.Network}). *)
end

module Make (P : PROTOCOL) : sig
  type t

  module Msg : sig
    type t =
      | Request of { id : int; span : int; body : P.request }
      | Response of { id : int; body : P.response }
      | Oneway of { span : int; body : P.request }
          (** [span] is the sender's enclosing {!Ktrace} span id (0 when
              untraced); receivers parent their dispatch spans under it so a
              multi-hop operation forms one causally-linked trace. *)
      | Batch of { items : (int * P.request) list }
          (** Same-tick one-way messages to one destination coalesced into
              a single envelope; each item keeps its own [(span, body)]
              pair and is dispatched to the server exactly as a separate
              [Oneway] would have been. *)

    (** {2 The envelope frame}

        The one wire layout of an envelope, written by the socket backend
        and charged by the simulator. Integers are big-endian; [int] is
        8 bytes, so an untraced envelope carries a zero span word:

        {v
  [u32 payload length] [u8 tag] [u32 src], then
  Request   tag 1  [int id] [int span] body
  Response  tag 2  [int id] body
  Oneway    tag 3  [int span] body
  Batch     tag 4  [u32 count], then per item [int span] body
        v} *)

    val frame_prefix : int
    (** Bytes of the length prefix that precedes every payload (4). *)

    val size_bytes : t -> int
    (** Length of the envelope's frame, prefix included, with each body
        charged {!PROTOCOL.request_size} / {!PROTOCOL.response_size}: for a
        protocol whose sizes come from its codec, exactly the bytes
        {!encode_frame} produces. Allocates nothing. *)

    val encode_frame :
      request:(Kutil.Codec.encoder -> P.request -> unit) ->
      response:(Kutil.Codec.encoder -> P.response -> unit) ->
      src:int ->
      t ->
      bytes
    (** The complete frame, length prefix included. *)

    val payload_length : bytes -> int -> int
    (** [payload_length buf pos] reads the length prefix at [pos]. *)

    val payload_src : bytes -> int option
    (** The sender of a payload (a frame without its prefix), read without
        decoding the body; [None] if too short. *)

    val decode_payload :
      request:(Kutil.Codec.decoder -> P.request) ->
      response:(Kutil.Codec.decoder -> P.response) ->
      bytes ->
      int * t
    (** [(src, envelope)] from a payload.
        @raise Kutil.Codec.Decode_error on malformed input. *)

    val kind : t -> string
    (** Envelope-level label ("rpc.batch" for batches). *)

    val kinds : t -> string list
    (** Per-logical-message labels; see {!Knet.Network.MESSAGE.kinds}. *)
  end

  module Net : module type of Knet.Network.Make (Msg)

  val create : Ksim.Engine.t -> Knet.Topology.t -> t
  (** Build a transport over the topology and hook every node's network
      handler; servers are installed separately with {!set_server}. *)

  val net : t -> Net.t
  (** The underlying network (failure injection, traffic stats). *)

  val engine : t -> Ksim.Engine.t
  (** The simulation engine this transport schedules on. *)

  val set_server :
    t ->
    Knet.Topology.node_id ->
    (src:Knet.Topology.node_id ->
     span:int ->
     P.request ->
     reply:(P.response -> unit) ->
     unit) ->
    unit
  (** Install a node's request handler. [span] is the caller's trace span
      id (0 when untraced). The handler may reply immediately, or capture
      [reply] and call it later from a fiber; replying is optional (the
      caller then times out). *)

  val call :
    t ->
    src:Knet.Topology.node_id ->
    dst:Knet.Topology.node_id ->
    ?policy:Policy.t ->
    ?span:int ->
    P.request ->
    (P.response, [ `Timeout ]) result
  (** Fiber-blocking remote call governed by [policy] (default
      {!Policy.default}: one attempt, 1 s timeout): the request is resent
      up to [policy.attempts] times, each attempt waiting for the policy's
      next per-attempt timeout (fixed, or growing along its backoff
      schedule). [span] rides in the envelope so the callee can link its
      work into the caller's trace. *)

  val notify :
    t ->
    src:Knet.Topology.node_id ->
    dst:Knet.Topology.node_id ->
    ?span:int ->
    ?coalesce:bool ->
    P.request ->
    unit
  (** One-way message: no response, no retry. With [~coalesce:true]
      (default false) the message is queued and flushed at the end of the
      current simulated instant, sharing a {!Msg.t.Batch} envelope with
      every other coalescable same-tick message from [src] to [dst]; the
      flush emits an "rpc.batch" {!Ktrace} event when it merged two or
      more. Delivery semantics are otherwise unchanged — the network's
      crash/partition/loss decisions apply to the whole envelope at flush
      time. *)

  val set_coalescing : t -> bool -> unit
  (** Globally enable/disable batching of [~coalesce:true] notifies
      (default enabled). Disabling flushes any queued messages first;
      benches use this to measure the uncoalesced baseline. *)

  val coalescing : t -> bool
  (** Whether coalescing is currently enabled. *)

  val pending_calls : t -> int
  (** Outstanding requests (diagnostics). *)
end
