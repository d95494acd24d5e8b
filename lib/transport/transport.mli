(** The transport seam: the network API Khazana daemons program against.

    Daemon, client and service code never names a concrete messaging engine;
    it holds a first-class {!Make.t} and speaks through the {!Make.S}
    operations — request/response {!Make.call} with a retry {!Policy},
    one-way {!Make.notify} with optional same-instant coalescing, a server
    handler per node, traffic {!stats}, and failure injection as an
    {e optional} capability ({!Make.faults} is [None] on backends that
    cannot simulate failures at all).

    Two backends implement the seam, and both expose {!Make.faults}:
    - {!Transport_sim} — the deterministic simulated network
      ({!Knet.Network} under {!Krpc.Rpc}), every node sharing one virtual
      clock; injection edits global network state.
    - {!Transport_unix} — real length-prefixed frames over Unix-domain
      sockets, one endpoint (and one {!Ksim.Engine.t} scheduler, driven
      against the wall clock) per OS process; injection edits the local
      endpoint's frame filter, and {e genuine} failures (a dead peer, a
      refused dial) additionally surface as [`Unreachable] calls.

    The scheduling dependency is explicit: every backend exposes the
    {!Ksim.Engine.t} its fibers and timers run on. Under simulation that
    engine is shared by the whole system and time is virtual; under the
    Unix backend each process owns one and its clock tracks real elapsed
    time, so the same fiber-blocking daemon code runs unchanged. *)

module Policy = Krpc.Policy

type node_id = Knet.Topology.node_id

(** Backend-independent traffic counters (same shape as
    {!Knet.Network.Make.stats}). [sent = delivered + dropped + in_flight]
    holds for the simulated backend; real backends count each endpoint's
    local view, so the books balance per process pair, not globally. *)
type stats = {
  sent : int;        (** envelopes handed to the wire by this vantage *)
  delivered : int;   (** envelopes dispatched to a local handler *)
  dropped : int;     (** lost to crash/partition/loss or a dead socket *)
  in_flight : int;   (** scheduled but undelivered (0 on real backends) *)
  atoms : int;       (** logical messages: batch items count separately *)
  bytes_sent : int;
  by_kind : (string * int) list;  (** logical messages per kind, sorted *)
}

(** Failure injection, for backends whose failures are simulated. *)
module Faults : sig
  type t = {
    crash : node_id -> unit;
    recover : node_id -> unit;
    is_up : node_id -> bool;
    partition : node_id list -> node_id list -> unit;
    heal : unit -> unit;
    reachable : node_id -> node_id -> bool;
  }
end

(** What the simulated backend needs of a protocol: size and kind
    accounting only (messages travel as OCaml values). *)
module type PROTOCOL = Krpc.Rpc.PROTOCOL

(** What a real backend needs: a protocol that also round-trips through
    bytes ({!Kutil.Codec} wire format). *)
module type WIRE = sig
  include PROTOCOL

  val encode_request : Kutil.Codec.encoder -> request -> unit
  val decode_request : Kutil.Codec.decoder -> request
  val encode_response : Kutil.Codec.encoder -> response -> unit
  val decode_response : Kutil.Codec.decoder -> response
end

module Make (P : PROTOCOL) : sig
  type handler =
    src:node_id -> span:int -> P.request -> reply:(P.response -> unit) -> unit
  (** A node's server. [span] is the caller's trace span id (0 untraced).
      The handler may reply immediately, capture [reply] and resolve it
      later from a fiber, or never reply (the caller then times out). *)

  (** The capability a backend must provide. All operations are named-
      argument total functions; [call] is fiber-blocking and must run in a
      {!Ksim.Fiber} on the backend's engine. *)
  module type S = sig
    type t

    val engine : t -> Ksim.Engine.t
    (** The scheduler this endpoint's fibers, timers and deliveries run
        on. Shared system-wide under simulation; per-process for real
        backends. *)

    val topology : t -> Knet.Topology.t
    (** Cluster layout metadata (node count, cluster membership). Real
        backends carry it for the same bookkeeping; its link profiles are
        simply not consulted. *)

    val set_server : t -> node_id -> handler -> unit

    val call :
      t ->
      src:node_id ->
      dst:node_id ->
      policy:Policy.t ->
      span:int ->
      P.request ->
      (P.response, [ `Timeout | `Unreachable ]) result
    (** [`Timeout] is silence (every attempt's reply window elapsed);
        [`Unreachable] is positive evidence the peer is gone right now —
        the final attempt's send itself failed (dead socket, refused
        dial, or an injected fault filtered the frame at send time). *)

    val notify :
      t ->
      src:node_id ->
      dst:node_id ->
      span:int ->
      coalesce:bool ->
      P.request ->
      unit

    val set_coalescing : t -> bool -> unit
    val coalescing : t -> bool
    val stats : t -> stats
    val reset_stats : t -> unit
    val pending_calls : t -> int

    val faults : t -> Faults.t option
    (** [None] only on backends with no failure injection at all. Real
        backends interpret the operations as edits to the {e local}
        endpoint's frame filter; apply them at every endpoint to recover
        the simulated backend's global semantics. *)
  end

  type t = Pack : (module S with type t = 'a) * 'a -> t
  (** A first-class transport: any backend packed with its value. *)

  val pack : (module S with type t = 'a) -> 'a -> t

  (** {1 Forwarders} — the API daemon code actually calls. *)

  val engine : t -> Ksim.Engine.t
  val topology : t -> Knet.Topology.t
  val set_server : t -> node_id -> handler -> unit

  val call :
    t ->
    src:node_id ->
    dst:node_id ->
    ?policy:Policy.t ->
    ?span:int ->
    P.request ->
    (P.response, [ `Timeout | `Unreachable ]) result
  (** Fiber-blocking request/response under [policy] (default
      {!Policy.default}). *)

  val notify :
    t ->
    src:node_id ->
    dst:node_id ->
    ?span:int ->
    ?coalesce:bool ->
    P.request ->
    unit
  (** One-way message; with [~coalesce:true] (default false) it may share
      a batch envelope with other same-instant messages to [dst]. *)

  val set_coalescing : t -> bool -> unit
  val coalescing : t -> bool
  val stats : t -> stats
  val reset_stats : t -> unit
  val pending_calls : t -> int
  val faults : t -> Faults.t option
end
