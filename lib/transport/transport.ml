module Policy = Krpc.Policy

type node_id = Knet.Topology.node_id

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  in_flight : int;
  atoms : int;
  bytes_sent : int;
  by_kind : (string * int) list;
}

module Faults = struct
  type t = {
    crash : node_id -> unit;
    recover : node_id -> unit;
    is_up : node_id -> bool;
    partition : node_id list -> node_id list -> unit;
    heal : unit -> unit;
    reachable : node_id -> node_id -> bool;
  }
end

module type PROTOCOL = Krpc.Rpc.PROTOCOL

module type WIRE = sig
  include PROTOCOL

  val encode_request : Kutil.Codec.encoder -> request -> unit
  val decode_request : Kutil.Codec.decoder -> request
  val encode_response : Kutil.Codec.encoder -> response -> unit
  val decode_response : Kutil.Codec.decoder -> response
end

module Make (P : PROTOCOL) = struct
  type handler =
    src:node_id -> span:int -> P.request -> reply:(P.response -> unit) -> unit

  module type S = sig
    type t

    val engine : t -> Ksim.Engine.t
    val topology : t -> Knet.Topology.t
    val set_server : t -> node_id -> handler -> unit

    val call :
      t ->
      src:node_id ->
      dst:node_id ->
      policy:Policy.t ->
      span:int ->
      P.request ->
      (P.response, [ `Timeout | `Unreachable ]) result

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
  end

  type t = Pack : (module S with type t = 'a) * 'a -> t

  let pack (type a) (module B : S with type t = a) (v : a) = Pack ((module B), v)

  let engine (Pack ((module B), v)) = B.engine v
  let topology (Pack ((module B), v)) = B.topology v
  let set_server (Pack ((module B), v)) node h = B.set_server v node h

  let call (Pack ((module B), v)) ~src ~dst ?(policy = Policy.default)
      ?(span = 0) req =
    B.call v ~src ~dst ~policy ~span req

  let notify (Pack ((module B), v)) ~src ~dst ?(span = 0) ?(coalesce = false)
      req =
    B.notify v ~src ~dst ~span ~coalesce req

  let set_coalescing (Pack ((module B), v)) on = B.set_coalescing v on
  let coalescing (Pack ((module B), v)) = B.coalescing v
  let stats (Pack ((module B), v)) = B.stats v
  let reset_stats (Pack ((module B), v)) = B.reset_stats v
  let pending_calls (Pack ((module B), v)) = B.pending_calls v
  let faults (Pack ((module B), v)) = B.faults v
end
