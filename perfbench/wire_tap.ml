(* Taps every envelope the simulated network sends, re-encodes each body
   with the Wire codec, and keeps a bounded sample of bodies for timing the
   codec afterwards. *)

module Msg = Khazana.Wire.Sim.Rpc.Msg

type t = {
  mutable msgs : int;
  mutable encoded : int;  (** bytes the codec produced *)
  mutable estimated : int;  (** bytes the hand-written estimators charge *)
  mutable kept : Layers.body list;
  mutable n_kept : int;
}

let keep_max = 4096

let create () = { msgs = 0; encoded = 0; estimated = 0; kept = []; n_kept = 0 }

let add t b =
  t.msgs <- t.msgs + 1;
  t.encoded <- t.encoded + Bytes.length (Layers.encode b);
  t.estimated <- t.estimated + Layers.estimate b;
  if t.n_kept < keep_max then begin
    t.kept <- b :: t.kept;
    t.n_kept <- t.n_kept + 1
  end

let record t _ ~src:_ ~dst:_ = function
  | Msg.Request { body; _ } | Msg.Oneway { body; _ } -> add t (Layers.Req body)
  | Msg.Response { body; _ } -> add t (Layers.Resp body)
  | Msg.Batch { items } -> List.iter (fun (_, b) -> add t (Layers.Req b)) items

let bodies t = Array.of_list (List.rev t.kept)
