type timer = {
  at : Time.t;
  seq : int;
  fn : unit -> unit;
  mutable cancelled : bool;
}

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable live : int;
  mutable fired : int;
  queue : timer Kutil.Heap.t;
  rng : Kutil.Rng.t;
}

let cmp_timer a b =
  let c = compare a.at b.at in
  if c <> 0 then c else compare a.seq b.seq

let create ?(seed = 42) () =
  {
    clock = 0;
    seq = 0;
    live = 0;
    fired = 0;
    queue = Kutil.Heap.create ~cmp:cmp_timer;
    rng = Kutil.Rng.create ~seed;
  }

let now t = t.clock
let rng t = t.rng

let schedule_at t ~at fn =
  let at = max at t.clock in
  let timer = { at; seq = t.seq; fn; cancelled = false } in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  Kutil.Heap.push t.queue timer;
  timer

let schedule t ~after fn = schedule_at t ~at:(t.clock + max 0 after) fn

let cancel timer =
  timer.cancelled <- true

let pending t =
  (* [live] over-counts cancelled-but-queued timers; scanning would be
     O(n), so report live minus nothing and fix up lazily in [step]. *)
  t.live

let rec next_at t =
  match Kutil.Heap.peek t.queue with
  | None -> None
  | Some timer when timer.cancelled ->
    (* Dead head-of-queue entries can be discarded eagerly. *)
    ignore (Kutil.Heap.pop t.queue);
    t.live <- t.live - 1;
    next_at t
  | Some timer -> Some timer.at

let step t =
  let rec next () =
    match Kutil.Heap.pop t.queue with
    | None -> false
    | Some timer when timer.cancelled ->
      t.live <- t.live - 1;
      next ()
    | Some timer ->
      t.live <- t.live - 1;
      t.clock <- timer.at;
      t.fired <- t.fired + 1;
      timer.fn ();
      true
  in
  next ()

let run ?until t =
  let continue () =
    match until with
    | None -> true
    | Some limit -> (
      match Kutil.Heap.peek t.queue with
      | None -> false
      | Some timer -> timer.at <= limit)
  in
  while continue () && step t do
    ()
  done;
  (* Advance the clock to the horizon so back-to-back bounded runs keep a
     monotone notion of time even when the queue drains early. *)
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | Some _ | None -> ()

let events_fired t = t.fired
