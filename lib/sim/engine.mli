(** Discrete-event simulation engine.

    A single-threaded virtual clock with a deterministic event queue: events
    scheduled for the same instant fire in scheduling order. All Khazana
    nodes in a simulation share one engine. *)

type t

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes an engine whose {!rng} stream is derived from
    [seed] (default 42). *)

val now : t -> Time.t
val rng : t -> Kutil.Rng.t

type timer

val schedule : t -> after:Time.t -> (unit -> unit) -> timer
(** [schedule t ~after f] runs [f] at [now t + after]. Negative delays are
    clamped to zero. *)

val cancel : timer -> unit
(** Cancelling an already-fired timer is a no-op. *)

val pending : t -> int
(** Number of live (uncancelled, unfired) events. *)

val next_at : t -> Time.t option
(** Virtual time of the earliest live event, or [None] when the queue is
    empty. Real-time drivers use it to sleep exactly until the engine next
    has work. *)

val step : t -> bool
(** Fire the next event; [false] when the queue is empty. *)

val run : ?until:Time.t -> t -> unit
(** Drain the event queue, stopping early once the clock would pass
    [until]. Events beyond [until] remain queued. *)

val events_fired : t -> int
(** Total events executed so far (for microbenchmarks and sanity checks). *)
