(** Direct-style cooperative fibers over the event engine.

    Implemented with OCaml 5 effects: daemon logic reads as straight-line
    code (`let page = await (fetch ...) in ...`) while the engine interleaves
    fibers deterministically. The blocking operations below may only be
    called from inside a fiber started with {!spawn}. *)

exception Fiber_failure of string * exn
(** Raised out of {!Engine.run} when a fiber dies with an uncaught
    exception; carries the fiber name. *)

val spawn : Engine.t -> ?name:string -> (unit -> unit) -> unit
(** Start a fiber at the current instant. *)

val spawn_after : Engine.t -> after:Time.t -> ?name:string -> (unit -> unit) -> unit

val sleep : Time.t -> unit
(** Suspend the calling fiber for the given virtual duration. *)

val await : 'a Promise.t -> 'a
(** Suspend until the promise resolves (returns immediately if it already
    has). *)

val await_timeout : Engine.t -> 'a Promise.t -> timeout:Time.t -> 'a option
(** [None] if the timeout elapses first. *)

val join_all : unit Promise.t list -> unit

val async : Engine.t -> ?name:string -> (unit -> 'a) -> 'a Promise.t
(** Spawn a fiber and expose its result as a promise. An exception in the
    child propagates as {!Fiber_failure} out of the engine, not into the
    promise. *)
