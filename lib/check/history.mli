(** Operation-history recording for consistency checking.

    A {e history} is the client's-eye view of a run: for every
    [read_bytes] / [write_bytes] / [txn] call, when it was invoked, when
    (and whether) it returned, and what it observed or installed. The
    checkers in {!Register} and {!Serial} consume assembled histories and
    decide whether some linearization / serialization explains them.

    Recording is two-phase on purpose: the {e invoke} entry is emitted
    {e before} the operation runs and the {e return} entry after, so an
    operation cut down mid-flight (node crash, [SIGKILL], abandoned
    fiber) leaves an invoke with no matching return — which {!assemble}
    turns into an {e ambiguous} ("maybe applied") event, exactly the
    indeterminacy a checker must honour. Timeouts and [`Unreachable]
    results are likewise recorded as ambiguous: silence is not evidence
    of an abort.

    Sinks are pluggable: an in-memory {!Ring} for the simulator, or a
    flushed-per-line jsonl shard ({!jsonl_sink}) for real processes —
    shards from several processes merge by just concatenating their
    entries before {!assemble} (entries match by [(proc, id)]). *)

type addr = Kutil.Gaddr.t

(** What a client called, known at invoke time. A transaction's reads and
    writes are discovered as it runs and arrive as {!entry.Tread} /
    {!entry.Twrite} entries. *)
type call =
  | Read of { addr : addr; len : int }
  | Write of { addr : addr; value : string }
  | Sread of { addr : addr; len : int; snap : int }
      (** MVCC snapshot read (versioned regions): [snap] names the
          client-side snapshot the read was pinned to. Judged for
          snapshot consistency (same pin, same bytes; no out-of-thin-air
          values) rather than linearizability. *)
  | Txn

(** How a call ended. [Ok_]: took effect (reads: observed the recorded
    value). [Fail]: definitely did {e not} take effect. [Maybe]: unknown
    — a timeout, unreachable peer, crash mid-protocol, or a process that
    died before recording the return. *)
type status = Ok_ | Fail | Maybe

type entry =
  | Invoke of { proc : int; id : int; at : int; call : call }
  | Tread of { proc : int; id : int; at : int; addr : addr; value : string }
  | Twrite of { proc : int; id : int; at : int; addr : addr; value : string }
  | Return of {
      proc : int;
      id : int;
      at : int;
      status : status;
      value : string option;  (** observed bytes, for reads *)
    }

(** {1 Recording} *)

type recorder
(** One per client (or per sequential stream of operations). Not
    thread-safe; fiber-interleaved use on one engine is fine. *)

val recorder : now:(unit -> int) -> proc:int -> (entry -> unit) -> recorder
(** [recorder ~now ~proc sink] emits entries stamped by [now] (simulated
    ns or wall-clock ns — any monotonic scale shared by every recorder of
    the run) and labelled as process [proc] (unique per recorder). *)

val proc : recorder -> int

val invoke : recorder -> call -> int
(** Emit the invoke entry; returns the operation id to close with
    {!finish} (and to tag {!txn_read_entry} / {!txn_write_entry}). *)

val txn_read_entry : recorder -> id:int -> addr -> string -> unit
(** A successful [txn_read] inside operation [id] observed these bytes. *)

val txn_write_entry : recorder -> id:int -> addr -> string -> unit
(** A successful [txn_write] inside operation [id] buffered these bytes. *)

val finish : recorder -> id:int -> ?value:string -> status -> unit
(** Emit the return entry for operation [id]. *)

(** {1 Sinks} *)

module Ring : sig
  (** Bounded in-memory entry buffer (simulator harnesses). *)

  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 1_048_576 entries; older entries are dropped. *)

  val sink : t -> entry -> unit
  val entries : t -> entry list
  (** Oldest first. *)

  val length : t -> int
  val clear : t -> unit
end

val jsonl_sink : out_channel -> entry -> unit
(** One JSON object per line, flushed per entry so a [SIGKILL] loses at
    most a torn final line (which {!read_jsonl} drops — the matching
    invoke then assembles as ambiguous). Strings travel hex-encoded:
    payloads are arbitrary bytes. *)

val entry_to_json : entry -> string

val read_jsonl : string -> entry list
(** Parse a shard file, skipping torn/foreign lines. *)

(** {1 Assembled events} *)

type op =
  | O_read of { addr : addr; len : int; value : string option }
      (** [value] is [Some] iff the read returned [Ok_]. *)
  | O_write of { addr : addr; value : string }
  | O_sread of { addr : addr; len : int; snap : int; value : string option }
      (** Snapshot read; [value] as for {!O_read}. *)
  | O_txn of {
      reads : (addr * string * int) list;
          (** (addr, observed, at) — in execution order *)
      writes : (addr * string * int) list;
    }

type event = {
  e_proc : int;
  e_id : int;
  e_invoke : int;
  e_return : int;  (** [max_int] when the operation never returned *)
  e_op : op;
  e_status : status;  (** {!Maybe} for unmatched invokes *)
}

val assemble : entry list -> event list
(** Pair invokes with returns (by [(proc, id)]), fold transaction
    sub-entries into their {!O_txn}, turn unmatched invokes into
    ambiguous events, and sort by invoke time. Orphan returns (their
    invoke fell off a ring) are dropped. *)

val label : event -> string
(** ["p3#17"] — stable name for counterexample dumps. *)

val pp_event : Format.formatter -> event -> unit

val pp_short_bytes : Format.formatter -> string -> unit
(** Payload bytes for humans: short printable strings verbatim, anything
    else as a truncated hex prefix. *)

val hex_of_string : string -> string
val string_of_hex : string -> string
