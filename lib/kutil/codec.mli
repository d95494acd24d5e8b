(** Binary encoding helpers.

    Khazana stores its own metadata (address-map tree nodes, file-system
    inodes, object headers) inside ordinary pages, so structured values must
    round-trip through bytes. Encoders append to a buffer; decoders consume
    from a cursor and raise {!Decode_error} on malformed input. *)

exception Decode_error of string

(** {1 Encoding} *)

type encoder

val encoder : ?size:int -> unit -> encoder
(** [size] is the initial capacity in bytes (default 256); an encoder
    sized to its output never regrows its buffer. *)

val to_bytes : encoder -> bytes

val u8 : encoder -> int -> unit
val u16 : encoder -> int -> unit
val u32 : encoder -> int -> unit
val u64 : encoder -> int64 -> unit
val int : encoder -> int -> unit
val u128 : encoder -> U128.t -> unit
val bool : encoder -> bool -> unit
val string : encoder -> string -> unit
val bytes : encoder -> bytes -> unit
val list : encoder -> ('a -> unit) -> 'a list -> unit
val option : encoder -> ('a -> unit) -> 'a option -> unit

val reserve : encoder -> int -> unit
(** [reserve e n] advances [n] zero bytes, to be patched later or to stand
    for a body whose size is known but whose bytes are not at hand. *)

val encoded_size : (encoder -> 'a -> unit) -> 'a -> int
(** [encoded_size f x] is the number of bytes [f] writes for [x], computed
    by a size-only pass: fixed-width fields go to one reused scratch
    buffer, strings and reservations are counted without being copied.
    Nests safely; [f] must not call {!to_bytes}. *)

(** {1 Decoding} *)

type decoder

val decoder : bytes -> decoder
val remaining : decoder -> int

val read_u8 : decoder -> int
val read_u16 : decoder -> int
val read_u32 : decoder -> int
val read_u64 : decoder -> int64
val read_int : decoder -> int
val read_u128 : decoder -> U128.t
val read_bool : decoder -> bool
val read_string : decoder -> string
val read_bytes : decoder -> bytes
(* [read_list d f] rejects length prefixes exceeding the remaining input
   (every element in our formats occupies at least one byte), so malformed
   input cannot drive unbounded allocation. *)
val read_list : decoder -> (unit -> 'a) -> 'a list
val read_option : decoder -> (unit -> 'a) -> 'a option
