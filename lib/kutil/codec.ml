exception Decode_error of string

(* A sizing encoder ([counting]) writes its fixed-width fields into a
   scratch buffer like any other, but only counts the bytes of strings and
   reservations: its size is [Buffer.length buf + counted]. *)
type encoder = { buf : Buffer.t; counting : bool; mutable counted : int }

let encoder ?(size = 256) () =
  { buf = Buffer.create size; counting = false; counted = 0 }

let to_bytes e = Buffer.to_bytes e.buf

let u8 e v =
  if v < 0 || v > 0xFF then invalid_arg "Codec.u8: out of range";
  Buffer.add_char e.buf (Char.chr v)

let u16 e v =
  if v < 0 || v > 0xFFFF then invalid_arg "Codec.u16: out of range";
  Buffer.add_uint16_be e.buf v

let u32 e v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg "Codec.u32: out of range";
  Buffer.add_int32_be e.buf (Int32.of_int (v land 0xFFFF_FFFF))

let u64 e v = Buffer.add_int64_be e.buf v
let int e v = u64 e (Int64.of_int v)

let u128 e (v : U128.t) =
  u64 e v.U128.hi;
  u64 e v.U128.lo

let bool e v = u8 e (if v then 1 else 0)

let string e s =
  u32 e (String.length s);
  if e.counting then e.counted <- e.counted + String.length s
  else Buffer.add_string e.buf s

let bytes e b = string e (Bytes.unsafe_to_string b)

let list e f xs =
  u32 e (List.length xs);
  List.iter f xs

let option e f = function
  | None -> u8 e 0
  | Some x ->
    u8 e 1;
    f x

let reserve e n =
  if e.counting then e.counted <- e.counted + n
  else
    for _ = 1 to n do
      Buffer.add_char e.buf '\000'
    done

(* One scratch sizer serves every size pass. A pass measures its own delta
   and rewinds, so a pass nested inside another (a body sized while its
   envelope is) leaves the outer one's count intact. *)
let sizer = { buf = Buffer.create 256; counting = true; counted = 0 }

let encoded_size f x =
  let written = Buffer.length sizer.buf and counted = sizer.counted in
  f sizer x;
  let n = Buffer.length sizer.buf - written + sizer.counted - counted in
  Buffer.truncate sizer.buf written;
  sizer.counted <- counted;
  n

type decoder = { buf : bytes; mutable pos : int }

let decoder buf = { buf; pos = 0 }
let remaining d = Bytes.length d.buf - d.pos

let need d n =
  if remaining d < n then
    raise (Decode_error (Printf.sprintf "need %d bytes, have %d" n (remaining d)))

let read_u8 d =
  need d 1;
  let v = Char.code (Bytes.get d.buf d.pos) in
  d.pos <- d.pos + 1;
  v

let read_u16 d =
  need d 2;
  let v = Bytes.get_uint16_be d.buf d.pos in
  d.pos <- d.pos + 2;
  v

let read_u32 d =
  need d 4;
  let v = Int32.to_int (Bytes.get_int32_be d.buf d.pos) land 0xFFFF_FFFF in
  d.pos <- d.pos + 4;
  v

let read_u64 d =
  need d 8;
  let v = Bytes.get_int64_be d.buf d.pos in
  d.pos <- d.pos + 8;
  v

let read_int d = Int64.to_int (read_u64 d)

let read_u128 d =
  let hi = read_u64 d in
  let lo = read_u64 d in
  U128.make ~hi ~lo

let read_bool d =
  match read_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Decode_error (Printf.sprintf "bad bool tag %d" n))

let read_string d =
  let len = read_u32 d in
  need d len;
  let s = Bytes.sub_string d.buf d.pos len in
  d.pos <- d.pos + len;
  s

let read_bytes d = Bytes.unsafe_of_string (read_string d)

let read_list d f =
  let len = read_u32 d in
  (* Never trust a length prefix: every element occupies at least one byte
     in our formats, so a count beyond the remaining input is malformed —
     and must not drive a multi-gigabyte allocation. *)
  if len > remaining d then
    raise
      (Decode_error
         (Printf.sprintf "list length %d exceeds %d remaining bytes" len
            (remaining d)));
  List.init len (fun _ -> f ())

let read_option d f =
  match read_u8 d with
  | 0 -> None
  | 1 -> Some (f ())
  | n -> raise (Decode_error (Printf.sprintf "bad option tag %d" n))
