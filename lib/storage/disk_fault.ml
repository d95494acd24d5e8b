type config = {
  lost_write_prob : float;
  torn_write_prob : float;
  crash_during_io_prob : float;
}

let none =
  { lost_write_prob = 0.0; torn_write_prob = 0.0; crash_during_io_prob = 0.0 }

let active c =
  c.lost_write_prob > 0.0 || c.torn_write_prob > 0.0
  || c.crash_during_io_prob > 0.0

(* Word-at-a-time, in two independent lanes (even and odd words) so the
   CPU overlaps their multiplies. Each step xors an 8-byte little-endian
   word into a 64-bit lane, multiplies by an odd constant and xor-shifts;
   both are bijections, and so is the final merge in either lane, so a
   change confined to one word (or one tail byte) always changes the
   result. The length seeds one lane, the bytes past the last 16-byte
   block fold one at a time, and the top bit is dropped to keep the result
   a non-negative int. Every byte is read: [Hashtbl.hash] samples only a
   prefix of large buffers, which would let a torn tail slip through
   verification. The Int64 arithmetic stays unboxed in native code. *)
let checksum b =
  let len = Bytes.length b in
  let a = ref (Int64.of_int len) in
  let c = ref 0x3bf29ce484222325L in
  let i = ref 0 in
  while !i + 16 <= len do
    let x = Int64.mul (Int64.logxor !a (Bytes.get_int64_le b !i)) 0x9e3779b97f4a7c15L in
    let y = Int64.mul (Int64.logxor !c (Bytes.get_int64_le b (!i + 8))) 0xc2b2ae3d27d4eb4fL in
    a := Int64.logxor x (Int64.shift_right_logical x 32);
    c := Int64.logxor y (Int64.shift_right_logical y 29);
    i := !i + 16
  done;
  let h = ref (Int64.logxor (Int64.mul !a 0x9e3779b97f4a7c15L) !c) in
  while !i < len do
    let byte = Int64.of_int (Char.code (Bytes.unsafe_get b !i)) in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L;
    incr i
  done;
  Int64.to_int !h land max_int

let tear rng ~intended ~prior =
  let len = Bytes.length intended in
  let out =
    match prior with
    | Some p when Bytes.length p = len -> Bytes.copy p
    | Some _ | None -> Bytes.make len '\000'
  in
  (* At least one byte written, at least one byte missing: a cut strictly
     inside the buffer (single-byte writes cannot tear). *)
  if len >= 2 then begin
    let cut = 1 + Kutil.Rng.int rng (len - 1) in
    Bytes.blit intended 0 out 0 cut
  end
  else Bytes.blit intended 0 out 0 len;
  out
