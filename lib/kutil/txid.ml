type t = { coord : int; epoch : int; seq : int }

let make ~coord ~epoch ~seq = { coord; epoch; seq }

let equal a b = a.coord = b.coord && a.epoch = b.epoch && a.seq = b.seq

let compare a b =
  match Int.compare a.coord b.coord with
  | 0 -> (
      match Int.compare a.epoch b.epoch with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
  | c -> c

(* An int mix of the three fields: no tuple is built per lookup. *)
let hash t =
  let h = (((t.coord * 0x9E3779B1) lxor t.epoch) * 0x85EBCA77) lxor t.seq in
  let h = (h lxor (h lsr 29)) * 0x27D4EB2F165667C5 in
  (h lxor (h lsr 32)) land max_int
let to_string t = Printf.sprintf "%d.%d.%d" t.coord t.epoch t.seq
let pp fmt t = Format.pp_print_string fmt (to_string t)

let encode e t =
  Codec.u32 e t.coord;
  Codec.u32 e t.epoch;
  Codec.u32 e t.seq

let decode d =
  let coord = Codec.read_u32 d in
  let epoch = Codec.read_u32 d in
  let seq = Codec.read_u32 d in
  { coord; epoch; seq }

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
