type t = U128.t

let zero = U128.zero
let of_int = U128.of_int
let add_int = U128.add_int

let diff a b =
  if U128.compare a b < 0 then invalid_arg "Gaddr.diff: negative";
  U128.to_int (U128.sub a b)

let compare = U128.compare
let equal = U128.equal
let hash = U128.hash
let within = U128.within
let pp = U128.pp
let to_string = U128.to_string
let default_page_size = 4096
let valid_page_size n = n >= 4096 && n land (n - 1) = 0

let page_floor addr ~page_size =
  if not (valid_page_size page_size) then invalid_arg "Gaddr: bad page size";
  let q, _ = U128.divmod_int addr page_size in
  U128.mul_int q page_size

let page_offset addr ~page_size =
  if not (valid_page_size page_size) then invalid_arg "Gaddr: bad page size";
  let _, r = U128.divmod_int addr page_size in
  r

let is_page_aligned addr ~page_size = page_offset addr ~page_size = 0

let pages_in addr ~len ~page_size =
  if len < 0 then invalid_arg "Gaddr.pages_in: negative length";
  if len = 0 then []
  else begin
    let first = page_floor addr ~page_size in
    let last = page_floor (add_int addr (len - 1)) ~page_size in
    let rec loop acc p =
      if U128.compare p last > 0 then List.rev acc
      else loop (p :: acc) (add_int p page_size)
    in
    loop [] first
  end

module Key = struct
  type nonrec t = t

  let compare = compare
  let equal = equal
  let hash = hash
end

module Map = Map.Make (Key)
module Table = Hashtbl.Make (Key)
