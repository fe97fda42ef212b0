type t = int

let bits = 30
let max_node = 1 lsl bits
let mask = max_node - 1

let make u v =
  if u = v then invalid_arg "Edge_key.make: self-loop";
  if u < 0 || v < 0 || u >= max_node || v >= max_node then
    invalid_arg "Edge_key.make: node id out of range";
  if u < v then (u lsl bits) lor v else (v lsl bits) lor u

let endpoints k = (k lsr bits, k land mask)

let other k u =
  let a, b = endpoints k in
  if u = a then b
  else if u = b then a
  else invalid_arg "Edge_key.other: not an endpoint"

let compare = Int.compare
let equal = Int.equal
