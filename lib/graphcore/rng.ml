type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 finalizer: a strong 64-bit mix of the advancing counter. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take 62 non-negative bits and reduce; bias is negligible for the bounds
     used here (far below 2^32). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r *. (1.0 /. 9007199254740992.0)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  let n = Array.length arr in
  let k = min k n in
  if k = 0 then [||]
  else begin
    let copy = Array.copy arr in
    (* Partial Fisher-Yates: only the first [k] slots need to be finalized. *)
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      let tmp = copy.(i) in
      copy.(i) <- copy.(j);
      copy.(j) <- tmp
    done;
    Array.sub copy 0 k
  end
