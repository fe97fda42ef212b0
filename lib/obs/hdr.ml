(* Fixed-footprint log-linear histogram (HdrHistogram bucket layout at two
   significant decimal digits): unit-width slots below 128, then 64 slots
   of width 2^b per range [64 * 2^b, 128 * 2^b), so any recorded value is
   resolved to within 1/64 (≈ 1.6 %) of its magnitude.  The counts array is allocated once at [create] and never
   grows — observing is two shifts, a mask and an increment.

   Values are non-negative ints in an arbitrary unit (the obs layer uses
   nanoseconds); negative values clamp to 0 and values above {!max_value}
   clamp to it, so [observe] is total. *)

(* 2^ceil(log2 10^2) = 128 linear slots in the lowest range. *)
let sub_count = 128

let sub_half = 64

let sub_mask = sub_count - 1

(* log2 sub_half: the shift that maps a value to its power-of-two bucket. *)
let sub_half_mag = 6

(* Highest trackable value: bucket index for it must still fall inside the
   counts array.  2^61 - 1 keeps every intermediate shift inside OCaml's
   63-bit int range. *)
let max_value = (1 lsl 61) - 1

(* Number of significant bits of v (0 for v = 0). *)
let bit_width v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

(* Power-of-two bucket: 0 covers [0, 128), bucket b >= 1 covers
   [128 * 2^(b-1), 128 * 2^b) at granularity 2^b. *)
let bucket_index v = bit_width (v lor sub_mask) - (sub_half_mag + 1)

let bucket_count = bucket_index max_value + 1

(* Bucket 0 uses all 128 slots; every later bucket only the upper 64 (its
   lower half aliases the previous bucket's upper half). *)
let counts_len = (bucket_count + 1) * sub_half

let counts_index v =
  let b = bucket_index v in
  let sub = v lsr b in
  ((b + 1) * sub_half) + (sub - sub_half)

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min_v : int;  (* max_int while empty *)
  mutable max_v : int;
}

let create () =
  { counts = Array.make counts_len 0; total = 0; sum = 0; min_v = max_int; max_v = 0 }

let observe t v =
  let v = if v < 0 then 0 else if v > max_value then max_value else v in
  let i = counts_index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total

let sum t = t.sum

let min_value t = if t.total = 0 then 0 else t.min_v

let max_value_seen t = t.max_v

(* Value at quantile [q]: the highest-equivalent value of the slot where
   the cumulative count first reaches ceil(q * total).  Conservative (never
   under-reports) and within one slot width of exact, i.e. < 1/64 high. *)
let quantile t q =
  if t.total = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.total)) in
      if r < 1 then 1 else if r > t.total then t.total else r
    in
    let acc = ref 0 in
    let i = ref 0 in
    while !acc < rank && !i < counts_len do
      acc := !acc + t.counts.(!i);
      incr i
    done;
    let slot = !i - 1 in
    (* Invert counts_index: slot -> (bucket, sub) -> highest value. *)
    let b = (slot / sub_half) - 1 in
    let sub = (slot mod sub_half) + sub_half in
    let v = if b < 0 then slot else ((sub + 1) lsl b) - 1 in
    if v > t.max_v then t.max_v else v
  end

let merge ~into t =
  for i = 0 to counts_len - 1 do
    if t.counts.(i) <> 0 then into.counts.(i) <- into.counts.(i) + t.counts.(i)
  done;
  into.total <- into.total + t.total;
  into.sum <- into.sum + t.sum;
  if t.total > 0 then begin
    if t.min_v < into.min_v then into.min_v <- t.min_v;
    if t.max_v > into.max_v then into.max_v <- t.max_v
  end

(* Non-empty slots as (inclusive upper bound, cumulative count), ascending —
   exactly the shape of OpenMetrics cumulative `_bucket` series (minus the
   implicit +Inf bucket, which is [count]). *)
let buckets t =
  let acc = ref [] in
  let cum = ref 0 in
  for i = 0 to counts_len - 1 do
    if t.counts.(i) <> 0 then begin
      cum := !cum + t.counts.(i);
      let b = (i / sub_half) - 1 in
      let sub = (i mod sub_half) + sub_half in
      let ub = if b < 0 then i else ((sub + 1) lsl b) - 1 in
      acc := (ub, !cum) :: !acc
    end
  done;
  List.rev !acc
