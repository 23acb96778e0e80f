(* Bucket [i] is [cells.(2i)] (key) and [cells.(2i+1)] (value); a negative
   value marks it empty.  Values are non-negative by contract, keys are
   any int (the wheel's unkeyed timer uses [min_int]). *)
type t = {
  mutable cells : int array;
  mutable mask : int; (* bucket count - 1; bucket count is a power of 2 *)
  mutable shift : int; (* 63 - log2 (bucket count) *)
  mutable n : int;
}

(* Fibonacci hashing: a key's home is the top bits of [k * C], which
   every bit of [k] feeds.  Masking the low bits instead would give keys
   that agree in their low bits — multiples of the bucket count — one
   home and one probe chain. *)
let home k shift = (k * 0x2545F4914F6CDD1D) lsr shift

let rec log2_pow2_at_least b n =
  if 1 lsl b >= n then b else log2_pow2_at_least (b + 1) n

let create n =
  let bits = log2_pow2_at_least 3 n in
  { cells = Array.make (2 lsl bits) (-1); mask = (1 lsl bits) - 1;
    shift = 63 - bits; n = 0 }

let length t = t.n

(* Bucket holding [k], or -1: probe until an empty bucket proves absence.
   The live-and-matching test leads — on the hot paths the first probe is
   almost always the hit. *)
let rec bucket_of cells mask k i =
  let v = Array.unsafe_get cells ((2 * i) + 1) in
  if v >= 0 && Array.unsafe_get cells (2 * i) = k then i
  else if v < 0 then -1
  else bucket_of cells mask k ((i + 1) land mask)

let find t k =
  let i = bucket_of t.cells t.mask k (home k t.shift) in
  if i < 0 then -1 else Array.unsafe_get t.cells ((2 * i) + 1)

let rec insert cells mask k v i =
  if Array.unsafe_get cells ((2 * i) + 1) < 0 then begin
    Array.unsafe_set cells (2 * i) k;
    Array.unsafe_set cells ((2 * i) + 1) v
  end
  else insert cells mask k v ((i + 1) land mask)

let grow t =
  let old = t.cells in
  let b = 2 * (t.mask + 1) in
  let cells = Array.make (2 * b) (-1) in
  let mask = b - 1 and shift = t.shift - 1 in
  for i = 0 to t.mask do
    let v = old.((2 * i) + 1) in
    if v >= 0 then
      let k = old.(2 * i) in
      insert cells mask k v (home k shift)
  done;
  t.cells <- cells;
  t.mask <- mask;
  t.shift <- shift

let add t k v =
  if (t.n + 1) * 4 > (t.mask + 1) * 3 then grow t;
  insert t.cells t.mask k v (home k t.shift);
  t.n <- t.n + 1

(* Algorithm R: walk the chain after the hole [i]; an entry at [j] whose
   home bucket lies cyclically outside (i, j] would be cut off from its
   home by the hole, so it moves into the hole and its old bucket becomes
   the new hole.  The first empty bucket ends the chain. *)
let remove t k =
  let cells = t.cells and mask = t.mask and shift = t.shift in
  let i0 = bucket_of cells mask k (home k shift) in
  if i0 < 0 then -1
  else begin
    let removed = Array.unsafe_get cells ((2 * i0) + 1) in
    let i = ref i0 and j = ref i0 in
    let scanning = ref true in
    while !scanning do
      j := (!j + 1) land mask;
      let v = Array.unsafe_get cells ((2 * !j) + 1) in
      if v < 0 then scanning := false
      else begin
        let kj = Array.unsafe_get cells (2 * !j) in
        let r = home kj shift in
        let stays = if !i <= !j then !i < r && r <= !j else !i < r || r <= !j in
        if not stays then begin
          Array.unsafe_set cells (2 * !i) kj;
          Array.unsafe_set cells ((2 * !i) + 1) v;
          i := !j
        end
      end
    done;
    Array.unsafe_set cells ((2 * !i) + 1) (-1);
    t.n <- t.n - 1;
    removed
  end

module For_testing = struct
  let max_displacement t =
    let worst = ref 0 in
    for i = 0 to t.mask do
      if t.cells.((2 * i) + 1) >= 0 then
        let d = (i - home t.cells.(2 * i) t.shift) land t.mask in
        if d > !worst then worst := d
    done;
    !worst
end
