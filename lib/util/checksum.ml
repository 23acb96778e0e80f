type algorithm = Internet | Crc32 | Fletcher16 | Adler32 | Xor8 | Sum8

let algorithm_to_string = function
  | Internet -> "internet"
  | Crc32 -> "crc32"
  | Fletcher16 -> "fletcher16"
  | Adler32 -> "adler32"
  | Xor8 -> "xor8"
  | Sum8 -> "sum8"

let all_algorithms = [ Internet; Crc32; Fletcher16; Adler32; Xor8; Sum8 ]

let algorithm_of_string s =
  List.find_opt (fun a -> String.equal (algorithm_to_string a) s) all_algorithms

let width_bits = function
  | Internet | Fletcher16 -> 16
  | Crc32 | Adler32 -> 32
  | Xor8 | Sum8 -> 8

let range ?(off = 0) ?len s =
  let len = match len with None -> String.length s - off | Some l -> l in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Checksum: range out of bounds";
  (off, len)

let internet_checksum ?off ?len s =
  let off, len = range ?off ?len s in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < len do
    let word =
      (Char.code s.[off + !i] lsl 8) lor Char.code s.[off + !i + 1]
    in
    sum := !sum + word;
    i := !i + 2
  done;
  if len land 1 = 1 then sum := !sum + (Char.code s.[off + len - 1] lsl 8);
  (* Fold carries back into the low 16 bits. *)
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

let crc32_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 ?off ?len s =
  let off, len = range ?off ?len s in
  let table = Lazy.force crc32_table in
  let crc = ref 0xFFFFFFFFl in
  for i = off to off + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code s.[i]))) 0xFFl) in
    crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  Int64.logand (Int64.of_int32 (Int32.logxor !crc 0xFFFFFFFFl)) 0xFFFFFFFFL

let fletcher16 ?off ?len s =
  let off, len = range ?off ?len s in
  let a = ref 0 and b = ref 0 in
  for i = off to off + len - 1 do
    a := (!a + Char.code s.[i]) mod 255;
    b := (!b + !a) mod 255
  done;
  (!b lsl 8) lor !a

let adler32 ?off ?len s =
  let off, len = range ?off ?len s in
  let a = ref 1 and b = ref 0 in
  for i = off to off + len - 1 do
    a := (!a + Char.code s.[i]) mod 65521;
    b := (!b + !a) mod 65521
  done;
  Int64.of_int ((!b lsl 16) lor !a)

(* RFC 1624 incremental update.  With HC the stored checksum, the region's
   folded word sum is ~HC (mod 0xffff); replacing words summing to [removed]
   by words summing to [added] gives HC' = ~fold(~HC + ~removed + added),
   since ~x = 0xffff - x on 16 bits, i.e. negation mod 0xffff. *)
let internet_fold n =
  let n = ref n in
  while !n lsr 16 <> 0 do
    n := (!n land 0xFFFF) + (!n lsr 16)
  done;
  !n

let internet_delta ~checksum ~removed ~added =
  let removed = internet_fold removed and added = internet_fold added in
  let acc =
    (lnot checksum land 0xFFFF) + (lnot removed land 0xFFFF) + added
  in
  lnot (internet_fold acc) land 0xFFFF

let xor8 ?off ?len s =
  let off, len = range ?off ?len s in
  let acc = ref 0 in
  for i = off to off + len - 1 do
    acc := !acc lxor Char.code s.[i]
  done;
  !acc

let sum8 ?off ?len s =
  let off, len = range ?off ?len s in
  let acc = ref 0 in
  for i = off to off + len - 1 do
    acc := (!acc + Char.code s.[i]) land 0xFF
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Streaming interface: incremental computation over discontiguous
   segments, so a checksum can be taken over a window of a larger buffer
   with a sub-span read as zero — without copying the region first (the
   zero-copy decode path depends on this). *)

type stream =
  | S_internet of { mutable sum : int; mutable odd : bool }
      (* [odd] is set when the next byte is the low half of a 16-bit word. *)
  | S_crc32 of { mutable crc : int32 }
  | S_fletcher of { mutable fa : int; mutable fb : int }
  | S_adler of { mutable aa : int; mutable ab : int }
  | S_xor8 of { mutable acc : int }
  | S_sum8 of { mutable acc : int }

let stream_init = function
  | Internet -> S_internet { sum = 0; odd = false }
  | Crc32 -> S_crc32 { crc = 0xFFFFFFFFl }
  | Fletcher16 -> S_fletcher { fa = 0; fb = 0 }
  | Adler32 -> S_adler { aa = 1; ab = 0 }
  | Xor8 -> S_xor8 { acc = 0 }
  | Sum8 -> S_sum8 { acc = 0 }

let stream_byte st b =
  match st with
  | S_internet st ->
    st.sum <- st.sum + (if st.odd then b else b lsl 8);
    st.odd <- not st.odd
  | S_crc32 st ->
    let table = Lazy.force crc32_table in
    let idx = Int32.to_int (Int32.logand (Int32.logxor st.crc (Int32.of_int b)) 0xFFl) in
    st.crc <- Int32.logxor (Array.unsafe_get table idx) (Int32.shift_right_logical st.crc 8)
  | S_fletcher st ->
    st.fa <- (st.fa + b) mod 255;
    st.fb <- (st.fb + st.fa) mod 255
  | S_adler st ->
    st.aa <- (st.aa + b) mod 65521;
    st.ab <- (st.ab + st.aa) mod 65521
  | S_xor8 st -> st.acc <- st.acc lxor b
  | S_sum8 st -> st.acc <- (st.acc + b) land 0xFF

let stream_bytes st s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Checksum.stream_bytes: range out of bounds";
  match st with
  | S_internet st ->
    (* Hot path of the zero-copy decoder.  After fixing word parity, the
       bulk is accumulated as unboxed little-endian 16-bit words built from
       byte loads (unrolled four words per iteration).
       The LE word sum ≡ E + 256·O (mod 65535) where
       E/O are the even/odd-offset byte sums — and the big-endian word sum
       we need is its byte swap, since 2^16 ≡ 1 (mod 65535).  A positive
       block must stay positive (fold maps a positive multiple of 65535 to
       0xFFFF, zero to 0), so a collapsing residue is added back as 65535. *)
    let i = ref off in
    let stop = off + len in
    if st.odd && !i < stop then begin
      st.sum <- st.sum + Char.code (String.unsafe_get s !i);
      st.odd <- false;
      incr i
    end;
    if stop - !i >= 2 then begin
      let byte k = Char.code (String.unsafe_get s k) in
      let acc = ref 0 in
      while stop - !i >= 8 do
        let k = !i in
        acc :=
          !acc + byte k + byte (k + 2) + byte (k + 4) + byte (k + 6)
          + ((byte (k + 1) + byte (k + 3) + byte (k + 5) + byte (k + 7)) lsl 8);
        i := k + 8
      done;
      while stop - !i >= 2 do
        acc := !acc + byte !i + (byte (!i + 1) lsl 8);
        i := !i + 2
      done;
      let m = !acc mod 65535 in
      if m = 0 then (if !acc > 0 then st.sum <- st.sum + 65535)
      else st.sum <- st.sum + (((m land 0xFF) lsl 8) lor (m lsr 8))
    end;
    if !i < stop then begin
      st.sum <- st.sum + (Char.code (String.unsafe_get s !i) lsl 8);
      st.odd <- true
    end
  | S_crc32 st ->
    let table = Lazy.force crc32_table in
    let crc = ref st.crc in
    for i = off to off + len - 1 do
      let idx =
        Int32.to_int
          (Int32.logand
             (Int32.logxor !crc (Int32.of_int (Char.code (String.unsafe_get s i))))
             0xFFl)
      in
      crc := Int32.logxor (Array.unsafe_get table idx) (Int32.shift_right_logical !crc 8)
    done;
    st.crc <- !crc
  | S_fletcher st ->
    let fa = ref st.fa and fb = ref st.fb in
    for i = off to off + len - 1 do
      fa := (!fa + Char.code (String.unsafe_get s i)) mod 255;
      fb := (!fb + !fa) mod 255
    done;
    st.fa <- !fa;
    st.fb <- !fb
  | S_adler st ->
    let aa = ref st.aa and ab = ref st.ab in
    for i = off to off + len - 1 do
      aa := (!aa + Char.code (String.unsafe_get s i)) mod 65521;
      ab := (!ab + !aa) mod 65521
    done;
    st.aa <- !aa;
    st.ab <- !ab
  | S_xor8 st ->
    let acc = ref st.acc in
    for i = off to off + len - 1 do
      acc := !acc lxor Char.code (String.unsafe_get s i)
    done;
    st.acc <- !acc
  | S_sum8 st ->
    let acc = ref st.acc in
    for i = off to off + len - 1 do
      acc := (!acc + Char.code (String.unsafe_get s i)) land 0xFF
    done;
    st.acc <- !acc

let stream_zeros st n =
  if n < 0 then invalid_arg "Checksum.stream_zeros";
  match st with
  | S_internet st ->
    (* Zero bytes add nothing to the sum; only the word parity moves. *)
    if n land 1 = 1 then st.odd <- not st.odd
  | S_crc32 st ->
    let table = Lazy.force crc32_table in
    let crc = ref st.crc in
    for _ = 1 to n do
      let idx = Int32.to_int (Int32.logand !crc 0xFFl) in
      crc := Int32.logxor (Array.unsafe_get table idx) (Int32.shift_right_logical !crc 8)
    done;
    st.crc <- !crc
  | S_fletcher st ->
    (* fa is unchanged by zero bytes; fb gains fa per byte. *)
    st.fb <- (st.fb + (n mod 255 * st.fa)) mod 255
  | S_adler st -> st.ab <- (st.ab + (n mod 65521 * st.aa)) mod 65521
  | S_xor8 _ | S_sum8 _ -> ()

let stream_result st =
  match st with
  | S_internet st ->
    let sum = ref st.sum in
    while !sum lsr 16 <> 0 do
      sum := (!sum land 0xFFFF) + (!sum lsr 16)
    done;
    Int64.of_int (lnot !sum land 0xFFFF)
  | S_crc32 st ->
    Int64.logand (Int64.of_int32 (Int32.logxor st.crc 0xFFFFFFFFl)) 0xFFFFFFFFL
  | S_fletcher st -> Int64.of_int ((st.fb lsl 8) lor st.fa)
  | S_adler st -> Int64.of_int ((st.ab lsl 16) lor st.aa)
  | S_xor8 st -> Int64.of_int st.acc
  | S_sum8 st -> Int64.of_int st.acc

(* Byte [i] of [s] with the bits inside [zoff, zoff+zlen) (absolute bit
   offsets, MSB-first within a byte) forced to zero. *)
let masked_byte s i ~zoff ~zlen =
  let b = Char.code s.[i] in
  let first = i * 8 and stop = zoff + zlen in
  let mask = ref 0 in
  for bit = 0 to 7 do
    let abs = first + bit in
    if abs >= zoff && abs < stop then mask := !mask lor (0x80 lsr bit)
  done;
  b land lnot !mask

(* Int-typed: [Stdlib.max]/[min] compare polymorphically, a C call per
   use on the per-packet path. *)
let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

let compute_zeroed alg ~off ~len ~zero_bit_off ~zero_bit_len s =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Checksum.compute_zeroed: range out of bounds";
  let st = stream_init alg in
  (* Clip the zero span to the window. *)
  let zlo = imax zero_bit_off (off * 8) in
  let zhi = imin (zero_bit_off + zero_bit_len) ((off + len) * 8) in
  if zhi <= zlo then stream_bytes st s off len
  else begin
    let zfirst = zlo / 8 and zlast = (zhi - 1) / 8 in
    stream_bytes st s off (zfirst - off);
    let feed_boundary i =
      stream_byte st (masked_byte s i ~zoff:zlo ~zlen:(zhi - zlo))
    in
    if zfirst = zlast then feed_boundary zfirst
    else begin
      (* Leading partial byte, run of fully-zeroed bytes, trailing partial. *)
      let body_lo = if zlo land 7 = 0 then zfirst else (feed_boundary zfirst; zfirst + 1) in
      let body_hi = if zhi land 7 = 0 then zlast else zlast - 1 in
      stream_zeros st (body_hi - body_lo + 1);
      if zhi land 7 <> 0 then feed_boundary zlast
    end;
    stream_bytes st s (zlast + 1) (off + len - zlast - 1)
  end;
  stream_result st

(* Byte-weighted sum of [s.[o .. o+l)]: a byte at even run index is the
   high half of its big-endian word (weight 256), at odd index the low
   half — shifted by one when [hi_first] is false.  Unrolled over the
   even/odd byte streams; addition is associative, so any summation order
   agrees with the word-by-word definition before the final carry fold.
   Top-level (not a closure) and all native ints: the fused decode path
   must not allocate. *)
let sum_run s o l hi_first =
  let even = ref 0 and odd = ref 0 in
  let i = ref 0 in
  while l - !i >= 8 do
    let k = o + !i in
    even :=
      !even
      + Char.code (String.unsafe_get s k)
      + Char.code (String.unsafe_get s (k + 2))
      + Char.code (String.unsafe_get s (k + 4))
      + Char.code (String.unsafe_get s (k + 6));
    odd :=
      !odd
      + Char.code (String.unsafe_get s (k + 1))
      + Char.code (String.unsafe_get s (k + 3))
      + Char.code (String.unsafe_get s (k + 5))
      + Char.code (String.unsafe_get s (k + 7));
    i := !i + 8
  done;
  while !i < l do
    let b = Char.code (String.unsafe_get s (o + !i)) in
    if !i land 1 = 0 then even := !even + b else odd := !odd + b;
    incr i
  done;
  if hi_first then (!even lsl 8) + !odd else !even + (!odd lsl 8)

(* Unboxed variant of [compute_zeroed Internet] for the fused decode path.
   Equal to the streaming version because the final fold only depends on
   the word sum mod 65535 and on whether any unmasked byte is nonzero —
   both of which the direct masked-word sum preserves.  The zeroed span is
   handled byte by byte (it is a checksum field, a few bytes); everything
   around it goes through the unrolled [sum_run]. *)
let internet_zeroed ~off ~len ~zero_bit_off ~zero_bit_len s =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Checksum.internet_zeroed: range out of bounds";
  let zlo = imax zero_bit_off (off * 8) in
  let zhi = imin (zero_bit_off + zero_bit_len) ((off + len) * 8) in
  let sum = ref 0 in
  if zhi <= zlo then sum := sum_run s off len true
  else if zlo land 7 = 0 && zhi land 7 = 0 then begin
    (* byte-aligned span (the overwhelmingly common case: a checksum
       field): one unrolled pass over the whole window, then take the
       span's bytes back out.  Exact, not approximate — the sum is plain
       integer addition of weighted bytes, so subtracting before the
       carry fold is the same as never adding. *)
    sum := sum_run s off len true;
    for i = zlo lsr 3 to (zhi lsr 3) - 1 do
      let b = Char.code (String.unsafe_get s i) in
      sum := !sum - if (i - off) land 1 = 0 then b lsl 8 else b
    done
  end
  else begin
    let zfirst = zlo lsr 3 and zlast = (zhi - 1) lsr 3 in
    sum := sum_run s off (zfirst - off) true;
    for i = zfirst to zlast do
      let b = masked_byte s i ~zoff:zlo ~zlen:(zhi - zlo) in
      if b <> 0 then
        sum := !sum + if (i - off) land 1 = 0 then b lsl 8 else b
    done;
    let rest = zlast + 1 in
    sum :=
      !sum
      + sum_run s rest (off + len - rest) ((rest - off) land 1 = 0)
  end;
  let sum = ref !sum in
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

let compute alg ?off ?len s =
  match alg with
  | Internet -> Int64.of_int (internet_checksum ?off ?len s)
  | Crc32 -> crc32 ?off ?len s
  | Fletcher16 -> Int64.of_int (fletcher16 ?off ?len s)
  | Adler32 -> adler32 ?off ?len s
  | Xor8 -> Int64.of_int (xor8 ?off ?len s)
  | Sum8 -> Int64.of_int (sum8 ?off ?len s)

let verify alg ?off ?len s ~expected = Int64.equal (compute alg ?off ?len s) expected
