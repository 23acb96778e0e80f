(* A lock-free single-producer / single-consumer ring of preallocated
   byte slots — the per-worker hand-off lane of [Shard].

   Layout: a power-of-two array of fixed-size [Bytes.t] slots plus a
   parallel [lens] int array, indexed by absolute positions
   masked into the array.  Two monotonically increasing absolute
   counters delimit the live region:

     [head]  — consumer side: first position not yet released;
     [tail]  — producer side: next position to publish.

   Only [head] and [tail] are atomic.  The slot contents and lengths
   are plain writes made visible by the release/acquire pairing on
   the counters (the message-passing idiom of the OCaml memory model;
   OCaml's [Atomic] is sequentially consistent, which is stronger than
   the release/acquire this protocol needs — see DESIGN.md):

     producer: write slot bytes, len  →  Atomic.set tail (release)
     consumer: Atomic.get tail (acquire)  →  read slot bytes, len

   and symmetrically for slot reuse through [head].  Each side keeps a
   local cache of the other side's counter and refreshes it only when
   the ring looks full/empty, so steady-state operation touches a shared
   cache line once per batch, not once per packet.

   Nothing here allocates after [create]: push is a blit + two int
   stores + one atomic store; a poll/release round is two atomic
   operations for the whole batch. *)

(* Producer-owned and consumer-owned mutable state live in their own
   heap blocks (not inline in [t]) so the two domains don't false-share
   a cache line through the record; the [_pad] arrays keep each block —
   and the boxed head/tail atomics allocated right after them — at
   least a cache line apart.  Best effort on OCaml 5.1:
   [Atomic.make_contended] (5.2+) is the guaranteed version. *)
type producer = {
  mutable p_tail : int; (* mirror of [tail]; producer-only *)
  mutable p_head_cache : int;
  _p_pad : int array;
}

type consumer = {
  mutable c_next : int; (* mirror of [head]; consumer-only *)
  mutable c_base : int; (* claimed batch: absolute position of slot 0 *)
  mutable c_n : int; (* claimed batch length; 0 = nothing claimed *)
  mutable c_tail_cache : int;
  _c_pad : int array;
}

type t = {
  mask : int;
  slot_bytes : int;
  bufs : Bytes.t array;
  lens : int array;
  head : int Atomic.t;
  _head_pad : int array;
  tail : int Atomic.t;
  _tail_pad : int array;
  closed : bool Atomic.t;
  prod : producer;
  cons : consumer;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(slot_bytes = 2048) ~capacity () =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity must be positive";
  if slot_bytes <= 0 then invalid_arg "Spsc.create: slot_bytes must be positive";
  let cap = next_pow2 capacity in
  let prod = { p_tail = 0; p_head_cache = 0; _p_pad = Array.make 14 0 } in
  let head = Atomic.make 0 in
  let _head_pad = Array.make 14 0 in
  let cons =
    { c_next = 0; c_base = 0; c_n = 0; c_tail_cache = 0; _c_pad = Array.make 14 0 }
  in
  let tail = Atomic.make 0 in
  let _tail_pad = Array.make 14 0 in
  {
    mask = cap - 1;
    slot_bytes;
    bufs = Array.init cap (fun _ -> Bytes.create slot_bytes);
    lens = Array.make cap 0;
    head;
    _head_pad;
    tail;
    _tail_pad;
    closed = Atomic.make false;
    prod;
    cons;
  }

let capacity t = t.mask + 1
let slot_bytes t = t.slot_bytes

(* ---- producer side ---- *)

let has_space t =
  let p = t.prod in
  if p.p_tail - p.p_head_cache <= t.mask then true
  else begin
    p.p_head_cache <- Atomic.get t.head;
    p.p_tail - p.p_head_cache <= t.mask
  end

let slot t = t.bufs.(t.prod.p_tail land t.mask)

let publish t len =
  if len < 0 || len > t.slot_bytes then invalid_arg "Spsc.publish: bad len";
  let p = t.prod in
  let i = p.p_tail land t.mask in
  t.lens.(i) <- len;
  let next = p.p_tail + 1 in
  p.p_tail <- next;
  Atomic.set t.tail next

let try_push t ?(off = 0) ~len src =
  has_space t
  && begin
       Bytes.blit_string src off (slot t) 0 len;
       publish t len;
       true
     end

let close t = Atomic.set t.closed true
let is_closed t = Atomic.get t.closed

(* ---- consumer side ---- *)

let claim t ~max avail =
  let c = t.cons in
  let n = if avail < max then avail else max in
  c.c_base <- c.c_next;
  c.c_n <- n;
  n

let poll t ~max =
  if max <= 0 then invalid_arg "Spsc.poll: max must be positive";
  let c = t.cons in
  if c.c_n <> 0 then invalid_arg "Spsc.poll: previous batch not released";
  let avail = c.c_tail_cache - c.c_next in
  if avail > 0 then claim t ~max avail
  else begin
    c.c_tail_cache <- Atomic.get t.tail;
    let avail = c.c_tail_cache - c.c_next in
    if avail > 0 then claim t ~max avail
    else if not (Atomic.get t.closed) then 0
    else begin
      (* closed: the final publish happens-before [close], but our tail
         read above may predate the close we just observed — look once
         more before declaring the ring drained *)
      c.c_tail_cache <- Atomic.get t.tail;
      let avail = c.c_tail_cache - c.c_next in
      if avail > 0 then claim t ~max avail else -1
    end
  end

let buf t i = t.bufs.((t.cons.c_base + i) land t.mask)
let len t i = t.lens.((t.cons.c_base + i) land t.mask)

let release t =
  let c = t.cons in
  if c.c_n = 0 then invalid_arg "Spsc.release: no claimed batch";
  c.c_next <- c.c_base + c.c_n;
  c.c_n <- 0;
  Atomic.set t.head c.c_next

(* ---- any thread ---- *)

let length t = Atomic.get t.tail - Atomic.get t.head

(* Bounded backoff for a spinning side: burn a few cycles, then yield the
   systhread, then sleep briefly — the sleep is what keeps an
   oversubscribed box (more domains than cores) from livelocking. *)
let backoff n =
  if n < 8 then Domain.cpu_relax ()
  else if n < 16 then Thread.yield ()
  else Unix.sleepf 0.00005
