(* Zero-allocation batch window: a preallocated ring of fixed-capacity
   byte buffers plus a length array.  The owner leases a contiguous run
   of free slots, fills it in place and publishes the filled prefix,
   then dequeues whole index runs and releases them when the batch is
   processed.  Steady-state ingest moves bytes only — no strings, no
   options, no per-packet allocation.

   Single-owner: one domain at a time fills and drains the slab, so
   there is no lock and no waiting.  [head] and [tail] are absolute counters
   (slot = counter mod capacity): [tail - head] slots are in flight, the
   outstanding batch is the run [[batch_start, batch_start + batch_len)]
   and the outstanding lease the run [[tail, tail + lease_len)]; neither
   is reused until {!release} advances [head]. *)

type t = {
  bufs : Bytes.t array;
  lens : int array;
  slot_bytes : int;
  mutable head : int; (* first unreleased slot (absolute counter) *)
  mutable tail : int; (* next slot to fill (absolute counter) *)
  mutable lease_len : int; (* slots covered by the outstanding lease; 0 = none *)
  mutable batch_len : int; (* outstanding batch; 0 = none *)
  mutable batch_start : int;
}

let create ?(slot_bytes = 2048) ~capacity () =
  if capacity <= 0 then invalid_arg "Slab.create: capacity must be positive";
  if slot_bytes <= 0 then invalid_arg "Slab.create: slot_bytes must be positive";
  {
    bufs = Array.init capacity (fun _ -> Bytes.create slot_bytes);
    lens = Array.make capacity 0;
    slot_bytes;
    head = 0;
    tail = 0;
    lease_len = 0;
    batch_len = 0;
    batch_start = 0;
  }

let capacity t = Array.length t.bufs
let slot_bytes t = t.slot_bytes
let length t = t.tail - t.head

(* ---- filling: the contiguous-run lease ----

   [recvmmsg] fills many slots with one syscall, so the owner leases a
   whole run of free slots at once.  The run never wraps the ring seam —
   the C stub indexes [bufs]/[lens] linearly from [producer_slot] — and
   the caller publishes only the prefix the kernel actually filled. *)

let lease_run t ~max =
  if max <= 0 then invalid_arg "Slab.lease_run: max must be positive";
  if t.lease_len > 0 then invalid_arg "Slab.lease_run: a lease is outstanding";
  let cap = Array.length t.bufs in
  let free = cap - (t.tail - t.head) in
  let seam = cap - (t.tail mod cap) in
  let k = Int.min (Int.min max free) seam in
  t.lease_len <- k;
  k

let producer_slot t = t.tail mod Array.length t.bufs

let publish_run t ~n =
  let leased = t.lease_len in
  if leased = 0 then invalid_arg "Slab.publish_run: no leased run";
  (* a refused publish drops the lease, so the ring stays usable after
     the caller bug *)
  t.lease_len <- 0;
  if n < 0 || n > leased then
    invalid_arg "Slab.publish_run: count outside the leased run";
  let cap = Array.length t.bufs in
  for i = 0 to n - 1 do
    let l = t.lens.((t.tail + i) mod cap) in
    if l < 0 || l > t.slot_bytes then
      invalid_arg "Slab.publish_run: slot length out of range"
  done;
  t.tail <- t.tail + n

let raw_bufs t = t.bufs
let raw_lens t = t.lens

(* ---- draining ---- *)

let pop_batch t ~max =
  if max <= 0 then invalid_arg "Slab.pop_batch: max must be positive";
  if t.batch_len > 0 then invalid_arg "Slab.pop_batch: previous batch not released";
  let n = Int.min (t.tail - t.head) max in
  t.batch_start <- t.head;
  t.batch_len <- n;
  n

let check_slot t i =
  if i < 0 || i >= t.batch_len then invalid_arg "Slab: slot outside the batch"

let buf t i =
  check_slot t i;
  t.bufs.((t.batch_start + i) mod Array.length t.bufs)

let len t i =
  check_slot t i;
  t.lens.((t.batch_start + i) mod Array.length t.bufs)

let batch_slot t i =
  check_slot t i;
  (t.batch_start + i) mod Array.length t.bufs

let release t =
  if t.batch_len = 0 then invalid_arg "Slab.release: no outstanding batch";
  t.head <- t.head + t.batch_len;
  t.batch_len <- 0
