(* Zero-allocation ingest ring: a preallocated ring of fixed-capacity
   byte buffers plus a length array.  Producers blit wire bytes into the
   next free slot (or lease it and fill it in place) and publish the
   index; the consumer dequeues whole index runs and releases them when
   the batch is processed.  Steady-state ingest moves bytes only — no
   strings, no options, no per-packet allocation on either side.

   Single-producer / single-consumer.  [head] and [tail] are absolute
   counters (slot = counter mod capacity): [tail - head] slots are in
   flight, and the consumer's outstanding batch is the run
   [[head, head + batch_len)], which the producer cannot overwrite until
   {!release} advances [head].  Blocking is a staged spin → yield → wait
   backoff, and a closed slab releases every waiter.  For the cross-domain
   lock-free variant of this shape see [Spsc] (the shard's per-worker
   rings). *)

let spin_rounds = 4
let yield_rounds = 4

type t = {
  bufs : Bytes.t array;
  lens : int array;
  slot_bytes : int;
  mutable head : int; (* first unreleased slot (absolute counter) *)
  mutable tail : int; (* next slot to fill (absolute counter) *)
  mutable leased : bool;
  mutable lease_len : int; (* slots covered by the outstanding lease *)
  mutable batch_len : int; (* outstanding consumer batch; 0 = none *)
  mutable batch_start : int;
  mutable closed : bool;
  mu : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
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
    leased = false;
    lease_len = 0;
    batch_len = 0;
    batch_start = 0;
    closed = false;
    mu = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
  }

let capacity t = Array.length t.bufs
let slot_bytes t = t.slot_bytes

let backoff_wait t cond pred =
  let attempt = ref 0 in
  while not (pred ()) do
    if !attempt < spin_rounds then begin
      Mutex.unlock t.mu;
      for _ = 1 to 1 lsl !attempt do
        Domain.cpu_relax ()
      done;
      incr attempt;
      Mutex.lock t.mu
    end
    else if !attempt < spin_rounds + yield_rounds then begin
      Mutex.unlock t.mu;
      Thread.yield ();
      incr attempt;
      Mutex.lock t.mu
    end
    else Condition.wait cond t.mu
  done

let length t =
  Mutex.lock t.mu;
  let n = t.tail - t.head in
  Mutex.unlock t.mu;
  n

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mu

let is_closed t =
  Mutex.lock t.mu;
  let c = t.closed in
  Mutex.unlock t.mu;
  c

(* ---- producer side ---- *)

let free t = Array.length t.bufs - (t.tail - t.head)

let push t ?(off = 0) ?len pkt =
  let len = match len with None -> String.length pkt - off | Some l -> l in
  if off < 0 || len < 0 || off + len > String.length pkt then
    invalid_arg "Slab.push: window out of bounds";
  if len > t.slot_bytes then invalid_arg "Slab.push: packet exceeds slot_bytes";
  Mutex.lock t.mu;
  if t.leased then begin
    Mutex.unlock t.mu;
    invalid_arg "Slab.push: a slot is leased"
  end;
  backoff_wait t t.not_full (fun () -> free t > 0 || t.closed);
  if t.closed then begin
    Mutex.unlock t.mu;
    false
  end
  else begin
    let s = t.tail mod Array.length t.bufs in
    Bytes.blit_string pkt off t.bufs.(s) 0 len;
    t.lens.(s) <- len;
    t.tail <- t.tail + 1;
    Condition.signal t.not_empty;
    Mutex.unlock t.mu;
    true
  end

let push_batch t pkts n =
  if n < 0 || n > Array.length pkts then invalid_arg "Slab.push_batch: bad count";
  for i = 0 to n - 1 do
    if String.length pkts.(i) > t.slot_bytes then
      invalid_arg "Slab.push_batch: packet exceeds slot_bytes"
  done;
  Mutex.lock t.mu;
  if t.leased then begin
    Mutex.unlock t.mu;
    invalid_arg "Slab.push_batch: a slot is leased"
  end;
  let cap = Array.length t.bufs in
  let i = ref 0 and ok = ref true in
  (* one lock acquisition per free run: whole index runs are enqueued in
     bulk, the lock is only re-contended when the ring fills *)
  while !ok && !i < n do
    backoff_wait t t.not_full (fun () -> free t > 0 || t.closed);
    if t.closed then ok := false
    else begin
      let run = Int.min (free t) (n - !i) in
      for j = 0 to run - 1 do
        let pkt = pkts.(!i + j) in
        let s = (t.tail + j) mod cap in
        Bytes.blit_string pkt 0 t.bufs.(s) 0 (String.length pkt);
        t.lens.(s) <- String.length pkt
      done;
      t.tail <- t.tail + run;
      i := !i + run;
      Condition.signal t.not_empty
    end
  done;
  Mutex.unlock t.mu;
  !ok

let lease t =
  Mutex.lock t.mu;
  if t.leased then begin
    Mutex.unlock t.mu;
    invalid_arg "Slab.lease: slot already leased"
  end;
  backoff_wait t t.not_full (fun () -> free t > 0 || t.closed);
  if t.closed then begin
    Mutex.unlock t.mu;
    None
  end
  else begin
    t.leased <- true;
    t.lease_len <- 1;
    let b = t.bufs.(t.tail mod Array.length t.bufs) in
    Mutex.unlock t.mu;
    Some b
  end

let publish t len =
  Mutex.lock t.mu;
  if not t.leased then begin
    Mutex.unlock t.mu;
    invalid_arg "Slab.publish: no leased slot"
  end;
  if len < 0 || len > t.slot_bytes then begin
    t.leased <- false;
    Mutex.unlock t.mu;
    invalid_arg "Slab.publish: bad length"
  end;
  t.lens.(t.tail mod Array.length t.bufs) <- len;
  t.tail <- t.tail + 1;
  t.leased <- false;
  t.lease_len <- 0;
  Condition.signal t.not_empty;
  Mutex.unlock t.mu

let abandon t =
  Mutex.lock t.mu;
  if not t.leased then begin
    Mutex.unlock t.mu;
    invalid_arg "Slab.abandon: no leased slot"
  end;
  t.leased <- false;
  t.lease_len <- 0;
  Mutex.unlock t.mu

(* ---- contiguous-run lease (batched socket ingest) ----

   [recvmmsg] fills many slots with one syscall, so the producer leases a
   whole run of free slots at once.  The run never wraps the ring seam —
   the C stub indexes [bufs]/[lens] linearly from [producer_slot] — and
   the caller publishes only the prefix the kernel actually filled.
   Never blocks: a full ring returns 0 and the socket loop applies its
   own drop policy. *)

let lease_run t ~max =
  if max <= 0 then invalid_arg "Slab.lease_run: max must be positive";
  Mutex.lock t.mu;
  if t.leased then begin
    Mutex.unlock t.mu;
    invalid_arg "Slab.lease_run: a lease is outstanding"
  end;
  if t.closed then begin
    Mutex.unlock t.mu;
    0
  end
  else begin
    let cap = Array.length t.bufs in
    let seam = cap - (t.tail mod cap) in
    let k = Int.min (Int.min max (free t)) seam in
    if k > 0 then begin
      t.leased <- true;
      t.lease_len <- k
    end;
    Mutex.unlock t.mu;
    k
  end

(* Producer-thread-only; [tail] is stable while the run is leased. *)
let producer_slot t = t.tail mod Array.length t.bufs

let publish_run t ~n =
  Mutex.lock t.mu;
  if not t.leased then begin
    Mutex.unlock t.mu;
    invalid_arg "Slab.publish_run: no leased run"
  end;
  if n < 0 || n > t.lease_len then begin
    t.leased <- false;
    t.lease_len <- 0;
    Mutex.unlock t.mu;
    invalid_arg "Slab.publish_run: count outside the leased run"
  end;
  let cap = Array.length t.bufs in
  let bad = ref false in
  for i = 0 to n - 1 do
    let l = t.lens.((t.tail + i) mod cap) in
    if l < 0 || l > t.slot_bytes then bad := true
  done;
  if !bad then begin
    t.leased <- false;
    t.lease_len <- 0;
    Mutex.unlock t.mu;
    invalid_arg "Slab.publish_run: slot length out of range"
  end;
  t.tail <- t.tail + n;
  t.leased <- false;
  t.lease_len <- 0;
  if n > 0 then Condition.signal t.not_empty;
  Mutex.unlock t.mu

let raw_bufs t = t.bufs
let raw_lens t = t.lens

(* ---- consumer side ---- *)

let pop_batch t ~max =
  if max <= 0 then invalid_arg "Slab.pop_batch: max must be positive";
  Mutex.lock t.mu;
  if t.batch_len > 0 then begin
    Mutex.unlock t.mu;
    invalid_arg "Slab.pop_batch: previous batch not released"
  end;
  (* [backoff_wait]'s predicate argument would be a fresh closure per
     call; this is the consumer's per-batch hot path, so the backoff
     loop is open-coded to keep it allocation-free *)
  let attempt = ref 0 in
  while not (t.tail - t.head > 0 || t.closed) do
    if !attempt < spin_rounds then begin
      Mutex.unlock t.mu;
      for _ = 1 to 1 lsl !attempt do
        Domain.cpu_relax ()
      done;
      incr attempt;
      Mutex.lock t.mu
    end
    else if !attempt < spin_rounds + yield_rounds then begin
      Mutex.unlock t.mu;
      Thread.yield ();
      incr attempt;
      Mutex.lock t.mu
    end
    else Condition.wait t.not_empty t.mu
  done;
  let n = Int.min (t.tail - t.head) max in
  t.batch_start <- t.head;
  t.batch_len <- n;
  Mutex.unlock t.mu;
  n

(* Slot accessors run lock-free: the producer cannot reuse a slot of the
   outstanding batch until [release] advances [head]. *)

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
  Mutex.lock t.mu;
  if t.batch_len = 0 then begin
    Mutex.unlock t.mu;
    invalid_arg "Slab.release: no outstanding batch"
  end;
  t.head <- t.head + t.batch_len;
  t.batch_len <- 0;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mu
