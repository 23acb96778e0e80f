(** Zero-allocation ingest ring.

    A preallocated ring of fixed-capacity [Bytes.t] buffers plus a length
    array.  The producer blits wire bytes into the next free slot (or
    leases it and fills it in place, e.g. from a socket read) and
    publishes the index; the consumer dequeues whole index runs with
    {!pop_batch}, processes them in place, and hands the run back with
    {!release}.  Steady-state ingest moves bytes only — no per-packet
    allocation on either side.

    Single-producer / single-consumer.  Producers block while the ring
    is full, {!pop_batch} blocks while it is empty, and {!close} releases
    every waiter.

    The slab is mutex-based and meant for one domain (or a producer
    thread that may block).  Its lock-free cross-domain sibling is
    {!Spsc} — same slot-ring shape, but atomics-only hand-off for the
    shard's per-worker rings. *)

type t

val create : ?slot_bytes:int -> capacity:int -> unit -> t
(** [create ~capacity ()] preallocates [capacity] slots of [slot_bytes]
    (default 2048) bytes each.  Raises [Invalid_argument] unless both are
    positive. *)

val capacity : t -> int
val slot_bytes : t -> int

val length : t -> int
(** Slots currently in flight (published and not yet released). *)

val close : t -> unit
(** Idempotent.  Producers return [false] / [None] once closed; the
    consumer drains what remains, then {!pop_batch} returns [0]. *)

val is_closed : t -> bool

(** {2 Producer side} *)

val push : t -> ?off:int -> ?len:int -> string -> bool
(** Blit one packet (or the window [pkt.(off .. off+len-1)]) into the
    next slot and publish it.  Blocks while the ring is full; [false] if
    the slab is closed.  Raises [Invalid_argument] if the window is out
    of bounds or longer than {!slot_bytes}. *)

val push_batch : t -> string array -> int -> bool
(** [push_batch t pkts n] publishes [pkts.(0 .. n-1)] as whole index
    runs, taking the lock once per free run rather than per packet.
    Blocks as needed; [false] if the slab closed before all [n] were
    published. *)

val lease : t -> Bytes.t option
(** Borrow the next free slot to fill in place (zero-copy ingest from a
    socket read).  Blocks while the ring is full; [None] if closed.  At
    most one lease may be outstanding; a second {!lease} — or any [push]
    while leased — raises [Invalid_argument]. *)

val publish : t -> int -> unit
(** Publish the leased slot with the given byte length.  Raises
    [Invalid_argument] without an outstanding lease or if the length
    exceeds {!slot_bytes}. *)

val abandon : t -> unit
(** Return the leased slot unpublished. *)

(** {2 Contiguous-run lease}

    The batched socket path ([recvmmsg]) fills many slots with one
    syscall: lease a whole run of free slots, let the kernel scatter
    datagrams straight into their buffers (lengths land in
    {!raw_lens}), then publish only the prefix that was filled.  The
    run is contiguous in array index space — it never wraps the ring
    seam — so a C stub may walk [raw_bufs]/[raw_lens] linearly from
    {!producer_slot}. *)

val lease_run : t -> max:int -> int
(** Lease up to [max] contiguous free slots starting at
    {!producer_slot}.  Returns the run length, [0] when the ring is
    full or closed — unlike {!lease} this never blocks; the socket
    loop owns the drop policy.  Raises [Invalid_argument] if a lease
    is already outstanding or [max <= 0]. *)

val producer_slot : t -> int
(** Array index of the first slot of the leased run (producer thread
    only; stable while the lease is outstanding). *)

val publish_run : t -> n:int -> unit
(** Publish the first [n] slots of the leased run — their lengths must
    already be stored in {!raw_lens} — and return the rest unfilled.
    [n = 0] abandons the whole run.  Raises [Invalid_argument] without
    an outstanding run, if [n] exceeds it, or if a published slot's
    recorded length is outside [0 .. slot_bytes]. *)

val raw_bufs : t -> Bytes.t array
val raw_lens : t -> int array
(** The backing slot arrays, exposed for the C-stub boundary (iovec
    construction and kernel-written datagram lengths).  Outside a
    leased run / claimed batch their contents are unstable; treat them
    as write-targets for the current lease only. *)

(** {2 Consumer side} *)

val pop_batch : t -> max:int -> int
(** Claim the next run of up to [max] published slots.  Blocks while the
    slab is empty and open; [0] means closed and drained.  The claimed
    slots stay owned by the consumer — readable via {!buf} / {!len}
    without locking — until {!release}.  Raises [Invalid_argument] if the
    previous batch has not been released (lease/return discipline). *)

val buf : t -> int -> Bytes.t
(** [buf t i] is the buffer of the [i]th slot of the current batch.
    Raises [Invalid_argument] outside [0 .. batch-1]. *)

val len : t -> int -> int
(** Published byte length of the [i]th slot of the current batch. *)

val batch_slot : t -> int -> int
(** Absolute array index of the [i]th slot of the current batch — the
    key under which a batched socket loop filed per-slot sidecar state
    (source address, owning listener) at ingest time. *)

val release : t -> unit
(** Hand the current batch's slots back to the producer.  Raises
    [Invalid_argument] if no batch is outstanding. *)
