(** Zero-allocation batch window.

    A preallocated ring of fixed-capacity [Bytes.t] buffers plus a length
    array.  The owner leases a contiguous run of free slots, fills them
    in place (a [recvmmsg] scatters datagrams straight into their
    buffers), publishes the filled prefix, then pops whole index runs
    with {!pop_batch}, processes them in place, and hands each run back
    with {!release}.  Steady-state ingest moves bytes only — no
    per-packet allocation.

    Single-owner: one domain fills and drains a slab, so nothing here
    locks, waits or blocks — {!lease_run} returns [0] on a full ring and
    {!pop_batch} returns [0] on an empty one, and the owner decides what
    to do next.  Each slab belongs to one loop (one per [Net.Server]
    worker, one per [perfbench] client) and only the domain running that
    loop touches it: handing it over once before the loop starts, as
    [Domain.spawn] does, is safe; two domains using it at once is a data
    race.  The calls still check the lease/return discipline: a bad
    count, a second lease or batch, or a release without a batch raises
    [Invalid_argument]. *)

type t

val create : ?slot_bytes:int -> capacity:int -> unit -> t
(** [create ~capacity ()] preallocates [capacity] slots of [slot_bytes]
    (default 2048) bytes each.  Raises [Invalid_argument] unless both are
    positive. *)

val capacity : t -> int
val slot_bytes : t -> int

val length : t -> int
(** Slots currently in flight (published and not yet released). *)

(** {2 Filling: the contiguous-run lease}

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
    full.  Raises [Invalid_argument] if a lease is already outstanding
    or [max <= 0]. *)

val producer_slot : t -> int
(** Array index of the first slot of the leased run (stable while the
    lease is outstanding). *)

val publish_run : t -> n:int -> unit
(** Publish the first [n] slots of the leased run — their lengths must
    already be stored in {!raw_lens} — and return the rest unfilled.
    [n = 0] abandons the whole run.  Raises [Invalid_argument] without
    an outstanding run, if [n] exceeds it, or if a published slot's
    recorded length is outside [0 .. slot_bytes]; a refused publish
    drops the lease and publishes nothing. *)

val raw_bufs : t -> Bytes.t array
val raw_lens : t -> int array
(** The backing slot arrays, exposed for the C-stub boundary (iovec
    construction and kernel-written datagram lengths).  Outside a
    leased run / claimed batch their contents are unstable; treat them
    as write-targets for the current lease only. *)

(** {2 Draining} *)

val pop_batch : t -> max:int -> int
(** Claim the next run of up to [max] published slots and return its
    length; [0] when nothing is published (no batch is then
    outstanding, so there is nothing to {!release}).  The claimed slots
    are readable via {!buf} / {!len} until {!release}.  Raises
    [Invalid_argument] if [max <= 0] or the previous batch has not been
    released. *)

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
(** Hand the current batch's slots back for filling.  Raises
    [Invalid_argument] if no batch is outstanding. *)
