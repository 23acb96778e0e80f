(** Lock-free single-producer / single-consumer slot ring.

    The per-worker hand-off lane of {!Shard}: a power-of-two array of
    preallocated byte slots with two atomic absolute counters ([head] =
    first unreleased position, [tail] = next position to publish).  The
    producer blits a packet into the tail slot and publishes it with one
    release store; the consumer claims a whole batch with one acquire
    load and releases it with one release store.  Slot bytes and lengths
    are plain (non-atomic) memory synchronised by the counter pairing — the message-passing idiom of the OCaml memory
    model (see DESIGN.md "SPSC memory ordering").  Nothing allocates
    after {!create}; neither side ever takes a lock.

    Single-producer / single-consumer is a {e contract}: exactly one
    thread may call the producer operations and exactly one (other)
    thread the consumer operations.  [length]/[is_closed] are safe from
    any thread.

    Positions are absolute (monotonically increasing); slot index =
    [pos land (capacity - 1)], and fullness is [tail - head = capacity]
    with no reserved slot. *)

type t

val create : ?slot_bytes:int -> capacity:int -> unit -> t
(** [capacity] is rounded up to a power of two.  [slot_bytes] (default
    2048) is the fixed size of every slot. *)

val capacity : t -> int
val slot_bytes : t -> int

(** {2 Producer side} *)

val has_space : t -> bool
(** True when at least one slot is free.  Refreshes the producer's
    cached view of [head] only when the ring looks full. *)

val slot : t -> Bytes.t
(** The slot the next {!publish} will hand off — blit the packet here
    ({e lease}).  Only valid to fill after {!has_space} returned true. *)

val publish : t -> int -> unit
(** [publish t len] publishes the leased slot: stores [len], then
    release-stores the new tail.  The slot must not be touched again
    until the consumer releases it. *)

val try_push : t -> ?off:int -> len:int -> string -> bool
(** Lease + blit + publish in one call; false (nothing written) when the
    ring is full. *)

val close : t -> unit
(** Producer is done; the consumer's {!poll} returns [-1] once drained. *)

(** {2 Consumer side} *)

val poll : t -> max:int -> int
(** Claim up to [max] published slots.  Returns the batch length, [0]
    when the ring is momentarily empty (retry after {!backoff}), or
    [-1] when the ring is closed {e and} fully drained.  At most one
    batch may be outstanding: {!release} the previous one first. *)

val buf : t -> int -> Bytes.t
(** [buf t i] — slot bytes of the [i]-th packet of the claimed batch.
    Read-only until {!release}; contents beyond [len t i] are stale. *)

val len : t -> int -> int

val release : t -> unit
(** Hand every slot of the claimed batch back to the producer (one
    release store).  After this the slot buffers must not be read. *)

(** {2 Any thread} *)

val is_closed : t -> bool

val length : t -> int
(** Published-but-unreleased slot count (approximate under concurrency:
    two independent atomic reads). *)

val backoff : int -> unit
(** Bounded wait for the [n]-th consecutive failed attempt: cpu_relax
    (n < 8), [Thread.yield] (n < 16), then a 50µs sleep — the sleep is
    what keeps oversubscribed boxes from livelocking. *)
