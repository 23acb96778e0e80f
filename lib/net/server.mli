(** The socket front end: real traffic through the fused engine.

    A server owns one {!Netdsl_engine.Pipeline} (staged or fused, built
    from a {!Netdsl_engine.Flight.spec}) and a set of nonblocking
    listeners that feed it.  The event loop is select-based readiness +
    batch drain: each wake drains every readable socket into the
    engine's {!Netdsl_engine.Slab} — a UDP datagram is [recvfrom]'d
    straight into a leased slot (no copy), a TCP byte stream is reframed
    into length-prefixed datagrams and blitted in — then processes the
    published run to completion and sends each patched reply in place
    from the engine's reply window.  Steady state adds no allocation on
    the engine side; the only per-packet garbage is the [sockaddr] the
    [Unix] binding boxes per [recvfrom].

    Packets are processed strictly in the order their slots were
    published, one at a time, each run to completion (decode → verify →
    step → respond) before the next starts — the run-to-completion
    ordering of the in-memory engine survives the socket boundary (see
    DESIGN.md).

    Backpressure is bounded and non-blocking.  On the per-packet loop,
    when the slab has no free slot, the next datagram is read into a
    scratch buffer and dropped with {!Stats.t.drops} ticking — the
    engine is never blocked by the wire, and the kernel socket buffer
    (not an unbounded queue) absorbs the rest.  The batched path below
    never drops in user space: it serves each receive run before the
    next read, so its slab always has room, and the kernel socket
    buffer is the only queue.

    TCP support hides behind the same interface: a connection carries a
    stream of [u16 big-endian length]-prefixed frames, each frame one
    engine packet, each reply written back with the same prefix.

    {b Batched I/O} ([~io], UDP only): when the {!Mmsg} stubs report the
    kernel supports them, the loop swaps [select]+[recvfrom]/[sendto]
    for a persistent edge-triggered [epoll] instance plus
    [recvmmsg]/[sendmmsg]: one wake leases a contiguous run of slab
    slots, one [recvmmsg] fills them all (the kernel writes lengths and
    source addresses directly into preallocated arrays), and replies are
    staged into a reusable transmit window flushed with one [sendmmsg].
    Steady state performs {e zero} OCaml allocation per packet and
    amortizes the syscall cost across the batch
    ({!Stats.t.hwm_pkts_per_syscall}).  Each run is served to
    completion (engine, reply flush, slot release) before the next
    [recvmmsg], so [io_batch] sizes the ingest slab as well as the
    receive and reply batches; [ring_capacity] is only the per-pass
    budget — one listener pass serves at most that many packets before
    the loop polls timers, checks the stop flag and visits the other
    listeners ({!Stats.t.hwm_drain}).  The ordering invariant is
    unchanged: a batch drain publishes slots in kernel receive order, so
    per-flow arrival order into the slab — and run-to-completion
    processing order — are exactly what the per-packet path gives
    (DESIGN.md, "Syscall batching at the socket boundary").

    {b Sharded mode} ([~workers] > 1, UDP only): the select loop becomes
    a pure steering stage — it reads each datagram into scratch, reads
    the flow key at its fixed wire offset (no decode), and blits the
    packet once into the owner worker's lock-free {!Netdsl_engine.Spsc}
    ring; one pipeline per worker domain drains its ring and sends each
    reply with [sendto] from its own domain (datagrams are atomic, so
    replies never interleave mid-packet).  Steering follows
    {!Netdsl_engine.Shard.Steer} exactly: Fibonacci-hashed buckets,
    per-flow worker affinity, optional fenced bucket stealing.  Run-to-
    completion ordering holds {e per flow} rather than globally.  A full
    worker ring drops the datagram (counted) instead of blocking the
    listener.

    Graceful shutdown: SIGINT/SIGTERM handlers are installed {e before}
    the sockets are bound (a signal during bring-up still reaches the
    stats report), and set a stop flag the loop checks between drains.
    On stop the loop performs one final nonblocking sweep of every
    socket, drains the slab to empty — flushing replies — and returns,
    so {!run} always hands control (and the counters) back to the
    caller. *)

type endpoint =
  | Udp of { host : string; port : int }
  | Tcp of { host : string; port : int }
      (** [host] must be a numeric address ("127.0.0.1", "0.0.0.0", …);
          [port] 0 binds an ephemeral port (see {!bound}). *)

type io =
  | Auto  (** batched I/O when the stubs work here, legacy otherwise *)
  | Legacy  (** force [select] + [recvfrom]/[sendto] *)
  | Mmsg
      (** force [epoll] + [recvmmsg]/[sendmmsg]; [create] errors when
          the kernel (or [NETDSL_NO_MMSG]) says no, rather than
          silently degrading *)

type t

val create :
  ?config:Netdsl_engine.Pipeline.config ->
  ?mode:Netdsl_engine.Pipeline.mode ->
  ?stack:Netdsl_format.Stack.t ->
  ?machine:Netdsl_fsm.Machine.t ->
  ?tick_ms:int ->
  ?signals:bool ->
  ?workers:int ->
  ?allow_oversubscribe:bool ->
  ?stealing:bool ->
  ?shard_key:string ->
  ?io:io ->
  ?io_batch:int ->
  flight:Netdsl_engine.Flight.spec ->
  listeners:endpoint list ->
  Netdsl_format.Desc.t ->
  (t, string) result
(** Build the pipeline, install signal handlers (unless [~signals:false]
    — library embeddings and tests must not hijack process signals),
    then bind every listener.  [Error msg] — with every partial effect
    undone — on an empty listener list, an out-of-range port, an
    unparseable host, or a socket/bind failure.

    [workers] (default 1) > 1 enables sharded mode: that many pipelines
    on their own domains (spawned here, joined by {!close}).  Requires
    UDP-only listeners and a steering key — [shard_key] names the field,
    defaulting to the flight spec's own flow key; a spec without one is
    an error.  Counts above [Domain.recommended_domain_count ()] are
    clamped unless [allow_oversubscribe] (either way a {!Netdsl_engine.Stats}
    warning is recorded on every worker).  [stealing] turns on fenced
    bucket stealing for skewed flow mixes
    ({!Netdsl_engine.Shard.Steer}) — note a stolen flow re-mints its
    machine instance on the new owner.

    [tick_ms] (default 1) is the timer granularity handed to every
    pipeline ({!Netdsl_engine.Pipeline.create}); it only matters when
    [machine] declares [timeout] clauses.  The single-worker select loop
    caps its sleep at the engine's next armed deadline
    ({!Netdsl_engine.Pipeline.next_timer_s}) and polls the wheel after
    every sweep, so expirations fire on time on an idle socket; sharded
    workers each own a wheel and poll it between ring batches.

    [stack] serves a layered chain: the pipeline decodes each datagram
    through the fused {!Netdsl_format.Stack} plan and the flight spec
    (all fields ["layer.field"]-qualified) patches replies inside layer
    windows — see {!Netdsl_engine.Pipeline.create}.  Requires
    [~mode:Fused]; [fmt] should be the chain's outermost format.

    [io] (default [Auto]) selects the receive loop; [io_batch]
    (default 32, must be positive) bounds the datagrams moved per
    [recvmmsg]/[sendmmsg] call and sizes the batched path's ingest slab
    and transmit staging window.  [Mmsg] requires UDP-only listeners
    and working stubs ([Error] otherwise); [Auto] quietly picks legacy
    when they are missing, so portable callers need not probe first. *)

val run : ?max_packets:int -> ?duration:float -> t -> int
(** Serve until a stop condition; returns the number of packets
    processed by this run.  Stop conditions, checked between drains:
    - [max_packets]: stop once this run has processed at least that
      many ([0] returns without reading a socket — the deterministic
      cram path);
    - [duration]: stop after that many seconds;
    - {!request_stop} or SIGINT/SIGTERM: stop after a final nonblocking
      sweep of every socket, so datagrams already queued in the kernel
      are still answered.
    Every packet ingested into the slab is processed and its reply
    flushed before [run] returns — a stop never abandons in-flight
    batches.  High-water marks reset on entry ({!Stats.reset_highwater});
    [run] may be called again on the same server. *)

val request_stop : t -> unit
(** Thread/domain-safe; also what the signal handlers call. *)

val bound : t -> (string * string * int) list
(** [(proto, host, port)] per listener, in [listeners] order, with the
    actual port after an ephemeral bind. *)

val udp_port : t -> int option
(** Port of the first UDP listener (convenience for loopback tests). *)

val listener_stats : t -> (string * Stats.t) list
(** Live per-listener counters, labelled ["udp 127.0.0.1:9000"]-style.
    Sharded mode appends one ["worker N (tx)"] row per worker: replies
    leave from worker domains and are counted there, never on a
    listener.  A final ["event loop"] row carries the readiness
    syscalls ([select]/[epoll_wait]), which belong to the loop rather
    than any one socket. *)

val net_stats : t -> Stats.t
(** All listeners (plus the event-loop row and, sharded, all worker tx
    rows) merged via {!Stats.merge}. *)

val batched_io : t -> bool
(** Whether this server actually runs the [recvmmsg]/[sendmmsg] path
    (after [Auto] resolution). *)

val engine_stats : t -> Netdsl_engine.Stats.t
(** Sharded mode merges every worker pipeline and folds in the steering
    stage's unkeyed count ({!Netdsl_engine.Stats.unkeyed}). *)

val processed : t -> int
(** Total packets processed since [create] (across runs). *)

val workers : t -> int
(** Worker-domain count ([1] outside sharded mode). *)

val steals : t -> int
(** Flow-hash buckets migrated by work stealing so far ([0] unless
    sharded with [~stealing:true]). *)

(** Test-only entry points. *)
module For_testing : sig
  val refuse_gso_groups : t -> bool -> unit
  (** Make the kernel refuse every UDP GSO group the batched reply
      flush builds ({!Mmsg.For_testing.refuse_groups}): the first
      refusal re-sends its entries singly and turns grouping off for
      this server.  No effect off the batched single-worker path. *)
end

val close : t -> unit
(** Close every socket and restore the previous signal handlers; in
    sharded mode, first close the worker rings and join the domains
    (the backlog is drained, replies flushed).  Idempotent. *)
