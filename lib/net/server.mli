(** The socket front end: real traffic through the fused engine.

    A server owns a set of nonblocking listeners and the engine that
    answers them: one {!Netdsl_engine.Pipeline} built from a
    {!Netdsl_engine.Flight.spec}, or, sharded, one per worker, each
    behind its own sockets.  [?mode] is ignored: it is kept only so the
    serve benchmark's programs, which pass [~mode:Fused], still build,
    and goes with the next change to the benchmark.

    {b One loop over one batch-I/O backend.}  [run] is a single event
    loop: check the stop flag, the packet budget and the deadline; sleep
    in the backend's readiness wait (no longer than the engine's next
    armed timer); make one pass over each hot listener; poll the timer
    wheel.  A pass leases a run of slab slots, has the backend receive
    into them (each slot's reply destination filed beside it), and
    serves the run before the next receive — engine, then one send of
    the staged replies, then release.  A pass takes at most
    [ring_capacity] packets, so a flooded listener cannot starve timers,
    the stop flag or the other listeners ({!Stats.t.hwm_drain}); a
    listener stays hot until a receive finds it dry.  The backend has two implementations, chosen
    by [~io]:
    - {b batched} ([Mmsg]; UDP only): a persistent edge-triggered
      [epoll] instance, one [recvmmsg] per run (the kernel writes
      lengths and source addresses straight into preallocated arrays),
      and one [sendmmsg] per run's replies, same-peer same-size replies
      grouped into UDP GSO messages ({!Mmsg.send}).  Steady state
      performs {e zero} OCaml allocation per packet and amortizes the
      syscall cost across the batch ({!Stats.t.hwm_pkts_per_syscall});
    - {b legacy} ([Legacy]): [select] plus [recvfrom]/[sendto], a batch
      of one datagram — the differential reference, the
      [NETDSL_NO_MMSG=1] fallback and the non-Linux path.  Its only
      per-packet garbage is the [sockaddr] the [Unix] binding boxes per
      [recvfrom].  TCP lives here: a connection carries a stream of
      [u16 big-endian length]-prefixed frames, cut into run slots, each
      frame one engine packet and each reply written back with the same
      prefix.  A connection with complete frames still buffered keeps
      its listener hot, so a burst longer than a run waits in the
      connection's buffer and is served in later runs.

    [io_batch] sizes the run — the slab, the receive batch and the reply
    staging — since every run is finished before the next read.

    Packets are processed strictly in receive order, each run to
    completion (decode → verify → step → respond) before the next starts
    — the run-to-completion ordering of the in-memory engine survives the
    socket boundary (DESIGN.md, "Syscall batching at the socket
    boundary").

    Backpressure is bounded and non-blocking, and the kernel socket
    buffer is the only queue: nothing is read before there is a slot for
    it, so no backend drops in user space on a full slab.  A reply the
    socket buffer refuses is dropped and counted
    ({!Stats.t.send_eagain}) rather than blocking the engine.  An
    oversized TCP frame closes its connection and counts a drop.  So does
    a datagram wider than [slot_bytes], on either backend: the rx slots
    are one byte wider than [slot_bytes], a datagram that fills one may
    have been cut by the kernel, and it is dropped whole rather than
    served as its prefix.

    {b Kernel pre-filter.}  [create] compiles the format's fixed-offset
    wire checks ({!Netdsl_format.Bpf.compile}) and attaches the program
    to every UDP socket, on both backends, sharded or not; it is always
    on.  A datagram the program rejects is dropped by the kernel before
    it wakes the loop, costs a receive or takes a slot; it shows only in
    {!Stats.t.kernel_drops}.  The program checks a subset of what the
    engine verifies (the engine keeps every check), so it never drops a
    packet the engine would accept.

    {b Sharded mode} ([~workers] > 1, UDP only): [workers] copies of
    the one serve loop, each with its own sockets, backend, slab and
    pipeline, each on its own domain during {!run}.  Each endpoint gets
    one [SO_REUSEPORT] socket per worker, all in one group, and the
    kernel picks the socket of every datagram with a classic-BPF program
    compiled from the flow key ({!Netdsl_format.Bpf.steering}): the key
    reduced to a worker by {!Netdsl_format.Bpf.steer}'s rule, so every packet of a flow
    reaches the worker that owns the flow's machine instance, and a
    datagram too short for the key reaches worker 0.  The program is
    attached before the group's first bind, so the kernel's own hash
    never picks a socket.  A worker replies from the socket the request
    arrived on, through its own batched flush.  Run-to-completion
    ordering holds {e per flow} rather than globally.  A flow never
    moves: a skewed flow mix loads its owners unevenly.  A single worker
    sets no [SO_REUSEPORT].

    Graceful shutdown: SIGINT/SIGTERM handlers are installed {e before}
    the sockets are bound (a signal during bring-up still reaches the
    stats report), and set a stop flag the loop checks between passes.
    On stop the loop makes one last nonblocking readiness wait and one
    pass over every ready listener — datagrams the kernel already holds
    are answered and their replies sent — and returns, so {!run} always
    hands control (and the counters) back to the caller. *)

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

    [workers] (default 1) > 1 enables sharded mode: that many workers,
    each serving on its own domain while {!run} runs.  Requires UDP-only
    listeners and a steering key — [shard_key] names the field,
    defaulting to the flight spec's own flow key; a spec without one, or
    a key {!Netdsl_format.Bpf.steering} cannot compile, is an error, and
    so is a kernel that refuses the steering program.  Counts above
    [Domain.recommended_domain_count ()] are clamped unless
    [allow_oversubscribe] (either way a {!Netdsl_engine.Stats} warning
    is recorded on every worker:
    {!Netdsl_engine.Stats.clamp_workers}).

    [tick_ms] (default 1) is the timer granularity handed to every
    pipeline ({!Netdsl_engine.Pipeline.create}); it only matters when
    [machine] declares [timeout] clauses.  The loop caps its sleep at
    the engine's next armed deadline
    ({!Netdsl_engine.Pipeline.next_timer_ms}) and polls the wheel after
    every wake, so expirations fire on time on an idle socket; each
    sharded worker does the same with its own wheel.

    [stack] serves a layered chain: the pipeline decodes each datagram
    through the fused {!Netdsl_format.Stack} plan and the flight spec
    (all fields ["layer.field"]-qualified) patches replies inside layer
    windows — see {!Netdsl_engine.Pipeline.create}.  [fmt] should be
    the chain's outermost format.

    [io] (default [Auto]) selects the backend; [io_batch] (default 32,
    must be positive) is the run: the slab's slot count, the most
    datagrams one [recvmmsg]/[sendmmsg] call moves (the legacy backend
    receives one datagram per call) and the reply staging window.
    [Mmsg] requires UDP-only listeners and working stubs ([Error]
    otherwise); [Auto] quietly picks legacy when they are missing or a
    listener is TCP, so portable callers need not probe first.  Only the
    chosen backend's buffers are allocated. *)

val run : ?max_packets:int -> ?duration:float -> t -> int
(** Serve until a stop condition; returns the number of packets
    processed by this run.  Stop conditions, checked between drains:
    - [max_packets]: stop once this run has processed at least that
      many, counted over every worker ([0] returns without reading a
      socket — the deterministic cram path);
    - [duration]: stop after that many seconds;
    - {!request_stop} or SIGINT/SIGTERM: stop after a final nonblocking
      pass over every ready socket, so datagrams already queued in the
      kernel are still answered.
    Every packet received is processed and its reply sent before [run]
    returns — a stop never abandons in-flight runs.  Sharded, the
    workers' domains are spawned on entry and joined before [run]
    returns; each sees a stop or a spent budget at its next wake.  High-water marks reset on entry ({!Stats.reset_highwater});
    [run] may be called again on the same server. *)

val request_stop : t -> unit
(** Thread/domain-safe; also what the signal handlers call. *)

val bound : t -> (string * string * int) list
(** [(proto, host, port)] per listener, in [listeners] order, with the
    actual port after an ephemeral bind (sharded: the port every
    worker's socket shares). *)

val udp_port : t -> int option
(** Port of the first UDP listener (convenience for loopback tests). *)

val listener_stats : t -> (string * Stats.t) list
(** Live per-listener counters, labelled ["udp 127.0.0.1:9000"]-style,
    then an ["event loop"] row carrying the readiness syscalls
    ([select]/[epoll_wait]), which belong to the loop rather than any
    one socket.  Sharded, every worker socket has its own row, worker by
    worker (["udp 127.0.0.1:9000 (worker 1)"]), then every worker's
    event-loop row: what the kernel steered to a worker is its socket's
    [rx_pkts] and [kernel_drops].  Each UDP row's [kernel_drops] is refreshed
    here, one [getsockopt] per listener ({!Mmsg.socket_drops}); the
    loop never reads it. *)

val net_stats : t -> Stats.t
(** Every row of {!listener_stats} merged via {!Stats.merge}. *)

val filter : t -> Netdsl_format.Bpf.program option
(** The kernel pre-filter attached to every UDP listener: the format's
    fixed-offset wire checks compiled by {!Netdsl_format.Bpf.compile}.
    [None] when the format compiles to nothing, when there is no UDP
    listener, or when the kernel refused it (non-Linux builds). *)

val steering : t -> (string * Netdsl_format.Bpf.program) option
(** Sharded mode: the steering key and the program every endpoint's
    [SO_REUSEPORT] group runs ({!Netdsl_format.Bpf.steering}).  [None]
    with one worker. *)

val batched_io : t -> bool
(** Whether this server actually runs the [recvmmsg]/[sendmmsg] path
    (after [Auto] resolution). *)

val engine_stats : t -> Netdsl_engine.Stats.t
(** Sharded mode merges every worker's pipeline counters. *)

val processed : t -> int
(** Total packets processed since [create] (across runs). *)

val workers : t -> int
(** Worker count, after any clamping ([1] outside sharded mode). *)

(** Test-only entry points. *)
module For_testing : sig
  val refuse_gso_groups : t -> bool -> unit
  (** Make the kernel refuse every UDP GSO group the batched reply
      flush builds ({!Mmsg.For_testing.refuse_groups}): the first
      refusal re-sends its entries singly and turns grouping off for
      every worker.  No effect on the legacy backend. *)
end

val close : t -> unit
(** Close every socket and restore the previous signal handlers.
    Idempotent. *)
