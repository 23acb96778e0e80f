(** Batched kernel I/O: [recvmmsg] / [sendmmsg] / persistent [epoll].

    The first C stubs in the tree.  A {!t} owns preallocated C-side
    [mmsghdr] / [iovec] / [sockaddr_storage] arrays sized to the slab
    ring, so one syscall scatters a whole batch of datagrams straight
    into leased {!Netdsl_engine.Slab} slots (or gathers a batch of
    staged replies out) with zero per-packet allocation on the OCaml
    side.  Hot-path calls return ints by the shared convention:

    - [r >= 0] — datagrams moved / events ready;
    - [-1] ({!eagain}) — nothing to do right now (EAGAIN / EINTR);
    - [-2] ({!unavailable}) — the syscall does not exist here (ENOSYS,
      pre-2.6.33 kernel, or a non-Linux build);
    - [-3] — any other socket error; callers count it and drop rather
      than raise on the hot path.

    The sockets involved must be non-blocking (the stubs also pass
    [MSG_DONTWAIT]): the runtime lock stays held across recv/send so
    the naked buffer pointers cannot be moved by a stop-the-world GC,
    which is only sound because the calls cannot block.
    [Epoll.wait] is the one call that may sleep, and it releases the
    lock around the kernel wait. *)

type t

val create : int -> t
(** [create slots] allocates the reusable C arrays ([slots] must cover
    the slab ring: rx source addresses are filed by absolute slot
    index and must survive until that slot's reply is flushed).
    Raises [Failure] on non-Linux builds — check {!available} first. *)

val available : unit -> bool
(** Runtime probe: true iff [recvmmsg] answers on this kernel {e and}
    the [NETDSL_NO_MMSG] environment kill switch is not set. *)

val recv :
  t -> Unix.file_descr -> bufs:Bytes.t array -> lens:int array -> base:int ->
  count:int -> int
(** Drain up to [count] datagrams into [bufs.(base .. base+count-1)]
    (a contiguous leased slab run), writing kernel lengths into
    [lens.(base ..)] and source addresses into the C slots of the same
    indices.  Returns the number received or a negative code; a
    datagram that fills its whole buffer is not among them
    ({!last_recv_oversized}). *)

val send :
  t -> Unix.file_descr -> bufs:Bytes.t array -> lens:int array ->
  addr_idx:int array -> off:int -> n:int -> int
(** Flush staging entries [off .. off+n-1]: [bufs.(i)] holds
    [lens.(i)] bytes for the address in C slot [addr_idx.(i)]
    ([-1] = connected socket).  Returns how many {e datagrams} the
    kernel accepted — resume from [off + sent] on a partial send.

    Reply runs leave as one UDP GSO message where the kernel supports
    it ({!gso_available}).  A run is consecutive entries with an
    address slot ([addr_idx >= 0]), byte-identical destination
    sockaddrs and equal lengths; the last entry may be shorter, which
    ends the run.  The run's message gathers the entries' own buffers
    (no copy) and carries a [UDP_SEGMENT] cmsg: the kernel walks its
    UDP/IP output path once and cuts the datagrams after it, so the
    peer still receives one datagram per entry, in order.  Runs stop at
    64 segments and 65 000 bytes, and only entries of 1..1472 bytes
    (1452 towards IPv6) group, so no segment outgrows a 1500-byte MTU;
    zero-length and wider entries go out alone.  Connected-socket
    entries ([-1]) are never grouped: they are the load generators'
    sends, one message per datagram, so a client measures the same
    thing on either side of this optimisation.  If the kernel refuses
    a group (EINVAL, EIO, ENOPROTOOPT, EMSGSIZE: no segmentation
    support, or a route MTU too small for the segment), grouping stops
    on this batch for good and the entries are re-sent one datagram per
    message within the same call — nothing is lost or sent twice.  A
    refusal that comes after earlier messages went out is not reported
    by [sendmmsg] (it returns the count sent); the caller's resume from
    [off + sent] meets the group first and takes the same path. *)

val last_recv_oversized : t -> int
(** Datagrams the last {!recv} on this batch discarded as oversized
    ([@@noalloc]).  A datagram that fills its whole buffer may have been
    cut by the kernel, so callers size the buffers one byte wider than
    the largest packet they serve: a datagram that fills one is
    discarded, the datagrams after it in the run move down over its
    slot (buffer, length and source address), and {!recv}'s count
    leaves it out.  The caller counts these as drops. *)

val last_send_msgs : t -> int
(** Messages the kernel accepted in the last {!send} on this batch
    ([@@noalloc]): equal to its datagram count when nothing grouped,
    smaller by what GSO saved. *)

val last_send_calls : t -> int
(** [sendmmsg] calls the last {!send} on this batch made ([@@noalloc]):
    [1], or [2] when a refused group was re-sent. *)

val gso_available : unit -> bool
(** Whether this kernel segments UDP ([UDP_SEGMENT], Linux 4.18+).
    {!create} probes the same way; without it {!send} never groups
    (an older kernel would ignore the cmsg and merge the run into one
    datagram). *)

(** Test-only entry points. *)
module For_testing : sig
  val refuse_groups : t -> bool -> unit
  (** While on, every group {!send} builds carries a malformed
      [UDP_SEGMENT] cmsg, so the kernel really refuses it (EINVAL) and
      {!send} reacts as to any refusal: it re-sends the entries one
      datagram per message and stops grouping on this batch. *)
end

val attach_filter : Unix.file_descr -> Netdsl_format.Bpf.program -> bool
(** Install a classic-BPF socket filter ([SO_ATTACH_FILTER]); the kernel
    then runs it on every datagram before queueing it to the socket.
    [false] where the option does not exist (non-Linux builds) or the
    kernel refuses the program.  Works on any socket, whichever backend
    reads it. *)

val attach_steering : Unix.file_descr -> Netdsl_format.Bpf.program -> bool
(** Install a classic-BPF socket-selection program on the socket's
    [SO_REUSEPORT] group ([SO_ATTACH_REUSEPORT_CBPF]): for each datagram
    the group receives, the kernel runs it (offsets relative to the UDP
    payload) and queues the datagram to the socket whose index in the
    group — its join order — the program returns.  Attached to an
    unbound [SO_REUSEPORT] socket, it takes effect from that socket's
    first bind.  [false] where the option does not exist or the kernel
    refuses the program. *)

val socket_drops : Unix.file_descr -> int
(** The socket's kernel drop counter ([SO_MEMINFO] slot
    [SK_MEMINFO_DROPS]): socket-filter rejects plus receive-buffer
    overflow, cumulative for the socket's life.  [-1] where the kernel
    does not report it.  One [getsockopt]: read it when reporting, never
    per packet. *)

val eagain : int
val unavailable : int

val now_ns : unit -> int
(** Allocation-free monotonic clock, integer nanoseconds ([@@noalloc] C
    stub over [clock_gettime(CLOCK_MONOTONIC)]; always compiled, not
    gated on {!available}).  The server injects it as the engine's
    [now_ns]/[clock_ms] so batch stage timing and timer polling never
    box a float — the default wall-clock readings would put
    [Unix.gettimeofday]'s boxed float on every batch. *)

val now_ms : unit -> int
(** {!now_ns} / 1e6 — a monotone [clock_ms] for {!Netdsl_engine.Pipeline}. *)

(** Persistent epoll instance with edge-triggered read interest.
    Fallback-free on Linux; non-Linux builds report unavailable and
    the server keeps its [Unix.select] loop. *)
module Epoll : sig
  type ep

  val create : int -> ep
  (** [create cap] — [cap] bounds events returned per {!wait}. *)

  val add : ep -> Unix.file_descr -> int -> unit
  (** Register [fd] with [EPOLLIN lor EPOLLET]; the int tag comes back
      from {!wait}.  Edge-triggered: the owner must drain to EAGAIN
      (or remember the fd is hot) after every wake. *)

  val wait : ep -> tags:int array -> timeout_ms:int -> int
  (** Ready tags land in [tags.(0 .. r-1)].  [-1] on EINTR.  Releases
      the runtime lock while sleeping. *)

  val close : ep -> unit
  val available : unit -> bool
end
