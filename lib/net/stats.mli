(** Per-listener socket-side counters.

    The engine's {!Netdsl_engine.Stats} counts what happens to a packet
    {e inside} the pipeline (per-stage packets/bytes/rejects); this
    module counts what happens at the wire: datagrams received and sent,
    datagrams dropped under backpressure or by the kernel, sends refused by a full socket
    buffer, and short writes on the TCP framing path.  One [t] per
    listener; {!merge} folds them into the server-wide view the CLI
    prints on exit — including on a SIGINT/SIGTERM exit.

    Counters are cumulative for the listener's lifetime.  The two
    high-water marks ([hwm_drain], the most packets one listener pass
    drained, and [hwm_datagram], the largest datagram seen) are per-run observations: {!reset_highwater} clears them and
    [Server.run] calls it on entry, mirroring the reply-buffer
    high-water reset of the engine. *)

type t = {
  mutable rx_pkts : int;
  mutable rx_bytes : int;
  mutable tx_pkts : int;
  mutable tx_msgs : int;
      (** messages handed to the kernel for those [tx_pkts] datagrams:
          one per datagram, except a UDP GSO run of staged replies,
          which is one message for the whole run ({!Mmsg.send}), so
          [tx_pkts / tx_msgs] is the datagrams-per-message ratio *)
  mutable tx_bytes : int;
  mutable drops : int;
      (** packets discarded in user space: an oversized TCP frame,
          which also closes its connection, or an oversized datagram:
          one wider than a slot is discarded whole rather than served
          as its slot-sized prefix.  Never a full ingest slab: every run is
          finished before the next read, so the kernel socket buffer is
          the only queue *)
  mutable kernel_drops : int;
      (** datagrams the kernel discarded before they reached the socket
          queue: socket-filter rejects (the format's compiled pre-filter,
          [Server.create]) plus receive-buffer overflow.  Read from the
          socket's [SO_MEMINFO] drop counter when the stats are read
          ([Server.listener_stats]), never per packet; cumulative for the
          socket's life; 0 where the kernel does not report it *)
  mutable send_eagain : int;
      (** replies dropped because the socket buffer was full
          ([EAGAIN]/[EWOULDBLOCK] on a nonblocking send) *)
  mutable short_writes : int;  (** partial sends (TCP frame splits) *)
  mutable tx_errors : int;  (** sends refused for any other reason *)
  mutable conns_accepted : int;  (** TCP connections accepted *)
  mutable conns_closed : int;  (** TCP connections closed (either end) *)
  mutable hwm_drain : int;
      (** most packets one listener pass received this run — served or
          steered run by run as they are read, at most [ring_capacity]
          (the per-pass budget) *)
  mutable hwm_datagram : int;  (** largest datagram seen this run *)
  mutable syscalls : int;
      (** kernel round trips charged to this listener (or, for the
          server's event-loop row, readiness waits): every recv/send —
          including ones that return [EAGAIN] — plus [select] /
          [epoll_wait] calls.  [rx_pkts + tx_pkts] over [syscalls] is
          the batching amortization the mmsg path exists to buy. *)
  mutable batched_rx : int;
      (** datagrams that arrived through a [recvmmsg] batch *)
  mutable batched_tx : int;
      (** replies that left through a [sendmmsg] batch *)
  mutable hwm_pkts_per_syscall : int;
      (** largest single-syscall batch observed this run (either
          direction) — per-run like the other high-water marks *)
}

val create : unit -> t
val reset_highwater : t -> unit

val merge_into : into:t -> t -> unit
(** Counters add; high-water marks take the maximum. *)

val merge : t list -> t
(** Fold into a fresh [t] (the inputs are untouched). *)

val to_text : t -> string
(** Three aligned lines, deterministic for a given counter state. *)
