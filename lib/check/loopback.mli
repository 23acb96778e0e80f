(** Loopback soak harness: the socket leg of the differential oracle.

    A {!Netdsl_net.Server} runs on its own domain behind a real UDP
    socket bound to 127.0.0.1; the client (the calling domain) sends generated packets
    through the kernel and diffs every reply byte-for-byte against
    {!Oracle.Reply_ref} — the same flight spec driven
    through the in-memory {!Reference} executor.  A packet whose reference reply is
    [None] must produce {e no} datagram; any stray reply left on the
    socket at the end of a run is a disagreement too.

    {!soak} is the correctness leg: bursts of 16 packets, each burst's
    replies awaited in order before the next, valid + mutated traffic,
    zero expected disagreements.
    {!blast} is the throughput leg: valid traffic only, a bounded window
    of outstanding packets, reporting pkts/s through the socket path.

    Both measure the server domain's own allocation rate after a warmup
    run (its minor words by [Gc.minor_words] plus its direct major
    allocations, before/after the measured run, divided by packets
    processed — allocation by the client domain, and the collections it
    triggers, do not count): the engine side stays at 0 B/pkt (the engine tests gate it),
    so what remains is the [Unix] syscall wrapper — the per-[recvfrom]
    [sockaddr] boxing — reported honestly, not hidden. *)

type result_ = {
  sent : int;
  replies : int;  (** datagrams read back off the socket *)
  expected_replies : int;  (** packets the reference model answers *)
  disagreements : int;
  first_disagreement : string option;
  server_processed : int;
  filtered : int;
      (** packets sent that the server's kernel pre-filter drops, as
          {!Bpf_oracle} predicts them ({!Netdsl_net.Server.filter}): the
          server processes [sent - filtered], and its socket's
          [net.kernel_drops] counts the same [filtered] when no receive
          buffer overflowed *)
  alloc_bytes_per_pkt : float;
      (** server-domain bytes allocated per packet, post-warmup *)
  elapsed_s : float;
  net : Netdsl_net.Stats.t;
      (** the server's merged socket counters, [kernel_drops] included *)
}

val soak :
  ?machine:Netdsl_fsm.Machine.t ->
  ?config:Netdsl_engine.Pipeline.config ->
  ?warmup:int ->
  ?io:Netdsl_net.Server.io ->
  ?io_batch:int ->
  flight:Netdsl_engine.Flight.spec ->
  packets:(int -> string) ->
  count:int ->
  Netdsl_format.Desc.t ->
  (result_, string) result
(** Differential run of [count] packets ([packets i] is the
    [i]th wire message; mix valid and mutated freely — rejected packets
    are expected to stay silent).  The server is diffed against the
    {!Reference} executor running its own spec.  The server restarts its loop once after [warmup] packets (default
    [count/5], capped at 2000) to exercise run-twice restart and scope
    the allocation measurement to steady state.  The client sends 16
    packets back to back, then reads their replies in order (one socket
    pair delivers in order, so the [j]th reply read belongs to the
    [j]th answered packet): a batched server stages several replies per
    flush, and the diff covers grouped (GSO) sends too.  [io]/[io_batch]
    select the server's receive loop ({!Netdsl_net.Server.create}); the
    client is the same either way, so [~io:Mmsg] diffs the batched drain/flush
    path against the same in-memory reference. *)

val blast :
  ?machine:Netdsl_fsm.Machine.t ->
  ?config:Netdsl_engine.Pipeline.config ->
  ?warmup:int ->
  ?stack:Netdsl_format.Stack.t ->
  ?io:Netdsl_net.Server.io ->
  ?io_batch:int ->
  ?window:int ->
  flight:Netdsl_engine.Flight.spec ->
  packets:(int -> string) ->
  count:int ->
  Netdsl_format.Desc.t ->
  (result_, string) result
(** Throughput run: keep up to [window] (default 64) packets
    outstanding, never inspecting reply bytes (that is {!soak}'s job —
    here every [packets i] must be accepted and answered, or the run
    under-counts).  [replies/elapsed_s] is the socket-path packet rate;
    both domains share whatever cores the host has, which on a 1-core
    box oversubscribes — callers report that caveat.  [stack] serves a
    layered chain (flight operands become
    qualified ["layer.field"] names); [fmt] must then be the stack's
    outermost format.  [io]/[io_batch] select the server's receive
    loop; forcing [~io:Mmsg] also switches the {e client} to a
    connected-socket [sendmmsg]/[recvmmsg] batch of [io_batch]
    (default 32) — otherwise the per-packet sender caps the measurement
    below what the batched server can absorb. *)

(** {2 Lossy virtual-time loopback}

    The deterministic leg of the timer story: a pipeline (or several,
    modelling sharded workers) driven entirely in virtual milliseconds,
    with one {!Netdsl_sim.Channel} — the same drop models the simulator
    uses — standing between the caller and the engine.  [inject]
    delivers a packet immediately (the reliable direction); [send]
    routes it through the lossy channel, which may drop, duplicate,
    corrupt or delay it.  {!run} advances the clock one millisecond at a
    time: released deliveries are processed first, then every worker's
    timer wheel is polled (expirations fire through the ordinary step
    stage), then [on_tick] lets the caller act on what it observes via
    {!peek}.  Every draw comes from one seeded PRNG, so a run is a pure
    function of its seed — and a [workers:2] run issues the identical
    channel-draw sequence as a [workers:1] run of the same schedule,
    making per-flow shard-vs-single comparison exact. *)
module Lossy : sig
  type t

  val create :
    ?workers:int ->
    ?tick_ms:int ->
    ?channel:Netdsl_sim.Channel.config ->
    ?seed:int64 ->
    machine:Netdsl_fsm.Machine.t ->
    flight:Netdsl_engine.Flight.spec ->
    Netdsl_format.Desc.t ->
    t
  (** [workers] (default 1) pipelines each own a wheel and run
      [flight].  The spec's flow key keys
      the machine instances and routes packets: it is read from the
      wire bytes ({!Netdsl_format.View.key_extractor}) and hashed by
      {!Netdsl_format.Bpf.steer} — the partition the sharded server's
      kernel steering program computes.  Raises [Invalid_argument] when
      the spec has no flow key or the format cannot extract it. *)

  val now : t -> int
  val workers : t -> int

  val inject : t -> string -> Netdsl_engine.Pipeline.outcome
  (** Deliver one packet to its owning pipeline at the current tick. *)

  val send : t -> string -> unit
  (** Hand one packet to the lossy channel; if it survives, it is
      delivered (possibly late, possibly twice) during a later {!run}
      tick. *)

  val run : t -> until:int -> on_tick:(int -> unit) -> unit
  (** Advance virtual time tick by tick to [until]: per tick, flush the
      channel's due deliveries, poll every worker's wheel, then call
      [on_tick now]. *)

  val peek : t -> int -> Netdsl_fsm.Step.instance option
  (** The flow's live machine instance on its owning worker (no LRU
      touch), given the flow key — [None] until first contact. *)

  val pipelines : t -> Netdsl_engine.Pipeline.t array
  val stats : t -> Netdsl_engine.Stats.t
  (** Merged engine counters across all workers ({!Netdsl_engine.Stats.merge}
      folds the timer counters, so expirations are counted once). *)

  val channel_stats : t -> Netdsl_sim.Channel.stats
end
