(** The batched packet pipeline: decode → verify → FSM-step → encode.

    One pipeline = one format, one {!Flight.spec} stating what happens to
    a packet (semantic verify predicate, event classifier, flow key,
    respond-by-patch rules), and an optional protocol machine (compiled
    once to a {!Netdsl_fsm.Step} plan and instantiated per flow).  The
    decode stage validates everything the allocating codec would, later
    stages only ever see packets that survived it, and {!Stats} counts
    packets/bytes/rejects and latency per stage.

    The step stage runs entirely on integers: the classifier maps a
    packet to an interned event id, the flow table stores flat
    {!Netdsl_fsm.Step.instance} records keyed by native-int flow keys,
    and {!Netdsl_fsm.Step.fire_id} allocates nothing on the accept path.
    Names and labels reappear only on opt-in slow paths ([on_transition],
    error reporting).

    One executor: the spec's {!Flight} plan runs each packet to
    completion in one pass — demand-driven field extraction into
    native-int registers, no value tree, no per-packet allocation — and
    every serving path runs it.  Its differential reference lives
    outside the engine ([Netdsl_check.Reference]): it decodes with the
    codec, evaluates the spec over decoded values, steps flows with the
    machine interpreter and keeps its own flow table and timer list, so
    no oracle leg runs the code it checks.

    The caller owns the packets' memory: the pipeline keeps no ingest
    buffer of its own, only a window of borrowed references to the
    current batch.  Three entry points drive it, all on the caller's
    domain and all over the one batch window:
    - {!process} / {!process_batch}: strings (tests, the bench
      baselines, in-memory references);
    - {!process_slab_batch}: a popped run of the caller's {!Slab} slots
      (the socket front end's serve loop, one per worker).

    State is sized once and reused: the batch window and the sequential
    decoder at {!create}, flow slots and their machine instances as the flow table
    first reaches them (an evicted flow's slot and instance are reset in
    place for the next flow), and the flow-key and timer-key maps are
    tombstone-free ({!Keymap}), so they reallocate only to grow.  The
    steady state allocates nothing per packet, evictions and timer
    cancels included. *)

type config = {
  batch : int;  (** batch size: the most packets one window takes *)
  ring_capacity : int;
      (** the socket server's per-pass budget: one listener pass takes
          at most this many packets (the server sizes its slab to one
          I/O batch).  The pipeline itself allocates no ring *)
  max_flows : int;
      (** per-pipeline bound on live flow instances; when a new flow
          arrives at the bound, the oldest-idle one is evicted (counted in
          {!Stats.evicted_flows}) *)
  slot_bytes : int;
      (** slot capacity of a front end's {!Slab}: the longest packet it
          admits *)
}

val default_config : config
(** [{ batch = 64; ring_capacity = 1024; max_flows = 65536;
      slot_bytes = 2048 }] *)

type mode = Fused
(** Kept only so the serve benchmark's programs, which pass
    [~mode:Fused], still build: there is one executor.  The next change
    to the benchmark drops it. *)

type outcome =
  | Accepted
  | Rejected_decode of Netdsl_format.Codec.error
      (** failed syntactic/semantic validation: the sequential
          decoder's error ({!Netdsl_format.Stack.Seq}), the failing layer
          first on its path *)
  | Rejected_verify  (** failed the spec's verify predicate *)
  | Rejected_step  (** the machine refused the event *)
  | Rejected_encode  (** a respond rule's patch could not be applied *)

type t

val create :
  ?config:config ->
  ?mode:mode ->
  ?stack:Netdsl_format.Stack.t ->
  ?flight:Flight.spec ->
  ?machine:Netdsl_fsm.Machine.t ->
  ?on_transition:(Netdsl_fsm.Machine.transition -> unit) ->
  ?clock_ms:(unit -> int) ->
  ?now_ns:(unit -> int) ->
  ?tick_ms:int ->
  ?on_response:(string -> unit) ->
  ?on_reply_slot:(int -> Bytes.t -> int -> unit) ->
  ?plant:Flight.plant ->
  Netdsl_format.Desc.t ->
  t
(** [create fmt] builds a pipeline for [fmt].

    - [mode] is ignored: [Fused] is the one executor (see {!mode}).
    - [flight] (default [Flight.spec ()]: decode and validate only) is
      the whole per-packet semantics — verify, classify, flow key,
      respond-by-patch — compiled once against [fmt] and [machine] by
      {!Flight.compile}: bare field names, one-layer stack.  Raises
      [Invalid_argument] naming the field when [fmt] has no compiled
      plan (a list of variable-size records, as in TLV or pcap).
      Classified event names are interned against the machine: a name
      it does not know rejects the packet at the step stage.  Respond
      rules answer with a copy of the request whose named scalar fields
      are rewritten in place ({!Netdsl_format.Emit.patch} — checksum
      updated incrementally); a field that cannot be patched (see
      {!Netdsl_format.Emit.patcher}) rejects the packet at the encode
      stage.
    - [stack] runs the pipeline over a layered {!Netdsl_format.Stack}
      instead of the single format [fmt] (pass the chain's outermost
      format as [fmt]).  Every spec field is qualified as
      ["layer.field"].  The spec compiles via {!Flight.compile_stack};
      respond rules patch a byte copy of the request inside the owning
      layer's window, resolved by {!Netdsl_format.Stack.patcher}.  Raises
      [Invalid_argument] with the compiler's reason when the chain or a
      spec reference cannot be fused.
    - [machine] is validated and compiled once ({!Netdsl_fsm.Step.compile})
      and instantiated per flow; the spec's flow key names the field
      whose value identifies a flow (without one, one instance serves
      all packets).  Keys are native ints; a key field wider than 62
      bits truncates via [Int64.to_int].  At
      most [config.max_flows] instances are live; beyond that the
      oldest-idle flow is evicted.
    - [clock_ms] is the pipeline's clock: a monotone millisecond counter
      consulted when polling timers ({!poll_timers}, and once per
      batch window).  The default reads wall time;
      tests inject a virtual clock and drive it deterministically.
    - [now_ns] is the stage-timing clock (integer nanoseconds; only
      differences are taken, so any monotone base works).  The default
      reads [Unix.gettimeofday], which boxes a float per batch; callers
      with an allocation-free monotonic source (the socket front end's C
      stub) inject it here to keep batch timing off the GC entirely.
    - [tick_ms] (default 1, must be positive) is the timer granularity:
      one {!Wheel} tick per [tick_ms] milliseconds.  Timeout durations
      round up to whole ticks.  A wheel exists only when [machine] has
      at least one [timeout] clause ({!Netdsl_fsm.Step.has_timers});
      otherwise the timer path costs one branch per accepted packet.
    - [on_transition] is an opt-in trace hook called after every fired
      transition with the source {!Netdsl_fsm.Machine.transition}
      (reconstructed from the plan's intern tables — the slow path; leave
      it unset to keep the step stage allocation-free).
    - replies go to [on_reply_slot] when given, as [on_reply_slot i buf
      len]: a borrowed buffer and length (zero-copy; the bytes are only
      valid during the call) and the window index [i] of the packet the
      reply answers, or [-1] for a reply fired outside packet context,
      e.g. timer-driven — which lets a batched slab owner file the reply
      against its per-slot return-address sidecar.  Otherwise they go to
      [on_response] as a fresh string.  The reply buffer starts at
      [config.slot_bytes] and carries a per-batch high-water mark: one
      oversized reply grows it only until the end of the batch.
    - [plant] plants a defect ({!Flight.plant}) — the oracles'
      self-test, never set in serving. *)

val process : t -> string -> outcome
val process_batch : t -> string array -> int -> unit
(** [process_batch t pkts n] runs packets [0, n)] of [pkts] through all
    stages ([n] at most [config.batch]); results land in {!stats}. *)

val process_slab_batch : t -> Slab.t -> n:int -> unit
(** Run the [n] slots the caller has popped (and not yet released) from
    its own {!Slab} through the batch window in place, for front ends
    that batch their ingest (one engine window per [recvmmsg] run, so
    stats recording and timer polling cost per batch).  The caller owns the slot lifetime:
    [Slab.pop_batch] before, [Slab.release] after — and after flushing
    any replies staged via [on_reply_slot] whose return addresses live
    in per-slot sidecars.  [n] at most [config.batch]. *)

val stats : t -> Stats.t
(** Stage layout: {!stage_names}.  Each row counts the packets that
    reached its stage, but per-stage wall-clock cannot exist in a fused
    pass: the batch's whole latency lands on the decode row. *)

val stage_names : string list
(** [["decode"; "verify"; "step"; "encode"]] — the {!Stats} layout. *)

val format : t -> Netdsl_format.Desc.t

val flow_count : t -> int
(** Number of per-flow machine instances currently live (bounded by
    [config.max_flows]). *)

val poll_timers : t -> int
(** Advance the timer wheel to the current [clock_ms] reading and fire
    every expired timer through the step stage: each expiry synthesizes
    its armed event against the owning flow's instance ([fire_id] — the
    same run-to-completion path packets take, so per-flow ordering
    holds), re-applies any [timeout] clause on the fired transition, and
    counts as one step-stage packet (a refused expiry — evicted flow, or
    a state with no transition on the timeout event — counts as a step
    reject).  Returns how many timers fired.  No-op (0) on a pipeline
    without timers; called automatically after every batch window, and
    explicitly by select-loop drivers between windows. *)

val timers_live : t -> int
(** Armed timers currently held (0 when the machine has no [timeout]
    clauses). *)

val next_timer_ms : t -> int
(** Whole milliseconds until the timer wheel next needs a {!poll_timers}
    call — a "sleep no longer than" bound for an event loop ([0] when
    already due), [-1] when no timers are armed.  Allocation-free — the
    epoll loop consults it every idle pass. *)

val peek_flow : t -> int -> Netdsl_fsm.Step.instance option
(** The live machine instance for a flow key, without touching LRU order
    — observability for tests comparing per-flow end states, such as
    the lossy loopback's steered worker pipelines against one single
    pipeline.  [None] on unkeyed pipelines.
    The instance belongs to that flow only until the flow is evicted:
    eviction resets it in place and hands it to the next new flow, so
    read it before further traffic can evict the flow. *)

val reply_capacity : t -> int
(** Current size of the reusable reply buffer (observable for the
    high-water reset regression test). *)
