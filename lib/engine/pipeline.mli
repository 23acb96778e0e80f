(** The batched packet pipeline: decode → verify → FSM-step → encode.

    One pipeline = one format, an optional semantic predicate, an optional
    protocol machine (compiled once to a {!Netdsl_fsm.Step} plan and
    instantiated per flow), and an optional responder.  Packets move
    through the stages in batches over a pool of reusable zero-copy
    {!Netdsl_format.View} slots — the decode stage validates everything
    the allocating codec would, later stages only ever see packets that
    survived it, and {!Stats} counts packets/bytes/rejects and latency
    per stage.

    The step stage runs entirely on integers: the classifier maps a view
    to an interned event id, the flow table stores flat
    {!Netdsl_fsm.Step.instance} records keyed by native-int flow keys,
    and {!Netdsl_fsm.Step.fire_id} allocates nothing on the accept path.
    Names and labels reappear only on opt-in slow paths ([on_transition],
    error reporting).

    Two execution modes over the same semantics:
    - {!Staged} (default): each stage walks the whole batch before the
      next starts — per-stage wall-clock timing, views materialised.
    - {!Fused}: a {!Flight} plan runs each packet to completion in one
      pass — demand-driven field extraction into native-int registers,
      no [View.t] on the fast tier, no per-packet allocation.  Requires
      [~flight]; the same spec also derives the staged closures, so the
      two modes are differentially testable against each other.

    The caller owns the packets' memory: the pipeline keeps no ingest
    buffer of its own, only a window of borrowed references to the
    current batch.  Five entry points drive it, all on the caller's
    domain:
    - {!process} / {!process_batch}: strings (tests, the bench
      baselines, in-memory references);
    - {!process_buffer}: one packet in a caller-owned buffer, no copy;
    - {!process_slab_batch}: a popped run of the caller's {!Slab} slots
      (the socket front end; a test that wants a producer domain owns a
      slab and drains it through this);
    - {!process_ring_batch}: a claimed run of a {!Spsc} ring ([Shard]'s
      worker domains).

    State is sized once and reused: the batch window and view pool at
    {!create}, flow slots and their machine instances as the flow table
    first reaches them (an evicted flow's slot and instance are reset in
    place for the next flow), and the flow-key and timer-key maps are
    tombstone-free ({!Keymap}), so they reallocate only to grow.  In
    fused mode the steady state allocates nothing per packet, evictions
    and timer cancels included. *)

type config = {
  batch : int;  (** batch size, and the number of pooled view slots *)
  ring_capacity : int;
      (** slot count of each {!Shard} worker ring (the sharded socket
          server's included), and so its backpressure depth.  The socket
          server sizes its slab to one I/O batch and uses this as its
          per-pass budget: one listener pass takes at most this many
          packets.  The pipeline itself allocates none *)
  max_flows : int;
      (** per-pipeline bound on live flow instances; when a new flow
          arrives at the bound, the oldest-idle one is evicted (counted in
          {!Stats.evicted_flows}) *)
  slot_bytes : int;
      (** slot capacity of that slab or ring: the longest packet a front
          end admits *)
}

val default_config : config
(** [{ batch = 64; ring_capacity = 1024; max_flows = 65536;
      slot_bytes = 2048 }] *)

type mode = Staged | Fused

type outcome =
  | Accepted
  | Rejected_decode of Netdsl_format.Codec.error
      (** failed syntactic/semantic validation (view decode) *)
  | Rejected_verify  (** failed the caller's predicate *)
  | Rejected_step  (** the machine refused the event *)
  | Rejected_encode  (** the responder produced an unencodable value *)

type t

val create :
  ?config:config ->
  ?mode:mode ->
  ?stack:Netdsl_format.Stack.t ->
  ?flight:Flight.spec ->
  ?verify:(Netdsl_format.View.t -> bool) ->
  ?classify:(Netdsl_format.View.t -> string option) ->
  ?classify_id:(Netdsl_format.View.t -> int) ->
  ?machine:Netdsl_fsm.Machine.t ->
  ?flow_key:string ->
  ?on_transition:(Netdsl_fsm.Machine.transition -> unit) ->
  ?clock_ms:(unit -> int) ->
  ?now_ns:(unit -> int) ->
  ?tick_ms:int ->
  ?respond:
    (Netdsl_format.View.t -> Netdsl_fsm.Step.instance -> Netdsl_format.Value.t option) ->
  ?respond_patch:
    (Netdsl_format.View.t ->
    Netdsl_fsm.Step.instance ->
    (string * int64) list option) ->
  ?respond_fmt:Netdsl_format.Desc.t ->
  ?on_response:(string -> unit) ->
  ?on_reply:(Bytes.t -> int -> unit) ->
  ?on_reply_slot:(int -> Bytes.t -> int -> unit) ->
  Netdsl_format.Desc.t ->
  t
(** [create fmt] builds a pipeline for [fmt].

    - [stack] runs the pipeline over a layered {!Netdsl_format.Stack}
      instead of the single format [fmt] (pass the chain's outermost
      format as [fmt]; it only feeds staged-side machinery a stack
      pipeline never exercises).  Requires [~flight] with every spec field
      qualified as ["layer.field"], and [Fused] mode — a chain has no
      staged decomposition.  The spec compiles via
      {!Flight.compile_stack}; respond rules patch a byte copy of the
      request inside the owning layer's window.  Raises
      [Invalid_argument] with the compiler's reason when the chain or a
      spec reference cannot be fused.
    - [flight] is a declarative {!Flight.spec} of the whole per-packet
      semantics (verify, classify, flow key, respond-by-patch), compiled
      once against [fmt] and [machine].  It {e replaces} — and cannot be
      combined with — [verify]/[classify]/[classify_id]/[flow_key]/
      [respond]/[respond_patch].  [Staged] mode runs the spec through
      the derived closures; [Fused] mode (which requires [~flight]) runs
      it through the fused plan.
    - [classify_id] is the hot-path classifier: map a validated view
      straight to an interned event id of the compiled machine (resolve
      names once at setup with {!Netdsl_fsm.Step.event_id} on
      {!machine_plan}); any negative value means the packet does not
      concern the machine and passes through.  An id the plan does not
      know rejects the packet at the step stage.
    - [classify] is the name-returning convenience ([None]: pass
      through); it is translated to the id path at create time.  When
      both are given, [classify_id] wins.
    - [machine] is validated and compiled once ({!Netdsl_fsm.Step.compile})
      and instantiated per flow; [flow_key] names the field whose value
      identifies a flow (without it, one instance serves all packets).
      Keys are native ints; a key field wider than 62 bits truncates via
      [Int64.to_int], identically in both modes.  At most
      [config.max_flows] instances are live; beyond that the oldest-idle
      flow is evicted.
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
    - [respond] builds a reply value from the view and the flow's machine
      instance; it is encoded against [respond_fmt] (default: [fmt]) by a
      compiled {!Netdsl_format.Emit} plan into a reusable buffer and
      handed to the reply sink.
    - [respond_patch] is the fast path, consulted before [respond]: return
      [Some mutations] to answer with a copy of the request whose named
      scalar fields are rewritten in place ({!Netdsl_format.Emit.patch} —
      checksum updated incrementally, nothing re-encoded).  Return [None]
      to fall through to [respond].  A field that cannot be patched (see
      {!Netdsl_format.Emit.patcher}) rejects the packet at the encode
      stage.
    - replies go to [on_reply_slot] when given (the [on_reply] contract
      plus a leading window index: which slot of the current batch the
      reply answers, or [-1] for a reply fired outside packet context,
      e.g. timer-driven — lets a batched slab owner file the reply
      against its per-slot return-address sidecar), else to [on_reply]
      (borrowed buffer + length — zero-copy; the bytes are only valid
      during the call), else to [on_response] as a fresh string.  The
      reply buffer starts at [config.slot_bytes] and carries a per-batch
      high-water mark: one oversized reply grows it only until the end
      of the batch. *)

val process : t -> string -> outcome
val process_batch : t -> string array -> int -> unit
(** [process_batch t pkts n] runs packets [0, n)] of [pkts] through all
    stages ([n] at most [config.batch]); results land in {!stats}. *)

val process_buffer : t -> Bytes.t -> len:int -> outcome
(** [process_buffer t buf ~len] runs the first [len] bytes of [buf]
    through all stages without copying them, for callers that own the
    packet's buffer (a caller with a run of slab slots hands the whole
    run to {!process_slab_batch} instead, as the socket front end does).
    The buffer is borrowed: it must not be mutated during the call.
    Raises [Invalid_argument] when [len] exceeds [buf]. *)

val process_ring_batch : t -> Spsc.t -> n:int -> unit
(** Run the [n] slots the caller has claimed (and not yet released) from
    its {!Spsc} ring through the batch window in place — the worker-side
    drain step of the sharded path.  The caller owns the claim lifetime:
    [Spsc.poll] before, [Spsc.release] after ({!Shard} checks bucket
    migration fences in between).  [n] at most [config.batch]. *)

val process_slab_batch : t -> Slab.t -> n:int -> unit
(** Run the [n] slots the caller has popped (and not yet released) from
    its own {!Slab} through the batch window in place — the slab sibling
    of {!process_ring_batch}, for front ends that batch their ingest
    (one engine window per [recvmmsg] run instead of one
    {!process_buffer} call per packet, so stats recording and timer
    polling cost per batch).  The caller owns the slot lifetime:
    [Slab.pop_batch] before, [Slab.release] after — and after flushing
    any replies staged via [on_reply_slot] whose return addresses live
    in per-slot sidecars.  [n] at most [config.batch]. *)

val stats : t -> Stats.t
(** Stage layout: {!stage_names}.  In [Fused] mode the counters mirror
    the staged rows exactly, but per-stage wall-clock cannot exist in a
    fused pass: the batch's whole latency lands on the decode row. *)

val stage_names : string list
(** [["decode"; "verify"; "step"; "encode"]] — the {!Stats} layout. *)

val format : t -> Netdsl_format.Desc.t

val mode : t -> mode

val flight_tier : t -> [ `Linear | `Interp | `Stacked ] option
(** Tier of the compiled flight plan, when [~flight] was given. *)

val stack_plan : t -> Netdsl_format.Stack.plan option
(** The compiled chain of a [~stack] pipeline: its registers and layer
    windows read the state of the last accepting decode. *)

val machine_plan : t -> Netdsl_fsm.Step.plan option
(** The compiled plan of the pipeline's machine, for resolving event ids
    at setup time ([classify_id]) or reconstructing labels. *)

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

val next_timer_s : t -> float option
(** Seconds until the timer wheel next needs a {!poll_timers} call —
    a "sleep no longer than" bound for a select loop ([Some 0.] when
    already due).  [None] when no timers are armed. *)

val next_timer_ms : t -> int
(** {!next_timer_s} without the option or the float: whole milliseconds
    until the wheel is next due ([0] when already due), [-1] when no
    timers are armed.  Allocation-free — the epoll loop consults it
    every idle pass. *)

val peek_flow : t -> int -> Netdsl_fsm.Step.instance option
(** The live machine instance for a flow key, without touching LRU order
    — observability for tests comparing per-flow end states across
    sharded and single-pipeline runs.  [None] on unkeyed pipelines.
    The instance belongs to that flow only until the flow is evicted:
    eviction resets it in place and hands it to the next new flow, so
    read it before further traffic can evict the flow. *)

val reply_capacity : t -> int
(** Current size of the reusable reply buffer (observable for the
    high-water reset regression test). *)
