(** The reference executor: a pipeline's per-packet semantics restated
    from the spec, for the differential oracle legs.

    {!Netdsl_engine.Pipeline} runs a {!Netdsl_engine.Flight.spec}
    through compiled kernels, a slot-array flow table and a timing
    wheel.  This module runs the same spec, machine and stack from their
    definitions, and shares none of that code:
    - each layer is decoded by {!Netdsl_format.Codec} through
      {!Netdsl_format.Stack.Seq} (a single format is a one-layer stack);
    - the verify, classify and respond conditions are evaluated over the
      decoded {!Netdsl_format.Value.t}s;
    - each flow is stepped by {!Netdsl_fsm.Interp} and keeps only its
      {!Netdsl_fsm.Machine.config};
    - flows live in a [Hashtbl] on an explicit least-recently-used list;
    - timers live in a list sorted by deadline tick;
    - a reply is decode → substitute → {!Netdsl_format.Codec.encode},
      layer by layer from the innermost.

    A defect in the engine's decode kernels, flow table, wheel or patch
    kernels therefore shows as a disagreement with this module rather
    than on both sides of it.  It is slow (the codec allocates per
    field) and meant for tests, fuzzing and in-memory expectations,
    never for serving.

    {2 Semantics}

    Per packet, in order, each stage counting what reaches it:
    + {b decode}: {!Netdsl_format.Stack.Seq.decode}; a reject carries
      its error.
    + {b verify} (when the spec has a predicate): a comparison whose
      field the packet does not carry is false.
    + {b step} (when the spec classifies and there is a machine): the
      first matching rule names the event; no match passes the packet
      through.  The flow is found by the flow-key field ([Int64.to_int]
      of its value; a packet without it, or a spec without a key, uses
      one shared default flow that is never evicted).  A new flow starts
      at the machine's initial configuration; at [config.max_flows] live
      flows the least recently used is evicted first, and its pending
      timer is dropped.  The flow is touched (minted, made most recent)
      {e before} the machine sees the event, so a refused event still
      touches it.  A refused event (unknown, unhandled,
      nondeterministic) rejects the packet.  A fired transition's timer
      clause then applies (below).
    + {b encode} (when the spec has respond rules): the first matching
      rule's actions set fields of a copy of the request, each value read
      from the request; a field the packet lacks, a value the field
      cannot hold (width, enum, constraint) or a field no rule may set
      rejects the packet and sends nothing.  A rule may set a top-level
      [uint] or [enum] field of whole bytes at a fixed, byte-aligned
      offset, that no other field of its layer is derived from (a length,
      a computed value, a variant tag), in a layer no enclosing layer's
      checksum covers: an enclosing checksum whose region reaches the
      carrier's payload field would need the whole chain re-summed, and
      the engine's in-place patch refuses it, so this refuses it too by
      its own reading of the regions.  Padding bits of a re-encoded layer
      are zero.

    {b Timers} run at tick granularity: tick = [clock_ms () / tick_ms].
    The clock is read only when timers are polled, which every {!process}
    and {!process_batch} does once, after its packets; the last poll's
    tick is "now" for every arm until the next poll (the first, at
    {!create}).  Arming a flow's timer for [d] ms from now sets its
    deadline to [now + max 1 (ceil (d / tick_ms))] ticks and replaces any
    timer the flow holds — except an identical one (same deadline, same
    event), which keeps its place.  A cancel drops it.  A poll at tick
    [n] fires, earliest deadline first and in arm order within a tick,
    every timer whose deadline is at most [n], including ones armed by
    the expiries it fires; while a timer fires, "now" is its deadline.
    An expiry touches its flow like a packet and steps it with the
    timer's event; it counts as one step-stage packet, and a refused one
    also as a step reject. *)

type t

val create :
  ?config:Netdsl_engine.Pipeline.config ->
  ?stack:Netdsl_format.Stack.t ->
  ?machine:Netdsl_fsm.Machine.t ->
  ?clock_ms:(unit -> int) ->
  ?tick_ms:int ->
  ?on_response:(string -> unit) ->
  flight:Netdsl_engine.Flight.spec ->
  Netdsl_format.Desc.t ->
  t
(** The arguments mean what they mean to {!Netdsl_engine.Pipeline.create}:
    [config] supplies [max_flows]; with [stack] the spec's fields are
    qualified ["layer.field"] and [fmt] is the outermost format; [clock_ms]
    defaults to wall time and [tick_ms] to 1; each reply goes to
    [on_response] as a fresh string.  Raises [Invalid_argument] when the
    stack does not compile, [tick_ms] is not positive, or the spec names
    a layer or field the stack does not have. *)

val process : t -> string -> Netdsl_engine.Pipeline.outcome
(** One packet, then a timer poll. *)

val process_batch : t -> string array -> int -> unit
(** Packets [0, n)] of the array, then one timer poll: the window
    {!Netdsl_engine.Pipeline.process_batch} runs. *)

val poll_timers : t -> int
(** Read the clock and fire what is due; returns how many fired. *)

val flow_count : t -> int
(** Keyed flows live (the shared default flow not counted). *)

val timers_live : t -> int

type count = { packets : int; bytes : int; rejects : int }

val stage : t -> string -> count
(** The counters of one of {!Netdsl_engine.Pipeline.stage_names}: the
    packets that reached the stage, their bytes (a timer expiry has
    none; encode counts only the bytes of replies sent) and how many it
    rejected.  Raises [Invalid_argument] on another name. *)

val evicted : t -> int
(** Flows evicted so far. *)

val expired : t -> int
(** Timers fired so far, refused expiries included. *)
