(** The differential oracle: one mutant, every fast path, demand agreement.

    The compiled fast paths ({!Netdsl_format.View.Hot} decode, the
    {!Netdsl_engine.Pipeline} built on it, the kernel pre-filter) are
    only trustworthy while they agree with the reference
    {!Netdsl_format.Codec} on *adversarial* input, not just on generator
    output.  {!check} decodes one wire message with [Codec.decode] — the
    one reference verdict and value — and runs it through these
    differential comparisons:

    + fused: the format's compiled plan — its one-layer
      {!Netdsl_format.Stack} plan, which is what {!Netdsl_engine.Flight}
      runs, demanding every field it can extract (a variant format's case
      fields included) — must agree with the codec verdict and, on
      acceptance, every register must equal the codec's value for that
      field ([-1] for a case field the packet does not carry);
    + engine: a {!Netdsl_engine.Pipeline} over a flight plan demanding
      every field the plan extracts, with an always-true verify predicate
      armed, and the {!Reference} executor over the same spec must both
      agree with the codec verdict and not raise; the pipeline must pass
      every accepted packet — and no rejected mutant — through its verify
      stage (read off that stage's packet count), and its decode and
      verify counters must equal the reference's: Pipeline ≡ Reference ≡
      Codec;
    + filter: the kernel pre-filter {!Netdsl_format.Bpf.compile} builds
      for the format, run by {!Bpf_oracle}, must deliver every accepted
      packet whole.  It may drop rejected ones; {!filtered} counts them.

    Any divergence — including an exception escaping a fast path — is a
    {!disagreement}.  The [bug] hook plants a known defect (inverting a
    verdict, as if a bounds check were flipped) so the harness can prove
    it would catch one. *)

type bug =
  | No_bug
  | Invert_flight_accept
      (** report the compiled plan's verdict inverted on accepted input —
          proves the fused leg can catch a fusion bug; [netdsl fuzz
          --plant-bug] plants it on formats *)
  | Invert_chain_accept
      (** report the fused {e chain} verdict inverted on accepted layered
          input, as if a chained bounds check were flipped — proves the
          {!Chain} leg can catch a stack-fusion bug *)
  | Shift_filter_loads
      (** the kernel pre-filter reads every field one byte late, as if
          its payload base were off by one — proves the filter leg can
          catch a pre-filter that drops accepted packets *)
  | Drop_expiry
      (** the live timing wheel silently loses every second armed timer —
          the failure mode a broken cascade or clobbered freelist would
          produce (no crash, a deadline just never fires) — proves the
          {!Timers} leg can catch a wheel that loses timers *)
  | Late_static_load
      (** the compiled fast path's specialiser reads one static-offset
          field one byte late ([plant_late_load] of
          {!Netdsl_format.View.Hot.compile})
          in every plan the oracle compiles — proves the fused, chain and
          stacked-reply legs can catch a specialiser bug *)
  | Evict_mru
      (** the pipeline's flow table evicts the most recently used flow —
          proves the {!Chain} flow leg can catch a wrong eviction end *)
  | Late_tick
      (** the pipeline's wheel fires every timer one tick late — proves
          the {!Chain} flow leg can catch a late deadline *)
  | Unrefused_patch
      (** a stacked patch under an enclosing payload checksum repairs only
          its own layer's checksum ({!Netdsl_format.Stack.patcher}'s
          refusal switched off) — proves the {!Chain} covered-patch leg
          catches a stale carrier checksum *)

type disagreement = {
  d_check : string;
      (** which comparison diverged: ["pipeline"] (the reference or the
          pipeline's verify-stage discipline),
          ["flight"], ["fused"], ["stats"], ["filter"],
          ["chain"], ["reply"], ["timers"] or ["crash"] *)
  d_detail : string;  (** rendered evidence: both sides of the divergence *)
}

val disagreement_to_string : disagreement -> string

type t
(** A reusable oracle for one format: the compiled plan and pipelines
    are compiled once. *)

val create : ?bug:bug -> Netdsl_format.Desc.t -> t
val format : t -> Netdsl_format.Desc.t

val check : t -> string -> (unit, disagreement) result
(** Run one wire message through every comparison.  [Ok] means every
    path agreed (whether the message was accepted or rejected). *)

val checked : t -> int
(** Messages checked so far. *)

val accepted : t -> int
(** Messages the codec accepted (and every path with it) — the accept
    side of the split the fuzz statistics report. *)

val filtered : t -> int
(** Rejected messages the kernel pre-filter drops as well — the share of
    the reject side that would never reach a server. *)

val skipped : t -> string option
(** Why the engine and fused-pipeline checks are skipped: the reason
    {!Netdsl_engine.Pipeline.create} refused the format (a list of
    variable-size records has no compiled plan), or [None] when they
    run. *)

(** {2 Chained-decode oracle leg}

    One fused {!Netdsl_format.Stack.plan} diffed against the sequential
    per-layer reference ({!Netdsl_format.Stack.Seq}) — same stack, two
    decode strategies.  On every packet the two must agree on the chain
    verdict; on acceptance, every layer window and every demanded
    register (every field each layer's plan can extract, compared
    against {!Netdsl_format.Value.find_int_flat} on the sequential
    per-layer values, absent variant-case fields as [-1]) must match.  Cross-layer length
    lies need no special casing: an outer length lie moves the inner
    window, and both strategies must move it identically or the window
    comparison fires.  Every check also runs the stacked-reply legs
    ({!Stack_reply}): under {!Stack_reply.patch_spec}; under
    {!Stack_reply.flow_spec} with {!Stack_reply.flow_machine} through a
    two-flow table, so flows are minted, evicted, refused and timed out;
    and, on a stack with fields under an enclosing payload checksum,
    under {!Stack_reply.covered_spec}. *)
module Chain : sig
  type t

  val create : ?bug:bug -> Netdsl_format.Stack.t -> (t, string) result
  (** Compiles the fused plan demanding every field each layer's plan can
      extract — top-level fields and a terminal variant's case fields
      (candidates the chain compiler cannot extract are probed
      individually and dropped); [Error] only if the stack itself does
      not compile. *)

  val check : t -> string -> (unit, disagreement) result
  (** [d_check] is ["chain"] for any divergence, ["filter"] when layer
      0's kernel pre-filter does not deliver an accepted packet whole,
      ["crash"] for an escaped exception. *)

  val checked : t -> int
  val accepted : t -> int

  val answered : t -> int
  (** Packets the [patch_spec] reply leg answered (both sides byte-equal). *)

  val seed_windows : t -> string -> (int * int) array
  (** Per-layer [(byte_off, byte_len)] windows of a packet the sequential
      decoder accepts, for {!Mutate.random_chain}; [ [||] ] when it
      rejects. *)
end

(** {2 Socket oracle leg: the in-memory reply reference}

    The reference side of the loopback soak ({!Loopback}): the same
    flight spec driven through the {!Reference} executor, with every
    emitted reply captured as a fresh string.  A reply read off a real
    socket must be byte-for-byte identical to {!Reply_ref.expected} for
    the same input — and a packet for which [expected] returns [None]
    must produce {e no} datagram. *)
module Reply_ref : sig
  type t

  val create :
    ?config:Netdsl_engine.Pipeline.config ->
    ?machine:Netdsl_fsm.Machine.t ->
    ?stack:Netdsl_format.Stack.t ->
    ?clock_ms:(unit -> int) ->
    flight:Netdsl_engine.Flight.spec ->
    Netdsl_format.Desc.t ->
    t
  (** As {!Reference.create}: [?stack] takes its outermost format as the
      format, [?clock_ms] defaults to wall time. *)

  val expected :
    t -> string -> Netdsl_engine.Pipeline.outcome * string option
  (** Run one packet; the captured reply, or [None] when the packet is
      rejected or matches no respond rule.  Flow state advances exactly
      as a pipeline's does, so lock-step callers stay in sync. *)
end

(** {2 Stacked-reply oracle leg}

    A stacked {!Netdsl_engine.Pipeline} — compiled decode and patch
    kernels, its flow table and wheel — diffed against the {!Reference}
    executor over the same stack, spec and machine: after every packet
    the outcome (accepted or the stage that rejected it), the reply
    bytes, the evicted-flow and expired-timer counts and the live flows
    and timers must be identical.  Both sides read one virtual clock that
    advances one millisecond per checked packet, so flow state and timers
    advance in lock-step. *)
module Stack_reply : sig
  type t

  val patch_spec : Netdsl_format.Stack.t -> Netdsl_engine.Flight.spec
  (** The default spec: one respond rule over every patchable field of
      every layer, each set from the next patchable field of its width
      (an exhaustive-enum or constrained field keeps its own value), so
      replies move real bytes and repair real checksums. *)

  val flow_spec : Netdsl_format.Stack.t -> Netdsl_engine.Flight.spec option
  (** {!patch_spec}'s rule, with every packet classified as the [pkt]
      event of {!flow_machine} on the flow its innermost patchable field
      keys; [None] when no field is patchable. *)

  val flow_machine : Netdsl_fsm.Machine.t
  (** A flow accepts three packets, then refuses them until its 3 ms
      timer returns it to idle. *)

  val covered_spec : Netdsl_format.Stack.t -> Netdsl_engine.Flight.spec option
  (** A rotation over the fields that only an enclosing payload checksum
      keeps from being patched — every packet it matches is refused at
      the encode stage — or [None] when the stack has no such field. *)

  val create :
    ?bug:bug ->
    ?config:Netdsl_engine.Pipeline.config ->
    ?machine:Netdsl_fsm.Machine.t ->
    ?flight:Netdsl_engine.Flight.spec ->
    Netdsl_format.Stack.t ->
    (t, string) result
  (** [flight] defaults to {!patch_spec}.  [Error] when the spec does not
      compile against the stack. *)

  val check : t -> string -> (unit, disagreement) result
  (** [d_check] is ["reply"], or ["crash"] for an escaped exception. *)

  val checked : t -> int
  val answered : t -> int
end

(** {2 Timer oracle leg: Step-with-wheel vs the simulator}

    A machine with [timeout] clauses, executed twice over one
    timeout-laced stimulus trace: once through the engine's
    {!Netdsl_engine.Wheel} in integer virtual time (the exact arm/cancel
    discipline the pipeline's step stage applies — the fired transition's
    packed timer word drives the wheel, expirations fire back through
    [fire_id], and an expiry's own transition may re-arm), and once
    through the discrete-event simulator (external events on a
    {!Netdsl_sim.Engine} heap, the flow's single timer a
    {!Netdsl_sim.Timer}).  Every delivered event's verdict, time, state
    and register file must match, as must the final configurations.

    A stimulus and an expiry due at the same instant deliver the stimulus
    first on both sides (the simulator's schedule order; the wheel is
    advanced only to [at - 1] before a stimulus at [at]). *)
module Timers : sig
  type t

  val create : ?bug:bug -> Netdsl_fsm.Machine.t -> t
  (** Compiles the machine once ([Invalid_argument] on defects — the
      same validation {!Netdsl_fsm.Step.compile} applies). *)

  val check : ?horizon_ms:int -> t -> (int * string) list -> (unit, disagreement) result
  (** [check t trace] runs the stimuli [(at_ms, event)] (sorted by time,
      ties in list order) through both executions and diffs the logs.
      After the last stimulus both sides keep running expiry chains for
      [horizon_ms] more milliseconds (default 4096) — far-future arms
      beyond the horizon never fire on either side.  [d_check] is
      ["timers"], or ["crash"] for an escaped exception.  Raises
      [Invalid_argument] on a negative time or unknown event name. *)

  val checked : t -> int
end
