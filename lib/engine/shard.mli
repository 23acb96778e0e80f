(** Multicore flow sharding over OCaml 5 domains — RSS in miniature.

    A shard group owns [workers] pipelines, each consuming its own
    lock-free {!Spsc} slot ring on its own domain.  {!feed} reads the
    DSL-declared key field straight from the raw packet (a precompiled
    fixed-offset read, no decode, no allocation), hashes it {e once}
    (Fibonacci hashing, masked into a power-of-two bucket table — never
    a [mod]), leases a slot in the destination worker's ring, blits the
    packet once and publishes the slot index.  All packets of a flow
    land on the same domain, which exclusively owns that flow's machine
    instance: no locks or shared counters anywhere on the hot path —
    the hand-off is one release store per packet.

    Backpressure is the rings' bound: a producer outrunning a worker
    spins (cpu_relax → yield → brief sleep) until that worker frees a
    slot.  A worker that finds its ring empty polls its pipeline's timer
    wheel before backing off, so an armed [timeout] fires on time even
    when no traffic arrives (paper §3.4: success or timeout).

    [netdsl serve --workers N] runs on this module: its event loop is
    the steering stage ({!route} plus its own drop-on-full-ring policy
    in place of {!feed}'s blocking), and the reply hook
    ([on_reply_slot]) maps each reply to the return address the server
    stored beside the packet's ring slot.

    {b Work stealing} (optional, off by default): an idle worker raises
    a hungry flag; the steering stage answers by re-owning half of the
    deepest-backlog victim's flow-hash {e buckets} to the thief, each
    moved bucket carrying a fence at the victim's current ring position.
    The thief's first packet of a moved bucket waits until the victim
    has {e released} past the fence, so per-flow ordering (paper §3.4)
    survives the migration — see DESIGN.md "Stealing whole buckets".
    Note that a migrated flow re-mints its machine instance on the new
    owner.  Replies never depend on that instance — a {!Flight} respond
    rule reads only decoded fields — so stealing is safe for them; it
    suits machines that tolerate a flow restarting from the initial
    state. *)

type config = {
  workers : int;
  pipeline : Pipeline.config;
}

val default_config : config
(** [workers = Domain.recommended_domain_count ()]. *)

(** The steering stage: flow-hash buckets, their owners and migration
    fences.  All [t] operations are single-threaded on the steering side
    unless noted. *)
module Steer : sig
  type t

  val create :
    ?buckets:int ->
    ?stealing:bool ->
    ?steal_threshold:int ->
    workers:int ->
    unit ->
    t
  (** [buckets] (default 256, rounded up to a power of two, at least
      [workers]) sizes the flow-hash bucket table — the mask domain.
      [steal_threshold] (default 64): minimum victim backlog, in
      packets, before buckets migrate.  At most 62 workers (the fence
      word packs the victim into 6 bits). *)

  val workers : t -> int
  val buckets : t -> int
  val stealing : t -> bool

  val steals : t -> int
  (** Buckets migrated so far. *)

  val unkeyed : t -> int

  val worker_of_key : t -> int -> int
  (** Pure lookup: the worker currently owning the key's bucket
      ([View.no_key] → worker 0).  One multiply, one shift, one mask. *)

  val route : t -> key:int -> int
  (** Steering thread only: route one packet — {!worker_of_key} plus
      unkeyed accounting and remembering the bucket for {!last_bucket}. *)

  val last_bucket : t -> int
  (** Bucket of the last {!route}d packet ([-1] if it was unkeyed); tag
      the published slot with it so {!fence_wait} can look fences up. *)

  val mark_hungry : t -> int -> unit
  (** Worker side: request work (no-op when stealing is off). *)

  val maybe_rebalance : t -> Spsc.t array -> unit
  (** Steering thread only, once per routed packet: every 32 packets,
      serve one hungry worker by migrating buckets (with fences) from
      the deepest victim. *)

  val fence_wait : t -> Spsc.t array -> me:int -> ring:Spsc.t -> n:int -> unit
  (** Worker side, between [Spsc.poll] and processing: for each claimed
      slot whose bucket carries a migration fence naming another worker,
      wait until that victim's released head passes the fence. *)
end

type t

val create :
  ?config:config ->
  ?allow_oversubscribe:bool ->
  ?stealing:bool ->
  ?steal_threshold:int ->
  ?buckets:int ->
  key:string ->
  ?mode:Pipeline.mode ->
  ?flight:Flight.spec ->
  ?machine:Netdsl_fsm.Machine.t ->
  ?on_transition:(Netdsl_fsm.Machine.transition -> unit) ->
  ?clock_ms:(unit -> int) ->
  ?now_ns:(unit -> int) ->
  ?tick_ms:int ->
  ?on_response:(string -> unit) ->
  ?on_reply_slot:(int -> int -> Bytes.t -> int -> unit) ->
  Netdsl_format.Desc.t ->
  (t, string) result
(** [create ~key fmt] — [key] names the top-level field to shard on; it
    must sit at a fixed wire offset (see
    {!Netdsl_format.View.key_extractor}).  [stealing] /
    [steal_threshold] / [buckets] configure the {!Steer} stage
    (stealing defaults off; [steal_threshold] defaults to the pipeline
    batch size).  Remaining arguments — the mode (default [Fused]), the
    flight spec, the machine, the clocks and [tick_ms] — are passed to
    each worker's {!Pipeline.create}.  Note that [on_response] runs on
    worker domains — one shared closure sees calls from all of them.

    [on_reply_slot] is the per-worker reply hook, called on worker [w]'s
    domain as [on_reply_slot w pos buf len]: [pos] is the absolute
    position in [w]'s ring ({!Spsc.consumer_pos} plus the window index)
    of the packet being answered, or [-1] for a reply fired outside
    packet context (a timer).  A producer that files per-packet state
    beside each ring slot before publishing it — a return address —
    finds it again at [pos land (Spsc.capacity ring - 1)].  It wins over
    [on_response], as in {!Pipeline.create}.

    Worker counts above [Domain.recommended_domain_count ()] are clamped
    to it — oversubscribed domains time-share a core and measure the
    scheduler, not the pipeline — unless [allow_oversubscribe] is set.
    Either way the decision is recorded as a {!Stats} warning on every
    worker (see {!warning}).  The requested count is what reports show;
    the power-of-two constraint lives in the bucket table, not the
    worker count. *)

val start : t -> unit
(** Spawns the worker domains. *)

val route : t -> string -> len:int -> int
(** Steering side: the worker the first [len] bytes of a packet belong
    to — the key read at its fixed offset, then {!Steer.route} (whose
    {!Steer.last_bucket} then tags the slot).  Packets too short to
    carry the key go to worker 0.  For a producer that owns its ring
    policy (the socket server drops on a full ring); {!feed} is this
    plus a blocking publish. *)

val feed : t -> string -> bool
(** Route one packet to its flow's worker: hash once, lease a slot in
    that worker's ring, blit once, publish the index.  Blocks (bounded
    backoff) while the destination ring is full.  Allocates nothing.
    Packets too short to carry the key go to worker 0, whose decode
    stage rejects and counts them. *)

val drain : t -> unit
(** Close all rings, wait for the workers to finish the backlog, join
    the domains. *)

val workers : t -> int
(** Actual worker count (after any clamping). *)

val warning : t -> string option
(** The oversubscription/clamp warning, if any was recorded. *)

val worker_of_key : t -> int -> int
(** Current steering decision for a flow key (moves when stealing
    migrates the key's bucket). *)

val steals : t -> int
(** Buckets migrated by work stealing so far. *)

val steering : t -> Steer.t
val rings : t -> Spsc.t array
val pipelines : t -> Pipeline.t array

val stats : t -> Stats.t
(** Per-stage stats merged across all workers, with the shard's unkeyed
    count folded in ({!Stats.unkeyed}).  Call after {!drain}, or accept
    slightly torn counters mid-run. *)

val unkeyed : t -> int
(** Packets fed that were too short to carry the key field. *)
