(** Multicore flow sharding over OCaml 5 domains, in memory — RSS in
    miniature.

    A shard group owns [workers] pipelines, each consuming its own
    lock-free {!Spsc} slot ring on its own domain.  {!feed} reads the
    DSL-declared key field straight from the raw packet (a precompiled
    fixed-offset read, no decode, no allocation), hashes it {e once}
    with {!Netdsl_format.Bpf.steer} — the function the kernel steering
    program of [netdsl serve --workers N] computes, so a flow lands on
    the same worker index here as behind a socket — leases a slot in
    the destination worker's ring, blits the packet once and publishes
    it.  All packets of a flow land on the same domain, which
    exclusively owns that flow's machine instance: no locks or shared
    counters anywhere on the hot path — the hand-off is one release
    store per packet.  Ownership is static: nothing migrates a flow, so
    a skewed flow mix loads its owners unevenly (E18 measures it).

    Backpressure is the rings' bound: a producer outrunning a worker
    spins (cpu_relax → yield → brief sleep) until that worker frees a
    slot.  A worker that finds its ring empty polls its pipeline's timer
    wheel before backing off, so an armed [timeout] fires on time even
    when no traffic arrives (paper §3.4: success or timeout).

    The socket server does not run on this module: its workers are
    copies of its own serve loop, each on its own [SO_REUSEPORT] socket,
    and the kernel steers ({!Netdsl_format.Bpf.steering}).  This module
    is the in-memory measure of the same partition (bench E11, E15,
    E18) and the CLI's [bench -w]. *)

type config = {
  workers : int;
  pipeline : Pipeline.config;
}

val default_config : config
(** [workers = Domain.recommended_domain_count ()]. *)

type t

val create :
  ?config:config ->
  ?allow_oversubscribe:bool ->
  key:string ->
  ?mode:Pipeline.mode ->
  ?flight:Flight.spec ->
  ?machine:Netdsl_fsm.Machine.t ->
  ?on_transition:(Netdsl_fsm.Machine.transition -> unit) ->
  ?clock_ms:(unit -> int) ->
  ?now_ns:(unit -> int) ->
  ?tick_ms:int ->
  ?on_response:(string -> unit) ->
  ?on_reply_slot:(int -> Bytes.t -> int -> unit) ->
  Netdsl_format.Desc.t ->
  (t, string) result
(** [create ~key fmt] — [key] names the top-level field to shard on; it
    must sit at a fixed wire offset (see
    {!Netdsl_format.View.key_extractor}).  Remaining arguments — the
    mode (default [Fused]), the flight spec, the machine, the clocks,
    [tick_ms] and the reply hooks — are passed to each worker's
    {!Pipeline.create}.  Note that the hooks run on worker domains — one
    shared closure sees calls from all of them.

    Worker counts above [Domain.recommended_domain_count ()] are clamped
    to it unless [allow_oversubscribe] is set; either way the decision
    is recorded as a {!Stats} warning on every worker
    ({!Stats.clamp_workers}, {!warning}). *)

val start : t -> unit
(** Spawns the worker domains. *)

val feed : t -> string -> bool
(** Route one packet to its flow's worker: hash once, lease a slot in
    that worker's ring, blit once, publish.  Blocks (bounded backoff)
    while the destination ring is full.  Allocates nothing.  Packets too
    short to carry the key go to worker 0, whose decode stage rejects
    and counts them. *)

val drain : t -> unit
(** Close all rings, wait for the workers to finish the backlog, join
    the domains. *)

val workers : t -> int
(** Actual worker count (after any clamping). *)

val warning : t -> string option
(** The oversubscription/clamp warning, if any was recorded. *)

val worker_of_key : t -> int -> int
(** The worker that owns a flow key: {!Netdsl_format.Bpf.steer} over
    {!workers}. *)

val pipelines : t -> Pipeline.t array

val stats : t -> Stats.t
(** Per-stage stats merged across all workers, with the shard's unkeyed
    count folded in ({!Stats.unkeyed}).  Call after {!drain}, or accept
    slightly torn counters mid-run. *)

val unkeyed : t -> int
(** Packets fed that were too short to carry the key field. *)
