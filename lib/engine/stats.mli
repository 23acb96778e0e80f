(** First-class engine metrics: per-stage packet/byte/reject counters and
    latency histograms.

    A [t] is single-owner — each worker domain mutates its own instance
    with no atomics or locks on the hot path; cross-domain aggregation is
    an explicit {!merge_into} after (or between) runs.  Histograms use
    log2-of-nanoseconds buckets, so percentiles are approximate (upper
    bucket bounds) but recording is O(1) and allocation-free. *)

type t

val create : string list -> t
(** [create names] — one counter set per stage, in pipeline order. *)

val stage_names : t -> string list

val stage_index : t -> string -> int
(** Resolve a stage name once; the per-packet calls take the index. *)

val record : t -> int -> bytes:int -> ns:int -> unit
(** [record t stage ~bytes ~ns] counts one accepted packet. *)

val reject : t -> int -> bytes:int -> unit
(** Counts one packet that was dropped at this stage. *)

val record_batch :
  t -> int -> packets:int -> bytes:int -> rejects:int -> elapsed_ns:int -> unit
(** Batched variant: counters are bumped in bulk and the histogram gets the
    per-packet mean of the batch. *)

val note_evicted_flow : t -> unit
(** Counts one flow-table entry discarded to make room (see
    [Pipeline.config.max_flows]). *)

val evicted_flows : t -> int

val note_timers : expired:int -> cancelled:int -> cascaded:int -> t -> unit
(** Fold a batch of timer-wheel activity ([Wheel] counter deltas) into the
    counter set — bumped by the pipeline after each timer poll. *)

val timers_expired : t -> int
(** Timers whose deadline was reached and whose event was fired. *)

val timers_cancelled : t -> int
(** Timers cancelled before expiry (machine [Cancel_timer] ops and
    flow-eviction cleanup). *)

val timers_cascaded : t -> int
(** Entries moved down a wheel level on a tick boundary. *)

val note_warning : t -> string -> unit
(** Attach an operational warning (e.g. oversubscribed workers) to the
    counter set.  Duplicates are kept once; warnings survive
    {!merge_into} and are printed by {!pp}. *)

val warnings : t -> string list
(** Recorded warnings, oldest first. *)

val clamp_workers : allow_oversubscribe:bool -> int -> int * string option
(** [clamp_workers ~allow_oversubscribe n]: the worker count a sharded
    [Net.Server] runs — [n], or [Domain.recommended_domain_count ()]
    when [n] exceeds it and oversubscription is not allowed — and the
    warning it records on every worker's counters whenever [n] exceeds
    the core count. *)

val merge_into : into:t -> t -> unit
(** Adds [src] into [into] (same stage layout required; eviction and
    timer counters are summed and warnings unioned too). *)

val merge : t list -> t
(** Fresh aggregate of a non-empty list (a sharded server's totals). *)

val copy : t -> t

val totals : t -> int * int * int
(** [(packets, bytes, rejects)] summed over stages. *)

val stage_packets : t -> int -> int
val stage_bytes : t -> int -> int
val stage_rejects : t -> int -> int
val stage_mean_ns : t -> int -> int

val pp : Format.formatter -> t -> unit
(** Text table: packets, bytes, rejects, mean / ~p50 / ~p99 latency. *)

val to_text : t -> string
