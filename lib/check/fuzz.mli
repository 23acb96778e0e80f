(** The fuzzing driver: corpus → mutate → oracle → shrink → report.

    One call fuzzes one target.  {!run_format} builds a {!Corpus}, checks
    every corpus seed through the {!Oracle} first (so [iters = 0] still
    exercises the golden samples), then drives [iters] structure-aware
    mutants through it; {!run_machine} delegates to {!Trace_fuzz}.  On
    the first disagreement the input is minimised — the mutation list
    with {!Shrink.list}, the resulting bytes with {!Shrink.bytes}, each
    candidate judged by a {e fresh} oracle so shrinking cannot be fooled
    by accumulated state — and returned as a committable {!Report.t}.
    Everything is a deterministic function of [(seed, iters)]. *)

type wire_stats = {
  ws_format : string;
  ws_mutants : int;  (** messages checked, corpus seeds included *)
  ws_accepted : int;  (** accepted by every path *)
  ws_rejected : int;  (** rejected by every path *)
  ws_filtered : int;
      (** rejected messages the kernel pre-filter drops too; an accepted
          one it drops is a disagreement ({!Oracle.check}'s filter leg) *)
  ws_skipped : string option;
      (** why the pipeline legs did not run ({!Oracle.skipped}) *)
}

val run_format :
  ?bug:Oracle.bug ->
  ?golden:string list ->
  seed:int ->
  iters:int ->
  Netdsl_format.Desc.t ->
  (wire_stats, Report.t) result

type chain_stats = {
  cs_stack : string;
  cs_mutants : int;  (** packets checked, chained seeds included *)
  cs_accepted : int;  (** accepted by both fused and sequential decode *)
  cs_rejected : int;
  cs_answered : int;
      (** replies the fused stacked pipeline and the reference executor
          both produced, byte-equal, under the default rotation spec *)
}

val run_stack :
  ?bug:Oracle.bug ->
  ?golden:string list ->
  seed:int ->
  iters:int ->
  string * Netdsl_format.Stack.t ->
  (chain_stats, Report.t) result
(** The chained-decode oracle leg: seeds from {!Corpus.stack_seeds} (plus
    [golden] raw-byte samples), cross-layer mutation via
    {!Mutate.random_chain} aimed with each seed's real layer windows, and
    every mutant judged by {!Oracle.Chain} — fused chain vs sequential
    per-layer decode on verdict, layer windows and every demanded
    register, and the fused stacked replies, flows and timers vs the
    {!Reference} executor ({!Oracle.Stack_reply}).  A disagreement that
    needs the packets before it (an eviction, an expiry) does not replay
    on a fresh oracle; its report names the packet and the disagreement
    as the run saw them.  Raises [Invalid_argument] if the stack does not compile
    (callers should pre-compile to fail cleanly). *)

val run_machine :
  ?bug:bool ->
  seed:int ->
  iters:int ->
  string * Netdsl_fsm.Machine.t ->
  (Trace_fuzz.stats, Report.t) result
