(** First-class [Machine.t] control planes for the shipped ARQ family.

    {!Stop_and_wait}, {!Go_back_n} and {!Selective_repeat} are executable
    simulator protocols; these are their guarded-FSM counterparts in the
    paper's §3.4 datatype style — registers for sequence counters and
    retry budgets, guards for window occupancy, wrap-on-assign for
    sequence arithmetic.  They serve as equivalence fixtures for the
    [Step ≡ Interp] property suite and as workloads for the trace fuzz, so
    they deliberately exercise every construct the guard language has:
    modular window arithmetic, complementary guards on one event, and
    registers that wrap.

    {!all} collects every shipped machine (these plus {!Abp} and
    {!Arq_fsm}) under stable names. *)

val stop_and_wait :
  ?max_attempts:int -> ?timeout_ms:int -> unit -> Netdsl_fsm.Machine.t
(** Alternating-bit stop-and-wait sender with a bounded retry budget.
    Registers [alt] (domain 2) and [attempts] (domain [max_attempts + 1],
    default 3).  [timeout] retransmits while attempts remain and moves to
    ["failed"] once the budget is spent — two guarded transitions on the
    same (state, event) pair.  With [timeout_ms] the machine declares its
    own deadline: every send and retransmission arms a [timeout_ms]
    retransmission timer firing [timeout]; the matching ack — and giving
    up — cancels it. *)

val go_back_n :
  ?seq_bits:int -> ?window:int -> ?timeout_ms:int -> unit ->
  Netdsl_fsm.Machine.t
(** Go-back-N sender over a [2^seq_bits] sequence space (default 3 bits,
    window 4).  Registers [base] and [next]; the send guard computes the
    window occupancy as [(next - base) mod 2^seq_bits], so sequence
    wrap-around is on the hot path.  [timeout] rewinds [next] to [base] —
    the eponymous go-back.  A send with the window full is {e unhandled},
    not ignored.  With [timeout_ms], sends, rewinds and
    window-leaves-frames-in-flight acks (re-)arm the retransmission
    timer; the ack that empties the window cancels it (the single [ack]
    transition splits into [gbn_ack_more]/[gbn_ack_last]). *)

val selective_repeat :
  ?seq_bits:int -> ?window:int -> ?timeout_ms:int -> unit ->
  Netdsl_fsm.Machine.t
(** Selective-repeat sender: like {!go_back_n} but a [nak] marks exactly
    one outstanding frame lost ([lost] flag register) and [resend]
    retransmits only that frame, leaving [base] and [next] alone.  With
    [timeout_ms] the machine gains a [timeout] event whose expiry marks
    the oldest outstanding frame lost (so the ordinary [resend] path
    recovers it), armed by sends/naks/resends and partial acks, cancelled
    by the window-emptying ack ([sr_ack_more]/[sr_ack_last] split). *)

val all : (string * Netdsl_fsm.Machine.t) list
(** Every shipped protocol machine under a stable name: the five {!Abp}
    machines, {!Arq_fsm} sender and receiver at 3 sequence bits, and the
    three machines above at their defaults.  The [Step ≡ Interp] suite
    and the trace fuzz iterate this list. *)
