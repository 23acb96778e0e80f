(** A hierarchical timing wheel keyed by flow id: the engine's notion of
    time.

    The paper's guarantee 4 (§3.4) — sending ends in success {e or
    timeout}, never stuck — needs per-flow retransmission deadlines in
    the live engine, at flow-table scale.  This wheel holds millions of
    armed timers in parallel int arrays (the zero-allocation idiom of the
    pipeline's flow table): 4 levels × 256 slots of intrusive
    doubly-linked lists, the tombstone-free {!Keymap} from key to entry,
    and a freelist — {!arm}, re-arm and {!cancel} are O(1) and
    allocation-free;
    {!advance} cascades a higher-level slot down exactly when the level
    below wraps, so each timer is touched O(levels) times over its life.

    One key holds at most one timer: arming an armed key {e replaces} its
    deadline and payload (the retransmission idiom — every
    data-bearing transition re-arms the flow's timer).  Ticks are
    dimensionless; the pipeline maps wall-or-virtual milliseconds onto
    them.

    Semantics proven against a sorted-list reference model (see
    [test_timers.ml]): {!advance} fires exactly the entries with
    [expiry <= now], one tick at a time, in arm order within a tick, and
    the fire callback may arm, re-arm or cancel any timer — including
    ones due in the same tick — with the mutations honoured. *)

type t

val create : ?now:int -> unit -> t
(** A fresh wheel, positioned at tick [now] (default 0). *)

val now : t -> int
(** The current tick — the time of the last {!advance}. *)

val live : t -> int
(** Armed timers currently held. *)

val arm : t -> key:int -> after:int -> ev:int -> unit
(** [arm t ~key ~after ~ev] — in [after] ticks (clamped to at least 1),
    deliver [ev] for [key] unless re-armed or cancelled first.  If [key]
    already holds a timer it is re-armed in place; an {e identical}
    re-arm (same deadline tick, same event) is a complete no-op that
    keeps the original arm order — the per-packet retransmission idiom
    costs a few loads.  O(1), amortised allocation-free ([after] beyond
    the wheel's 2^32-tick span is served correctly: the entry parks in
    the top level and re-cascades). *)

val arm_hint : t -> hint:int -> key:int -> after:int -> ev:int -> int
(** {!arm} returning the armed entry's id, and accepting the id a
    previous arm of [key] returned as [hint]: a hint that still
    designates [key]'s live entry skips the key lookup — the engine's
    per-packet re-arm path, which has already hashed [key] once for the
    flow table.  The hint is validated before use, so any stale or junk
    value (including [-1]) degrades to a plain {!arm}, never to a wrong
    timer. *)

val cancel : t -> int -> bool
(** Cancel [key]'s pending timer; [false] if none was armed.  O(1). *)

val armed : t -> int -> bool
(** Whether [key] currently holds a timer. *)

val advance : t -> now:int -> (key:int -> ev:int -> unit) -> int
(** [advance t ~now fire] moves time forward to tick [now], calling
    [fire] for every timer whose deadline was reached, in deadline order
    (arm order within a tick), and returns how many fired.  Each fired
    timer is disarmed before its callback runs, so the callback can
    re-arm the same key.  Monotone: a [now] at or before {!now} is a
    no-op.  With no timers live the wheel skips straight to [now]. *)

val next_due : t -> int
(** The next tick at which {!advance} may have something to do — the
    earliest populated level-0 slot, capped at the next cascade boundary
    (a sound "wake up no later than" deadline for a select loop; sleeping
    to it and advancing converges on the true deadline in O(levels)
    wakes).  [-1] when no timers are live. *)

(** {2 Counters} — cumulative, folded into [Stats] by the pipeline. *)

val expired : t -> int
val cancelled : t -> int
val cascaded : t -> int
