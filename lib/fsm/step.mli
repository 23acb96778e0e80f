(** Compiled execution plans for machines: the behavioural hot path.

    {!Interp} walks the machine definition on every event — string-keyed
    states, an association-list register file, and a linear scan of the
    transition list.  That is the right shape for tooling, but it is an
    interpreter on the packet hot path.  [Step] closes that gap the same
    way {!Netdsl_format.View} and {!Netdsl_format.Emit} did for packet
    syntax: {!compile} validates a machine {e once} and lowers it into
    dense integer-indexed tables — states, events and registers interned
    to contiguous ids, one slot per (state, event) pair holding the
    candidate transitions with guards and actions pre-compiled into
    closures over a flat [int array] register file (domain wrap-around
    baked into each assignment).

    An {!instance} is a flat mutable record (state id + register array),
    O(registers) to mint per flow, and {!fire_id} allocates {e nothing}
    on the accept path while preserving {!Interp}'s exact semantics: it
    refuses unknown and unhandled events, detects nondeterminism instead
    of picking silently, and leaves the configuration untouched on every
    refusal.  The property suite in [test/test_fsm.ml] drives [Step] and
    [Interp] in lock-step over every shipped protocol machine and checks
    verdicts, labels and configurations agree on every event.

    Labels, register names and {!Machine.config} views remain available
    through the intern tables ({!transition}, {!config},
    {!enabled_labels}) — the opt-in slow path used for traces, hooks and
    error messages, never by the hot loop. *)

type plan
(** A machine validated and lowered once.  Immutable; share it freely
    across flows and worker domains. *)

type instance
(** One executable configuration of a plan: a state id and a register
    file.  Mutable and single-owner, like a socket. *)

(** The outcome of one {!fire_id}.  All constructors are constant, so
    returning a verdict allocates nothing. *)
type verdict =
  | Fired  (** exactly one guard admitted the event; the instance moved *)
  | Unknown_event  (** the event id is not one of the machine's events *)
  | Unhandled  (** no transition was enabled in the current configuration *)
  | Nondeterministic
      (** several transitions were enabled; nothing was executed *)

val compile : Machine.t -> plan
(** Validates ({!Machine.validate_exn} — [Invalid_argument] on defects)
    and lowers the machine.  Linear in the machine size; do it once. *)

val machine : plan -> Machine.t
(** The validated source definition. *)

(** {2 Intern tables}

    Ids are contiguous, starting at 0, in declaration order.  Resolve
    names once at setup time; run the hot loop on ids. *)

val n_states : plan -> int
val n_events : plan -> int
val n_registers : plan -> int

val event_id : plan -> string -> int
(** The id of a declared event, or [-1] if the name is unknown. *)

val state_id : plan -> string -> int
(** The id of a declared state, or [-1]. *)

val register_id : plan -> string -> int
(** The id of a declared register, or [-1]. *)

val event_name : plan -> int -> string
val state_name : plan -> int -> string
val register_name : plan -> int -> string

val transition : plan -> int -> Machine.transition
(** The source transition at a compiled index (see {!last_transition}) —
    the label-reconstruction slow path for hooks and traces. *)

(** {2 Compiled timer ops}

    Each transition's {!Machine.timer_op} lowers to one native int — the
    {e timer word} — so the engine's post-fire check is an array read
    compared against {!timer_none}.  An arm packs the duration and the
    interned id of the event the expiry fires:
    [(after_ms lsl 20) lor fire_event_id]. *)

val timer_word : plan -> int -> int
(** The packed timer op of the transition at a compiled index (feed it
    {!last_transition} after a [Fired] verdict).  Allocation-free. *)

val timer_none : int
(** [0] — the transition carries no timer op. *)

val timer_cancel : int
(** [-1] — the transition cancels the flow's pending timer. *)

val timer_after_ms : int -> int
(** Duration of an arm word (a word [> 0]). *)

val timer_event : int -> int
(** Interned id of the event an arm word fires on expiry. *)

val has_timers : plan -> bool
(** Whether any transition carries a timer op — lets the engine skip the
    wheel entirely for timerless machines. *)

(** {2 Instances} *)

val instance : plan -> instance
(** A fresh instance at the initial configuration.  O(registers); safe to
    mint per flow. *)

val plan_of : instance -> plan

val reset : instance -> unit
(** Back to the state of a fresh {!instance}: initial state and
    registers, no last transition, and the engine's timer cache
    cleared — the engine recycles an evicted flow's instance for the
    next flow with it, in place. *)

val fire_id : instance -> int -> verdict
(** [fire_id i ev] fires the unique enabled transition for event id [ev].
    Allocation-free; on any verdict other than {!Fired} the configuration
    is unchanged. *)

val fire : instance -> string -> verdict
(** Name-resolving convenience: [fire_id] after {!event_id}. *)

val state : instance -> int
val state_name_of : instance -> string
val in_accepting : instance -> bool

val register : instance -> int -> int
(** Register value by interned id ([Invalid_argument] if out of range). *)

val register_by_name : instance -> string -> int

val last_transition : instance -> int
(** Compiled index of the transition taken by the most recent successful
    {!fire_id}, or [-1] if none has fired since creation/{!reset}.  Feed
    it to {!transition} to recover the label — the hook slow path. *)

(** {2 The engine's timer cache}

    Per-instance scratch the engine uses to make the per-packet re-arm
    cheap.  [timer_hint] is the wheel entry last armed for this
    instance's flow (fed back to [Engine.Wheel.arm_hint] to skip the key
    lookup); [-1] at creation; a hint only — the wheel validates it —
    so staleness costs one lookup, never correctness.
    [timer_unchanged] checks the (timer word, wheel tick) signature of
    the last arm recorded by [note_timer_armed]: a match means the
    re-arm is bit-identical and the engine skips the wheel entirely, so
    the engine must [clear_timer_armed] whenever the flow's timer leaves
    the wheel behind its back (expiry delivery, cancel). *)

val timer_hint : instance -> int
val timer_unchanged : instance -> word:int -> wnow:int -> bool
val note_timer_armed : instance -> hint:int -> word:int -> wnow:int -> unit
val clear_timer_armed : instance -> unit

val config : instance -> Machine.config
(** Reconstruct the {!Machine.config} view (state and register names from
    the intern tables).  Allocates; diagnostics only. *)

val enabled_labels : instance -> string -> string list
(** Labels of the transitions the event would enable in the current
    configuration, in declaration order — what {!Interp} reports in its
    [Nondeterministic] error.  Slow path. *)

val describe : instance -> string -> verdict -> string
(** A human-readable account of a verdict for the given event name,
    matching {!Interp.pp_error}'s wording for the refusals. *)
