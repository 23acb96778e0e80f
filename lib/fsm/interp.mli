(** Runtime interpreter for machines: §3.2(iii), "a means of combining and
    executing valid state transitions".

    The interpreter {e cannot} execute an invalid transition: {!fire}
    refuses events that no guard admits in the current configuration
    (soundness at runtime) and reports nondeterminism instead of picking
    silently.  Hooks give the "behavioural hooks ... to allow adaptive
    behaviour" of §2.2: external policy can observe every transition.

    Role: the {e reference executor} for machines.  The engine steps
    flows with the compiled {!Step} plans; the Step-vs-Interp trace
    lock-step ([Netdsl_check.Trace_fuzz]) diffs them against this
    interpreter, which also backs [netdsl run]'s named-event walks. *)

type error =
  | Unknown_event of string
  | Unhandled of { state : string; event : string }
  | Nondeterministic of { event : string; labels : string list }

val pp_error : Format.formatter -> error -> unit

type t

val create :
  ?on_transition:(Machine.transition -> Machine.config -> unit) ->
  ?on_unhandled:(string -> Machine.config -> unit) ->
  Machine.t ->
  t
(** The machine is validated on creation ([Invalid_argument] on defects). *)

(** {2 Prepared machines}

    Validation is linear in the machine; per-flow instantiation should not
    be.  [prepare] validates once; [instantiate] then mints an independent
    interpreter in O(1) — the engine creates one per worker domain (and one
    per flow) from a single prepared machine. *)

type prepared

val prepare : Machine.t -> prepared
(** Validates ([Invalid_argument] on defects) and caches the initial
    configuration. *)

val prepared_machine : prepared -> Machine.t

val instantiate :
  ?on_transition:(Machine.transition -> Machine.config -> unit) ->
  ?on_unhandled:(string -> Machine.config -> unit) ->
  prepared ->
  t
(** A fresh interpreter at the initial configuration; no re-validation. *)

val resume : t -> Machine.config -> unit
(** Continue from [cfg] (a configuration this machine reached) with an
    empty {!history}: one interpreter can step many flows in turn, each
    flow keeping only its configuration, and no log grows with the
    traffic. *)

val machine : t -> Machine.t
val config : t -> Machine.config
val state : t -> string
val register : t -> string -> int

val can_fire : t -> string -> bool

val fire : t -> string -> (Machine.transition, error) result
(** Fires the unique enabled transition for the event, runs hooks, advances
    the configuration. *)

val fire_exn : t -> string -> Machine.transition

val fire_all : t -> string list -> (unit, error) result
(** Fires a sequence, stopping at the first error. *)

val in_accepting : t -> bool
val reset : t -> unit

val history : t -> (string * Machine.transition) list
(** Events fired so far with the transitions taken, oldest first. *)
