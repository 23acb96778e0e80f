(** Fused run-to-completion flight plans.

    A {!spec} is a declarative account of what the pipeline's stages do
    to a packet: which fields are read, the semantic verify predicate,
    the event classifier, the flow key, and the respond-by-patching
    rules — the pipeline's only statement of per-packet semantics.
    {!compile_stack} lowers it against a layered
    {!Netdsl_format.Stack} once into a plan that the pipeline executes
    per packet run-to-completion.  The spec record is readable (and only
    buildable through {!spec}): the oracles' reference executor
    ([Netdsl_check.Reference]) reads it and evaluates the same semantics
    over decoded values, sharing nothing else with this plan.

    There is one engine.  A single format is a one-layer stack:
    {!compile} qualifies the spec's bare field names once and compiles
    that.  The fused path decodes, validates and extracts native-int
    registers in one pass of the chain's compiled static-offset kernels
    ({!Netdsl_format.Stack.run_window}), with no value tree and no
    per-packet allocation.  Conditions and the flow key are register
    reads — one array load, the register file and slot resolved at
    compile time — and every respond action compiles to a fixed-offset
    patch kernel ({!Netdsl_format.Emit.kernel}) inside its layer's
    window.  A register read of [-1] means the accepted packet does not
    carry the field: a comparison on it is [false], the key is
    {!no_key}, and a patch from it is refused.

    §3.4 ordering: {!run_window} completes {e all} syntactic validation before
    any field is surfaced, and the pipeline consults {!verify_ok} before
    any machine step or response — fusion moves the work, not its order. *)

(** {2 Specs} *)

type operand = Field of string | Const of int64
(** A value read from a decoded top-level field, or a literal. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type cond =
  | Cmp of cmp * operand * operand
  | All of cond list  (** conjunction; [All \[\]] is true *)
  | Any of cond list  (** disjunction; [Any \[\]] is false *)
  | Not of cond
(** A predicate over decoded fields.  A comparison involving a field the
    packet does not carry is [false]. *)

type rule = { ev_when : cond; ev_name : string }
(** Classifier rule: first matching rule names the machine event. *)

type action = { set_field : string; set_to : operand }
(** In-place patch of one top-level scalar of the request bytes. *)

type response = { re_when : cond; re_set : action list }
(** Respond rule: first matching rule's actions build the reply. *)

type spec = private {
  sp_demand : string list;
  sp_verify : cond option;
  sp_classify : rule list;
  sp_flow_key : string option;
  sp_respond : response list;
}
(** Field names are bare (a single format) or qualified ["layer.field"]
    (a stack), as the caller wrote them. *)

val spec :
  ?demand:string list ->
  ?verify:cond ->
  ?classify:rule list ->
  ?flow_key:string ->
  ?respond:response list ->
  unit ->
  spec
(** [demand] forces extra fields to be extracted (beyond those the
    conditions, actions and flow key already demand). *)

val spec_flow_key : spec -> string option
(** The spec's flow-key field name, if declared — what sharded callers
    ({!Net.Server} with [workers > 1]) default their steering key to. *)

(** {2 Compilation} *)

type plant =
  | Late_static_load
      (** every layer compiled with {!Netdsl_format.View.Hot.compile}'s
          planted defect: one static-offset field read one byte late *)
  | Unrefused_patch
      (** respond patches resolved by {!Netdsl_format.Emit.patcher} alone,
          as if {!Netdsl_format.Stack.patcher}'s refusal under an
          enclosing payload checksum were switched off *)
  | Evict_mru  (** [Pipeline]'s flow table evicts the most recently used flow *)
  | Late_tick  (** [Pipeline]'s wheel fires every timer one tick late *)
(** A planted defect, for the differential oracles' self-tests only: each
    is one the reference executor must catch.  {!compile} applies the
    first two; [Pipeline.create] the last two. *)

type t

val compile :
  ?plan:Netdsl_fsm.Step.plan -> ?plant:plant -> Netdsl_format.Desc.t -> spec -> t
(** {!compile_stack} over the one-layer stack of [fmt], the spec's bare
    field names qualified with the format's name.  Raises
    [Invalid_argument] naming the refused field when the format has no
    compiled plan — a list of variable-size records (TLV, pcap) — or a
    field the spec reads cannot be extracted.  Event names are interned
    against [plan] (an unknown name classifies to an id [Step.fire_id]
    refuses as [Unknown_event]). *)

val compile_stack :
  ?plan:Netdsl_fsm.Step.plan ->
  ?plant:plant ->
  Netdsl_format.Stack.t ->
  spec ->
  (t, string) result
(** Compile the spec against a layered {!Netdsl_format.Stack}.  Every
    field the spec mentions must be a qualified ["layer.field"] name;
    conditions and keys read the chain's fused native-int registers (a
    field absent from the accepted packet's variant case compares
    [false], keys to {!no_key} and refuses a patch), and respond actions patch inside the owning layer's recorded
    window ({!Netdsl_format.Stack.patcher}: a field under an enclosing
    carrier's payload checksum cannot be patched); after its actions,
    every respond rule clears each layer's padding
    ({!Netdsl_format.Stack.padding}), as the codec writes it as zero,
    and a rule whose padding cannot be cleared refuses every packet.  Fails when the stack cannot be fused, a demanded register
    cannot be extracted, or an action names an unknown layer.  [plant]
    (oracle self-test only) plants a defect. *)

val stack_plan : t -> Netdsl_format.Stack.plan
(** The compiled chain — its registers and layer windows read the state
    of this flight's last accepting {!run_window}. *)

val flow_key_name : t -> string option
(** The spec's flow-key field, qualified, if any. *)

(** {2 Per-packet execution}

    One packet at a time: {!run_window}, then the accessors, which read
    the state of the last successful run. *)

val run_window : t -> off:int -> len:int -> string -> bool
(** Decode and {e fully} validate the packet [data.(off .. off+len-1)]
    against the stack — [true] exactly when
    {!Netdsl_format.Stack.Seq.decode} would return [Ok].  Allocates
    nothing. *)

val verify_armed : t -> bool
val verify_ok : t -> bool
(** The spec's verify predicate over the decoded packet ([true] when the
    spec has none). *)

val classify_armed : t -> bool

val event : t -> int
(** Classified event id: [>= 0] a plan event id, [-1] pass-through (no
    rule matched), [max_int] a rule named an event the plan lacks. *)

val flow_key : t -> int
(** The flow-key field of the decoded packet as a native int, or
    [min_int] when the packet carries no key (use the default shared
    instance). *)

val no_key : int
(** = [min_int], the {!flow_key} "no key" sentinel. *)

val n_responses : t -> int

val response : t -> int
(** Index of the first matching respond rule, or [-1] for none. *)

val apply : t -> int -> Bytes.t -> len:int -> bool
(** [apply t idx buf ~len] applies respond rule [idx]'s patches in place
    to the reply bytes [buf.(0 .. len-1)], a copy of the last accepted
    request: each patch writes inside its layer's window as that run
    recorded it.  [false] if any patch fails to compile, validate, or
    find its source field — the packet is then rejected at the encode
    stage. *)
