(** Parse graphs: layered header stacks compiled into one flat plan.

    A {!t} names an ordered chain of formats — Ethernet carrying IPv4
    carrying UDP carrying TFTP — where a declared {e demux} field of each
    layer (ethertype, protocol, dst_port) must select the next, and a
    declared {e via} field (the trailing payload bytes) carries it.  This
    is the P4-style parse graph restricted to one path; branching graphs
    are expressed as separate chains sharing their prefix formats.

    {!compile} lowers the whole chain once.  Every non-terminal layer must
    be hot-eligible ({!View.Hot}, compiled to static-offset kernels); its
    compiled plan records the payload span so the next layer's window is
    two integer reads — no re-scan.  An accepting run copies the
    demanded registers of the case plan that ran into one register file
    and records every layer's window, so a reader is one array load.  A terminal layer may additionally be a
    {e one-level variant} format (a linear prefix ending in a [Variant]
    over a fixed-offset tag, like TFTP or ICMP): the variant is flattened
    into one hot plan per case and dispatch is a single tag peek, so even
    a 4-layer chain ending in TFTP decodes with zero allocation.  Demux
    edges become flat native-int tables.

    The accept set is exactly that of decoding each layer with
    {!Codec.decode} over the payload of the one before ({!Seq} below is
    that reference, and the [lib/check] chain oracle diffs the two
    verdict- and register-exact under the structure-aware mutator).
    Cross-layer length consistency needs no extra machinery: an outer
    length lie moves the inner window, and the inner layer's own computed
    length/checksum checks reject it in both implementations.

    {!encode} builds a chain from one value per layer, innermost first,
    with {!Codec.encode}: each carrier's payload field holds the bytes of
    the layers inside it, so its lengths and checksums (a checksum over
    the whole message included) come out right with no extra machinery. *)

(** {1 Describing a stack} *)

type layer

val layer :
  ?name:string ->
  ?via:string ->
  ?select:string * int64 list ->
  Desc.t ->
  layer
(** One link of the chain.  [name] (default: the format's name) prefixes
    this layer's fields in qualified ["layer.field"] references.  [via]
    (default ["payload"]) names the field carrying the next layer: it must
    be the trailing [Bytes Len_remaining] field.  [select] gives the demux
    field and the accepted constants routing to the next layer; required
    on every layer except the last, forbidden on the last. *)

type t
(** A validated stack description. *)

val v : name:string -> layer list -> (t, string) result
(** Validates the chain shape (>= 1 layer, unique layer names, demux
    fields scalar and in range, via fields trailing byte payloads).  A
    single format is a one-layer stack: that is how {!Netdsl_engine.Flight}
    compiles every flight. *)

val name : t -> string
val layer_names : t -> string list
val layer_format : t -> int -> Desc.t

val layer_via : t -> int -> string
(** The payload field carrying layer [i+1] (meaningless on the last
    layer, where it is whatever {!layer} defaulted it to). *)

val layer_select : t -> int -> (string * int64 list) option
(** Layer [i]'s demux edge — [None] exactly on the terminal layer.  With
    {!layer_via} this is enough to reconstruct the declaration, which is
    how the surface-language printer round-trips [stack] blocks. *)

val patcher : t -> int -> string -> (Emit.patcher, string) result
(** [patcher stack j field] is {!Emit.patcher} for [field] of layer [j],
    applied inside that layer's window.  It repairs layer [j]'s own
    checksums only, so it is refused when an enclosing layer [i < j] has
    a checksum covering its payload: that checksum would go stale.  Every
    respond path resolves its patches here. *)

(** {1 The compiled plan} *)

type plan
(** A compiled chain: per-layer fused decoders, demux tables, payload-span
    windowing and register directory.  A plan
    is a reusable single-thread object: accessors are only meaningful
    after the last {!run} accepted. *)

val compile : ?demand:string list -> ?plant_late_load:bool -> t -> (plan, string) result
(** [compile ~demand stack] lowers the chain.  [demand] lists qualified
    ["layer.field"] names that must be readable as native-int registers
    after every accepting {!run} — the engine demands its classify /
    flow-key / respond operands this way.  Fails with a reason if a layer
    cannot be fused or a demanded field cannot be extracted.
    [plant_late_load] compiles every layer plan with
    {!View.Hot.compile}'s planted defect (oracle self-test only). *)

val stack : plan -> t

val run : plan -> ?off:int -> ?len:int -> string -> bool
(** Decode and fully validate a layered packet; [true] exactly when the
    sequential per-layer reference accepts.  Steady state allocates
    nothing. *)

val run_window : plan -> off:int -> len:int -> string -> bool
(** {!run} with both bounds required (no optional-argument boxing). *)

(** {2 Registers and windows} *)

type reg = int
(** A resolved qualified field: its index in the plan's register file
    ({!registers}).  An accepting {!run} copies each demanded register of
    the case plan that ran into that file, so reading it costs one array
    load. *)

val reg : plan -> string -> (reg, string) result
(** Resolve ["layer.field"]; the field must have been in [compile]'s
    [demand] list. *)

val reg_get : plan -> reg -> int
(** Register value from the last accepting {!run}, or [-1] when the
    packet's variant case does not carry the field (field values are
    always non-negative, so [-1] is unambiguous). *)

val registers : plan -> int array
(** The register file, indexed by {!reg}: a compiled reader holds the
    array and its index. *)

val layer_count : plan -> int
val locate : plan -> string -> (int * string, string) result
(** ["layer.field"] as the layer's index and the bare field name. *)

val layer_fmt : plan -> int -> Desc.t

val layer_off : plan -> int -> int
(** Byte offset of layer [i]'s window in the last accepted packet. *)

val layer_len : plan -> int -> int
(** Byte length of layer [i]'s window in the last accepted packet. *)

val windows : plan -> int array
(** Every layer's window at once: [off] at [2i], [len] at [2i + 1] —
    what a compiled patch reads its layer's bounds from. *)

(** {1 Encode} *)

val encode : plan -> Value.t array -> (string, string) result
(** [encode plan values] builds the chain from one {!Value.t} per layer,
    outermost first.  Carrier payload fields are ignored and may be
    omitted: layer [i]'s payload is the encoding of layers [i+1..],
    built innermost first with {!Codec.encode}.  Checks that each
    carrier's demux field, when given, selects the next layer.  [Error]
    names the failing layer. *)

(** {1 Sequential reference decode}

    Decode the chain one layer at a time with the reference decoder:
    {!Codec.decode} over each layer's window, the demux field read from
    the layer's {!Value.t}, and the next window the trailing
    [bytes remaining] payload ({!v} enforces that the via field is one),
    so it starts at [off + len - String.length payload].  This defines
    the accept set the fused plan must match — the semantic ground truth
    the chain oracle diffs it against — and is the naive baseline E17
    measures, the reference executor's decoder ([Netdsl_check.Reference]),
    and the error reporter for the pipeline and the CLI (layer-qualified
    reasons). *)

module Seq : sig
  type t

  val create : plan -> t

  val decode : t -> ?off:int -> ?len:int -> string -> (unit, Codec.error) result
  (** The failing layer's {!Codec.decode} error with the layer's name
      prepended to its path (trailing input included); a demux value
      selecting no next layer is an [Eval_error] on that layer. *)

  val value : t -> int -> Value.t
  (** Layer [i]'s decoded value after an accepting {!decode}; read a
      demanded field with {!Value.find_int_flat}. *)

  val layer_off : t -> int -> int
  val layer_len : t -> int -> int
end
