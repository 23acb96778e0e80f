(** Compiled decoding: the one compiled form of a format's decoder.

    {!Codec.decode} is the reference decoder: it defines which messages a
    format accepts and what their fields hold.  This module compiles a
    format into the fast path the engine runs per packet: {!Hot}, a chain
    of static-offset kernels that validates a message in place and leaves
    the demanded fields in native-int registers.  Where each field sits
    and which values it admits come from the format's static layout
    ({!Sizing.layout}), worked out once; the kernels open-code their own
    loads, since a helper in another module is not inlined.  {!Hot}'s
    accept set is defined as {!Codec.decode}'s: it performs every check
    the codec does (constants, enum exhaustiveness, constraints, computed
    fields, checksums, trailing input) and only collapses the error
    detail to a boolean verdict.  The differential oracle
    ([Netdsl_check.Oracle]) diffs the two verdict- and register-exact
    over the corpus and fuzz mutants; no field of an unverified packet is
    ever surfaced ("no processing occurs on unverified packets", paper
    §3.4). *)

(** {2 Fused hot-path decode}

    The compiled plan of a {e linear} format
    (straight-line top level: no records or variants, and arrays only
    when counted — a fixed count or a count expression — over fixed-size
    records of scalars, whose checks compile once and run at every
    element's [start + i * stride], like P4 header stacks), into a chain
    of specialised kernels — one closure per field that needs work,
    built once at compile time.  Every field whose bit offset does not
    depend on the packet is resolved to a constant offset in the window:
    one bounds check covers that static prefix, a byte-aligned 8/16/32-bit
    field is one load at a constant offset with its admitted values
    ({!Sizing.shape}) tested as one interval, a sub-byte field a
    shift-and-mask read, and [bytes[n]], padding and unchecked,
    unreferenced scalars compile to nothing; only fields after the first
    variable-length one keep a running position.  Computed and checksum
    checks run after the parse over the same constants.  Demanded fields
    land in preallocated native-int registers, and a steady-state
    {!Hot.run} allocates nothing.  The accept
    set is exactly {!Codec.decode}'s (the differential oracle enforces
    this); only the error detail is collapsed to a boolean verdict.  Formats or
    demands the lowering cannot prove native-int-exact return [Error]
    naming the refused field. *)

module Hot : sig
  type t

  val compile :
    ?demand:string list ->
    ?span_demand:string list ->
    ?plant_late_load:bool ->
    Desc.t ->
    (t, string) result
  (** [compile ~demand fmt] lowers [fmt]; every name in [demand] must be a
      top-level scalar-ish field of at most 62 bits, extracted into a
      register on every successful {!run}.  Every name in [span_demand]
      must be a top-level bytes-like field; its wire span (absolute bit
      offset and length) is recorded on every successful {!run} — the
      window arithmetic {!Stack} chains layers with.

      [plant_late_load] (default [false]) is the differential oracles'
      self-test: the plan reads the last multi-byte big-endian field whose
      shifted load stays inside the static prefix one byte late — a
      planted specialiser defect they must catch. *)

  val run : t -> ?off:int -> ?len:int -> string -> bool
  (** Parse and fully validate one message; [true] exactly when
      {!Codec.decode} would return [Ok].  Steady state allocates nothing. *)

  val run_window : t -> off:int -> len:int -> string -> bool
  (** {!run} with both bounds required: per-packet callers use this so
      the call site does not box an optional argument. *)

  exception Reject

  val exec : t -> off:int -> len:int -> string -> unit
  (** {!run_window} for a caller that chains plans (the {!Stack}
      dispatcher): the window must lie inside the string, and a rejected
      message raises {!Reject} instead of returning [false], so one
      handler covers a whole chain. *)

  val demand_slot : t -> string -> int
  (** Register index of a demanded field (resolve once at setup). *)

  val get : t -> int -> int
  (** Register value after a successful {!run}. *)

  val registers : t -> int array
  (** The register file itself, indexed by {!demand_slot}: a compiled
      reader holds the array and its slot and reads one element. *)

  val span_slot : t -> string -> int
  (** Span-slot index of a span-demanded field (resolve once at setup). *)

  val span_off : t -> int -> int
  (** Absolute bit offset (within the whole decoded string, not the
      window) of a demanded span after a successful {!run}. *)

  val span_len : t -> int -> int
  (** Bit length of a demanded span after a successful {!run}. *)

  val parse_end_bits : t -> int
  (** Absolute bit position where the last successful {!run} stopped. *)

  val read_scalar : string -> bit_off:int -> bits:int -> little:bool -> int
  (** Raw fixed-offset scalar read ([bits] <= 62, bounds pre-checked by
      the caller) — the stack dispatcher's variant-tag peek and the flow
      key's read ({!Bpf.read_key}). *)

  val length_bytes : t -> int
  (** Byte length of the last {!run} window. *)

  val eligible_fields : Desc.t -> string list
  (** Top-level fields of [fmt] that a hot plan can extract — empty when
      the format itself is ineligible.  The oracle demands exactly these. *)
end
