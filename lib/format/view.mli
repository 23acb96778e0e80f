(** Zero-copy validating decode.

    [View] parses and validates a message exactly as {!Codec.decode} does —
    constants, enum exhaustiveness, constraints, computed fields, checksums,
    trailing input — but records only a table of field {e spans} (bit
    offset / length windows into the original buffer) instead of building a
    {!Value.t} tree.  No region is copied during validation: checksums are
    computed in place with {!Netdsl_util.Checksum.compute_zeroed}, and
    payload bytes are extracted lazily, only when a caller asks for them.

    The validation guarantee is unchanged: {!decode} returns [Ok] only after
    {e every} check has passed, so no field of an unverified packet is ever
    surfaced ("no processing occurs on unverified packets", paper §3.4).
    The equivalence property tests in [test/test_view.ml] assert that a
    view decode accepts/rejects exactly when the allocating codec does, with
    identical field values.

    A [t] is a {e reusable} decoder: allocate once, call {!decode} per
    packet.  In steady state the hot path allocates only small scope
    bookkeeping, never per-field values — this is the engine's fast path. *)

type error = Codec.error
(** Shared with {!Codec} so both decode paths report one error type. *)

type t
(** A reusable decoder and, after a successful {!decode}, a view of the
    last message.  Accessors are only meaningful after [decode] returned
    [Ok]; a subsequent [decode] invalidates the previous view. *)

val create : Desc.t -> t
val format : t -> Desc.t

val decode :
  ?allow_trailing:bool -> t -> ?off:int -> ?len:int -> string -> (unit, error) result
(** [decode t data] parses and validates [data] (or the byte window
    [data.(off .. off+len-1)]) against [format t].  Same semantics and
    acceptance as {!Codec.decode}, including [allow_trailing]. *)

val of_string : ?allow_trailing:bool -> Desc.t -> string -> (t, error) result
(** One-shot convenience: [create] + [decode]. *)

(** {2 Field access}

    All lookups address fields by name: a top-level field, or else a
    field of a top-level variant's selected case (the flat namespace
    {!Stack} compiles a variant format to).  [get_*] raise
    [Invalid_argument] on a missing field or a kind mismatch. *)

val get_int : t -> string -> int64
(** Scalar fields: uint, const, enum, computed, checksum (bool as 0/1). *)

val find_int : t -> string -> int64 option
val get_bool : t -> string -> bool

val get_bytes : t -> string -> string
(** Copies the payload out of the underlying buffer — the only point at
    which bytes are materialised. *)

val find_span : t -> string -> (int * int) option
(** [(bit_off, bit_len)] of a bytes field's content within {!raw} — the
    true zero-copy access path. *)

val variant_case : t -> string -> string option
(** The selected case name of a variant field ("default" for the default
    arm). *)

val raw : t -> string
(** The buffer the last decode ran over. *)

val length_bytes : t -> int
(** Size of the decoded window in bytes. *)

val to_value : t -> Value.t
(** Materialise the full {!Value.t} the allocating codec would have
    produced (leaves the zero-copy world; used by the equivalence tests). *)

(** {2 Flow keys}

    A precompiled extractor for a scalar field at a fixed wire offset: the
    sharding key read used by [Engine.Shard] to pick a worker without
    decoding the packet. *)

type key_extractor

val key_extractor : Desc.t -> string -> (key_extractor, string) result
(** Compiles an extractor for the named top-level field.  Fails (with a
    reason) if the field does not exist, is not scalar, or is preceded by a
    variable-size field. *)

val extract_key : key_extractor -> ?off:int -> string -> int option
(** Reads the key field from a raw packet ([None] if the buffer is too
    short for the field). *)

val no_key : int
(** Sentinel ([min_int]) returned by {!extract_key_int} for packets too
    short to carry the key field.  No real key can collide with it: key
    fields are at most 62 bits wide. *)

val key_min_bytes : key_extractor -> int
(** Fewest packet bytes that carry the whole key field — callers reading
    datagrams into an oversized scratch buffer compare the receive length
    against this before {!extract_key_int} (whose own bounds check only
    sees the buffer, not the datagram). *)

val key_layout : key_extractor -> int * int * Desc.endian
(** [(bit_off, bits, endian)]: where the key sits on the wire — what a
    program that reads it outside OCaml (the kernel steering program,
    {!Bpf.steering}) must load. *)

val extract_key_int : key_extractor -> ?off:int -> string -> int
(** Allocation-free variant of {!extract_key} for the per-packet steering
    path: returns the key as a native int, or {!no_key} when the buffer is
    too short.  Agrees with [extract_key] on every input (unit-tested). *)

(** {2 Fused hot-path decode}

    A second lowering of the same compiled plan, for {e linear} formats
    (straight-line top level: no records or variants, and arrays only
    when counted — a fixed count or a count expression — over fixed-size
    records of scalars, whose checks compile once and run at every
    element's [start + i * stride], like P4 header stacks), into a chain
    of specialised kernels — one closure per field that needs work,
    built once at compile time.  Every field whose bit offset does not
    depend on the packet is resolved to a constant offset in the window:
    one bounds check covers that static prefix, a byte-aligned 8/16/32-bit
    field is one load at a constant offset with its constant, enum and
    range checks folded into one interval test, a sub-byte field a
    shift-and-mask read, and [bytes[n]], padding and unchecked,
    unreferenced scalars compile to nothing; only fields after the first
    variable-length one keep a running position.  Computed and checksum
    checks run after the parse over the same constants.  Demanded fields
    land in preallocated native-int registers, and a steady-state
    {!Hot.run} allocates nothing.  The accept
    set is exactly {!decode}'s (the differential oracle enforces this);
    only the error detail is collapsed to a boolean verdict.  Formats or
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
      {!View.decode} would return [Ok].  Steady state allocates nothing. *)

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
      the caller) — the stack dispatcher's variant-tag peek. *)

  val length_bytes : t -> int
  (** Byte length of the last {!run} window. *)

  val eligible_fields : Desc.t -> string list
  (** Top-level fields of [fmt] that a hot plan can extract — empty when
      the format itself is ineligible.  The oracle demands exactly these. *)
end
