(** Compiled encode plans: the encode-side mirror of {!View}'s compiled
    decoder.

    {!create} lowers a format description once into a flat program of emit
    ops — widths, endianness and constraint sets resolved at compile time.
    Derived fields (computed lengths, checksums) are emitted as {e patch
    slots}: the encoder reserves their bytes, streams the rest of the
    message, then back-fills them in place, so a checksummed region is
    written exactly once and never copied.  Encoding into a caller-provided
    reusable buffer ({!encode_into}) allocates nothing
    on the fixed-layout path.

    Output is byte-for-byte identical to {!Codec.encode}, including which
    consistency checks fire and in what order ([test/test_emit.ml] asserts
    this property for every shipped format).

    {!patcher}/{!patch} serve respond/forward loops that change one scalar
    field of an already-valid packet (ARQ data→ack, TTL decrement): the
    field is rewritten at its fixed wire offset and any Internet checksum
    over it is updated incrementally (RFC 1624) — no decode, no re-encode,
    no re-checksum. *)

type t
(** A compiled emitter.  Holds reusable scratch state; not thread-safe —
    use one per domain. *)

type error = Codec.error
(** Emit errors are {!Codec} errors: same constructors, same rendering. *)

val create : Desc.t -> t
(** Compile the format.  Ill-formed constructs (e.g. a little-endian field
    of non-whole-byte width) compile to ops that fail when reached, exactly
    as {!Codec.encode} does. *)

val format : t -> Desc.t

(** {2 Encoding from values} *)

val encode : t -> Value.t -> (string, error) result
(** Drop-in equivalent of [Codec.encode (format t)] — same inputs, same
    bytes, same errors — using the emitter's internal growable buffer. *)

val encode_exn : t -> Value.t -> string
(** @raise Codec.Error on failure. *)

val encode_into : t -> ?off:int -> Bytes.t -> Value.t -> (int, error) result
(** [encode_into t buf v] writes the message into [buf] starting at [off]
    (default [0]) and returns its length in bytes.  The buffer is not
    grown: a message that does not fit fails with [Io Truncated].  Stale
    buffer contents never leak into the output.
    @raise Invalid_argument if [off] is outside [buf]. *)

(** {2 In-place patching} *)

type patcher
(** A compiled single-field rewrite: field offset, width, validation and
    checksum-delta plan, resolved once. *)

val patcher : ?computed:bool -> Desc.t -> string -> (patcher, string) result
(** [patcher fmt name] compiles an in-place rewrite of top-level scalar
    field [name].  Requires the field to be byte-aligned at a fixed offset,
    not the source of any derived field, and any checksum covering it to be
    a top-level Internet checksum whose coverage of the field is decidable
    statically (and whose region provably cannot be all-zero, unless a
    conservative scan fallback is possible).  [Error reason] explains any
    rejection.

    [~computed:true] additionally admits [Computed] fields: normally a
    patch to a derived length would desynchronise it from its defining
    expression, but the {!Stack} back-patcher re-evaluates that expression
    over the fused chain itself and writes the provably consistent value —
    it owns the invariant the default refusal protects. *)

val patcher_field : patcher -> string

val patch : patcher -> ?off:int -> ?len:int -> Bytes.t -> int64 -> (unit, error) result
(** [patch p buf v] rewrites the field inside the encoded message occupying
    [buf.(off .. off+len-1)] (default: all of [buf]) to [v], validating [v]
    against the field's width, enum cases and constraints, and updates the
    covering Internet checksum incrementally.  If the message was valid
    before the patch it is valid after — byte-for-byte what a decode →
    mutate → re-encode round trip would produce.
    @raise Invalid_argument if the window is outside [buf]. *)

val patch_window :
  patcher -> off:int -> len:int -> Bytes.t -> int64 -> (unit, error) result
(** {!patch} with both bounds required: per-packet callers use this so the
    call site does not box an optional argument. *)

type kernel = Bytes.t -> int -> int -> int -> bool
(** [k buf off len v]: {!patch_window} [~off ~len buf v] for a native-int
    value, [true] exactly when it returns [Ok ()], writing the same
    bytes.  A negative [v] is out of range for every field.
    @raise Invalid_argument if the window is outside [buf]. *)

val kernel : patcher -> kernel
(** Compile the patcher once more into a fixed-offset closure: the
    field's offset and width, its admissible enum values and the covering
    Internet checksum's offset and word parity are resolved here, so a
    call is a range test, the byte stores and one incremental checksum
    update, with no allocation.  Fields wider than 56 bits and
    constrained fields go through {!patch_window}. *)

val patch_exn : patcher -> ?off:int -> ?len:int -> Bytes.t -> int64 -> unit
(** @raise Codec.Error on failure. *)
