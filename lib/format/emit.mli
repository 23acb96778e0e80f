(** In-place patching: the encode side of the serve path.

    No serving path builds a whole message from a value — that is
    {!Codec.encode}, the one whole-message encoder.  A respond or forward
    loop answers an already-valid packet by changing a few scalar fields
    (ARQ data→ack, TTL decrement, a port or address swap): {!patcher}
    resolves one field's wire offset, width and validation once, and
    {!patch} rewrites it in place and updates any Internet checksum over
    it incrementally (RFC 1624) — no decode, no re-encode, no
    re-checksum.  The result is byte-for-byte what decode → mutate →
    {!Codec.encode} would produce ([test/test_emit.ml] asserts this for
    every shipped format). *)

type error = Codec.error
(** Patch errors are {!Codec} errors: same constructors, same rendering. *)

type patcher
(** A compiled single-field rewrite: field offset, width, validation and
    checksum-delta plan, resolved once. *)

val patcher : Desc.t -> string -> (patcher, string) result
(** [patcher fmt name] compiles an in-place rewrite of top-level scalar
    field [name].  Requires the field to be byte-aligned at a fixed offset,
    not the source of any derived field, and any checksum covering it to be
    a top-level Internet checksum whose coverage of the field is decidable
    statically (and whose region provably cannot be all-zero, unless a
    conservative scan fallback is possible).  The format's padding must
    lie at fixed top-level offsets, under the same checksum rules: every
    patch clears it, as {!Codec.encode} writes it as zero.  [Error reason]
    explains any rejection. *)

val patcher_field : patcher -> string

val patch : patcher -> ?off:int -> ?len:int -> Bytes.t -> int64 -> (unit, error) result
(** [patch p buf v] rewrites the field inside the encoded message occupying
    [buf.(off .. off+len-1)] (default: all of [buf]) to [v], validating [v]
    against the field's width, enum cases and constraints, clears the
    format's padding bits, and updates the covering Internet checksum
    incrementally.  If the message was valid
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
    update (and one more per padding byte set), with no allocation.
    Fields wider than 56 bits and constrained fields go through
    {!patch_window}. *)

val patch_exn : patcher -> ?off:int -> ?len:int -> Bytes.t -> int64 -> unit
(** @raise Codec.Error on failure. *)
