(** Static size analysis of format descriptions.

    Computes the minimum and (when bounded) maximum encoded size of a
    format.  The paper's §3.3 notes that static information about the data
    lets implementations drop dynamic checks; a decoder can reject a
    too-short datagram with a single length comparison derived here instead
    of bounds-checking every field read, and {!layout} records, once,
    where each top-level field sits and which values it admits. *)

type bounds = {
  min_bits : int;
  max_bits : int option;  (** [None] when the format is unbounded *)
}

val pp_bounds : Format.formatter -> bounds -> unit

val bounds : Desc.t -> bounds
val field_bounds : Desc.field -> bounds

val fixed_bits : Desc.t -> int option
(** [Some n] when every message of the format is exactly [n] bits. *)

val fixed_bytes : Desc.t -> int option
(** Like {!fixed_bits}, in whole bytes ([None] if not byte-divisible). *)

val min_bytes : Desc.t -> int
(** Minimum encoded size rounded up to bytes — the cheap reject threshold. *)

(** {1 The static layout}

    What a format's description fixes about each top-level field before
    any packet arrives, worked out once: where it sits, how wide it is,
    how its bits read as a number and which numbers {!Codec.decode}
    accepts there.  The compiled decoder ({!View.Hot}), the kernel
    filter and flow key ({!Bpf}), the in-place patcher ({!Emit}), the
    stack compiler ({!Stack}) and the fuzzer's mutator all read it
    instead of walking the description themselves.  {!Codec} does not:
    it stays the independent reference they are tested against. *)

type kind =
  | Int  (** [uint] or [enum] *)
  | Flag  (** a one-bit boolean *)
  | Const
  | Computed
  | Checksum
  | Padding

type shape = {
  bits : int;
  endian : Desc.endian;
  kind : kind;
  admitted : (int64 * int64) list;
      (** the values {!Codec.decode} accepts in this field, as sorted,
          disjoint, non-adjacent inclusive intervals of signed [int64]
          (a 64-bit field reads wrapped): the field's domain cut by a
          constant, an exhaustive enum's cases and a [uint]'s or an
          [enum]'s range, one-of and not-equal constraints.  Empty when
          no value is accepted. *)
}

type entry = {
  field : Desc.field;
  shape : shape option;  (** [None] for bytes, arrays, records, variants *)
  off : int option;
      (** the bit offset of the field in every message: [Some] exactly
          when every field before it has a fixed size *)
  width : int option;  (** its size in bits, when every message agrees *)
  min_end : int;  (** where it ends in the shortest message, in bits *)
}

type layout = entry list
(** One entry per top-level field, in wire order. *)

val layout : Desc.t -> layout

val find : layout -> string -> entry option

val span : layout -> string -> (int * int, string) result
(** [(bit_off, bit_len)] of a named field that sits at a fixed offset
    with a fixed size in every message — what makes it addressable
    without decoding; [Error] names the reason it is not. *)

val full : shape -> bool
(** Whether the field admits every value of its width (the codec checks
    nothing on it). *)

val admits : shape -> int64 -> bool

val ranges : shape -> int * int * int array
(** The admitted values of a field of at most 62 bits, for a native-int
    test: [(lo, hi, pairs)], where every admitted value lies in
    [\[lo, hi\]], and when there are several intervals, [pairs] lists
    them as [lo; hi] pairs for {!in_ranges} (otherwise it is empty).
    [lo > hi] when nothing is admitted. *)

val in_ranges : int array -> int -> int -> bool
(** [in_ranges pairs v 0]: whether [v] lies in one of the [pairs].
    Allocates nothing. *)

(** {1 Wire order} *)

val swap_bytes : bits:int -> int -> int
(** Reverses the [bits / 8] low bytes of a native int: a little-endian
    field of whole bytes, at most 62 bits, read big-endian. *)

val swap_bytes64 : bits:int -> int64 -> int64
(** {!swap_bytes} for fields up to 64 bits. *)
