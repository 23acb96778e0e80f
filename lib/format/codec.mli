(** Interpretation of {!Desc.t} as a codec: decoding bytes into {!Value.t}
    and encoding values back to bytes.

    The decoder enforces the *semantic* layer of a description in the same
    pass as the syntactic one (the paper's §3.3 point 2): constants and enum
    ranges are checked, value constraints are applied, computed fields are
    re-derived and compared, and checksum fields are verified against their
    declared coverage.  A successful decode therefore means the message is
    *valid*, not merely parseable — no caller ever processes an unverified
    packet.

    The encoder is the inverse: derived fields (computed values, checksums)
    are filled in by the codec itself, so a caller cannot emit a packet with
    a wrong length or checksum.

    Role: the {e reference executor} for formats.  No serving path runs
    it per packet — the engine decodes with the compiled {!View} plans and
    replies with {!Emit} patchers.  The differential oracle
    ([Netdsl_check.Oracle]) diffs the compiled decoders against this
    interpreter, and the patch tests diff {!Emit} against {!encode}.  It
    stays the value-level API for tools, tests and the typed format
    helpers, and {!encode} is the one whole-message encoder. *)

type path = string list
(** Field path from the message root, outermost first. *)

type error =
  | Io of { path : path; error : Netdsl_util.Bitio.error }
      (** truncation, bad widths, alignment faults *)
  | Const_mismatch of { path : path; expected : int64; actual : int64 }
  | Enum_unknown of { path : path; value : int64 }
  | Constraint_violation of { path : path; constr : Desc.constr; value : int64 }
  | Computed_mismatch of { path : path; expected : int64; actual : int64 }
  | Checksum_mismatch of { path : path; expected : int64; actual : int64 }
  | Variant_unknown_tag of { path : path; value : int64 }
  | Missing_field of { path : path }
      (** encoding: the input record lacks a required field *)
  | Type_mismatch of { path : path; expected : string }
      (** encoding: a field value has the wrong shape *)
  | Length_mismatch of { path : path; expected : int64; actual : int64 }
      (** a length specification disagrees with the actual data *)
  | Eval_error of { path : path; reason : string }
      (** expression evaluation failed (unknown field, division by zero,
          non-byte-aligned span, dependency cycle) *)
  | Trailing_input of { path : path; bits : int }
      (** decode consumed the message but input remained; [path] is [[]]
          for a whole message, the layer's name for a {!Stack} layer *)
  | Value_out_of_range of { path : path; value : int64; bits : int }

exception Error of error

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val map_path : (path -> path) -> error -> error
(** Rewrite the error's field path. *)

val decode :
  ?allow_trailing:bool -> ?off:int -> ?len:int -> Desc.t -> string -> (Value.t, error) result
(** [decode fmt bytes] parses and validates.  With [allow_trailing] (default
    [false]) leftover input after the message is not an error.  [off] and
    [len] (default: all of [bytes]) decode the message occupying
    [bytes.(off .. off+len-1)] in place, exactly as [decode] of that
    substring would, without copying it.
    @raise Invalid_argument if the window is outside [bytes]. *)

val decode_exn : ?allow_trailing:bool -> Desc.t -> string -> Value.t

val encode : Desc.t -> Value.t -> (string, error) result
(** [encode fmt v] serialises [v] (a {!Value.Record}).  Entries for
    checksum, computed, constant and padding fields may be omitted; the
    codec derives them.  If supplied, constants are checked. *)

val encode_exn : Desc.t -> Value.t -> string

val canonicalize : Desc.t -> Value.t -> (Value.t, error) result
(** [canonicalize fmt v] is decode-of-encode: the value as it would appear
    after a round trip, with all derived fields filled in. *)
