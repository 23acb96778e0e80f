(** Packet-format descriptions.

    A {!t} is a first-class value describing the on-the-wire encoding of a
    protocol message: a named sequence of fields, each with a bit-level type,
    optional value constraints and documentation.  Formats integrate the
    *syntactic* layer (bit widths, byte order, ABNF/ASN.1-style structure)
    with the *semantic* layer the paper asks for (§3.3): length fields
    computed from and checked against the data they describe, checksum
    fields with declared coverage, and value constraints.

    Descriptions are consumed by {!Codec} (encode/decode), {!Wf}
    (well-formedness), {!Sizing} (static size analysis), {!Diagram}
    (RFC-style ASCII art, reproducing the paper's Figure 1) and {!Gen}
    (random packet generation for testing and fuzzing). *)

type endian = Big | Little

(** Pure integer expressions over earlier fields, used for computed fields
    and data-dependent lengths.  All arithmetic is over [int64]. *)
type expr =
  | Const of int64
  | Field of string  (** value of a previously decoded integer field *)
  | Byte_len of string  (** encoded byte length of a named field *)
  | Msg_len  (** total byte length of the enclosing message *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr  (** truncating; division by zero is a decode error *)

(** Length specification for byte strings and arrays. *)
type len_spec =
  | Len_fixed of int  (** constant element count (or byte count for bytes) *)
  | Len_expr of expr  (** element/byte count computed from earlier fields *)
  | Len_bytes of expr  (** (arrays only) encoded byte length of the array *)
  | Len_remaining  (** everything left in the enclosing window *)
  | Len_terminated of int
      (** (bytes only) until a terminator byte, exclusive; the value may not
          contain the terminator.  [Len_terminated 0] is the classic
          NUL-terminated string of TFTP, DNS master files, etc. *)

(** Coverage of a checksum field. *)
type region =
  | Region_message
      (** the whole message with the checksum field itself read as zero
          (the IPv4/UDP/TCP convention) *)
  | Region_span of string * string
      (** the contiguous run of sibling fields from the first name to the
          second, inclusive *)
  | Region_rest  (** every sibling field after the checksum field *)

type constr =
  | In_range of int64 * int64  (** inclusive bounds *)
  | One_of of int64 list
  | Not_equal of int64

type ty =
  | Uint of { bits : int; endian : endian }
      (** unsigned integer, 1–64 bits; [endian] matters only for whole-byte
          widths *)
  | Bool_flag  (** single bit rendered as a boolean *)
  | Const of { bits : int; endian : endian; value : int64 }
      (** fixed value (version numbers, magic); checked on decode *)
  | Enum of {
      bits : int;
      endian : endian;
      cases : (string * int64) list;
      exhaustive : bool;
          (** when [true], decoding an unlisted value is an error *)
    }
  | Computed of { bits : int; endian : endian; expr : expr }
      (** derived on encode, checked against [expr] on decode — the DSL's
          length-of / header-length fields *)
  | Checksum of { algorithm : Netdsl_util.Checksum.algorithm; region : region }
      (** computed on encode, verified on decode *)
  | Bytes of len_spec  (** opaque byte payload *)
  | Array of { elem : t; length : len_spec }  (** repeated sub-format *)
  | Record of t  (** nested group of fields *)
  | Variant of {
      tag : string;  (** name of an earlier integer/enum sibling field *)
      cases : (string * int64 * t) list;  (** case name, tag value, body *)
      default : t option;  (** body used when no tag value matches *)
    }
  | Padding of { bits : int }  (** reserved bits, zero on encode *)

and field = {
  name : string;
  ty : ty;
  doc : string option;  (** display label, used by {!Diagram} *)
  constraints : constr list;
}

and t = { format_name : string; fields : t_fields }
and t_fields = field list

(** {1 Construction helpers} *)

val format : string -> field list -> t
val field : ?doc:string -> ?constraints:constr list -> string -> ty -> field

val uint : int -> ty
(** [uint bits] is a big-endian unsigned integer field type. *)

val uint_le : int -> ty
val u8 : ty
val u16 : ty
val u32 : ty
val u64 : ty
val flag : ty
val const : int -> int64 -> ty
val enum : ?exhaustive:bool -> int -> (string * int64) list -> ty
val computed : int -> expr -> ty
val checksum : ?region:region -> Netdsl_util.Checksum.algorithm -> ty
val bytes_fixed : int -> ty
val bytes_expr : expr -> ty
val bytes_remaining : ty

val cstring : ty
(** NUL-terminated byte string: [Bytes (Len_terminated 0)]. *)

val array_fixed : t -> int -> ty
val array_expr : t -> expr -> ty
val array_remaining : t -> ty
val record : t -> ty
val padding : int -> ty

(** {1 Queries} *)

val find_field : t -> string -> field option
val field_names : t -> string list

val is_value_bearing : ty -> bool
(** Whether decoding the field contributes an entry to the result record
    (everything except [Padding]). *)

val fold_formats : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Folds over a format and every nested sub-format (records, array
    elements, variant cases), outermost first. *)

val references : t -> string list * string list
(** [(values, spans)]: the names, at any depth, whose value some
    expression or variant tag reads, and those whose encoded extent a
    [len(...)] or a checksum span reads; each list sorted, without
    duplicates. *)

(** {1 Printing} *)

val pp_expr : Format.formatter -> expr -> unit
val pp_constr : Format.formatter -> constr -> unit
val pp_ty : Format.formatter -> ty -> unit
val pp_field : Format.formatter -> field -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
