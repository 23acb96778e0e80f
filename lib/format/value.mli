(** Dynamic representation of decoded packets.

    The codec is an interpreter over {!Desc.t}, so decoded messages are
    dynamically typed records.  (The statically typed counterpart, where the
    host type system itself carries the proofs, lives in [Netdsl_typed].) *)

type t =
  | Int of int64
  | Bool of bool
  | Bytes of string
  | List of t list  (** array elements *)
  | Record of (string * t) list  (** fields in wire order *)
  | Variant of string * t  (** chosen case name and its record *)

(** {1 Constructors} *)

val int : int -> t
val int64 : int64 -> t
val bool : bool -> t
val bytes : string -> t
val list : t list -> t
val record : (string * t) list -> t
val variant : string -> t -> t

(** {1 Accessors}

    Accessors raise [Invalid_argument] with a descriptive message when the
    shape does not match; [find]-style variants return [option]. *)

val to_int64 : t -> int64
val to_int : t -> int
val to_bool : t -> bool
val to_bytes : t -> string
val to_list : t -> t list
val to_record : t -> (string * t) list

val find : t -> string -> t option
(** [find record name] looks a field up in a record value. *)

val find_int_flat : t -> string -> int64 option
(** [find_int_flat record name]: the integer value (a bool as 0/1) of a
    top-level field, else of a field of a top-level variant's selected
    case — the flat namespace {!Stack} compiles a variant format to.
    [None] when no such scalar field is present. *)

val get : t -> string -> t
val get_int : t -> string -> int
val get_int64 : t -> string -> int64
val get_bool : t -> string -> bool
val get_bytes : t -> string -> string
val get_list : t -> string -> t list

val path : t -> string list -> t option
(** [path v [a; b; c]] follows nested record fields. *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_json : t -> string
(** JSON rendering for tooling: records and variants become objects
    (variants as [{"case": name, ...fields}]), byte strings become
    ["hex:..."] strings, 64-bit integers that exceed JSON's exact range
    become decimal strings. *)

val strip_derived : Desc.t -> t -> t
(** [strip_derived fmt v] removes checksum, computed and const fields from a
    record decoded against [fmt], recursively.  Two packets that round-trip
    through the codec compare equal on their stripped projections even if
    the caller never supplied the derived fields. *)
