(** The paper's §3.4 transport packet: "a sequence number, a list of bytes
    (the payload) and a checksum calculated from the sequence number and
    payload", plus a kind tag distinguishing DATA from ACK.

    Besides the raw format this module offers a typed view ({!packet}),
    which is what the executable protocols in [Netdsl_proto] exchange: a
    packet that fails the checksum never becomes a {!packet} value — the
    codec refuses it — realising "no processing occurs on unverified
    packets" at this layer too. *)

val format : Netdsl_format.Desc.t
(** Generated at build time from [specs/arq.ndsl]. *)

type packet =
  | Data of { seq : int; payload : string }
  | Ack of { seq : int }

val equal_packet : packet -> packet -> bool
val pp_packet : Format.formatter -> packet -> unit

val to_bytes : packet -> string
(** Serialise; checksum and length are derived by the codec. *)

val of_bytes : string -> (packet, string) result
(** Parse + verify.  [Error] carries a human-readable reason (truncation,
    checksum mismatch, bad kind...). *)

val seq_modulus : int
(** Sequence numbers are one byte, so 256. *)
