(** TFTP (RFC 1350): the classic teaching protocol, expressible only once
    the DSL has NUL-terminated strings.  Opcode-dispatched variant with
    read/write requests (filename and mode as cstrings), data blocks,
    acknowledgements and errors. *)

val format : Netdsl_format.Desc.t
(** Generated at build time from [specs/stacks.ndsl]. *)

type packet =
  | Rrq of { filename : string; mode : string }
  | Wrq of { filename : string; mode : string }
  | Data of { block : int; data : string }
  | Ack of { block : int }
  | Error of { code : int; message : string }

val equal_packet : packet -> packet -> bool
val pp_packet : Format.formatter -> packet -> unit

val to_value : packet -> Netdsl_format.Value.t
(** The dynamic record {!to_bytes} encodes — also the innermost layer
    value of the eth→ipv4→udp→tftp chain in {!Stacks}. *)

val to_bytes : packet -> (string, Netdsl_format.Codec.error) result
(** Fails when a filename/mode/message contains a NUL byte. *)

val to_bytes_exn : packet -> string
val of_bytes : string -> (packet, string) result
