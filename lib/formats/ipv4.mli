(** The IPv4 header (RFC 791) written in the format DSL — the paper's
    Figure 1 example, including the semantic layer no ASCII picture can
    carry: IHL derived from the options length, Total Length from the
    datagram size, and the header checksum with its exact coverage. *)

val format : Netdsl_format.Desc.t
(** Fields: version (const 4), ihl (computed), tos, total_length
    (computed), identification, flags, fragment_offset, ttl, protocol,
    header_checksum (Internet, over the header only), source, destination,
    options, payload.  Generated at build time from
    [specs/stacks.ndsl]. *)

val make :
  ?tos:int ->
  ?identification:int ->
  ?flags:int ->
  ?fragment_offset:int ->
  ?ttl:int ->
  ?options:string ->
  protocol:int ->
  source:int64 ->
  destination:int64 ->
  payload:string ->
  unit ->
  Netdsl_format.Value.t
(** Convenience constructor; derived fields are filled by the codec. *)

val addr_of_string : string -> int64
(** ["192.168.0.1"] → the 32-bit address.  Raises [Invalid_argument] on
    malformed input. *)

val addr_to_string : int64 -> string

val protocol_tcp : int
val protocol_udp : int
val protocol_icmp : int
