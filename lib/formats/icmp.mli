(** ICMP (RFC 792): echo request/reply with a variant body dispatched on
    the message type, and a checksum over the whole message.  Every other
    type (destination unreachable among them) rides the default case as
    raw bytes.  Generated from [specs/stacks.ndsl]. *)

val format : Netdsl_format.Desc.t

val echo_request : id:int -> seq:int -> data:string -> Netdsl_format.Value.t
val echo_reply : id:int -> seq:int -> data:string -> Netdsl_format.Value.t

val type_echo_reply : int
val type_echo_request : int
