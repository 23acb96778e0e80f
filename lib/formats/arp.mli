(** ARP for IPv4-over-Ethernet (RFC 826), with hardware/protocol sizes as
    checked constants. *)

val format : Netdsl_format.Desc.t
(** Generated at build time from [specs/stacks.ndsl]. *)

val request :
  sender_mac:string -> sender_ip:int64 -> target_ip:int64 -> Netdsl_format.Value.t

val reply :
  sender_mac:string ->
  sender_ip:int64 ->
  target_mac:string ->
  target_ip:int64 ->
  Netdsl_format.Value.t

val oper_request : int
val oper_reply : int
