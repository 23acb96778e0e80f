(** Ethernet II framing: MAC addresses and EtherType dispatch (the FCS is
    stripped by hardware and not modelled). *)

val format : Netdsl_format.Desc.t
(** Generated at build time from [specs/stacks.ndsl]. *)

val make :
  dst:string -> src:string -> ethertype:int -> payload:string -> Netdsl_format.Value.t
(** [dst]/[src] are 6-byte MAC addresses as raw bytes; see
    {!mac_of_string}. *)

val mac_of_string : string -> string
(** ["aa:bb:cc:dd:ee:ff"] → 6 raw bytes. *)

val mac_to_string : string -> string

val ethertype_ipv4 : int
val ethertype_arp : int
