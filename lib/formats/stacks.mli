(** The shipped parse graphs: layered header chains over the format
    catalogue, plus canonical chained-packet builders.  The stacks are
    generated at build time from [specs/stacks.ndsl].

    Each stack is a straight chain (branching graphs are separate chains
    sharing their prefix formats, exactly as the compiled plans want
    them):

    - {!inet_tftp} — Ethernet → IPv4 (proto 17) → UDP (dst port 69) →
      TFTP: the realistic internet-facing request path, and the 4-layer
      chain whose fused decode the stack tests gate against the
      per-layer reference.
    - {!eth_arp} — Ethernet → ARP (ethertype 0x0806): the shortest chain,
      terminal layer fully linear.
    - {!ipv4_icmp} — IPv4 (proto 1) → ICMP: a chain ending in a
      variant-with-default format, exercising the flattened-case
      dispatcher's default arm. *)

val inet_tftp : Netdsl_format.Stack.t
val eth_arp : Netdsl_format.Stack.t
val ipv4_icmp : Netdsl_format.Stack.t

val all : (string * Netdsl_format.Stack.t) list
val find : string -> Netdsl_format.Stack.t option

(** {1 Chained-packet builders}

    Per-layer value arrays (outermost first) for {!Netdsl_format.Stack}'s
    encoders; carrier payload fields are left empty for the encoder to
    splice.  Deterministic sample addresses so corpus generation is
    reproducible. *)

val inet_tftp_values :
  ?src_port:int -> Tftp.packet -> Netdsl_format.Value.t array

val eth_arp_values : unit -> Netdsl_format.Value.t array
(** An ARP who-has request. *)

val ipv4_icmp_values : ?data:string -> unit -> Netdsl_format.Value.t array
(** An ICMP echo request. *)
