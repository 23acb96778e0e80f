(** The UDP header (RFC 768).

    The checksum is carried as a plain field rather than a [Checksum]
    field: UDP's checksum covers a pseudo-header drawn from the enclosing
    IP layer, which a single-message description cannot see.  RFC 768
    permits an unused checksum (zero), which is what {!make} emits. *)

val format : Netdsl_format.Desc.t
(** Generated at build time from [specs/stacks.ndsl]. *)

val make :
  src_port:int -> dst_port:int -> payload:string -> unit -> Netdsl_format.Value.t
