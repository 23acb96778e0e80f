(** Classic-BPF programs compiled from a format: the kernel pre-filter
    ({!compile}) and the kernel steering program ({!steering}).

    {!compile} lowers the part of a format's verification that needs no
    decode — values at fixed offsets of the outermost format and the
    datagram length — to a program the kernel runs on every datagram
    before it is queued to a UDP socket ([SO_ATTACH_FILTER]).  A datagram
    the program drops never wakes the server, costs no [recvmmsg] copy,
    no slab slot and no decode.

    {b What compiles.}  Every top-level field {!Sizing.fixed_field_span}
    places at a fixed offset, big-endian and at most 32 bits wide,
    contributes the checks {!Codec.decode} applies to its value:
    exhaustive-enum membership, [Const] magic, and [In_range] / [One_of]
    / [Not_equal] constraints (folded into one set of allowed intervals).
    The datagram length must reach {!Sizing.min_bytes}.  A derived length
    becomes an equality on the datagram length: a trailing
    [bytes\[f\]] after a fixed-size prefix of [p] bytes means the payload
    is [p + f] bytes long; so does a [Computed] [f = len(rest)] whose
    [rest] is the trailing remaining-bytes field, and [f = msglen] means
    it is [f] bytes.  Everything else is skipped: checksums, fields at
    variable offsets, little-endian or wider fields, nested formats, and
    whatever a flight spec verifies.

    {b Soundness.}  Each emitted check is one that {!Codec.decode} makes
    on the same bytes, so the program may pass a datagram the decoder
    rejects but never drops one it accepts.  [lib/check]'s interpreter
    ([Netdsl_check.Bpf_oracle]) holds it to that on every corpus.

    {b Offsets.}  A UDP socket filter sees the datagram from its 8-byte
    UDP header, so the payload starts at offset 8 and the packet length
    the program reads is the payload length plus 8.

    {b Returns.}  The kernel trims a datagram to any nonzero return
    value smaller than its length, so the accept is [0xFFFFFFFF], never
    a small constant; the reject is [0].

    {b Steering.}  {!steering} compiles a flow key to the program an
    [SO_REUSEPORT] group runs to pick the socket — the worker — for each
    datagram ([SO_ATTACH_REUSEPORT_CBPF]): load the key, reduce it to a
    worker by {!steer}'s rule, return it.  The
    kernel has already pulled the UDP header there, so its offsets are
    payload-relative.  A datagram too short to carry the key fails the
    load, and a failed load returns 0: worker 0, as {!steer} sends
    {!View.no_key}. *)

type width = B | H | W  (** 1, 2 or 4 bytes, big-endian *)

type cond = Jeq | Jgt | Jge

type src = K of int | X  (** compare against a constant or register X *)

type insn =
  | Ld_len  (** A := datagram length *)
  | Ldx_len  (** X := datagram length *)
  | Ld_abs of width * int  (** A := the [width] bytes at offset k *)
  | Rsh of int  (** A := A >> k *)
  | And of int  (** A := A land k *)
  | Add of int  (** A := (A + k) mod 2^32 *)
  | Mul of int  (** A := (A * k) mod 2^32 *)
  | Mod of int  (** A := A mod k, k > 0 *)
  | Jmp of cond * src * int * int
      (** compare A; skip [jt] instructions when true, [jf] when false *)
  | Ret of int
      (** return k: a filter drops on 0 and keeps k bytes otherwise *)
  | Ret_a  (** return A: a steering program's socket index *)

type program = insn array

val accept : int
(** [0xFFFFFFFF]: keep the whole datagram. *)

val udp_header : int
(** 8: the payload's offset in what the program reads. *)

val compile : Desc.t -> program option
(** The outermost format's fixed-offset checks, or [None] when none
    applies (the format compiles to nothing and gets no filter). *)

val steer : workers:int -> bits:int -> int -> int
(** The worker that owns a flow key of a [bits]-bit field.  A key of at
    most 8 bits (256 values) goes to [key mod workers], so no worker gets
    more than [ceil (2^bits / workers)] of its values; a wider key is
    hashed first, [((key * 0x9E3779B1) mod 2^32) lsr 16 mod workers].
    {!View.no_key} goes to worker 0.  The one definition of the
    partition: {!steering}'s program runs the same instruction list in
    the kernel, and this evaluates it in memory (the lossy loopback). *)

val steering : Desc.t -> key:string -> workers:int -> (program, string) result
(** The steering program for [workers] (at least 2) sockets, keyed on the
    named top-level field: it must be a {!View.key_extractor} key that
    is big-endian, at most 32 bits wide and covered by one load of at
    most 4 bytes ending on its last byte. *)

val encode : program -> (int * int * int * int) array
(** The kernel's [struct sock_filter] rows: [(code, jt, jf, k)]. *)

val to_string : program -> string
(** One instruction per line, [tcpdump -d] style: jump targets are
    absolute instruction numbers. *)
