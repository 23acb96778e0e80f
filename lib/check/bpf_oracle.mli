(** A classic-BPF interpreter: the oracle for the kernel pre-filter and
    the kernel steering program.

    {!Netdsl_format.Bpf.compile} promises that its program never drops a
    datagram {!Netdsl_format.Codec.decode} accepts.  This module runs a
    program the way a Linux UDP socket does — on the kernel's encoding
    ({!Netdsl_format.Bpf.encode}), over the datagram behind its 8-byte
    UDP header, a load past the end returning 0, and a nonzero return
    value smaller than the datagram trimming it (to no less than the
    header) — so the promise can be checked on any packet without a
    socket, and the kernel checked against it on a few.

    {!Netdsl_format.Bpf.steering} promises that its program picks, for
    every payload, the worker {!Netdsl_format.Bpf.steer} assigns the
    payload's key.  {!steer} runs a program the way an [SO_REUSEPORT]
    group does — over the payload alone, offsets payload-relative, a
    load past the end returning 0 — and returns its value: the index of
    the socket the kernel queues the datagram to, when it is below the
    group's size. *)

type t
(** A program ready to run: its kernel encoding, built once. *)

val prepare : Netdsl_format.Bpf.program -> t

type verdict =
  | Drop  (** the kernel discards the datagram *)
  | Keep of int  (** the socket receives this many payload bytes *)

val run : t -> string -> verdict
(** Run the program on one UDP payload.  Raises [Invalid_argument] on an
    instruction {!Netdsl_format.Bpf.encode} does not emit. *)

val passes : t option -> string -> bool
(** The payload reaches the socket whole ([true] without a program).
    Allocates nothing: senders predict their kernel drops with it per
    packet. *)

val unsound : Netdsl_format.Desc.t -> t -> string -> string option
(** [Some detail] when the format accepts the payload
    ({!Netdsl_format.Codec.decode} is the judge) and the program does not
    deliver it whole — the one thing a pre-filter must never do. *)

val steer : t -> string -> int
(** The value a steering program returns for one UDP payload.
    Allocates nothing. *)

val dropped : t option -> string list -> int
(** How many of the payloads the program keeps from the socket: the
    kernel drop count a server with this filter should report. *)

(** {2 Planted mutants}

    Defects a soundness check must catch, each [None] when the program
    has nothing to mutate. *)

val tighten_range : Netdsl_format.Bpf.program -> Netdsl_format.Bpf.program option
(** The first upper-bound test admits one value less (on [arq_packet],
    every ACK is dropped: [kind = 1]). *)

val shift_loads : Netdsl_format.Bpf.program -> Netdsl_format.Bpf.program option
(** Every field is read one byte late, as if the payload base were
    off by one. *)

val trim_accept : Netdsl_format.Bpf.program -> Netdsl_format.Bpf.program option
(** The accept returns 6 instead of [0xFFFFFFFF]: the kernel trims each
    accepted datagram to its header, delivering an empty payload. *)

val wrong_multiplier : Netdsl_format.Bpf.program -> Netdsl_format.Bpf.program option
(** The steering hash multiplies by a constant 2^16 too large: the
    hash of every key [k > 0] moves by [k], so most keys land on another
    worker. *)

val mutants : Netdsl_format.Bpf.program -> (string * Netdsl_format.Bpf.program) list
(** The four above, named, where they apply: a filter has no multiply,
    a steering program no range test or accept, and both load. *)
