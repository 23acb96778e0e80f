(** Seed packets for the fuzzer: generated, golden and handcrafted.

    A fuzzer is only as good as the valid packets it starts from — a mutant
    of garbage exercises nothing but the outermost length check.  A corpus
    for a format combines three sources:

    - {!Netdsl_format.Gen} output, when the format's derived-field
      dependencies can be inverted generically;
    - a handcrafted {!value_generator} for the shipped formats Gen cannot
      invert (IPv4 and TCP, whose header-length words feed their own
      checksums) — the single home of the generators that used to be
      duplicated across [test_view.ml] and [test_emit.ml];
    - golden wire samples (committed hex files under [test/corpus/],
      loaded with {!load_hex_file}).

    When none of the three applies, deterministic fallback seeds (zero
    runs and patterned bytes at the format's minimum size) keep the
    differential oracle running on the reject path. *)

type t

val shipped : (string * Netdsl_format.Desc.t) list
(** Every format the repository ships, by [format_name] — the fuzzing
    matrix of the test suite and CI. *)

val find_shipped : string -> Netdsl_format.Desc.t option

val value_generator :
  Netdsl_format.Desc.t -> (Netdsl_util.Prng.t -> Netdsl_format.Value.t) option
(** A random *valid* value generator for the format: handcrafted for the
    shipped formats {!Netdsl_format.Gen} cannot invert (matched by
    [format_name]), [Gen.generate] otherwise; [None] if neither applies. *)

val generator : Netdsl_format.Desc.t -> (Netdsl_util.Prng.t -> string) option
(** {!value_generator} composed with the codec: random valid wire bytes. *)

val load_hex_file : string -> string list
(** Reads a corpus file: one packet per line, hex encoded; blank lines and
    [#] comment lines are skipped.  Raises [Sys_error] or
    [Invalid_argument] on unreadable files or malformed hex — corpus files
    are committed artefacts, a defect in one should fail loudly. *)

val make :
  ?golden:string list ->
  ?count:int ->
  Netdsl_format.Desc.t ->
  Netdsl_util.Prng.t ->
  t
(** [make fmt rng] builds a corpus of [count] (default 16) generated seeds
    plus the [golden] wire samples (raw bytes, not hex).  Falls back to
    deterministic patterned seeds when the format has no generator and no
    golden samples. *)

val format : t -> Netdsl_format.Desc.t
val seeds : t -> string array
(** Non-empty. *)

val pick : t -> Netdsl_util.Prng.t -> string

val fallback_seeds : Netdsl_format.Desc.t -> string list
(** The deterministic reject-path patterns (zero runs, [0xff] runs,
    counting bytes) at the format's minimum size — what {!make} uses when
    a format has neither generator nor golden samples. *)

val stack_generator :
  Netdsl_format.Stack.t -> (Netdsl_util.Prng.t -> string option) option
(** Random chained packets: one {!Netdsl_format.Gen} value per layer,
    each carrier's demux field pinned to its first accepted edge, encoded
    through the stack's fused encoder ([None] for a draw the encoder
    refuses).  [None] when some layer is not generable. *)

val stack_seeds : Netdsl_format.Stack.t -> string list
(** Chained golden packets built through the stack's own fused encoder:
    handcrafted {!Netdsl_formats.Stacks} values for the catalogue stacks
    ([inet_tftp], [eth_arp], [ipv4_icmp]), generically generated
    per-layer values (demux pinned to an accepted edge, carrier payload
    cleared) for any other stack whose layers are generable.  Empty when
    no layer generator applies — the chain fuzzer then falls back to
    patterned seeds of the outermost layer. *)
