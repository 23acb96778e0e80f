(** Structure-aware wire mutation driven by a format description.

    A plain bit-flip fuzzer spends most of its budget re-discovering the
    outermost validation layer; the interesting rejection paths (length
    fields that lie about the data they describe, checksums over corrupted
    regions, truncation exactly at a field boundary) sit behind structure
    it cannot see.  {!plan} compiles a {!Netdsl_format.Desc.t} once into a table of the
    fixed-offset scalar slots of the format — which bits hold a plain
    integer, which a derived length, which a checksum — so the mutator can
    aim: length-field lies, checksum corruption, enum/constraint
    violations, boundary truncation, plus the classic blind operators
    (bit flips, chunk duplication/reorder/removal, zero runs, trailing
    garbage).

    Every {!op} carries all of its own randomness, so a mutation list in a
    repro replays bit-for-bit with {!apply} — no generator state needed. *)

type kind =
  | Scalar  (** uint / bool / enum: plain value-bearing bits *)
  | Const  (** fixed magic, checked on decode *)
  | Computed  (** derived on encode, re-derived and compared on decode —
                  the length-of / header-length fields *)
  | Checksum  (** computed on encode, verified on decode *)

type slot = {
  s_name : string;
  s_bit_off : int;  (** absolute bit offset from the start of the message *)
  s_bits : int;
  s_endian : Netdsl_format.Desc.endian;
  s_kind : kind;
}
(** One fixed-offset scalar field of the format's static prefix. *)

type plan

val plan : Netdsl_format.Desc.t -> plan
(** One slot per scalar top-level field that the format's static layout
    ({!Netdsl_format.Sizing.layout}) places at a fixed offset with a
    fixed width: the fields a flow key, a patch or the kernel filter
    can address without decoding. *)

val slots : plan -> slot list
val format : plan -> Netdsl_format.Desc.t

(** A single self-contained mutation.  [Field_set] targets a compiled
    {!slot} — with the slot's kind it is a length lie, a checksum
    corruption, a constant smash or a constraint violation. *)
type op =
  | Flip_bit of int  (** absolute bit index *)
  | Set_byte of int * int
  | Truncate of int  (** keep only the first [n] bytes *)
  | Extend of string  (** append trailing bytes *)
  | Field_set of { name : string; bit_off : int; bits : int;
                   endian : Netdsl_format.Desc.endian; value : int64 }
  | Dup_span of { off : int; len : int; at : int }
      (** insert a copy of [off, off+len) at byte position [at] —
          duplicated TLVs / array elements *)
  | Remove_span of { off : int; len : int }
  | Swap_spans of { off1 : int; off2 : int; len : int }
      (** reorder two non-overlapping equal-length spans *)
  | Zero_span of { off : int; len : int }

val apply : op list -> string -> string
(** Applies the ops left to right.  Total: an op that no longer fits the
    (possibly already truncated) message degenerates to the identity, so a
    shrunk input still replays the same list. *)

val random : plan -> Netdsl_util.Prng.t -> string -> op list
(** A random mutation list (1–3 ops) for one seed packet: targeted slot
    mutations when the plan has slots, blind operators always. *)

val op_to_string : op -> string
(** Compact deterministic rendering used by {!Report} repros. *)

(** {2 Cross-layer mutation}

    For layered packets ({!Netdsl_format.Stack}), the lies that matter
    straddle layer boundaries: an outer length field undercounting the
    inner header, a demux field routed at the wrong next format, an outer
    byte corrupted while the inner checksum stays valid.  {!chain_plan}
    compiles one slot {!plan} per layer plus the chain's demux edges;
    {!random_chain} then emits ordinary {!op}s whose offsets are shifted
    to each layer's window in the concrete seed packet — repros replay
    with plain {!apply}, exactly like single-format mutations. *)

type chain_plan

val chain_plan : Netdsl_format.Stack.t -> chain_plan

val random_chain :
  chain_plan -> windows:(int * int) array -> Netdsl_util.Prng.t -> string -> op list
(** [random_chain cp ~windows rng seed] draws 1–3 ops aimed at chained
    offsets; [windows] gives each layer's [(byte_off, byte_len)] in
    [seed], as reported by an accepting {!Netdsl_format.Stack.Seq} decode.
    Pass [ [||] ] for a seed that does not chain-decode — mutation then
    falls back to the outermost layer's plan. *)
