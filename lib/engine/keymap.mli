(** The engine's int -> int map: flow key -> flow slot in {!Pipeline},
    timer key -> wheel entry in {!Wheel}.

    Open addressing with linear probing over one flat [int array] that
    interleaves each bucket's key and value, so a hit costs one cache
    line and a lookup allocates nothing.  Deletion is backward-shift
    (Knuth's Algorithm R): the entries after a removed one slide back
    into the hole, so a delete leaves no tombstone, probe chains never
    lengthen under churn, and the map reallocates only to grow.

    A key's home bucket is the top bits of its Fibonacci product
    [k * C], so keys that differ only in their high bits still spread:
    chosen keys sharing their low bits (multiples of the bucket count)
    cannot pile into one probe chain. *)

type t

val create : int -> t
(** [create n] holds at least [n] buckets (rounded up to a power of two,
    minimum 8). *)

val find : t -> int -> int
(** The value bound to a key, or [-1].  Allocation-free. *)

val add : t -> int -> int -> unit
(** [add t k v] binds [k] to [v].  Preconditions: [k] is unbound (a
    failed {!find} just preceded) and [v >= 0].  Doubles the bucket
    array when the load would pass 3/4. *)

val remove : t -> int -> int
(** Unbind a key; returns the value it was bound to, or [-1] if it was
    unbound.  Allocation-free. *)

val length : t -> int
(** Bound keys. *)

(** Test-only entry points. *)
module For_testing : sig
  val max_displacement : t -> int
  (** Longest distance, in buckets, from any bound key's home bucket to
      the bucket holding it — the worst probe chain a lookup walks. *)
end
