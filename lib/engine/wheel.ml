(* A hierarchical timing wheel keyed by flow id, in the zero-allocation
   style of the pipeline's flow table: every structure is a parallel int
   array, membership is intrusive doubly-linked lists threaded through
   those arrays, and the key -> entry index is the flow table's
   tombstone-free [Keymap].  Arm, re-arm and cancel are O(1); [advance]
   walks virtual time one tick at a time, cascading a higher-level slot
   down exactly when the level below wraps (the classic Varghese/Lauck layout:
   4 levels x 256 slots, level [l] spanning [2^(8*(l+1))] ticks, ~2^32
   ticks = ~49 days at 1ms resolution in total).

   One key holds at most one timer — arming an armed key replaces its
   deadline (the retransmission idiom) — so the map stays bijective and
   eviction-time cancellation needs no scan.

   Correctness does not depend on placement: a slot being fired or
   cascaded re-places any entry whose stored (absolute) expiry has not
   been reached, so far-future deadlines beyond the wheel's span simply
   sit in the top level and take another trip.  Within a tick, entries
   fire in arm order ([seq]), matching a sorted-list reference model
   ordered by (expiry, seq); the fire callback may freely arm, re-arm or
   cancel timers — including ones due in the same tick — and the pass
   honours those mutations. *)

let slot_bits = 8
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let levels = 4
let span = 1 lsl (slot_bits * levels)

(* [eprev] encodings for an entry that is not linked after a predecessor:
   [-(g+1)] marks the head of global slot [g]; [pending_mark] an entry
   collected for firing in the current tick; [free_mark] a freelist
   entry.  Slot count is far above any [-(g+1)], so the marks are
   unambiguous. *)
let pending_mark = min_int
let free_mark = min_int + 1

type t = {
  (* entry store: parallel arrays indexed by entry id *)
  mutable ekey : int array;
  mutable eexp : int array; (* absolute expiry tick *)
  mutable eev : int array; (* event id handed to the fire callback *)
  mutable eseq : int array; (* arm order; ties within a tick fire in it *)
  mutable enext : int array;
  mutable eprev : int array;
  mutable ecap : int;
  mutable used : int; (* entry-store high-water mark *)
  mutable free : int; (* freelist head through [enext], -1 when empty *)
  heads : int array; (* levels * 256 global slots; entry id or -1 *)
  index : Keymap.t; (* key -> entry id *)
  mutable now : int;
  mutable live : int;
  mutable seq : int;
  mutable expired : int;
  mutable cancelled : int;
  mutable cascaded : int;
  (* per-tick fire scratch: due entry ids, insertion-sorted by [eseq] *)
  mutable scratch : int array;
  mutable scratch_n : int;
}

let create ?(now = 0) () =
  let cap = 64 in
  {
    ekey = Array.make cap 0;
    eexp = Array.make cap 0;
    eev = Array.make cap 0;
    eseq = Array.make cap 0;
    enext = Array.make cap (-1);
    eprev = Array.make cap free_mark;
    ecap = cap;
    used = 0;
    free = -1;
    heads = Array.make (levels * slots_per_level) (-1);
    index = Keymap.create 256;
    now;
    live = 0;
    seq = 0;
    expired = 0;
    cancelled = 0;
    cascaded = 0;
    scratch = Array.make 64 0;
    scratch_n = 0;
  }

let now t = t.now
let live t = t.live
let expired t = t.expired
let cancelled t = t.cancelled
let cascaded t = t.cascaded

(* ---- entry store ---- *)

let grow_entries t =
  let cap' = t.ecap * 2 in
  let ext a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.ecap;
    a'
  in
  t.ekey <- ext t.ekey 0;
  t.eexp <- ext t.eexp 0;
  t.eev <- ext t.eev 0;
  t.eseq <- ext t.eseq 0;
  t.enext <- ext t.enext (-1);
  t.eprev <- ext t.eprev free_mark;
  t.ecap <- cap'

let alloc t =
  if t.free >= 0 then begin
    let i = t.free in
    t.free <- t.enext.(i);
    i
  end
  else begin
    if t.used >= t.ecap then grow_entries t;
    let i = t.used in
    t.used <- t.used + 1;
    i
  end

let free_entry t i =
  t.eprev.(i) <- free_mark;
  t.enext.(i) <- t.free;
  t.free <- i

(* ---- slot lists ---- *)

let unlink t i =
  let p = Array.unsafe_get t.eprev i and n = Array.unsafe_get t.enext i in
  if p >= 0 then Array.unsafe_set t.enext p n
  else Array.unsafe_set t.heads (-p - 1) n;
  if n >= 0 then Array.unsafe_set t.eprev n p

let link t g i =
  let h = Array.unsafe_get t.heads g in
  Array.unsafe_set t.enext i h;
  Array.unsafe_set t.eprev i (-(g + 1));
  if h >= 0 then Array.unsafe_set t.eprev h i;
  Array.unsafe_set t.heads g i

(* Global slot for an absolute expiry [e].  [imminent] is the level-0
   slot that stands for "already due": the slot about to be fired when
   re-placing during a cascade, the next tick's slot when arming. *)
let gslot_for t e ~imminent =
  let delta = e - t.now in
  if delta <= 0 then imminent
  else begin
    let delta = if delta >= span then span - 1 else delta in
    let e = t.now + delta in
    if delta < slots_per_level then e land slot_mask
    else if delta < 1 lsl (2 * slot_bits) then
      slots_per_level + ((e lsr slot_bits) land slot_mask)
    else if delta < 1 lsl (3 * slot_bits) then
      (2 * slots_per_level) + ((e lsr (2 * slot_bits)) land slot_mask)
    else (3 * slots_per_level) + ((e lsr (3 * slot_bits)) land slot_mask)
  end

(* ---- the public operations ---- *)

let armed t key = Keymap.find t.index key >= 0

(* Re-arm a live (or pending) entry [i]: new deadline/payload/arm order.
   An {e identical} re-arm — same deadline tick, same event — is a
   complete no-op, keeping the original arm order: the entry it would
   produce is indistinguishable, and this is the per-packet idiom (a flow
   re-arming its retransmission deadline many times between clock ticks).
   A pending entry (collected for this tick's fire pass) can never look
   identical — its expiry is <= now, the new deadline > now — so the
   no-op path needs no pending check; the non-identical path must
   re-link, which is what clears a pending mark. *)
let rearm_entry t i ~e ~ev =
  if Array.unsafe_get t.eexp i = e && Array.unsafe_get t.eev i = ev then ()
  else begin
    if Array.unsafe_get t.eprev i <> pending_mark then unlink t i;
    Array.unsafe_set t.eexp i e;
    Array.unsafe_set t.eev i ev;
    Array.unsafe_set t.eseq i t.seq;
    t.seq <- t.seq + 1;
    link t (gslot_for t e ~imminent:((t.now + 1) land slot_mask)) i
  end

let arm_fresh t ~key ~e ~ev =
  let i = alloc t in
  t.ekey.(i) <- key;
  t.eexp.(i) <- e;
  t.eev.(i) <- ev;
  t.eseq.(i) <- t.seq;
  t.seq <- t.seq + 1;
  link t (gslot_for t e ~imminent:((t.now + 1) land slot_mask)) i;
  t.live <- t.live + 1;
  Keymap.add t.index key i;
  i

let arm t ~key ~after ~ev =
  let after = if after < 1 then 1 else after in
  let e = t.now + after in
  let i = Keymap.find t.index key in
  if i >= 0 then rearm_entry t i ~e ~ev
  else ignore (arm_fresh t ~key ~e ~ev)

(* [hint] is valid iff it designates [key]'s entry right now: in range,
   carrying [key], and not sitting on the freelist.  One key holds at
   most one timer, so a matching live key IS this key's entry; a freed
   entry re-allocated to another key fails the key compare, and one
   re-allocated to the same key is the current entry anyway. *)
let arm_hint t ~hint ~key ~after ~ev =
  let after = if after < 1 then 1 else after in
  let e = t.now + after in
  if
    hint >= 0
    && hint < t.used
    && Array.unsafe_get t.ekey hint = key
    && Array.unsafe_get t.eprev hint <> free_mark
  then begin
    rearm_entry t hint ~e ~ev;
    hint
  end
  else begin
    let i = Keymap.find t.index key in
    if i >= 0 then begin
      rearm_entry t i ~e ~ev;
      i
    end
    else arm_fresh t ~key ~e ~ev
  end

let cancel t key =
  let i = Keymap.remove t.index key in
  if i < 0 then false
  else begin
    (* a pending entry (collected for this tick's fire pass) is already
       unlinked; freeing it flips [eprev] off [pending_mark], which is
       exactly what tells the pass to skip it *)
    if t.eprev.(i) <> pending_mark then unlink t i;
    free_entry t i;
    t.live <- t.live - 1;
    t.cancelled <- t.cancelled + 1;
    true
  end

let cascade t l tick =
  let g = (l * slots_per_level) + ((tick lsr (l * slot_bits)) land slot_mask) in
  let imminent = tick land slot_mask in
  let i = ref t.heads.(g) in
  t.heads.(g) <- -1;
  while !i >= 0 do
    let n = t.enext.(!i) in
    t.cascaded <- t.cascaded + 1;
    link t (gslot_for t t.eexp.(!i) ~imminent) !i;
    i := n
  done

let push_scratch t i =
  if t.scratch_n >= Array.length t.scratch then begin
    let s' = Array.make (2 * Array.length t.scratch) 0 in
    Array.blit t.scratch 0 s' 0 t.scratch_n;
    t.scratch <- s'
  end;
  t.scratch.(t.scratch_n) <- i;
  t.scratch_n <- t.scratch_n + 1

(* Fires the due entries of [tick]'s level-0 slot; returns how many. *)
let fire_slot t tick fire_cb =
  let g = tick land slot_mask in
  if t.heads.(g) < 0 then 0
  else begin
    t.scratch_n <- 0;
    let i = ref t.heads.(g) in
    t.heads.(g) <- -1;
    while !i >= 0 do
      let n = t.enext.(!i) in
      if t.eexp.(!i) <= tick then begin
        t.eprev.(!i) <- pending_mark;
        push_scratch t !i
      end
      else
        (* not due: a longer-range deadline sharing the low slot bits, or
           a defensively re-placed stray — send it back by real expiry *)
        link t (gslot_for t t.eexp.(!i) ~imminent:g) !i;
      i := n
    done;
    (* insertion sort by arm order: cascades shuffled the slot list, and
       the contract is "within a tick, timers fire in arm order" *)
    let s = t.scratch and seqs = t.eseq in
    for k = 1 to t.scratch_n - 1 do
      let v = s.(k) in
      let sv = seqs.(v) in
      let j = ref (k - 1) in
      while !j >= 0 && seqs.(s.(!j)) > sv do
        s.(!j + 1) <- s.(!j);
        decr j
      done;
      s.(!j + 1) <- v
    done;
    let fired = ref 0 in
    for k = 0 to t.scratch_n - 1 do
      let i = s.(k) in
      (* anything the fire callbacks did to a later pending entry —
         cancel, re-arm — cleared its mark; fire only untouched ones *)
      if t.eprev.(i) = pending_mark then begin
        let key = t.ekey.(i) and ev = t.eev.(i) in
        ignore (Keymap.remove t.index key);
        free_entry t i;
        t.live <- t.live - 1;
        t.expired <- t.expired + 1;
        incr fired;
        fire_cb ~key ~ev
      end
    done;
    !fired
  end

let advance t ~now:target fire_cb =
  let fired = ref 0 in
  while t.now < target do
    if t.live = 0 then t.now <- target
    else begin
      t.now <- t.now + 1;
      let tick = t.now in
      if tick land slot_mask = 0 then begin
        cascade t 1 tick;
        if tick land ((1 lsl (2 * slot_bits)) - 1) = 0 then begin
          cascade t 2 tick;
          if tick land ((1 lsl (3 * slot_bits)) - 1) = 0 then cascade t 3 tick
        end
      end;
      fired := !fired + fire_slot t tick fire_cb
    end
  done;
  !fired

let next_due t =
  if t.live = 0 then -1
  else begin
    (* scan level 0 up to the next cascade boundary; past it, the cascade
       itself is the next observable step, so the boundary is a sound
       "wake up no later than" deadline *)
    let b = slots_per_level - (t.now land slot_mask) in
    let r = ref (t.now + b) in
    (try
       for d = 1 to b do
         if t.heads.((t.now + d) land slot_mask) >= 0 then begin
           r := t.now + d;
           raise Exit
         end
       done
     with Exit -> ());
    !r
  end
