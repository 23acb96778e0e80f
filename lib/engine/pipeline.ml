module F = Netdsl_format
module Fsm = Netdsl_fsm

type config = {
  batch : int;
  ring_capacity : int;
  max_flows : int;
  slot_bytes : int;
}

let default_config =
  { batch = 64; ring_capacity = 1024; max_flows = 65536; slot_bytes = 2048 }

type mode = Fused

(* Stage indices — fixed layout, also the Stats layout. *)
let st_decode = 0
let st_verify = 1
let st_step = 2
let st_encode = 3

let stage_names = [ "decode"; "verify"; "step"; "encode" ]

(* Per-slot status during a batch. *)
let live = 0
let rej_decode = 1
let rej_verify = 2
let rej_step = 3
let rej_encode = 4

type outcome =
  | Accepted
  | Rejected_decode of F.Codec.error
  | Rejected_verify
  | Rejected_step
  | Rejected_encode

(* Per-flow machine instances on an LRU list.  The list is held as parallel
   int arrays indexed by slot (slot 0 is the sentinel; live flows occupy
   slots 1..n): the per-packet touch — unlink + relink at the MRU end — is
   then four unboxed int stores, where an intrusive pointer list would pay
   a GC write barrier on every one.  The sentinel's successor is the
   oldest-idle flow, its predecessor the most recently touched.  Touch and
   evict are O(1) and allocation-free; arrays double up to [max_flows].

   Flow keys are native ints (wide key fields truncate via
   [Int64.to_int]); [Flight.no_key]
   (= [min_int]) is the "packet carries no key" sentinel, served by the
   shared default instance. *)
type flow_table = {
  (* key -> slot: allocation-free per-packet lookup (Hashtbl.find_opt
     boxes its result and costs ~5x as much on this path) *)
  index : Keymap.t;
  mutable keys : int array; (* slot -> key *)
  (* slot -> instance, minted on the slot's first use and reset in place
     when the slot is recycled by eviction *)
  mutable insts : Fsm.Step.instance array;
  mutable fprev : int array;
  mutable fnext : int array;
  mutable n : int; (* live flows, in slots 1..n *)
  mutable cap : int; (* slots available before the next doubling *)
  max_flows : int;
  (* the oracles' planted defect: evict the most recently used flow *)
  evict_mru : bool;
}

let unlink tbl slot =
  let p = Array.unsafe_get tbl.fprev slot
  and nx = Array.unsafe_get tbl.fnext slot in
  Array.unsafe_set tbl.fnext p nx;
  Array.unsafe_set tbl.fprev nx p

(* The flow a full table gives up: the least recently used, unless the
   oracles planted the wrong end. *)
let lru_victim tbl = if tbl.evict_mru then tbl.fprev.(0) else tbl.fnext.(0)

(* Insert just before the sentinel: the most-recently-used end. *)
let push_mru tbl slot =
  let last = Array.unsafe_get tbl.fprev 0 in
  Array.unsafe_set tbl.fnext last slot;
  Array.unsafe_set tbl.fprev slot last;
  Array.unsafe_set tbl.fnext slot 0;
  Array.unsafe_set tbl.fprev 0 slot

let grow_flows tbl =
  let cap' = min tbl.max_flows (tbl.cap * 2) in
  let extend a fill =
    let a' = Array.make (cap' + 1) fill in
    Array.blit a 0 a' 0 (tbl.cap + 1);
    a'
  in
  tbl.keys <- extend tbl.keys 0;
  tbl.insts <- extend tbl.insts tbl.insts.(0);
  tbl.fprev <- extend tbl.fprev 0;
  tbl.fnext <- extend tbl.fnext 0;
  tbl.cap <- cap'

type t = {
  cfg : config;
  fmt : F.Desc.t;
  flight : Flight.t;
  on_transition : (Fsm.Machine.transition -> unit) option;
  on_response : string -> unit;
  on_reply_slot : (int -> Bytes.t -> int -> unit) option;
  (* window index of the packet whose reply is being emitted; -1 outside
     packet context (timer-driven emission), maintained by the batch
     loops so [on_reply_slot] can hand external slab owners the slot *)
  mutable cur_slot : int;
  (* one reusable reply buffer, sized once to the longest packet a front
     end admits, with a per-batch high-water mark so one oversized reply
     cannot pin a larger buffer forever *)
  mutable reply_buf : Bytes.t;
  reply_base : int;
  mutable reply_hwm : int;
  stats : Stats.t;
  (* batch scratch: the packet window of the current batch (data + length)
     and statuses, and the chain's sequential decoder, which names the
     failing layer and field of a one-packet decode reject *)
  seq : F.Stack.Seq.t;
  status : int array;
  blen : int array;
  inbuf : string array;
  default_inst : Fsm.Step.instance option;
  flows : flow_table option;
  (* time: the wheel exists iff the compiled machine declares timer ops.
     [timed] guards the per-packet post-fire check with one bool read;
     [clock_ms] is injectable so tests drive virtual time; [w_*] are the
     wheel-counter snapshots already folded into [stats]. *)
  timed : bool;
  wheel : Wheel.t option;
  clock_ms : unit -> int;
  (* stage-timing clock, integer nanoseconds: injectable so a socket
     front end with C stubs can supply an allocation-free monotonic
     reading — the default boxes a float per call, which a batched hot
     loop must not pay per packet *)
  now_ns : unit -> int;
  tick_ms : int;
  mutable w_expired : int;
  mutable w_cancelled : int;
  mutable w_cascaded : int;
  (* the expiry callback is tied once after creation (it closes over [t])
     so a poll allocates nothing; [expiry_refused] is its out-channel *)
  mutable expiry_cb : key:int -> ev:int -> unit;
  mutable expiry_refused : int;
}

let no_key = Flight.no_key

(* Post-fire timer op: one array read and a zero compare on the packed
   word ([Step.timer_word]) — the whole hot-path cost for transitions
   without a clause.  Inlined into both callers, the per-packet loop and
   the expiry path: at a 15 ns/pkt budget the call is measurable. *)
let[@inline] apply_timer w ~tick_ms inst k =
  let tw = Fsm.Step.timer_word (Fsm.Step.plan_of inst) (Fsm.Step.last_transition inst) in
  if tw <> Fsm.Step.timer_none then begin
    if tw > 0 then begin
      let wn = Wheel.now w in
      (* same word at the same wheel tick: the deadline is bit-identical
         to the one already armed — skip the wheel *)
      if not (Fsm.Step.timer_unchanged inst ~word:tw ~wnow:wn) then
        (* tick_ms = 1 (the default) skips the round-up division — a
           runtime divide is a real cost at 15 ns/pkt budgets *)
        let after =
          if tick_ms = 1 then Fsm.Step.timer_after_ms tw
          else (Fsm.Step.timer_after_ms tw + tick_ms - 1) / tick_ms
        in
        Fsm.Step.note_timer_armed inst
          ~hint:
            (Wheel.arm_hint w ~hint:(Fsm.Step.timer_hint inst) ~key:k ~after
               ~ev:(Fsm.Step.timer_event tw))
          ~word:tw ~wnow:wn
    end
    else begin
      ignore (Wheel.cancel w k);
      Fsm.Step.clear_timer_armed inst
    end
  end

(* Expiry delivery: the synthesized timeout event enters through the
   normal step stage — same [fire_id], same [on_transition] hook, same
   per-flow run-to-completion order (the wheel fires between batches,
   never inside one) — and the fired transition's own timer op applies,
   so a retransmission timeout can re-arm itself.  The flow is touched to
   the MRU end: a flow in active retransmission is not an eviction
   candidate.  A missing flow (evicted — its timer was cancelled — or a
   machine that refuses the event) counts as a refused expiry. *)
let deliver_expiry t inst ~key ~ev =
  (* the fired entry has left the wheel: the instance's armed-timer
     signature is stale, and the fired transition below may arm a fresh
     one through [apply_timer] *)
  Fsm.Step.clear_timer_armed inst;
  match Fsm.Step.fire_id inst ev with
  | Fsm.Step.Fired -> (
    (match t.wheel with Some w -> apply_timer w ~tick_ms:t.tick_ms inst key | None -> ());
    match t.on_transition with
    | None -> ()
    | Some hook ->
      let plan = Fsm.Step.plan_of inst in
      hook (Fsm.Step.transition plan (Fsm.Step.last_transition inst)))
  | Fsm.Step.Unknown_event | Fsm.Step.Unhandled | Fsm.Step.Nondeterministic ->
    t.expiry_refused <- t.expiry_refused + 1

let fire_expiry t ~key ~ev =
  match (t.default_inst, t.flows) with
  | None, _ -> t.expiry_refused <- t.expiry_refused + 1
  | Some _, Some tbl when key <> no_key ->
    let slot = Keymap.find tbl.index key in
    if slot < 0 then t.expiry_refused <- t.expiry_refused + 1
    else begin
      unlink tbl slot;
      push_mru tbl slot;
      deliver_expiry t (Array.unsafe_get tbl.insts slot) ~key ~ev
    end
  | Some dflt, _ -> deliver_expiry t dflt ~key ~ev

let default_clock_ms () = int_of_float (Unix.gettimeofday () *. 1e3)
let default_now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* The planted late wheel: every armed deadline one tick long. *)
let late_by_a_tick ~tick_ms (m : Fsm.Machine.t) =
  let late (tr : Fsm.Machine.transition) =
    match tr.timer with
    | Fsm.Machine.Arm_timer { after_ms; fire } ->
      { tr with timer = Fsm.Machine.Arm_timer { after_ms = after_ms + tick_ms; fire } }
    | Fsm.Machine.No_timer | Fsm.Machine.Cancel_timer -> tr
  in
  { m with transitions = List.map late m.transitions }

let create ?(config = default_config) ?mode:(_ : mode option) ?stack
    ?(flight = Flight.spec ()) ?machine ?on_transition
    ?(clock_ms = default_clock_ms) ?(now_ns = default_now_ns) ?(tick_ms = 1)
    ?(on_response = fun _ -> ()) ?on_reply_slot ?plant fmt =
  if config.batch <= 0 then invalid_arg "Pipeline.create: batch must be positive";
  if config.max_flows <= 0 then
    invalid_arg "Pipeline.create: max_flows must be positive";
  if tick_ms <= 0 then invalid_arg "Pipeline.create: tick_ms must be positive";
  let machine =
    match plant with
    | Some Flight.Late_tick -> Option.map (late_by_a_tick ~tick_ms) machine
    | _ -> machine
  in
  let plan = Option.map Fsm.Step.compile machine in
  let flight =
    match stack with
    | None -> Flight.compile ?plan ?plant fmt flight
    | Some st -> (
      match Flight.compile_stack ?plan ?plant st flight with
      | Ok fl -> fl
      | Error e -> invalid_arg ("Pipeline.create: stack: " ^ e))
  in
  let default_inst = Option.map Fsm.Step.instance plan in
  let flow_key = Flight.flow_key_name flight in
  (* a reply is the request's size: a base below [slot_bytes] would
     regrow and shrink on every window of mixed-size traffic *)
  let reply_base = max config.slot_bytes (F.Sizing.min_bytes fmt) in
  let timed =
    match plan with Some p -> Fsm.Step.has_timers p | None -> false
  in
  let t = {
    cfg = config;
    fmt;
    flight;
    on_transition;
    on_response;
    on_reply_slot;
    cur_slot = -1;
    reply_buf = Bytes.create reply_base;
    reply_base;
    reply_hwm = 0;
    stats = Stats.create stage_names;
    seq = F.Stack.Seq.create (Flight.stack_plan flight);
    status = Array.make config.batch live;
    blen = Array.make config.batch 0;
    inbuf = Array.make config.batch "";
    default_inst;
    flows =
      (match (default_inst, flow_key) with
      | Some inst, Some _ ->
        let cap = min 256 (max 1 config.max_flows) in
        Some
          {
            index = Keymap.create 1024;
            keys = Array.make (cap + 1) 0;
            (* slot 0 never fires a transition; the default instance is
               just an arbitrary well-typed filler *)
            insts = Array.make (cap + 1) inst;
            fprev = Array.make (cap + 1) 0;
            fnext = Array.make (cap + 1) 0;
            n = 0;
            cap;
            max_flows = config.max_flows;
            evict_mru = plant = Some Flight.Evict_mru;
          }
      | _ -> None);
    timed;
    wheel = (if timed then Some (Wheel.create ~now:(clock_ms () / tick_ms) ()) else None);
    clock_ms;
    now_ns;
    tick_ms;
    w_expired = 0;
    w_cancelled = 0;
    w_cascaded = 0;
    expiry_cb = (fun ~key:_ ~ev:_ -> ());
    expiry_refused = 0;
  }
  in
  (* tie the expiry callback once — polls then allocate nothing *)
  if timed then t.expiry_cb <- fire_expiry t;
  t

(* Fold the wheel counters' growth since the last sync into [stats], so
   merged multi-worker reports see exactly one copy of each event. *)
let sync_timer_stats t =
  match t.wheel with
  | None -> ()
  | Some w ->
    let e = Wheel.expired w and c = Wheel.cancelled w and k = Wheel.cascaded w in
    Stats.note_timers t.stats ~expired:(e - t.w_expired)
      ~cancelled:(c - t.w_cancelled) ~cascaded:(k - t.w_cascaded);
    t.w_expired <- e;
    t.w_cancelled <- c;
    t.w_cascaded <- k

let stats t =
  sync_timer_stats t;
  t.stats

let format t = t.fmt
let flow_count t = match t.flows with None -> 0 | Some tbl -> tbl.n
let reply_capacity t = Bytes.length t.reply_buf

(* Instance lookup by native-int key.  Option-free for the per-packet
   loop (precondition: [t.default_inst = Some dflt]). *)
let touch_flow t dflt k =
  match t.flows with
  | Some tbl when k <> no_key ->
    let slot = Keymap.find tbl.index k in
    if slot >= 0 then begin
      unlink tbl slot;
      push_mru tbl slot;
      Array.unsafe_get tbl.insts slot
    end
    else begin
      let slot =
        if tbl.n >= tbl.max_flows then begin
          (* evict the LRU flow and reuse its slot and instance; its
             pending timer goes with it — an expiry for a dead flow must
             never fire *)
          let victim = lru_victim tbl in
          unlink tbl victim;
          ignore (Keymap.remove tbl.index tbl.keys.(victim));
          (match t.wheel with
          | Some w -> ignore (Wheel.cancel w tbl.keys.(victim))
          | None -> ());
          Stats.note_evicted_flow t.stats;
          Fsm.Step.reset tbl.insts.(victim);
          victim
        end
        else begin
          if tbl.n >= tbl.cap then grow_flows tbl;
          tbl.n <- tbl.n + 1;
          tbl.insts.(tbl.n) <- Fsm.Step.instance (Fsm.Step.plan_of dflt);
          tbl.n
        end
      in
      tbl.keys.(slot) <- k;
      push_mru tbl slot;
      Keymap.add tbl.index k slot;
      tbl.insts.(slot)
    end
  | _ -> dflt

let ensure_reply t len =
  if Bytes.length t.reply_buf < len then
    t.reply_buf <- Bytes.create (max len (2 * Bytes.length t.reply_buf))

let emit_reply t len =
  if len > t.reply_hwm then t.reply_hwm <- len;
  match t.on_reply_slot with
  | Some f -> f t.cur_slot t.reply_buf len
  | None -> t.on_response (Bytes.sub_string t.reply_buf 0 len)

(* High-water reset, once per batch: a single oversized reply grows the
   buffer transiently; if the batch's replies fit in half the buffer it
   shrinks back to their high-water mark (never below the base size).
   Traffic within the base size never churns the buffer. *)
let reset_reply_buf t =
  if
    Bytes.length t.reply_buf > t.reply_base
    && t.reply_hwm * 2 <= Bytes.length t.reply_buf
  then t.reply_buf <- Bytes.create (max t.reply_base t.reply_hwm);
  t.reply_hwm <- 0

(* ---- one run-to-completion pass per packet, no value tree.  Each
   stage row counts what reached that stage (verify: decoded packets when
   the spec has a predicate; step: verified packets when it classifies
   and there is a machine; encode: packets a respond rule matched);
   wall-clock cannot be split across fused stages, so the whole batch's
   latency lands on the decode row and the other rows report elapsed
   0. ---- *)

let fused_batch t n =
  let fl = t.flight in
  let stats = t.stats in
  let verify_armed = Flight.verify_armed fl in
  let step_armed = Flight.classify_armed fl && t.default_inst <> None in
  (* timer-op bindings hoisted off the per-packet path: the wheel exists
     iff the machine is timed, so one match replaces [t.timed] plus
     [t.wheel] loads per packet *)
  let wheel = t.wheel in
  let keyed = t.flows <> None in
  let tick_ms = t.tick_ms in
  let respond_armed = Flight.n_responses fl > 0 in
  let d_bytes = ref 0 and d_rej = ref 0 in
  let v_pkts = ref 0 and v_bytes = ref 0 and v_rej = ref 0 in
  let s_pkts = ref 0 and s_bytes = ref 0 and s_rej = ref 0 in
  let e_pkts = ref 0 and e_bytes = ref 0 and e_rej = ref 0 in
  let t0 = t.now_ns () in
  for i = 0 to n - 1 do
    let blen = t.blen.(i) in
    d_bytes := !d_bytes + blen;
    if not (Flight.run_window fl ~off:0 ~len:blen t.inbuf.(i)) then begin
      t.status.(i) <- rej_decode;
      incr d_rej
    end
    else begin
      t.status.(i) <- live;
      (* §3.4: the packet is fully validated (decode above, semantic
         verify here) before any machine step or response below *)
      if verify_armed then begin
        incr v_pkts;
        v_bytes := !v_bytes + blen;
        if not (Flight.verify_ok fl) then begin
          t.status.(i) <- rej_verify;
          incr v_rej
        end
      end;
      if t.status.(i) = live && step_armed then begin
        incr s_pkts;
        s_bytes := !s_bytes + blen;
        let ev = Flight.event fl in
        if ev >= 0 then begin
          let k = Flight.flow_key fl in
          let inst =
            match t.default_inst with
            | Some dflt -> touch_flow t dflt k
            | None -> assert false (* step_armed implies a default *)
          in
          match Fsm.Step.fire_id inst ev with
          | Fsm.Step.Fired ->
            (match wheel with
            | None -> ()
            | Some w -> apply_timer w ~tick_ms inst (if keyed then k else no_key));
            (match t.on_transition with
            | None -> ()
            | Some hook ->
              let plan = Fsm.Step.plan_of inst in
              hook (Fsm.Step.transition plan (Fsm.Step.last_transition inst)))
          | Fsm.Step.Unknown_event | Fsm.Step.Unhandled
          | Fsm.Step.Nondeterministic ->
            t.status.(i) <- rej_step;
            incr s_rej
        end
      end;
      if t.status.(i) = live && respond_armed then begin
        let ridx = Flight.response fl in
        if ridx >= 0 then begin
          incr e_pkts;
          t.cur_slot <- i;
          ensure_reply t blen;
          Bytes.blit_string t.inbuf.(i) 0 t.reply_buf 0 blen;
          if Flight.apply fl ridx t.reply_buf ~len:blen then begin
            e_bytes := !e_bytes + blen;
            emit_reply t blen
          end
          else begin
            t.status.(i) <- rej_encode;
            incr e_rej
          end
        end
      end
    end
  done;
  let elapsed = t.now_ns () - t0 in
  Stats.record_batch stats st_decode ~packets:n ~bytes:!d_bytes
    ~rejects:!d_rej ~elapsed_ns:elapsed;
  if verify_armed then
    Stats.record_batch stats st_verify ~packets:!v_pkts ~bytes:!v_bytes
      ~rejects:!v_rej ~elapsed_ns:0;
  if step_armed then
    Stats.record_batch stats st_step ~packets:!s_pkts ~bytes:!s_bytes
      ~rejects:!s_rej ~elapsed_ns:0;
  if respond_armed then
    Stats.record_batch stats st_encode ~packets:!e_pkts ~bytes:!e_bytes
      ~rejects:!e_rej ~elapsed_ns:0

(* Advance the wheel to the clock and fire what came due.  The expiry
   count (and any refused expiries) land on the step-stage counters —
   timeout events are step traffic like any other. *)
let poll_timers t =
  match t.wheel with
  | None -> 0
  | Some w ->
    let c = t.clock_ms () in
    let target = if t.tick_ms = 1 then c else c / t.tick_ms in
    if target <= Wheel.now w then 0
    else begin
      let t0 = t.now_ns () in
      t.expiry_refused <- 0;
      let fired = Wheel.advance w ~now:target t.expiry_cb in
      let refused = t.expiry_refused in
      (* [fired] counts the refused expiries too *)
      if fired > 0 then
        Stats.record_batch t.stats st_step ~packets:fired ~bytes:0
          ~rejects:refused ~elapsed_ns:(t.now_ns () - t0);
      sync_timer_stats t;
      fired
    end

let timers_live t = match t.wheel with None -> 0 | Some w -> Wheel.live w

(* Allocation-free, for event loops that poll it every pass: an option
   or a boxed float would be one small block per idle iteration, which
   the batched server's 0 B/pkt budget cannot absorb. *)
let next_timer_ms t =
  match t.wheel with
  | None -> -1
  | Some w ->
    let due = Wheel.next_due w in
    if due < 0 then -1
    else begin
      let ms = (due * t.tick_ms) - t.clock_ms () in
      if ms <= 0 then 0 else ms
    end

let peek_flow t k =
  match t.flows with
  | None -> None
  | Some tbl ->
    let slot = Keymap.find tbl.index k in
    if slot >= 0 then Some tbl.insts.(slot) else None

let run_window t n =
  fused_batch t n;
  (* replies fired past this point (timer expiries) have no window slot *)
  t.cur_slot <- -1;
  if t.timed then ignore (poll_timers t);
  reset_reply_buf t

let process_batch t pkts n =
  if n > t.cfg.batch then invalid_arg "Pipeline.process_batch: batch too large";
  for i = 0 to n - 1 do
    t.inbuf.(i) <- pkts.(i);
    t.blen.(i) <- String.length pkts.(i)
  done;
  run_window t n

(* The single-packet decode-error slow path: the compiled plan collapses
   errors to a boolean, so replay slot 0 through the sequential
   reference, which names the failing layer and field.  If it accepts,
   the fused decoder has a bug — report it as such (the differential
   oracle hunts exactly this). *)
let recover_decode_error t =
  match F.Stack.Seq.decode t.seq ~len:t.blen.(0) t.inbuf.(0) with
  | Error e -> e
  | Ok () -> F.Codec.Eval_error { path = []; reason = "fused chain decode diverged" }

let outcome_of_slot0 t =
  match t.status.(0) with
  | s when s = rej_decode -> Rejected_decode (recover_decode_error t)
  | s when s = rej_verify -> Rejected_verify
  | s when s = rej_step -> Rejected_step
  | s when s = rej_encode -> Rejected_encode
  | _ -> Accepted

let process t pkt =
  let pkts = t.inbuf in
  pkts.(0) <- pkt;
  t.blen.(0) <- String.length pkt;
  run_window t 1;
  outcome_of_slot0 t

(* Slab-window entry point for slab owners (the batched socket front
   end): map a popped run of caller-owned slots into the window and run
   it once, so stats recording and timer polling cost per batch, not
   per packet.  [Bytes.unsafe_to_string] is safe under the slab's
   contract: the slots are not refilled until [Slab.release], which
   must come after this returns (and after any replies staged via
   [on_reply_slot] — which receives each reply's window index — are
   flushed, if their destinations live in per-slot sidecars). *)
let process_slab_batch t slab ~n =
  if n > t.cfg.batch then
    invalid_arg "Pipeline.process_slab_batch: batch too large";
  for i = 0 to n - 1 do
    t.inbuf.(i) <- Bytes.unsafe_to_string (Slab.buf slab i);
    t.blen.(i) <- Slab.len slab i
  done;
  run_window t n
