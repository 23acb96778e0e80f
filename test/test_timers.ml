(* Time in the engine: the hierarchical wheel proven against a
   sorted-list reference model, the Step-with-wheel vs simulator oracle
   leg (including the planted [Drop_expiry] bug), virtual-clock pipeline
   timers, and the lossy virtual-time loopback where go-back-N and
   selective-repeat flows must end in success-or-timeout — never stuck. *)

open Netdsl_engine
module Fm = Netdsl_formats
module Prng = Netdsl_util.Prng
module Step = Netdsl_fsm.Step
module Machines = Netdsl_proto.Machines
module Oracle = Netdsl_check.Oracle
module Lossy = Netdsl_check.Loopback.Lossy
module Channel = Netdsl_sim.Channel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* The reference model: a sorted list of (expiry, arm order) pairs.     *)

module Model = struct
  type entry = {
    e_key : int;
    mutable e_exp : int;
    mutable e_ev : int;
    mutable e_seq : int;
  }

  type t = {
    mutable m_now : int;
    mutable m_seq : int;
    mutable m_entries : entry list;
    mutable m_expired : int;
    mutable m_cancelled : int;
  }

  let create () =
    { m_now = 0; m_seq = 0; m_entries = []; m_expired = 0; m_cancelled = 0 }

  let arm m ~key ~after ~ev =
    let e = m.m_now + max 1 after in
    match List.find_opt (fun en -> en.e_key = key) m.m_entries with
    | Some en when en.e_exp = e && en.e_ev = ev ->
      (* identical re-arm: a no-op, keeping the original arm order (the
         wheel's per-packet fast path has the same contract) *)
      ()
    | Some en ->
      en.e_exp <- e;
      en.e_ev <- ev;
      en.e_seq <- m.m_seq;
      m.m_seq <- m.m_seq + 1
    | None ->
      m.m_entries <-
        { e_key = key; e_exp = e; e_ev = ev; e_seq = m.m_seq } :: m.m_entries;
      m.m_seq <- m.m_seq + 1

  let cancel m key =
    if List.exists (fun en -> en.e_key = key) m.m_entries then begin
      m.m_entries <- List.filter (fun en -> en.e_key <> key) m.m_entries;
      m.m_cancelled <- m.m_cancelled + 1;
      true
    end
    else false

  let armed m key = List.exists (fun en -> en.e_key = key) m.m_entries
  let live m = List.length m.m_entries

  (* Fire strictly in (expiry, arm order): one timer at a time, so the
     callback's own arms and cancels are honoured mid-pass exactly as
     the wheel honours them. *)
  let advance m ~now:target fire =
    let fired = ref 0 in
    let rec loop () =
      match List.filter (fun en -> en.e_exp <= target) m.m_entries with
      | [] -> ()
      | first :: rest ->
        let best =
          List.fold_left
            (fun a b ->
              if b.e_exp < a.e_exp || (b.e_exp = a.e_exp && b.e_seq < a.e_seq)
              then b
              else a)
            first rest
        in
        m.m_now <- max m.m_now best.e_exp;
        m.m_entries <- List.filter (fun en -> en != best) m.m_entries;
        m.m_expired <- m.m_expired + 1;
        incr fired;
        fire ~key:best.e_key ~ev:best.e_ev;
        loop ()
    in
    loop ();
    if m.m_now < target then m.m_now <- target;
    !fired
end

(* ------------------------------------------------------------------ *)
(* Wheel vs model                                                      *)

let wheel_matches_model =
  QCheck.Test.make
    ~name:
      "engine: wheel fires the model's expiry set in the model's order \
       under random arm/rearm/cancel/advance"
    ~count:60 QCheck.int64
    (fun seed ->
      let rng = Prng.create seed in
      let nkeys = 24 in
      let w = Wheel.create () in
      let m = Model.create () in
      let wlog = Buffer.create 512 and mlog = Buffer.create 512 in
      (* the callback mutates the wheel it fires from — deterministically
         by (key, ev), the same on both sides *)
      let mk_cb log now arm cancel ~key ~ev =
        Buffer.add_string log (Printf.sprintf "%d/%d@%d;" key ev (now ()));
        match (key + ev) land 3 with
        | 0 -> arm ~key ~after:(1 + (ev * 7 mod 60)) ~ev:(ev + 1)
        | 1 -> ignore (cancel ((key + 1) mod nkeys))
        | _ -> ()
      in
      let wcb = mk_cb wlog (fun () -> Wheel.now w) (Wheel.arm w) (Wheel.cancel w) in
      let mcb =
        mk_cb mlog (fun () -> m.Model.m_now) (Model.arm m) (Model.cancel m)
      in
      let ok = ref true in
      (* per-key hint cookies for [arm_hint], as the pipeline keeps them;
         deliberately left stale across cancels and expiries *)
      let hints = Array.make nkeys (-1) in
      for _ = 1 to 140 do
        match Prng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
          let key = Prng.int rng nkeys and ev = Prng.int rng 40 in
          let after =
            match Prng.int rng 8 with
            | 0 -> Prng.int rng 4 (* incl. the <= 0 clamp *)
            | 1 | 2 | 3 -> 1 + Prng.int rng 256
            | 4 | 5 -> 1 + Prng.int rng 66_000 (* level-1/2 cascades *)
            | 6 -> 1 lsl (16 + Prng.int rng 3)
            | _ -> (1 lsl 32) + Prng.int rng 1_000 (* beyond the span *)
          in
          (* three arm front doors, one semantics: plain, hinted (kept or
             stale cookie), and hinted with junk *)
          (match Prng.int rng 4 with
          | 0 | 1 -> Wheel.arm w ~key ~after ~ev
          | 2 ->
            hints.(key) <-
              Wheel.arm_hint w ~hint:hints.(key) ~key ~after ~ev
          | _ ->
            let junk =
              match Prng.int rng 3 with
              | 0 -> -1
              | 1 -> Prng.int rng 1_000 (* maybe someone else's entry *)
              | _ -> max_int
            in
            hints.(key) <- Wheel.arm_hint w ~hint:junk ~key ~after ~ev);
          Model.arm m ~key ~after ~ev
        | 4 ->
          let key = Prng.int rng nkeys in
          if Wheel.cancel w key <> Model.cancel m key then ok := false
        | _ ->
          let d =
            match Prng.int rng 6 with
            | 0 -> 1
            | 1 -> Prng.int rng 16
            | 2 | 3 -> Prng.int rng 400
            | 4 -> Prng.int rng 5_000
            | _ -> 20_000 + Prng.int rng 50_000
          in
          let target = Wheel.now w + d in
          let fw = Wheel.advance w ~now:target wcb in
          let fm = Model.advance m ~now:target mcb in
          if fw <> fm then ok := false
      done;
      let armed_agree =
        List.for_all
          (fun k -> Wheel.armed w k = Model.armed m k)
          (List.init nkeys Fun.id)
      in
      if not !ok then QCheck.Test.fail_report "cancel/advance result diverged";
      if Buffer.contents wlog <> Buffer.contents mlog then
        QCheck.Test.fail_reportf "fire logs diverged\nwheel: %s\nmodel: %s"
          (Buffer.contents wlog) (Buffer.contents mlog);
      armed_agree
      && Wheel.live w = Model.live m
      && Wheel.expired w = m.Model.m_expired
      && Wheel.cancelled w = m.Model.m_cancelled)

let wheel_basics () =
  let w = Wheel.create () in
  check_int "empty next_due" (-1) (Wheel.next_due w);
  let log = ref [] in
  let fire ~key ~ev = log := (key, ev, Wheel.now w) :: !log in
  Wheel.arm w ~key:5 ~after:10 ~ev:1;
  Wheel.arm w ~key:6 ~after:10 ~ev:2;
  Wheel.arm w ~key:5 ~after:20 ~ev:3;
  (* re-arm replaced, not added *)
  check_int "live after re-arm" 2 (Wheel.live w);
  check_bool "cancel of unarmed key" false (Wheel.cancel w 42);
  check_int "one due by 15" 1 (Wheel.advance w ~now:15 fire);
  check_bool "key 6 fired at its tick" true (!log = [ (6, 2, 10) ]);
  check_int "re-armed key due at 20" 1 (Wheel.advance w ~now:20 fire);
  check_bool "new deadline and payload" true (List.hd !log = (5, 3, 20));
  check_int "expired counter" 2 (Wheel.expired w);
  Wheel.arm w ~key:7 ~after:0 ~ev:9;
  check_int "after <= 0 clamps to one tick" 1
    (Wheel.advance w ~now:(Wheel.now w + 1) fire);
  Wheel.arm w ~key:8 ~after:5 ~ev:1;
  check_bool "cancel of armed key" true (Wheel.cancel w 8);
  check_int "cancelled counter" 1 (Wheel.cancelled w);
  check_int "idle wheel skips" 0 (Wheel.advance w ~now:1_000_000 fire);
  check_int "now after skip" 1_000_000 (Wheel.now w)

let wheel_deep_cascade () =
  let w = Wheel.create () in
  let log = Buffer.create 64 in
  let fire ~key ~ev =
    Buffer.add_string log (Printf.sprintf "%d/%d@%d;" key ev (Wheel.now w))
  in
  Wheel.arm w ~key:1 ~after:300 ~ev:10 (* level 1 *);
  Wheel.arm w ~key:2 ~after:70_000 ~ev:20 (* level 2 *);
  Wheel.arm w ~key:3 ~after:((1 lsl 24) + 5) ~ev:30 (* level 3 *);
  Wheel.arm w ~key:4 ~after:((1 lsl 32) + 50) ~ev:40 (* beyond the span *);
  check_int "three fired" 3 (Wheel.advance w ~now:((1 lsl 24) + 10) fire);
  check_string "in expiry order, each on its own tick"
    (Printf.sprintf "1/10@300;2/20@70000;3/30@%d;" ((1 lsl 24) + 5))
    (Buffer.contents log);
  check_bool "cascades happened" true (Wheel.cascaded w > 0);
  check_int "far-future timer still parked" 1 (Wheel.live w);
  check_bool "and still armed" true (Wheel.armed w 4)

let wheel_next_due () =
  let w = Wheel.create () in
  Wheel.arm w ~key:9 ~after:70_000 ~ev:1;
  let fired_at = ref (-1) in
  let wakes = ref 0 in
  while Wheel.live w > 0 && !wakes < 100_000 do
    incr wakes;
    let due = Wheel.next_due w in
    check_bool "deadline is in the future" true (due > Wheel.now w);
    ignore
      (Wheel.advance w ~now:due (fun ~key:_ ~ev:_ -> fired_at := Wheel.now w))
  done;
  (* sleeping to next_due never overshoots: the timer fires exactly on
     its tick, in a bounded number of wakes *)
  check_int "fired exactly on time" 70_000 !fired_at;
  check_bool "bounded wakes" true (!wakes <= (70_000 / 256) + 8);
  check_int "empty again" (-1) (Wheel.next_due w)

let wheel_rearm_in_callback () =
  let w = Wheel.create () in
  let fires = ref 0 in
  let fire ~key ~ev:_ =
    incr fires;
    if !fires < 3 then Wheel.arm w ~key ~after:7 ~ev:0
  in
  Wheel.arm w ~key:1 ~after:7 ~ev:0;
  ignore (Wheel.advance w ~now:100 fire);
  check_int "retransmission chain of three" 3 !fires;
  check_int "nothing left armed" 0 (Wheel.live w)

let wheel_same_tick_mutation () =
  let w = Wheel.create () in
  let log = ref [] in
  Wheel.arm w ~key:1 ~after:5 ~ev:0;
  Wheel.arm w ~key:2 ~after:5 ~ev:0;
  Wheel.arm w ~key:3 ~after:5 ~ev:0;
  (* key 1 fires first (arm order) and mutates the two entries due on
     the very same tick: one cancelled, one pushed out *)
  let fire ~key ~ev:_ =
    log := key :: !log;
    if key = 1 then begin
      ignore (Wheel.cancel w 2);
      Wheel.arm w ~key:3 ~after:4 ~ev:1
    end
  in
  check_int "only key 1 fires at 5" 1 (Wheel.advance w ~now:5 fire);
  check_int "key 3 fires at its new deadline" 1 (Wheel.advance w ~now:9 fire);
  check_bool "order" true (!log = [ 3; 1 ])

(* ------------------------------------------------------------------ *)
(* Oracle.Timers: Step-with-wheel vs the simulator                     *)

let random_trace rng events n =
  let t = ref 0 in
  List.init n (fun _ ->
      t := !t + Prng.int rng 220;
      (!t, List.nth events (Prng.int rng (List.length events))))

let timers_oracle_agrees name machine events =
  let o = Oracle.Timers.create machine in
  QCheck.Test.make ~name ~count:60 QCheck.int64 (fun seed ->
      let rng = Prng.create seed in
      let trace = random_trace rng events (1 + Prng.int rng 24) in
      match Oracle.Timers.check o trace with
      | Ok () -> true
      | Error d ->
        QCheck.Test.fail_report (Oracle.disagreement_to_string d))

let saw_agrees =
  timers_oracle_agrees
    "check: stop-and-wait with timeouts — wheel agrees with the simulator"
    (Machines.stop_and_wait ~timeout_ms:150 ())
    [ "send"; "ack0"; "ack1"; "timeout"; "close" ]

let gbn_agrees =
  timers_oracle_agrees
    "check: go-back-N with timeouts — wheel agrees with the simulator"
    (Machines.go_back_n ~timeout_ms:120 ())
    [ "send"; "ack"; "timeout"; "finish" ]

let sr_agrees =
  timers_oracle_agrees
    "check: selective repeat with timeouts — wheel agrees with the simulator"
    (Machines.selective_repeat ~timeout_ms:90 ())
    [ "send"; "ack"; "nak"; "resend"; "finish"; "timeout" ]

(* Two arms, the second silently dropped by the planted bug: the
   simulator retransmits at 170 ms while the live side sleeps forever. *)
let drop_expiry_trace = [ (0, "send"); (10, "ack0"); (20, "send") ]

let oracle_catches_drop_expiry () =
  let machine = Machines.stop_and_wait ~timeout_ms:150 () in
  (match
     Oracle.Timers.check (Oracle.Timers.create machine) drop_expiry_trace
   with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Oracle.disagreement_to_string d));
  match
    Oracle.Timers.check
      (Oracle.Timers.create ~bug:Oracle.Drop_expiry machine)
      drop_expiry_trace
  with
  | Ok () -> Alcotest.fail "planted Drop_expiry went undetected"
  | Error d -> check_string "flagged leg" "timers" d.Oracle.d_check

(* ------------------------------------------------------------------ *)
(* Pipeline timers under a virtual clock                               *)

let arq_data ~seq payload = Fm.Arq.to_bytes (Fm.Arq.Data { seq; payload })

(* Payload length is the event: the test's side channel into the
   machine, leaving seq free to be the flow key.  [events] names the
   event of each length from 1. *)
let by_len events =
  Flight.spec
    ~classify:
      (List.mapi
         (fun i ev ->
           { Flight.ev_when =
               Flight.Cmp (Flight.Eq, Flight.Field "len", Flight.Const (Int64.of_int (i + 1)));
             ev_name = ev })
         events)
    ~flow_key:"seq" ()

let saw_flight = by_len [ "send"; "ack0" ]

let pipe_virtual_clock () =
  let now = ref 0 in
  let machine = Machines.stop_and_wait ~timeout_ms:100 () in
  let tw =
    Testutil.twin ~flight:saw_flight ~machine ~clock_ms:(fun () -> !now) Fm.Arq.format
  in
  let p = tw.pipe in
  check_bool "nothing armed yet" true (Pipeline.next_timer_s p = None);
  ignore (Testutil.process tw (arq_data ~seq:7 "x"));
  check_int "send armed the flow's timer" 1 (Pipeline.timers_live p);
  (match Pipeline.next_timer_s p with
  | Some d -> check_bool "deadline ~100 ms out" true (d > 0.0 && d <= 0.101)
  | None -> Alcotest.fail "expected a deadline");
  now := 99;
  check_int "one tick early: silent" 0 (Testutil.poll_timers tw);
  now := 100;
  check_int "expiry fires through the step stage" 1 (Testutil.poll_timers tw);
  (match Pipeline.peek_flow p 7 with
  | Some inst ->
    check_string "still awaiting" "awaiting_ack" (Step.state_name_of inst);
    check_int "one retransmission" 1 (Step.register_by_name inst "attempts")
  | None -> Alcotest.fail "flow should be live");
  (* each expiry re-arms until attempts run out: 200, 300, then give_up *)
  now := 500;
  check_int "expiry chain to failure" 3 (Testutil.poll_timers tw);
  (match Pipeline.peek_flow p 7 with
  | Some inst -> check_string "gave up" "failed" (Step.state_name_of inst)
  | None -> Alcotest.fail "flow should be live");
  check_int "nothing armed after give-up" 0 (Pipeline.timers_live p);
  check_int "expired counted" 4 (Stats.timers_expired (Pipeline.stats p));
  (* a second flow whose ack lands in time cancels its timer *)
  ignore (Testutil.process tw (arq_data ~seq:8 "y"));
  ignore (Testutil.process tw (arq_data ~seq:8 "yy"));
  check_int "ack cancelled the timer" 1
    (Stats.timers_cancelled (Pipeline.stats p));
  check_int "unseen key peeks to None" 0
    (match Pipeline.peek_flow p 99 with None -> 0 | Some _ -> 1);
  Testutil.finish tw

let pipe_tick_granularity () =
  let now = ref 0 in
  let machine = Machines.stop_and_wait ~timeout_ms:95 () in
  let tw =
    Testutil.twin ~flight:saw_flight ~machine ~clock_ms:(fun () -> !now) ~tick_ms:10
      Fm.Arq.format
  in
  ignore (Testutil.process tw (arq_data ~seq:1 "x"));
  now := 99;
  check_int "95 ms rounds up to tick 10" 0 (Testutil.poll_timers tw);
  now := 100;
  check_int "fires on the coarse tick" 1 (Testutil.poll_timers tw);
  Testutil.finish tw

(* A timer that fires in a state which ignores its event is refused at
   the step stage: one step-stage packet and one reject, as in the
   reference executor — not two packets. *)
let pipe_refused_expiry_counts_once () =
  let module M = Netdsl_fsm.Machine in
  let machine =
    M.machine ~name:"ignores_tick" ~states:[ "idle"; "wait" ] ~events:[ "go"; "tick" ]
      ~initial:"idle"
      [ M.trans ~src:"idle" ~event:"go" ~dst:"wait"
          ~timer:(M.Arm_timer { after_ms = 5; fire = "tick" }) ();
        M.trans ~src:"wait" ~event:"go" ~dst:"wait" () ]
  in
  let now = ref 0 in
  let tw =
    Testutil.twin ~flight:(by_len [ "go" ]) ~machine ~clock_ms:(fun () -> !now)
      Fm.Arq.format
  in
  ignore (Testutil.process tw (arq_data ~seq:1 "x"));
  ignore (Testutil.process tw (arq_data ~seq:1 "x"));
  now := 5;
  check_int "the expiry fires" 1 (Testutil.poll_timers tw);
  let st = Pipeline.stats tw.pipe in
  check_int "step packets: two packets, one refused expiry" 3 (Stats.stage_packets st 2);
  check_int "step rejects: the refused expiry" 1 (Stats.stage_rejects st 2);
  Testutil.finish tw

(* ------------------------------------------------------------------ *)
(* Lossy loopback: success-or-timeout, never stuck                     *)

let window_flight = by_len [ "send"; "ack"; "finish"; "resend"; "nak" ]

(* The driver is the application and the far end at once: it offers
   [total] abstract frames per flow, acks every accepted data frame
   through the lossy channel, and infers delivered acks from the
   movement of [base].  Dropped acks stall [base] until the flow's
   timer expires — go-back-N rewinds, selective repeat marks a loss for
   [resend] — so completion genuinely rides on the wheel. *)
let run_lossy ~style ~workers ~seed ~loss ~flows ~total ~horizon () =
  let d = 8 and window = 4 in
  let machine =
    match style with
    | `Gbn -> Machines.go_back_n ~timeout_ms:120 ()
    | `Sr -> Machines.selective_repeat ~timeout_ms:120 ()
  in
  let chan =
    Channel.config ~loss ~duplicate:0.05
      ~delay:(Channel.Uniform (4.0, 28.0))
      ()
  in
  let lb =
    Lossy.create ~workers ~channel:chan ~seed ~machine
      ~flight:window_flight Fm.Arq.format
  in
  let cum = Array.make flows 0 in
  let prev_base = Array.make flows 0 in
  let data f n = arq_data ~seq:f (String.make n 'd') in
  let on_tick _now =
    for f = 0 to flows - 1 do
      match Lossy.peek lb f with
      | Some inst when Step.state_name_of inst = "done" -> ()
      | inst_opt ->
        let base, next, lost =
          match inst_opt with
          | None -> (0, 0, 0)
          | Some inst ->
            ( Step.register_by_name inst "base",
              Step.register_by_name inst "next",
              match style with
              | `Sr -> Step.register_by_name inst "lost"
              | `Gbn -> 0 )
        in
        cum.(f) <- cum.(f) + ((base - prev_base.(f) + d) mod d);
        prev_base.(f) <- base;
        let occ = (next - base + d) mod d in
        if lost = 1 then begin
          if Lossy.inject lb (data f 4) = Pipeline.Accepted then
            Lossy.send lb (data f 2)
        end
        else if cum.(f) >= total && occ = 0 then
          ignore (Lossy.inject lb (data f 3))
        else if cum.(f) + occ < total && occ < window then
          if Lossy.inject lb (data f 1) = Pipeline.Accepted then
            Lossy.send lb (data f 2)
    done
  in
  Lossy.run lb ~until:horizon ~on_tick;
  lb

let flow_config style lb f =
  match Lossy.peek lb f with
  | None -> "absent"
  | Some i ->
    Printf.sprintf "%s base=%d next=%d lost=%d" (Step.state_name_of i)
      (Step.register_by_name i "base")
      (Step.register_by_name i "next")
      (match style with
      | `Sr -> Step.register_by_name i "lost"
      | `Gbn -> 0)

(* Nightly soak hook: NETDSL_LOSSY_SEED reseeds the lossy channel — every
   run stays a deterministic function of the seed, so a red nightly
   replays exactly by exporting the same value locally. *)
let lossy_seed default =
  match Sys.getenv_opt "NETDSL_LOSSY_SEED" with
  | Some s -> Int64.of_string s
  | None -> default

let lossy_completes style () =
  let flows = 6 and total = 5 in
  let lb =
    run_lossy ~style ~workers:1 ~seed:(lossy_seed 0xBEEFL) ~loss:0.25 ~flows
      ~total ~horizon:15_000 ()
  in
  for f = 0 to flows - 1 do
    match Lossy.peek lb f with
    | Some inst ->
      check_string
        (Printf.sprintf "flow %d reached success-or-timeout" f)
        "done" (Step.state_name_of inst)
    | None -> Alcotest.fail (Printf.sprintf "flow %d never started" f)
  done;
  let s = Lossy.stats lb in
  check_bool "losses forced expirations" true (Stats.timers_expired s > 0);
  check_bool "emptied windows cancelled timers" true
    (Stats.timers_cancelled s > 0);
  let cs = Lossy.channel_stats lb in
  check_bool "the channel really dropped acks" true (cs.Channel.dropped > 0)

let lossy_sharded_matches style () =
  let flows = 6 and total = 4 in
  let run workers =
    run_lossy ~style ~workers ~seed:(lossy_seed 0xC0FFEEL) ~loss:0.2 ~flows
      ~total ~horizon:15_000 ()
  in
  let a = run 1 and b = run 2 in
  for f = 0 to flows - 1 do
    check_string
      (Printf.sprintf "flow %d: sharded config equals reference" f)
      (flow_config style a f) (flow_config style b f)
  done;
  check_int "expired folds across workers"
    (Stats.timers_expired (Lossy.stats a))
    (Stats.timers_expired (Lossy.stats b));
  check_int "cancelled folds across workers"
    (Stats.timers_cancelled (Lossy.stats a))
    (Stats.timers_cancelled (Lossy.stats b))

(* ------------------------------------------------------------------ *)
(* Stats: merged timer counters are the per-worker sums                *)

let stats_merge_timers () =
  let mk e c k =
    let s = Stats.create Pipeline.stage_names in
    Stats.note_timers ~expired:e ~cancelled:c ~cascaded:k s;
    s
  in
  let m = Stats.merge [ mk 3 1 7; mk 5 2 0; mk 11 0 4 ] in
  check_int "expired" 19 (Stats.timers_expired m);
  check_int "cancelled" 3 (Stats.timers_cancelled m);
  check_int "cascaded" 11 (Stats.timers_cascaded m)

(* ------------------------------------------------------------------ *)
(* Flow-table scale                                                     *)

(* [n] timers armed at once are all live; churn at full occupancy — [2n]
   re-arms with a one-tick advance every 256 — allocates under 1 B/op;
   the drain fires every live timer, cascades included. *)
let wheel_at_scale n () =
  let nop ~key:_ ~ev:_ = () in
  let w = Wheel.create () in
  for i = 0 to n - 1 do
    Wheel.arm w ~key:i ~after:(1 + (i land 0xFFFF)) ~ev:0
  done;
  check_int "every armed timer is live" n (Wheel.live w);
  let churn = 2 * n in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  for i = 0 to churn - 1 do
    Wheel.arm w ~key:(i * 0x9E3779B1 mod n) ~after:(1 + (i land 0x3FF)) ~ev:0;
    if i land 0xFF = 0xFF then ignore (Wheel.advance w ~now:(Wheel.now w + 1) nop)
  done;
  let per_op = (Gc.allocated_bytes () -. a0) /. float_of_int churn in
  check_bool (Printf.sprintf "churn allocates under 1 B/op (%.3f)" per_op) true
    (per_op < 1.0);
  let live = Wheel.live w in
  let fired = ref 0 in
  while Wheel.live w > 0 do
    fired := !fired + Wheel.advance w ~now:(Wheel.now w + 4096) nop
  done;
  check_int "the drain fires every live timer" live !fired

(* A timeout clause on the pipeline's hot path: 256 flows re-arming an
   hour-long timer on every packet, batches of 256 under a clock that
   never moves, must allocate under 1 B/pkt at steady state. *)
let pipe_timed_zero_alloc () =
  let module M = Netdsl_fsm.Machine in
  let machine =
    M.machine ~name:"rearm" ~states:[ "run" ] ~events:[ "pkt" ] ~initial:"run"
      ~accepting:[ "run" ]
      [ M.trans ~label:"pkt" ~src:"run" ~event:"pkt" ~dst:"run"
          ~timer:(M.Arm_timer { after_ms = 3_600_000; fire = "pkt" }) () ]
  in
  let flight =
    Flight.spec
      ~verify:(Flight.Cmp (Flight.Lt, Flight.Field "seq", Flight.Const 256L))
      ~classify:
        [ { Flight.ev_when = Flight.Cmp (Flight.Eq, Flight.Field "kind", Flight.Const 0L);
            ev_name = "pkt" } ]
      ~flow_key:"seq" ()
  in
  let p =
    Pipeline.create
      ~config:{ Pipeline.default_config with batch = 256 }
      ~flight ~machine ~clock_ms:(fun () -> 0) Fm.Arq.format
  in
  let pkts = Array.init 256 (fun seq -> arq_data ~seq "x") in
  Pipeline.process_batch p pkts 256;
  check_int "every flow armed" 256 (Pipeline.timers_live p);
  let batches = 768 in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to batches do
    Pipeline.process_batch p pkts 256
  done;
  let per_pkt = (Gc.allocated_bytes () -. a0) /. float_of_int (batches * 256) in
  check_bool (Printf.sprintf "timed pipeline allocates under 1 B/pkt (%.3f)" per_pkt)
    true (per_pkt < 1.0)

(* ------------------------------------------------------------------ *)

let qt = Testutil.qcheck

let suite =
  [
    ( "timers.wheel",
      [
        Alcotest.test_case "basics" `Quick wheel_basics;
        Alcotest.test_case "deep cascade" `Quick wheel_deep_cascade;
        Alcotest.test_case "next_due convergence" `Quick wheel_next_due;
        Alcotest.test_case "re-arm in callback" `Quick wheel_rearm_in_callback;
        Alcotest.test_case "same-tick mutation" `Quick wheel_same_tick_mutation;
        qt wheel_matches_model;
        Alcotest.test_case "100k timers: live, churn, drain" `Quick
          (wheel_at_scale 100_000);
        Alcotest.test_case "1M timers: live, churn, drain" `Slow
          (wheel_at_scale 1_000_000);
      ] );
    ( "timers.oracle",
      [
        qt saw_agrees;
        qt gbn_agrees;
        qt sr_agrees;
        Alcotest.test_case "planted Drop_expiry is caught" `Quick
          oracle_catches_drop_expiry;
      ] );
    ( "timers.pipeline",
      [
        Alcotest.test_case "virtual clock" `Quick pipe_virtual_clock;
        Alcotest.test_case "tick granularity" `Quick pipe_tick_granularity;
        Alcotest.test_case "refused expiry counts once" `Quick
          pipe_refused_expiry_counts_once;
        Alcotest.test_case "timeout clause allocates nothing" `Quick
          pipe_timed_zero_alloc;
      ] );
    ( "timers.lossy",
      [
        Alcotest.test_case "go-back-N completes" `Quick
          (lossy_completes `Gbn);
        Alcotest.test_case "selective repeat completes" `Quick
          (lossy_completes `Sr);
        Alcotest.test_case "go-back-N sharded = single" `Quick
          (lossy_sharded_matches `Gbn);
        Alcotest.test_case "selective repeat sharded = single" `Quick
          (lossy_sharded_matches `Sr);
      ] );
    ("timers.stats", [ Alcotest.test_case "merge sums" `Quick stats_merge_timers ]);
  ]
