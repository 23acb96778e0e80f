open Netdsl_sim
module P = Netdsl_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  let at t tag = ignore (Engine.schedule e ~delay:t (fun () -> log := tag :: !log)) in
  at 3.0 "c";
  at 1.0 "a";
  at 2.0 "b";
  (match Engine.run e with
  | Engine.Drained -> ()
  | _ -> Alcotest.fail "expected Drained");
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_at_equal_times () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~delay:0.5 (fun () -> log := "inner" :: !log))));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "final clock" 1.5 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  check_int "pending" 1 (Engine.pending e);
  Engine.cancel e h;
  check_int "cancelled" 0 (Engine.pending e);
  ignore (Engine.run e);
  check_bool "not fired" false !fired;
  (* Double cancel is a no-op. *)
  Engine.cancel e h;
  check_int "still zero" 0 (Engine.pending e)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~delay:5.0 (fun () -> fired := 5 :: !fired));
  (match Engine.run ~until:2.0 e with
  | Engine.Until_reached -> ()
  | _ -> Alcotest.fail "expected Until_reached");
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  check_float "clock parked at until" 2.0 (Engine.now e);
  (* Resuming picks the late event back up. *)
  (match Engine.run e with
  | Engine.Drained -> ()
  | _ -> Alcotest.fail "expected Drained");
  Alcotest.(check (list int)) "both" [ 5; 1 ] !fired

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:1.0 tick)
  in
  ignore (Engine.schedule e ~delay:1.0 tick);
  (match Engine.run ~max_events:10 e with
  | Engine.Event_limit -> ()
  | _ -> Alcotest.fail "expected Event_limit");
  check_int "ten" 10 !count

let test_engine_negative_delay_rejected () =
  let e = Engine.create () in
  (match Engine.schedule e ~delay:(-1.0) ignore with
  | _ -> Alcotest.fail "negative delay accepted"
  | exception Invalid_argument _ -> ());
  match Engine.schedule_at e ~time:(-0.5) ignore with
  | _ -> Alcotest.fail "past time accepted"
  | exception Invalid_argument _ -> ()

let test_engine_step () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "x" :: !log));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := "y" :: !log));
  check_bool "step 1" true (Engine.step e);
  Alcotest.(check (list string)) "one fired" [ "x" ] !log;
  check_bool "step 2" true (Engine.step e);
  check_bool "empty" false (Engine.step e)

(* ------------------------------------------------------------------ *)
(* Timer *)

let test_timer_fires () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Timer.create e ~on_expiry:(fun () -> incr fired) in
  Timer.start t ~after:2.0;
  check_bool "running" true (Timer.is_running t);
  ignore (Engine.run e);
  check_int "fired once" 1 !fired;
  check_bool "stopped after fire" false (Timer.is_running t);
  check_int "expirations" 1 (Timer.expirations t)

let test_timer_restart_supersedes () =
  let e = Engine.create () in
  let times = ref [] in
  let t = Timer.create e ~on_expiry:(fun () -> times := Engine.now e :: !times) in
  Timer.start t ~after:5.0;
  (* Restart before expiry: only the later deadline fires. *)
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Timer.start t ~after:3.0));
  ignore (Engine.run e);
  (match !times with
  | [ t1 ] -> check_float "superseded deadline" 4.0 t1
  | other -> Alcotest.failf "expected one expiry, got %d" (List.length other));
  check_int "one expiration" 1 (Timer.expirations t)

let test_timer_stop () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Timer.create e ~on_expiry:(fun () -> incr fired) in
  Timer.start t ~after:1.0;
  Timer.stop t;
  ignore (Engine.run e);
  check_int "never fired" 0 !fired

(* ------------------------------------------------------------------ *)
(* Channel *)

let run_channel ?(n = 10_000) ?(seed = 42L) cfg =
  let e = Engine.create () in
  let rng = P.create seed in
  let received = ref [] in
  let ch = Channel.create e rng cfg ~deliver:(fun m -> received := m :: !received) in
  for i = 1 to n do
    Channel.send ch (Printf.sprintf "msg-%d" i)
  done;
  ignore (Engine.run e);
  (Channel.stats ch, List.rev !received)

let test_channel_lossless () =
  let stats, received = run_channel Channel.default_config in
  check_int "all delivered" 10_000 (List.length received);
  check_int "none dropped" 0 stats.Channel.dropped

let test_channel_loss_rate () =
  let stats, _ = run_channel (Channel.config ~loss:0.3 ()) in
  let rate = float_of_int stats.Channel.dropped /. 10_000.0 in
  if abs_float (rate -. 0.3) > 0.02 then Alcotest.failf "loss rate %.3f" rate

let test_channel_duplication () =
  let stats, received = run_channel (Channel.config ~duplicate:0.2 ()) in
  check_int "extra deliveries" (10_000 + stats.Channel.duplicated) (List.length received);
  let rate = float_of_int stats.Channel.duplicated /. 10_000.0 in
  if abs_float (rate -. 0.2) > 0.02 then Alcotest.failf "dup rate %.3f" rate

let test_channel_corruption () =
  let stats, received = run_channel ~n:2_000 (Channel.config ~corrupt:1.0 ()) in
  check_int "all corrupted" 2_000 stats.Channel.corrupted;
  (* Every delivered message differs from every sent one by exactly one bit
     flip — cheaply checked as: not equal to the original. *)
  List.iteri
    (fun i m ->
      if String.equal m (Printf.sprintf "msg-%d" (i + 1)) then
        Alcotest.fail "corruption left message intact")
    received

let test_channel_delay_ordering () =
  (* Constant delay preserves order... *)
  let e = Engine.create () in
  let rng = P.create 1L in
  let received = ref [] in
  let ch =
    Channel.create e rng
      (Channel.config ~delay:(Channel.Constant 0.5) ())
      ~deliver:(fun m -> received := m :: !received)
  in
  Channel.send ch "a";
  Channel.send ch "b";
  ignore (Engine.run e);
  Alcotest.(check (list string)) "fifo under constant delay" [ "a"; "b" ]
    (List.rev !received);
  check_float "took delay" 0.5 (Engine.now e)

let test_channel_random_delay_reorders () =
  let e = Engine.create () in
  let rng = P.create 7L in
  let received = ref [] in
  let ch =
    Channel.create e rng
      (Channel.config ~delay:(Channel.Uniform (0.0, 1.0)) ())
      ~deliver:(fun m -> received := m :: !received)
  in
  for i = 0 to 99 do
    Channel.send ch (string_of_int i)
  done;
  ignore (Engine.run e);
  let order = List.rev !received in
  check_int "all arrive" 100 (List.length order);
  check_bool "some reordering happened" true
    (order <> List.init 100 string_of_int)

let test_channel_gilbert_burstiness () =
  (* With the same long-run loss rate, Gilbert-Elliott losses come in
     longer runs than Bernoulli losses. *)
  let run_with cfg =
    let e = Engine.create () in
    let rng = P.create 99L in
    let outcomes = ref [] in
    let ch = Channel.create e rng cfg ~deliver:ignore in
    for _ = 1 to 20_000 do
      let before = (Channel.stats ch).Channel.dropped in
      Channel.send ch "x";
      let ok = (Channel.stats ch).Channel.dropped = before in
      outcomes := ok :: !outcomes
    done;
    ignore (Engine.run e);
    List.rev !outcomes
  in
  let mean_run outcomes =
    let runs, cur =
      List.fold_left
        (fun (runs, cur) ok ->
          if ok then if cur > 0 then (cur :: runs, 0) else (runs, 0)
          else (runs, cur + 1))
        ([], 0) outcomes
    in
    let runs = if cur > 0 then cur :: runs else runs in
    match runs with
    | [] -> 0.0
    | _ -> float_of_int (List.fold_left ( + ) 0 runs) /. float_of_int (List.length runs)
  in
  let bernoulli = mean_run (run_with (Channel.config ~loss:0.1 ())) in
  let bursty =
    mean_run
      (run_with
         (Channel.config
            ~gilbert:
              {
                Channel.p_good_to_bad = 0.02;
                p_bad_to_good = 0.2;
                loss_good = 0.001;
                loss_bad = 0.9;
              }
            ()))
  in
  check_bool
    (Printf.sprintf "gilbert (%.2f) burstier than bernoulli (%.2f)" bursty bernoulli)
    true (bursty > bernoulli *. 1.5)

let test_channel_determinism () =
  let _, r1 = run_channel ~n:500 ~seed:5L (Channel.config ~loss:0.2 ~duplicate:0.1 ()) in
  let _, r2 = run_channel ~n:500 ~seed:5L (Channel.config ~loss:0.2 ~duplicate:0.1 ()) in
  check_bool "same seed, same trace" true (r1 = r2);
  let _, r3 = run_channel ~n:500 ~seed:6L (Channel.config ~loss:0.2 ~duplicate:0.1 ()) in
  check_bool "different seed, different trace" true (r1 <> r3)

let test_channel_reconfiguration () =
  let e = Engine.create () in
  let rng = P.create 3L in
  let count = ref 0 in
  let ch = Channel.create e rng Channel.default_config ~deliver:(fun _ -> incr count) in
  Channel.send ch "ok";
  Channel.set_config ch (Channel.config ~loss:1.0 ());
  Channel.send ch "lost";
  ignore (Engine.run e);
  check_int "only first delivered" 1 !count

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.count s);
  check_float "mean" 5.0 (Stats.mean s);
  (* Sample variance with n-1: sum of squared deviations is 32 over 7. *)
  check_float "variance" (32.0 /. 7.0) (Stats.variance s);
  check_float "min" 2.0 (Stats.min_value s);
  check_float "max" 9.0 (Stats.max_value s);
  check_float "total" 40.0 (Stats.total s)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check_float "median" 50.0 (Stats.median s);
  check_float "p99" 99.0 (Stats.percentile s 0.99);
  check_float "p1" 1.0 (Stats.percentile s 0.01)

let test_stats_empty_and_nokeep () =
  let s = Stats.create ~keep_samples:false () in
  Stats.add s 1.0;
  (match Stats.percentile s 0.5 with
  | _ -> Alcotest.fail "percentile without samples"
  | exception Invalid_argument _ -> ());
  let empty = Stats.create () in
  check_float "mean of empty" 0.0 (Stats.mean empty);
  check_int "count of empty" 0 (Stats.count empty)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records () =
  let e = Engine.create () in
  let tr = Trace.create () in
  ignore (Engine.schedule e ~delay:1.5 (fun () -> Trace.record tr e ~source:"a" "hello"));
  ignore (Engine.schedule e ~delay:2.5 (fun () -> Trace.recordf tr e ~source:"b" "n=%d" 7));
  ignore (Engine.run e);
  (match Trace.entries tr with
  | [ e1; e2 ] ->
    check_float "t1" 1.5 e1.Trace.time;
    Alcotest.(check string) "msg" "hello" e1.Trace.message;
    Alcotest.(check string) "fmt" "n=7" e2.Trace.message
  | other -> Alcotest.failf "expected 2 entries, got %d" (List.length other));
  check_int "by_source" 1 (List.length (Trace.by_source tr "a"));
  Trace.clear tr;
  check_int "cleared" 0 (Trace.length tr)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_engine_monotone_time =
  QCheck.Test.make ~name:"sim: event times fire monotonically" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range 0.0 100.0))
    (fun delays ->
      let e = Engine.create () in
      let times = ref [] in
      List.iter
        (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> times := Engine.now e :: !times)))
        delays;
      ignore (Engine.run e);
      let ts = List.rev !times in
      List.length ts = List.length delays
      && fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t >= prev, t))
              (true, neg_infinity) ts))

let suite =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick test_engine_time_order;
        Alcotest.test_case "FIFO at equal times" `Quick test_engine_fifo_at_equal_times;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "until bound" `Quick test_engine_until;
        Alcotest.test_case "event limit" `Quick test_engine_max_events;
        Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay_rejected;
        Alcotest.test_case "single step" `Quick test_engine_step;
        Testutil.qcheck prop_engine_monotone_time;
      ] );
    ( "sim.timer",
      [
        Alcotest.test_case "fires" `Quick test_timer_fires;
        Alcotest.test_case "restart supersedes" `Quick test_timer_restart_supersedes;
        Alcotest.test_case "stop" `Quick test_timer_stop;
      ] );
    ( "sim.channel",
      [
        Alcotest.test_case "lossless" `Quick test_channel_lossless;
        Alcotest.test_case "loss rate" `Quick test_channel_loss_rate;
        Alcotest.test_case "duplication" `Quick test_channel_duplication;
        Alcotest.test_case "corruption" `Quick test_channel_corruption;
        Alcotest.test_case "constant delay keeps order" `Quick test_channel_delay_ordering;
        Alcotest.test_case "random delay reorders" `Quick test_channel_random_delay_reorders;
        Alcotest.test_case "gilbert burstiness" `Quick test_channel_gilbert_burstiness;
        Alcotest.test_case "determinism" `Quick test_channel_determinism;
        Alcotest.test_case "reconfiguration" `Quick test_channel_reconfiguration;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "moments" `Quick test_stats_moments;
        Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
        Alcotest.test_case "empty and no-keep" `Quick test_stats_empty_and_nokeep;
      ] );
    ( "sim.trace",
      [ Alcotest.test_case "records" `Quick test_trace_records ] );
  ]

(* ------------------------------------------------------------------ *)
(* Network *)

let test_network_basic_delivery () =
  let e = Engine.create () in
  let net = Network.create e (P.create 1L) in
  let got = ref [] in
  Network.add_node net "a" ~on_receive:(fun ~src:_ _ -> ());
  Network.add_node net "b" ~on_receive:(fun ~src msg -> got := (src, msg) :: !got);
  Network.connect net ~config:(Channel.config ~delay:(Channel.Constant 0.1) ()) "a" "b";
  Network.send net ~src:"a" ~dst:"b" "hello";
  ignore (Engine.run e);
  Alcotest.(check (list (pair string string))) "delivered" [ ("a", "hello") ] !got;
  check_float "took the link delay" 0.1 (Engine.now e)

let test_network_duplex_and_stats () =
  let e = Engine.create () in
  let net = Network.create e (P.create 2L) in
  Network.add_node net "a" ~on_receive:(fun ~src:_ _ -> ());
  Network.add_node net "b" ~on_receive:(fun ~src:_ _ -> ());
  Network.connect net "a" "b"
    ~config:(Channel.config ~loss:1.0 ())
    ~reverse_config:Channel.default_config;
  Network.send net ~src:"a" ~dst:"b" "x";
  Network.send net ~src:"b" ~dst:"a" "y";
  ignore (Engine.run e);
  check_int "a->b dropped" 1 (Network.link_stats net ~src:"a" ~dst:"b").Channel.dropped;
  check_int "b->a delivered" 1 (Network.link_stats net ~src:"b" ~dst:"a").Channel.delivered

let test_network_no_implicit_routing () =
  let e = Engine.create () in
  let net = Network.create e (P.create 3L) in
  Network.add_node net "a" ~on_receive:(fun ~src:_ _ -> ());
  Network.add_node net "b" ~on_receive:(fun ~src:_ _ -> ());
  Network.add_node net "c" ~on_receive:(fun ~src:_ _ -> ());
  Network.connect net "a" "b";
  Network.connect net "b" "c";
  check_bool "a-b" true (Network.connected net "a" "b");
  check_bool "a-c not" false (Network.connected net "a" "c");
  Alcotest.(check (list string)) "b's neighbours" [ "a"; "c" ] (Network.neighbours net "b");
  match Network.send net ~src:"a" ~dst:"c" "nope" with
  | () -> Alcotest.fail "unconnected send accepted"
  | exception Invalid_argument _ -> ()

let test_network_forwarding_chain () =
  (* Multi-hop is built from per-hop sends inside handlers. *)
  let e = Engine.create () in
  let net = Network.create e (P.create 4L) in
  let arrived = ref None in
  Network.add_node net "a" ~on_receive:(fun ~src:_ _ -> ());
  Network.add_node net "b" ~on_receive:(fun ~src:_ _ -> ());
  Network.add_node net "c" ~on_receive:(fun ~src msg -> arrived := Some (src, msg));
  Network.connect net ~config:(Channel.config ~delay:(Channel.Constant 0.05) ()) "a" "b";
  Network.connect net ~config:(Channel.config ~delay:(Channel.Constant 0.05) ()) "b" "c";
  Network.set_receiver net "b" (fun ~src:_ msg -> Network.send net ~src:"b" ~dst:"c" msg);
  Network.send net ~src:"a" ~dst:"b" "relay me";
  ignore (Engine.run e);
  Alcotest.(check (option (pair string string))) "two hops" (Some ("b", "relay me")) !arrived;
  check_float "two link delays" 0.1 (Engine.now e)

let test_network_validation () =
  let e = Engine.create () in
  let net = Network.create e (P.create 5L) in
  Network.add_node net "a" ~on_receive:(fun ~src:_ _ -> ());
  (match Network.add_node net "a" ~on_receive:(fun ~src:_ _ -> ()) with
  | () -> Alcotest.fail "duplicate node accepted"
  | exception Invalid_argument _ -> ());
  (match Network.connect net "a" "a" with
  | () -> Alcotest.fail "self link accepted"
  | exception Invalid_argument _ -> ());
  Network.add_node net "b" ~on_receive:(fun ~src:_ _ -> ());
  Network.connect net "a" "b";
  match Network.connect net "b" "a" with
  | () -> Alcotest.fail "duplicate link accepted"
  | exception Invalid_argument _ -> ()

let test_network_reconfigure_link () =
  let e = Engine.create () in
  let net = Network.create e (P.create 6L) in
  let count = ref 0 in
  Network.add_node net "a" ~on_receive:(fun ~src:_ _ -> ());
  Network.add_node net "b" ~on_receive:(fun ~src:_ _ -> incr count);
  Network.connect net "a" "b";
  Network.send net ~src:"a" ~dst:"b" "1";
  Network.set_link_config net ~src:"a" ~dst:"b" (Channel.config ~loss:1.0 ());
  Network.send net ~src:"a" ~dst:"b" "2";
  ignore (Engine.run e);
  check_int "only pre-jamming message" 1 !count

(* ------------------------------------------------------------------ *)
(* Ladder rendering *)

let test_ladder_layout () =
  let e = Engine.create () in
  let tr = Trace.create () in
  ignore (Engine.schedule e ~delay:0.0 (fun () -> Trace.record tr e ~source:"a" "hello"));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Trace.record tr e ~source:"b" "world"));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> Trace.record tr e ~source:"a" "again"));
  ignore (Engine.run e);
  let out = Ladder.render ~columns:[ "a"; "b" ] tr in
  let lines = String.split_on_char '\n' out in
  (* Header + rule + three event rows. *)
  check_int "rows" 5 (List.length (List.filter (fun l -> l <> "") lines));
  (* Column b's event is indented one column further than column a's. *)
  let row_of needle =
    List.find (fun l -> Testutil.contains l needle) lines
  in
  let indent l = String.length l - String.length (String.trim l) in
  check_bool "b indented beyond a" true
    (String.index (row_of "world") 'w' > String.index (row_of "hello") 'h');
  ignore indent

let test_ladder_unlisted_sources_dropped () =
  let e = Engine.create () in
  let tr = Trace.create () in
  ignore (Engine.schedule e ~delay:0.0 (fun () -> Trace.record tr e ~source:"ghost" "boo"));
  ignore (Engine.run e);
  let out = Ladder.render ~columns:[ "a" ] tr in
  check_bool "ghost dropped" false (Testutil.contains out "boo")

let test_ladder_render_all_infers_columns () =
  let e = Engine.create () in
  let tr = Trace.create () in
  ignore (Engine.schedule e ~delay:0.0 (fun () -> Trace.record tr e ~source:"x" "one"));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Trace.record tr e ~source:"y" "two"));
  ignore (Engine.run e);
  let out = Ladder.render_all tr in
  check_bool "x column" true (Testutil.contains out "x");
  check_bool "y column" true (Testutil.contains out "y");
  check_bool "events present" true
    (Testutil.contains out "one" && Testutil.contains out "two")

let test_ladder_truncation () =
  let e = Engine.create () in
  let tr = Trace.create () in
  ignore
    (Engine.schedule e ~delay:0.0 (fun () ->
         Trace.record tr e ~source:"a" (String.make 100 'z')));
  ignore (Engine.run e);
  let out = Ladder.render ~col_width:10 ~columns:[ "a" ] tr in
  check_bool "truncated" false (Testutil.contains out (String.make 11 'z'))

let test_traced_harness_ladder () =
  let trace = Trace.create () in
  ignore
    (Netdsl_proto.Harness.run ~seed:1L ~trace Netdsl_proto.Harness.Stop_and_wait
       ~messages:[ "ping" ] ());
  let out = Ladder.render ~columns:[ "sender"; "receiver"; "app" ] trace in
  check_bool "DATA visible" true (Testutil.contains out "DATA(seq=0");
  check_bool "ACK visible" true (Testutil.contains out "ACK(seq=0)");
  check_bool "delivery visible" true (Testutil.contains out "deliver \"ping\"")

let ladder_suite =
  ( "sim.ladder",
    [
      Alcotest.test_case "layout" `Quick test_ladder_layout;
      Alcotest.test_case "unlisted sources dropped" `Quick test_ladder_unlisted_sources_dropped;
      Alcotest.test_case "render_all" `Quick test_ladder_render_all_infers_columns;
      Alcotest.test_case "truncation" `Quick test_ladder_truncation;
      Alcotest.test_case "traced harness" `Quick test_traced_harness_ladder;
    ] )

let network_suite =
  ( "sim.network",
    [
      Alcotest.test_case "basic delivery" `Quick test_network_basic_delivery;
      Alcotest.test_case "duplex and stats" `Quick test_network_duplex_and_stats;
      Alcotest.test_case "no implicit routing" `Quick test_network_no_implicit_routing;
      Alcotest.test_case "forwarding chain" `Quick test_network_forwarding_chain;
      Alcotest.test_case "validation" `Quick test_network_validation;
      Alcotest.test_case "link reconfiguration" `Quick test_network_reconfigure_link;
    ] )

let suite = suite @ [ ladder_suite; network_suite ]
