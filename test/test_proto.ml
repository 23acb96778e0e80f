open Netdsl_proto
module Ch = Netdsl_sim.Channel
module E = Netdsl_sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let messages n = List.init n (fun i -> Printf.sprintf "message %04d" i)

(* ------------------------------------------------------------------ *)
(* Seqspace *)

let test_seqspace_basic () =
  Alcotest.(check (option int)) "in window" (Some 258)
    (Seqspace.resolve ~modulus:256 ~wire:2 ~lo:250 ~hi:260);
  Alcotest.(check (option int)) "exact low edge" (Some 250)
    (Seqspace.resolve ~modulus:256 ~wire:250 ~lo:250 ~hi:260);
  Alcotest.(check (option int)) "not in window" None
    (Seqspace.resolve ~modulus:256 ~wire:100 ~lo:250 ~hi:260);
  Alcotest.(check (option int)) "empty window" None
    (Seqspace.resolve ~modulus:256 ~wire:0 ~lo:5 ~hi:4)

let test_seqspace_ambiguous_rejected () =
  match Seqspace.resolve ~modulus:256 ~wire:0 ~lo:0 ~hi:256 with
  | _ -> Alcotest.fail "ambiguous window accepted"
  | exception Invalid_argument _ -> ()

let test_seqspace_identity_small () =
  for i = 0 to 255 do
    Alcotest.(check (option int)) "identity" (Some i)
      (Seqspace.resolve ~modulus:256 ~wire:i ~lo:0 ~hi:255)
  done

(* ------------------------------------------------------------------ *)
(* Rto *)

let test_rto_fixed () =
  let r = Rto.create (Rto.Fixed 0.25) in
  Alcotest.(check (float 1e-9)) "fixed" 0.25 (Rto.current r);
  Rto.on_sample r 5.0;
  Rto.on_timeout r;
  Alcotest.(check (float 1e-9)) "unchanged" 0.25 (Rto.current r)

let test_rto_adapts_to_samples () =
  let r = Rto.create (Rto.adaptive ()) in
  Alcotest.(check bool) "no srtt yet" true (Rto.srtt r = None);
  Rto.on_sample r 0.1;
  (match Rto.srtt r with
  | Some s -> Alcotest.(check (float 1e-9)) "first sample is srtt" 0.1 s
  | None -> Alcotest.fail "srtt missing");
  (* RFC 6298 init: RTO = srtt + 4*rttvar = 0.1 + 4*0.05 = 0.3. *)
  Alcotest.(check (float 1e-9)) "initial rto" 0.3 (Rto.current r);
  (* Steady samples shrink variance and the RTO converges toward srtt. *)
  for _ = 1 to 50 do
    Rto.on_sample r 0.1
  done;
  check_bool "converged tight" true (Rto.current r < 0.15)

let test_rto_backoff_and_recovery () =
  let r = Rto.create (Rto.adaptive ~initial:1.0 ()) in
  let base = Rto.current r in
  Rto.on_timeout r;
  Alcotest.(check (float 1e-9)) "doubled" (base *. 2.0) (Rto.current r);
  Rto.on_timeout r;
  Alcotest.(check (float 1e-9)) "doubled again" (base *. 4.0) (Rto.current r);
  Rto.on_success_after_backoff r;
  Alcotest.(check (float 1e-9)) "backoff cleared" base (Rto.current r)

let test_rto_clamped () =
  let r = Rto.create (Rto.adaptive ~initial:1.0 ~max_rto:4.0 ()) in
  for _ = 1 to 10 do
    Rto.on_timeout r
  done;
  Alcotest.(check (float 1e-9)) "clamped at max" 4.0 (Rto.current r);
  let r2 = Rto.create (Rto.adaptive ~min_rto:0.5 ()) in
  for _ = 1 to 50 do
    Rto.on_sample r2 0.001
  done;
  check_bool "clamped at min" true (Rto.current r2 >= 0.5)

(* ------------------------------------------------------------------ *)
(* End-to-end protocol runs *)

let protocols = [ Harness.Stop_and_wait; Harness.Go_back_n 8; Harness.Selective_repeat 8 ]

let test_perfect_channel () =
  List.iter
    (fun p ->
      let msgs = messages 50 in
      let o = Harness.run ~seed:1L p ~messages:msgs () in
      check_bool (Harness.protocol_name p ^ " completed") true o.Harness.completed;
      check_bool
        (Harness.protocol_name p ^ " exactly once in order")
        true
        (Harness.exactly_once_in_order o ~messages:msgs);
      check_int (Harness.protocol_name p ^ " no retransmissions") 0
        o.Harness.retransmissions)
    protocols

let lossy =
  Ch.config ~loss:0.2 ~duplicate:0.05 ~delay:(Ch.Uniform (0.01, 0.05)) ()

let test_lossy_channel_all_protocols () =
  List.iter
    (fun p ->
      let msgs = messages 60 in
      let o =
        Harness.run ~seed:7L ~data_cfg:lossy ~ack_cfg:lossy
          ~rto:(Rto.adaptive ~initial:0.2 ()) p ~messages:msgs ()
      in
      check_bool (Harness.protocol_name p ^ " completed") true o.Harness.completed;
      check_bool
        (Harness.protocol_name p ^ " exactly once in order")
        true
        (Harness.exactly_once_in_order o ~messages:msgs);
      check_bool
        (Harness.protocol_name p ^ " needed retransmissions")
        true
        (o.Harness.retransmissions > 0))
    protocols

let test_corrupting_channel () =
  (* Corruption exercises the paper's guarantee 2: damaged frames are
     rejected by validation and repaired by retransmission. *)
  let cfg = Ch.config ~corrupt:0.2 ~delay:(Ch.Constant 0.01) () in
  List.iter
    (fun p ->
      let msgs = messages 40 in
      let o =
        Harness.run ~seed:21L ~data_cfg:cfg ~ack_cfg:cfg
          ~rto:(Rto.adaptive ~initial:0.1 ()) p ~messages:msgs ()
      in
      check_bool (Harness.protocol_name p ^ " completed") true o.Harness.completed;
      check_bool
        (Harness.protocol_name p ^ " delivered correctly")
        true
        (Harness.exactly_once_in_order o ~messages:msgs);
      check_bool
        (Harness.protocol_name p ^ " dropped corrupt frames")
        true (o.Harness.corrupt_dropped > 0))
    protocols

let test_dead_channel_gives_up () =
  let dead = Ch.config ~loss:1.0 () in
  let o =
    Harness.run ~seed:3L ~data_cfg:dead ~rto:(Rto.Fixed 0.05) ~max_retries:5
      Harness.Stop_and_wait ~messages:(messages 3) ()
  in
  check_bool "gave up" true o.Harness.gave_up;
  check_bool "not completed" false o.Harness.completed;
  check_int "nothing delivered" 0 (List.length o.Harness.delivered);
  (* 1 initial + 5 retries. *)
  check_int "bounded transmissions" 6 o.Harness.transmissions

let test_reordering_channel_selective_repeat () =
  (* Heavy reordering: selective repeat must still deliver in order. *)
  let cfg = Ch.config ~delay:(Ch.Uniform (0.0, 0.5)) () in
  let msgs = messages 80 in
  let o =
    Harness.run ~seed:11L ~data_cfg:cfg ~ack_cfg:cfg ~rto:(Rto.Fixed 2.0)
      (Harness.Selective_repeat 16) ~messages:msgs ()
  in
  check_bool "completed" true o.Harness.completed;
  check_bool "in order despite reordering" true
    (Harness.exactly_once_in_order o ~messages:msgs)

let test_empty_message_list () =
  List.iter
    (fun p ->
      let o = Harness.run p ~messages:[] () in
      check_bool "completes immediately" true o.Harness.completed;
      check_int "no transmissions" 0 o.Harness.transmissions)
    protocols

let test_single_byte_and_empty_payloads () =
  let msgs = [ ""; "x"; ""; "yz" ] in
  let o = Harness.run ~seed:2L Harness.Stop_and_wait ~messages:msgs () in
  check_bool "handles empty payloads" true
    (Harness.exactly_once_in_order o ~messages:msgs)

let test_gbn_beats_stop_and_wait_on_delay () =
  (* With a high-latency pipe, windowing wins on completion time. *)
  let cfg = Ch.config ~delay:(Ch.Constant 0.1) () in
  let msgs = messages 50 in
  let run p =
    (Harness.run ~seed:5L ~data_cfg:cfg ~ack_cfg:cfg ~rto:(Rto.Fixed 1.0) p
       ~messages:msgs ())
      .Harness.duration
  in
  let sw = run Harness.Stop_and_wait in
  let gbn = run (Harness.Go_back_n 10) in
  check_bool
    (Printf.sprintf "gbn (%.2fs) at least 5x faster than sw (%.2fs)" gbn sw)
    true
    (gbn *. 5.0 < sw)

let test_sr_fewer_retransmissions_than_gbn () =
  (* Under loss, go-back-N resends whole windows; selective repeat only
     the lost packets. *)
  let cfg = Ch.config ~loss:0.15 ~delay:(Ch.Constant 0.05) () in
  let msgs = messages 100 in
  let run p =
    (Harness.run ~seed:13L ~data_cfg:cfg ~rto:(Rto.adaptive ~initial:0.3 ()) p
       ~messages:msgs ())
      .Harness.retransmissions
  in
  let gbn = run (Harness.Go_back_n 16) in
  let sr = run (Harness.Selective_repeat 16) in
  check_bool
    (Printf.sprintf "sr (%d) retransmits less than gbn (%d)" sr gbn)
    true (sr < gbn)

let test_adaptive_rto_beats_bad_fixed () =
  (* A fixed timer tuned for the wrong RTT either spams retransmissions
     (too short) or idles (too long); adaptive converges. *)
  let cfg = Ch.config ~loss:0.1 ~delay:(Ch.Constant 0.1) () in
  let msgs = messages 60 in
  let run rto =
    let o =
      Harness.run ~seed:17L ~data_cfg:cfg ~ack_cfg:cfg ~rto Harness.Stop_and_wait
        ~messages:msgs ()
    in
    (o.Harness.duration, o.Harness.retransmissions)
  in
  let _, fixed_short_retx = run (Rto.Fixed 0.05) in
  let fixed_long_time, _ = run (Rto.Fixed 2.0) in
  let adaptive_time, adaptive_retx = run (Rto.adaptive ~initial:1.0 ()) in
  check_bool
    (Printf.sprintf "adaptive retx (%d) << too-short fixed (%d)" adaptive_retx
       fixed_short_retx)
    true
    (adaptive_retx * 3 < fixed_short_retx);
  check_bool
    (Printf.sprintf "adaptive time (%.1f) << too-long fixed (%.1f)" adaptive_time
       fixed_long_time)
    true
    (adaptive_time *. 2.0 < fixed_long_time)

(* ------------------------------------------------------------------ *)
(* Properties: delivery correctness across random impairment settings *)

let prop_delivery_correct protocol name =
  QCheck.Test.make ~name ~count:40
    QCheck.(
      quad int64 (float_range 0.0 0.3) (float_range 0.0 0.15) (float_range 0.0 0.1))
    (fun (seed, loss, dup, corrupt) ->
      let msgs = messages 20 in
      let cfg =
        Ch.config ~loss ~duplicate:dup ~corrupt ~delay:(Ch.Uniform (0.001, 0.02)) ()
      in
      let o =
        Harness.run ~seed ~data_cfg:cfg ~ack_cfg:cfg
          ~rto:(Rto.adaptive ~initial:0.1 ()) ~max_retries:100 protocol
          ~messages:msgs ()
      in
      (* With a generous retry budget the run must complete, and whenever
         it completes delivery must be exactly-once in-order. *)
      o.Harness.completed && Harness.exactly_once_in_order o ~messages:msgs)

let suite =
  [
    ( "proto.seqspace",
      [
        Alcotest.test_case "basics" `Quick test_seqspace_basic;
        Alcotest.test_case "ambiguity rejected" `Quick test_seqspace_ambiguous_rejected;
        Alcotest.test_case "identity window" `Quick test_seqspace_identity_small;
      ] );
    ( "proto.rto",
      [
        Alcotest.test_case "fixed" `Quick test_rto_fixed;
        Alcotest.test_case "adapts to samples" `Quick test_rto_adapts_to_samples;
        Alcotest.test_case "backoff and recovery" `Quick test_rto_backoff_and_recovery;
        Alcotest.test_case "clamped" `Quick test_rto_clamped;
      ] );
    ( "proto.arq",
      [
        Alcotest.test_case "perfect channel" `Quick test_perfect_channel;
        Alcotest.test_case "lossy channel" `Quick test_lossy_channel_all_protocols;
        Alcotest.test_case "corrupting channel" `Quick test_corrupting_channel;
        Alcotest.test_case "dead channel gives up" `Quick test_dead_channel_gives_up;
        Alcotest.test_case "reordering channel (SR)" `Quick test_reordering_channel_selective_repeat;
        Alcotest.test_case "empty message list" `Quick test_empty_message_list;
        Alcotest.test_case "empty payloads" `Quick test_single_byte_and_empty_payloads;
        Alcotest.test_case "windowing beats stop-and-wait" `Quick test_gbn_beats_stop_and_wait_on_delay;
        Alcotest.test_case "SR retransmits less than GBN" `Quick test_sr_fewer_retransmissions_than_gbn;
        Alcotest.test_case "adaptive RTO wins" `Quick test_adaptive_rto_beats_bad_fixed;
        Testutil.qcheck
          (prop_delivery_correct Harness.Stop_and_wait
             "proto: stop-and-wait exactly-once under random impairments");
        Testutil.qcheck
          (prop_delivery_correct (Harness.Go_back_n 8)
             "proto: go-back-N exactly-once under random impairments");
        Testutil.qcheck
          (prop_delivery_correct (Harness.Selective_repeat 8)
             "proto: selective-repeat exactly-once under random impairments");
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Relay probing over the simulated network (ref [12]) *)

let test_relay_all_honest () =
  let o =
    Relay.run ~seed:3L ~probes:300
      (List.init 4 (fun i ->
           { Relay.relay_name = Printf.sprintf "r%d" i; forward_prob = 0.95 }))
  in
  check_int "probes" 300 o.Relay.probes;
  check_bool "high delivery" true (o.Relay.delivered > 240)

let test_relay_routes_around_compromised () =
  let relays =
    [
      { Relay.relay_name = "honest1"; forward_prob = 0.95 };
      { Relay.relay_name = "honest2"; forward_prob = 0.95 };
      { Relay.relay_name = "evil1"; forward_prob = 0.05 };
      { Relay.relay_name = "evil2"; forward_prob = 0.05 };
    ]
  in
  let o = Relay.run ~seed:7L ~probes:1500 relays in
  (* Delivery stays near the honest ceiling despite half the relays being
     compromised. *)
  let rate = float_of_int o.Relay.delivered /. float_of_int o.Relay.probes in
  check_bool (Printf.sprintf "delivery %.2f" rate) true (rate > 0.75);
  (* The learned ranking puts honest relays on top... *)
  (match o.Relay.scores with
  | (top, _) :: _ -> check_bool "top is honest" true (String.length top > 5 && String.sub top 0 6 = "honest")
  | [] -> Alcotest.fail "no scores");
  (* ...and they carry the bulk of the traffic. *)
  let carried name =
    Option.value ~default:0 (List.assoc_opt name o.Relay.per_relay)
  in
  check_bool "honest relays carry most probes" true
    (carried "honest1" + carried "honest2" > 2 * (carried "evil1" + carried "evil2"))

let test_relay_deterministic () =
  let relays =
    [ { Relay.relay_name = "a"; forward_prob = 0.9 };
      { Relay.relay_name = "b"; forward_prob = 0.1 } ]
  in
  let o1 = Relay.run ~seed:11L ~probes:200 relays in
  let o2 = Relay.run ~seed:11L ~probes:200 relays in
  check_int "same delivered" o1.Relay.delivered o2.Relay.delivered;
  check_bool "same traffic split" true (o1.Relay.per_relay = o2.Relay.per_relay)

let test_relay_timeouts_advance () =
  (* Even with every relay dead the run terminates: timeouts resolve
     probes (the paper's guarantee 4, in miniature). *)
  let o =
    Relay.run ~seed:13L ~probes:50 ~timeout:0.05
      [ { Relay.relay_name = "dead"; forward_prob = 0.0 } ]
  in
  check_int "all probed" 50 o.Relay.probes;
  check_int "nothing delivered" 0 o.Relay.delivered;
  check_bool "took the timeouts" true (o.Relay.duration >= 0.05 *. 49.0)

let relay_suite =
  ( "proto.relay",
    [
      Alcotest.test_case "all honest" `Quick test_relay_all_honest;
      Alcotest.test_case "routes around compromised" `Quick test_relay_routes_around_compromised;
      Alcotest.test_case "deterministic" `Quick test_relay_deterministic;
      Alcotest.test_case "timeouts advance" `Quick test_relay_timeouts_advance;
    ] )

let suite = suite @ [ relay_suite ]
