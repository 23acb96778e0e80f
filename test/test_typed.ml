open Netdsl_typed

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Checked packets *)

let test_checked_make_valid () =
  let p = Checked.make ~seq:3 ~payload:"hello" in
  check_int "seq" 3 (Checked.seq p);
  check_str "payload" "hello" (Checked.payload p);
  check_int "chk is the check function" (Checked.check ~seq:3 ~payload:"hello") (Checked.chk p);
  check_bool "revalidates" true (Checked.revalidate p)

let test_checked_wire_roundtrip () =
  let p = Checked.make ~seq:200 ~payload:"data" in
  match Checked.of_wire (Checked.to_wire p) with
  | Some q -> check_bool "equal" true (Checked.equal p q)
  | None -> Alcotest.fail "valid wire rejected"

let test_checked_rejects_corruption () =
  let wire = Checked.to_wire (Checked.make ~seq:5 ~payload:"abcdef") in
  (* Flip every single bit in turn: none may validate. *)
  for bit = 0 to (String.length wire * 8) - 1 do
    let b = Bytes.of_string wire in
    let idx = bit lsr 3 and mask = 1 lsl (7 - (bit land 7)) in
    Bytes.set b idx (Char.chr (Char.code (Bytes.get b idx) lxor mask));
    match Checked.of_wire (Bytes.to_string b) with
    | None -> ()
    | Some q ->
      (* A single-bit flip changes one byte by a power of two, which moves
         the mod-256 sum; a flip in chk itself mismatches unchanged data.
         Either way validation must fail. *)
      Alcotest.failf "bit %d: corrupt frame validated as %s" bit
        (Format.asprintf "%a" Checked.pp q)
  done

let test_checked_rejects_short () =
  check_bool "empty" true (Checked.of_wire "" = None);
  check_bool "one byte" true (Checked.of_wire "\x05" = None)

let test_checked_bad_seq () =
  match Checked.make ~seq:300 ~payload:"" with
  | _ -> Alcotest.fail "seq 300 accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Send machine (GADT transitions) *)

let null_io = { Send_machine.transmit = ignore }

let test_send_machine_happy_path () =
  let sent = ref [] in
  let io = { Send_machine.transmit = (fun b -> sent := b :: !sent) } in
  let m = Send_machine.create () in
  check_int "seq 0" 0 (Send_machine.seq m);
  let pkt = Checked.make ~seq:0 ~payload:"first" in
  let w = Send_machine.exec ~io (Send_machine.Send pkt) m in
  check_int "one transmission" 1 (List.length !sent);
  let ack = Checked.make ~seq:0 ~payload:"" in
  let m1 = Send_machine.exec ~io (Send_machine.Ok_ack ack) w in
  check_int "seq advanced" 1 (Send_machine.seq m1);
  (* The types let us finish from ready... *)
  let _done : Send_machine.sent Send_machine.t =
    Send_machine.exec ~io Send_machine.Finish m1
  in
  ()

let test_send_machine_fail_keeps_seq () =
  let m = Send_machine.create ~initial_seq:9 () in
  let w = Send_machine.exec ~io:null_io (Send_machine.Send (Checked.make ~seq:9 ~payload:"x")) m in
  let m' = Send_machine.exec ~io:null_io Send_machine.Fail w in
  check_int "seq unchanged" 9 (Send_machine.seq m')

let test_send_machine_timeout_retry () =
  let m = Send_machine.create () in
  let w = Send_machine.exec ~io:null_io (Send_machine.Send (Checked.make ~seq:0 ~payload:"x")) m in
  let t = Send_machine.exec ~io:null_io Send_machine.Timeout w in
  let m' = Send_machine.exec ~io:null_io Send_machine.Retry t in
  check_int "seq unchanged through timeout" 0 (Send_machine.seq m')

let test_send_machine_wrong_ack_raises () =
  let m = Send_machine.create () in
  let w = Send_machine.exec ~io:null_io (Send_machine.Send (Checked.make ~seq:0 ~payload:"x")) m in
  let bad_ack = Checked.make ~seq:7 ~payload:"" in
  match Send_machine.exec ~io:null_io (Send_machine.Ok_ack bad_ack) w with
  | _ -> Alcotest.fail "wrong-sequence ack accepted"
  | exception Send_machine.Wrong_ack { expected = 0; got = 7 } -> ()

let test_send_machine_seq_wraps () =
  let m = Send_machine.create ~initial_seq:255 () in
  let w = Send_machine.exec ~io:null_io (Send_machine.Send (Checked.make ~seq:255 ~payload:"")) m in
  let m' = Send_machine.exec ~io:null_io (Send_machine.Ok_ack (Checked.make ~seq:255 ~payload:"")) w in
  check_int "wraps to 0" 0 (Send_machine.seq m')

(* ------------------------------------------------------------------ *)
(* send_packet: the paper's driver *)

let test_send_packet_immediate_ack () =
  let m = Send_machine.create () in
  let acks = ref [ Some (Checked.to_wire (Checked.make ~seq:0 ~payload:"")) ] in
  let recv () =
    match !acks with
    | [] -> None
    | a :: rest ->
      acks := rest;
      a
  in
  match Send_machine.send_packet ~io:null_io ~recv ~payload:"data" m with
  | Send_machine.Next_ready m' ->
    check_int "advanced" 1 (Send_machine.seq m');
    check_int "one transmission" 1 (Send_machine.transmissions m')
  | Send_machine.Failed _ -> Alcotest.fail "failed on a perfect channel"

let test_send_packet_retries_through_losses () =
  let m = Send_machine.create () in
  (* Two timeouts, then a garbled ack, then the real ack. *)
  let script =
    ref
      [
        None;
        None;
        Some "\xFF\xFF\xFF";
        Some (Checked.to_wire (Checked.make ~seq:0 ~payload:""));
      ]
  in
  let recv () =
    match !script with
    | [] -> None
    | a :: rest ->
      script := rest;
      a
  in
  match Send_machine.send_packet ~io:null_io ~recv ~payload:"data" m with
  | Send_machine.Next_ready m' ->
    check_int "advanced after adversity" 1 (Send_machine.seq m');
    check_int "four transmissions" 4 (Send_machine.transmissions m')
  | Send_machine.Failed _ -> Alcotest.fail "gave up too early"

let test_send_packet_exhaustion_is_consistent () =
  let m = Send_machine.create () in
  let recv () = None in
  match Send_machine.send_packet ~io:null_io ~recv ~max_attempts:3 ~payload:"x" m with
  | Send_machine.Failed t -> check_int "seq unchanged" 0 (Send_machine.seq t)
  | Send_machine.Next_ready _ -> Alcotest.fail "succeeded with no acks"

let test_send_packet_ignores_wrong_seq_ack () =
  let m = Send_machine.create () in
  let script =
    ref
      [
        Some (Checked.to_wire (Checked.make ~seq:42 ~payload:""));
        Some (Checked.to_wire (Checked.make ~seq:0 ~payload:""));
      ]
  in
  let recv () =
    match !script with
    | [] -> None
    | a :: rest ->
      script := rest;
      a
  in
  match Send_machine.send_packet ~io:null_io ~recv ~payload:"x" m with
  | Send_machine.Next_ready m' -> check_int "advanced once" 1 (Send_machine.seq m')
  | Send_machine.Failed _ -> Alcotest.fail "wrong-seq ack derailed the send"

(* ------------------------------------------------------------------ *)
(* Receive machine *)

let test_recv_accepts_in_sequence () =
  let r = Recv_machine.create () in
  let frame = Checked.to_wire (Checked.make ~seq:0 ~payload:"hello") in
  match Recv_machine.on_frame r frame with
  | Recv_machine.Accepted { machine; payload; ack } ->
    check_str "payload" "hello" payload;
    check_int "ack seq" 0 (Checked.seq ack);
    check_int "expects next" 1 (Recv_machine.expected machine)
  | _ -> Alcotest.fail "in-sequence frame not accepted"

let test_recv_duplicate_reacked_not_delivered () =
  let r = Recv_machine.create () in
  let frame = Checked.to_wire (Checked.make ~seq:0 ~payload:"hello") in
  match Recv_machine.on_frame r frame with
  | Recv_machine.Accepted { machine; _ } -> (
    match Recv_machine.on_frame machine frame with
    | Recv_machine.Duplicate { machine = m2; ack } ->
      check_int "re-ack same seq" 0 (Checked.seq ack);
      check_int "expectation unchanged" 1 (Recv_machine.expected m2)
    | _ -> Alcotest.fail "duplicate not recognised")
  | _ -> Alcotest.fail "first frame rejected"

let test_recv_rejects_corrupt () =
  let r = Recv_machine.create () in
  match Recv_machine.on_frame r "\x00\xEE\x41" with
  | Recv_machine.Rejected { machine } ->
    check_int "state unchanged" 0 (Recv_machine.expected machine)
  | _ -> Alcotest.fail "corrupt frame not rejected"

(* ------------------------------------------------------------------ *)
(* Integration: typed sender and receiver over a deterministic lossy pipe *)

let test_typed_end_to_end () =
  let payloads = List.init 30 (fun i -> Printf.sprintf "chunk-%d" i) in
  let rng = Netdsl_util.Prng.create 77L in
  let receiver = ref (Recv_machine.create ()) in
  let delivered = ref [] in
  let pending_ack = ref None in
  (* The sender's transmit: maybe lost; otherwise the receiver processes it
     immediately and its ack is maybe lost on the way back. *)
  let io =
    {
      Send_machine.transmit =
        (fun bytes ->
          if not (Netdsl_util.Prng.bernoulli rng 0.25) then
            match Recv_machine.on_frame !receiver bytes with
            | Recv_machine.Accepted { machine; payload; ack } ->
              receiver := machine;
              delivered := payload :: !delivered;
              if not (Netdsl_util.Prng.bernoulli rng 0.25) then
                pending_ack := Some (Checked.to_wire ack)
            | Recv_machine.Duplicate { machine; ack } ->
              receiver := machine;
              if not (Netdsl_util.Prng.bernoulli rng 0.25) then
                pending_ack := Some (Checked.to_wire ack)
            | Recv_machine.Rejected { machine } -> receiver := machine);
    }
  in
  let recv () =
    let a = !pending_ack in
    pending_ack := None;
    a
  in
  let m = ref (Send_machine.create ()) in
  let ok = ref true in
  List.iter
    (fun payload ->
      if !ok then
        match Send_machine.send_packet ~io ~recv ~max_attempts:200 ~payload !m with
        | Send_machine.Next_ready m' -> m := m'
        | Send_machine.Failed _ -> ok := false)
    payloads;
  check_bool "all sends completed" true !ok;
  Alcotest.(check (list string))
    "exactly once, in order" payloads (List.rev !delivered)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_checked_roundtrip =
  QCheck.Test.make ~name:"typed: Checked wire roundtrip" ~count:300
    QCheck.(pair (int_bound 255) string)
    (fun (seq, payload) ->
      let p = Checked.make ~seq ~payload in
      match Checked.of_wire (Checked.to_wire p) with
      | Some q -> Checked.equal p q
      | None -> false)

let prop_checked_single_byte_change_detected =
  QCheck.Test.make ~name:"typed: single byte change never validates quietly"
    ~count:300
    QCheck.(triple (int_bound 255) (string_of_size (QCheck.Gen.int_range 1 32)) small_nat)
    (fun (seq, payload, pos) ->
      let wire = Checked.to_wire (Checked.make ~seq ~payload) in
      let pos = pos mod String.length wire in
      let b = Bytes.of_string wire in
      (* Add 1 mod 256 to one byte: the sum checksum must move unless the
         byte is the checksum itself, in which case it no longer matches. *)
      Bytes.set b pos (Char.chr ((Char.code (Bytes.get b pos) + 1) land 0xFF));
      match Checked.of_wire (Bytes.to_string b) with
      | None -> true
      | Some _ -> false)

let suite =
  [
    ( "typed.checked",
      [
        Alcotest.test_case "make is valid" `Quick test_checked_make_valid;
        Alcotest.test_case "wire roundtrip" `Quick test_checked_wire_roundtrip;
        Alcotest.test_case "rejects every single-bit flip" `Quick test_checked_rejects_corruption;
        Alcotest.test_case "rejects short input" `Quick test_checked_rejects_short;
        Alcotest.test_case "seq range" `Quick test_checked_bad_seq;
        Testutil.qcheck prop_checked_roundtrip;
        Testutil.qcheck prop_checked_single_byte_change_detected;
      ] );
    ( "typed.send_machine",
      [
        Alcotest.test_case "happy path" `Quick test_send_machine_happy_path;
        Alcotest.test_case "fail keeps seq" `Quick test_send_machine_fail_keeps_seq;
        Alcotest.test_case "timeout/retry" `Quick test_send_machine_timeout_retry;
        Alcotest.test_case "wrong ack raises" `Quick test_send_machine_wrong_ack_raises;
        Alcotest.test_case "seq wraps" `Quick test_send_machine_seq_wraps;
        Alcotest.test_case "send_packet: immediate ack" `Quick test_send_packet_immediate_ack;
        Alcotest.test_case "send_packet: retries" `Quick test_send_packet_retries_through_losses;
        Alcotest.test_case "send_packet: exhaustion" `Quick test_send_packet_exhaustion_is_consistent;
        Alcotest.test_case "send_packet: wrong-seq acks ignored" `Quick test_send_packet_ignores_wrong_seq_ack;
      ] );
    ( "typed.recv_machine",
      [
        Alcotest.test_case "accepts in sequence" `Quick test_recv_accepts_in_sequence;
        Alcotest.test_case "duplicate re-acked" `Quick test_recv_duplicate_reacked_not_delivered;
        Alcotest.test_case "rejects corrupt" `Quick test_recv_rejects_corrupt;
        Alcotest.test_case "end to end over lossy pipe" `Quick test_typed_end_to_end;
      ] );
  ]

(* The paper's guarantee 4, as a law: whatever the channel does (any mix of
   silence, garbage, wrong-sequence acks and the real ack), send_packet
   terminates in one of the two consistent outcomes, and only reports
   Next_ready when the genuine acknowledgement actually arrived. *)
let prop_send_packet_always_consistent =
  QCheck.Test.make ~name:"typed: send_packet always ends consistently" ~count:300
    QCheck.(pair int64 (int_range 1 8))
    (fun (seed, max_attempts) ->
      let rng = Netdsl_util.Prng.create seed in
      let m = Send_machine.create () in
      let real_ack = Checked.to_wire (Checked.make ~seq:0 ~payload:"") in
      let genuine_delivered = ref false in
      let recv () =
        match Netdsl_util.Prng.int rng 4 with
        | 0 -> None
        | 1 -> Some (Netdsl_util.Prng.string rng (Netdsl_util.Prng.int rng 6))
        | 2 -> Some (Checked.to_wire (Checked.make ~seq:(1 + Netdsl_util.Prng.int rng 255) ~payload:""))
        | _ ->
          genuine_delivered := true;
          Some real_ack
      in
      match
        Send_machine.send_packet ~io:{ Send_machine.transmit = ignore } ~recv
          ~max_attempts ~payload:"law" m
      with
      | Send_machine.Next_ready m' -> !genuine_delivered && Send_machine.seq m' = 1
      | Send_machine.Failed t -> Send_machine.seq t = 0)

let suite =
  suite
  @ [
      ( "typed.laws",
        [ Testutil.qcheck prop_send_packet_always_consistent ] );
    ]
