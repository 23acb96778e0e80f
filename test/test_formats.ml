open Netdsl_formats
module C = Netdsl_format.Codec
module V = Netdsl_format.Value
module Wf = Netdsl_format.Wf
module Hex = Netdsl_util.Hexdump

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let decode_ok fmt bytes =
  match C.decode fmt bytes with
  | Ok v -> v
  | Error e -> Alcotest.failf "decode failed: %s" (C.error_to_string e)

let encode_ok fmt v =
  match C.encode fmt v with
  | Ok s -> s
  | Error e -> Alcotest.failf "encode failed: %s" (C.error_to_string e)

let all_formats =
  [
    Ipv4.format; Udp.format; Tcp.format; Icmp.format; Ethernet.format;
    Arp.format; Dns.format; Tlv.format; Arq.format;
  ]

let test_all_well_formed () =
  List.iter
    (fun fmt ->
      match Wf.errors fmt with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s: %s" fmt.Netdsl_format.Desc.format_name
          (String.concat "; " (List.map (fun d -> d.Wf.message) errs)))
    all_formats

(* ------------------------------------------------------------------ *)
(* IPv4: golden header from the classic 172.16.10.x TCP example *)

let golden_ipv4_header = "4500003c1c4640004006b1e6ac100a63ac100a0c"

let test_ipv4_golden_decode () =
  (* total_length 0x003c = 60, so 40 payload bytes follow the 20-byte
     header. *)
  let bytes = Hex.of_hex golden_ipv4_header ^ String.make 40 '\000' in
  let v = decode_ok Ipv4.format bytes in
  check_int "version" 4 (V.get_int v "version");
  check_int "ihl" 5 (V.get_int v "ihl");
  check_int "total length" 60 (V.get_int v "total_length");
  check_int "identification" 0x1c46 (V.get_int v "identification");
  check_int "flags (DF)" 2 (V.get_int v "flags");
  check_int "ttl" 64 (V.get_int v "ttl");
  check_int "protocol" Ipv4.protocol_tcp (V.get_int v "protocol");
  check_int "checksum" 0xb1e6 (V.get_int v "header_checksum");
  check_str "source" "172.16.10.99" (Ipv4.addr_to_string (V.get_int64 v "source"));
  check_str "destination" "172.16.10.12"
    (Ipv4.addr_to_string (V.get_int64 v "destination"))

let test_ipv4_golden_reencode () =
  let bytes = Hex.of_hex golden_ipv4_header ^ String.make 40 '\000' in
  let v = decode_ok Ipv4.format bytes in
  check_str "byte identical" (Hex.to_hex bytes) (Hex.to_hex (encode_ok Ipv4.format v))

let test_ipv4_make_and_checksum () =
  let v =
    Ipv4.make ~protocol:Ipv4.protocol_udp
      ~source:(Ipv4.addr_of_string "192.168.0.1")
      ~destination:(Ipv4.addr_of_string "192.168.0.199")
      ~payload:"ping" ()
  in
  let bytes = encode_ok Ipv4.format v in
  (* The header (first 20 bytes) must sum to zero with its checksum. *)
  check_int "header self-verifies" 0
    (Netdsl_util.Checksum.internet_checksum ~off:0 ~len:20 bytes)

let test_ipv4_addr_strings () =
  check_str "roundtrip" "10.0.0.1" (Ipv4.addr_to_string (Ipv4.addr_of_string "10.0.0.1"));
  (match Ipv4.addr_of_string "300.0.0.1" with
  | _ -> Alcotest.fail "octet 300 accepted"
  | exception Invalid_argument _ -> ());
  match Ipv4.addr_of_string "1.2.3" with
  | _ -> Alcotest.fail "three octets accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* UDP *)

let test_udp_golden () =
  let v = Udp.make ~src_port:53 ~dst_port:5353 ~payload:"ab" () in
  let bytes = encode_ok Udp.format v in
  check_str "wire" "003514e9000a00006162" (Hex.to_hex bytes);
  let d = decode_ok Udp.format bytes in
  check_int "length covers all" 10 (V.get_int d "length");
  check_str "payload" "ab" (V.get_bytes d "payload")

let test_udp_wrong_length_rejected () =
  (* Forge a datagram whose length field disagrees. *)
  let forged = Hex.of_hex "003514e9000b00006162" in
  match C.decode Udp.format forged with
  | Ok _ -> Alcotest.fail "bad length accepted"
  | Error (C.Computed_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)

(* ------------------------------------------------------------------ *)
(* TCP *)

let test_tcp_syn () =
  let v =
    Tcp.make ~syn:true ~src_port:0xCafe ~dst_port:80 ~seq_number:0x12345678L
      ~payload:"" ()
  in
  let bytes = encode_ok Tcp.format v in
  check_int "20-byte header" 20 (String.length bytes);
  (* data offset 5 in the high nibble, SYN bit set. *)
  check_int "offset nibble" 0x50 (Char.code bytes.[12]);
  check_int "flags byte" 0x02 (Char.code bytes.[13]);
  let d = decode_ok Tcp.format bytes in
  check_bool "syn" true (V.get_bool d "syn");
  check_bool "ack clear" false (V.get_bool d "ack");
  check_int "offset" 5 (V.get_int d "data_offset")

let test_tcp_options_offset () =
  (* 4 bytes of options: MSS 1460. *)
  let v =
    Tcp.make ~syn:true ~options:(Hex.of_hex "020405b4") ~src_port:1234
      ~dst_port:80 ~seq_number:1L ~payload:"x" ()
  in
  let bytes = encode_ok Tcp.format v in
  check_int "offset 6" 0x60 (Char.code bytes.[12]);
  let d = decode_ok Tcp.format bytes in
  check_str "options" (Hex.of_hex "020405b4") (V.get_bytes d "options");
  check_str "payload intact" "x" (V.get_bytes d "payload")

let test_tcp_flag_independence () =
  let v =
    Tcp.make ~ack:true ~psh:true ~fin:true ~src_port:1 ~dst_port:2
      ~seq_number:0L ~ack_number:99L ~payload:"" ()
  in
  let d = decode_ok Tcp.format (encode_ok Tcp.format v) in
  check_bool "ack" true (V.get_bool d "ack");
  check_bool "psh" true (V.get_bool d "psh");
  check_bool "fin" true (V.get_bool d "fin");
  check_bool "syn off" false (V.get_bool d "syn");
  check_bool "rst off" false (V.get_bool d "rst");
  check_bool "urg off" false (V.get_bool d "urg")

(* ------------------------------------------------------------------ *)
(* ICMP *)

let test_icmp_echo_roundtrip () =
  let v = Icmp.echo_request ~id:0x1234 ~seq:1 ~data:"abcdefgh" in
  let bytes = encode_ok Icmp.format v in
  check_int "type" 8 (Char.code bytes.[0]);
  check_int "whole message self-verifies" 0
    (Netdsl_util.Checksum.internet_checksum bytes);
  let d = decode_ok Icmp.format bytes in
  (match V.get d "body" with
  | V.Variant ("echo_request", body) ->
    check_int "id" 0x1234 (V.get_int body "id");
    check_int "seq" 1 (V.get_int body "seq");
    check_str "data" "abcdefgh" (V.get_bytes body "data")
  | other -> Alcotest.failf "wrong body: %s" (V.to_string other))

let test_icmp_corruption_rejected () =
  let bytes = encode_ok Icmp.format (Icmp.echo_reply ~id:1 ~seq:2 ~data:"data") in
  let b = Bytes.of_string bytes in
  Bytes.set b (Bytes.length b - 1) '\xFF';
  match C.decode Icmp.format (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "corrupt ICMP accepted"
  | Error (C.Checksum_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)

let test_icmp_unknown_type_default_case () =
  (* Type 42 rides through the default (raw) case. *)
  let v =
    V.record
      [
        ("icmp_type", V.int 42);
        ("code", V.int 0);
        ("body", V.variant "default" (V.record [ ("rest", V.bytes "??") ]));
      ]
  in
  let d = decode_ok Icmp.format (encode_ok Icmp.format v) in
  (match V.get d "body" with
  | V.Variant ("default", body) -> check_str "raw" "??" (V.get_bytes body "rest")
  | other -> Alcotest.failf "wrong body: %s" (V.to_string other));
  (* RFC 1191 "fragmentation needed" (type 3, code 4) carries the
     next-hop MTU (here 1500) in the word after the checksum, so that
     word is not zero; the message rides the default case too. *)
  let frag_needed = Bytes.of_string (Hex.of_hex "03040000000005dc4500001c") in
  Bytes.set_uint16_be frag_needed 2
    (Netdsl_util.Checksum.internet_checksum (Bytes.to_string frag_needed));
  match V.get (decode_ok Icmp.format (Bytes.to_string frag_needed)) "body" with
  | V.Variant ("default", body) ->
    check_str "mtu word and original header" (Hex.of_hex "000005dc4500001c")
      (V.get_bytes body "rest")
  | other -> Alcotest.failf "wrong body: %s" (V.to_string other)

(* ------------------------------------------------------------------ *)
(* Ethernet + ARP *)

let test_ethernet_frame () =
  let dst = Ethernet.mac_of_string "ff:ff:ff:ff:ff:ff" in
  let src = Ethernet.mac_of_string "00:11:22:33:44:55" in
  let v = Ethernet.make ~dst ~src ~ethertype:Ethernet.ethertype_arp ~payload:"body" in
  let bytes = encode_ok Ethernet.format v in
  check_str "golden" "ffffffffffff0011223344550806626f6479" (Hex.to_hex bytes);
  let d = decode_ok Ethernet.format bytes in
  check_str "src back" "00:11:22:33:44:55" (Ethernet.mac_to_string (V.get_bytes d "src"))

let test_mac_string_validation () =
  match Ethernet.mac_of_string "00:11:22" with
  | _ -> Alcotest.fail "short MAC accepted"
  | exception Invalid_argument _ -> ()

let test_arp_request_golden () =
  let v =
    Arp.request
      ~sender_mac:(Ethernet.mac_of_string "00:11:22:33:44:55")
      ~sender_ip:(Ipv4.addr_of_string "192.168.0.1")
      ~target_ip:(Ipv4.addr_of_string "192.168.0.2")
  in
  let bytes = encode_ok Arp.format v in
  check_str "golden"
    "0001080006040001001122334455c0a80001000000000000c0a80002"
    (Hex.to_hex bytes);
  check_int "28 bytes" 28 (String.length bytes)

let test_arp_constants_checked () =
  (* An ARP packet claiming hardware length 8 must be rejected. *)
  let bytes = Hex.of_hex "0001080008040001001122334455c0a80001000000000000c0a80002" in
  match C.decode Arp.format bytes with
  | Ok _ -> Alcotest.fail "bad hlen accepted"
  | Error (C.Const_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)

let test_arp_reply_roundtrip () =
  let v =
    Arp.reply
      ~sender_mac:(Ethernet.mac_of_string "aa:bb:cc:dd:ee:ff")
      ~sender_ip:(Ipv4.addr_of_string "10.0.0.1")
      ~target_mac:(Ethernet.mac_of_string "00:11:22:33:44:55")
      ~target_ip:(Ipv4.addr_of_string "10.0.0.2")
  in
  let d = decode_ok Arp.format (encode_ok Arp.format v) in
  check_int "oper reply" Arp.oper_reply (V.get_int d "oper")

(* ------------------------------------------------------------------ *)
(* DNS *)

let test_dns_header_golden () =
  (* A standard recursive query header: id 0x1234, RD set, one question. *)
  let bytes = encode_ok Dns.format (Dns.query_header ~id:0x1234 ~qdcount:1) in
  check_str "golden" "123401000001000000000000" (Hex.to_hex bytes);
  let d = decode_ok Dns.format bytes in
  check_bool "rd" true (V.get_bool d "rd");
  check_bool "qr" false (V.get_bool d "qr");
  check_int "qdcount" 1 (V.get_int d "qdcount")

let test_dns_response_flags () =
  (* 0x8183: QR=1, RD=1, RA=1, RCODE=3 (NXDOMAIN). *)
  let bytes = Hex.of_hex "beef81830001000000000001" in
  let d = decode_ok Dns.format bytes in
  check_bool "qr" true (V.get_bool d "qr");
  check_bool "aa" false (V.get_bool d "aa");
  check_bool "ra" true (V.get_bool d "ra");
  check_int "rcode" 3 (V.get_int d "rcode");
  check_int "arcount" 1 (V.get_int d "arcount")

(* ------------------------------------------------------------------ *)
(* TLV *)

let test_tlv_roundtrip () =
  let v = Tlv.make [ (1, "abc"); (2, ""); (7, "xy") ] in
  let bytes = encode_ok Tlv.format v in
  check_str "wire" "010361626302000702" (Hex.to_hex (String.sub bytes 0 9));
  let d = decode_ok Tlv.format bytes in
  Alcotest.(check (list (pair int string)))
    "entries" [ (1, "abc"); (2, ""); (7, "xy") ] (Tlv.entries d)

let test_tlv_empty () =
  let d = decode_ok Tlv.format "" in
  Alcotest.(check (list (pair int string))) "no entries" [] (Tlv.entries d)

let test_tlv_truncated_value () =
  (* Length says 5, only 2 bytes follow. *)
  match C.decode Tlv.format (Hex.of_hex "01056162") with
  | Ok _ -> Alcotest.fail "truncated TLV accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* ARQ typed view *)

let test_arq_packet_roundtrip () =
  let packets =
    [ Arq.Data { seq = 0; payload = "" }; Arq.Data { seq = 255; payload = "hello" };
      Arq.Ack { seq = 17 } ]
  in
  List.iter
    (fun p ->
      match Arq.of_bytes (Arq.to_bytes p) with
      | Ok q -> check_bool "roundtrip" true (Arq.equal_packet p q)
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    packets

let test_arq_rejects_garbage () =
  (match Arq.of_bytes "" with Ok _ -> Alcotest.fail "empty accepted" | Error _ -> ());
  match Arq.of_bytes "\x00\x05\x00\x00\x00\x00garbage" with
  | Ok _ -> Alcotest.fail "bad checksum accepted"
  | Error _ -> ()

let test_arq_wire_self_verifies () =
  let bytes = Arq.to_bytes (Arq.Data { seq = 9; payload = "payload!" }) in
  check_int "internet sum zero" 0 (Netdsl_util.Checksum.internet_checksum bytes)

(* ------------------------------------------------------------------ *)
(* Decoder robustness: arbitrary and mutated inputs never escape the
   error channel — a crash-free parser is the baseline security property a
   generated decoder must provide. *)

let prop_decode_never_raises fmt name =
  QCheck.Test.make ~name ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 128))
    (fun junk ->
      match C.decode fmt junk with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e))

let prop_mutated_golden_never_raises fmt golden name =
  QCheck.Test.make ~name ~count:500 QCheck.(pair int64 (int_range 1 8))
    (fun (seed, flips) ->
      let rng = Netdsl_util.Prng.create seed in
      let mutant = Netdsl_format.Gen.mutate rng ~flips golden in
      match C.decode fmt mutant with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e))

let robustness_cases =
  let golden_ipv4 = Hex.of_hex golden_ipv4_header ^ String.make 40 '\000' in
  let golden_arq = Arq.to_bytes (Arq.Data { seq = 3; payload = "robust" }) in
  [
    Testutil.qcheck
      (prop_decode_never_raises Ipv4.format "formats: ipv4 decode total on junk");
    Testutil.qcheck
      (prop_decode_never_raises Tcp.format "formats: tcp decode total on junk");
    Testutil.qcheck
      (prop_decode_never_raises Icmp.format "formats: icmp decode total on junk");
    Testutil.qcheck
      (prop_decode_never_raises Dns.format "formats: dns decode total on junk");
    Testutil.qcheck
      (prop_decode_never_raises Tlv.format "formats: tlv decode total on junk");
    Testutil.qcheck
      (prop_decode_never_raises Arq.format "formats: arq decode total on junk");
    Testutil.qcheck
      (prop_mutated_golden_never_raises Ipv4.format golden_ipv4
         "formats: ipv4 decode total on mutants");
    Testutil.qcheck
      (prop_mutated_golden_never_raises Arq.format golden_arq
         "formats: arq decode total on mutants");
  ]

let suite =
  [
    ( "formats.wf",
      [ Alcotest.test_case "all library formats well-formed" `Quick test_all_well_formed ] );
    ( "formats.ipv4",
      [
        Alcotest.test_case "golden decode" `Quick test_ipv4_golden_decode;
        Alcotest.test_case "golden re-encode" `Quick test_ipv4_golden_reencode;
        Alcotest.test_case "make + checksum" `Quick test_ipv4_make_and_checksum;
        Alcotest.test_case "address strings" `Quick test_ipv4_addr_strings;
      ] );
    ( "formats.udp",
      [
        Alcotest.test_case "golden" `Quick test_udp_golden;
        Alcotest.test_case "wrong length rejected" `Quick test_udp_wrong_length_rejected;
      ] );
    ( "formats.tcp",
      [
        Alcotest.test_case "SYN segment" `Quick test_tcp_syn;
        Alcotest.test_case "options grow offset" `Quick test_tcp_options_offset;
        Alcotest.test_case "flag independence" `Quick test_tcp_flag_independence;
      ] );
    ( "formats.icmp",
      [
        Alcotest.test_case "echo roundtrip" `Quick test_icmp_echo_roundtrip;
        Alcotest.test_case "corruption rejected" `Quick test_icmp_corruption_rejected;
        Alcotest.test_case "unknown type default" `Quick test_icmp_unknown_type_default_case;
      ] );
    ( "formats.ethernet_arp",
      [
        Alcotest.test_case "ethernet frame" `Quick test_ethernet_frame;
        Alcotest.test_case "mac validation" `Quick test_mac_string_validation;
        Alcotest.test_case "arp request golden" `Quick test_arp_request_golden;
        Alcotest.test_case "arp constants checked" `Quick test_arp_constants_checked;
        Alcotest.test_case "arp reply roundtrip" `Quick test_arp_reply_roundtrip;
      ] );
    ( "formats.dns",
      [
        Alcotest.test_case "query header golden" `Quick test_dns_header_golden;
        Alcotest.test_case "response flags" `Quick test_dns_response_flags;
      ] );
    ( "formats.tlv",
      [
        Alcotest.test_case "roundtrip" `Quick test_tlv_roundtrip;
        Alcotest.test_case "empty" `Quick test_tlv_empty;
        Alcotest.test_case "truncated" `Quick test_tlv_truncated_value;
      ] );
    ("formats.robustness", robustness_cases);
    ( "formats.arq",
      [
        Alcotest.test_case "typed roundtrip" `Quick test_arq_packet_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_arq_rejects_garbage;
        Alcotest.test_case "self-verifying wire" `Quick test_arq_wire_self_verifies;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* PCAP *)

let test_pcap_golden_header () =
  let bytes = Pcap.write [] in
  (* Little-endian magic, version 2.4, zone 0, sigfigs 0, snaplen 65535,
     linktype 1 (Ethernet): the canonical 24-byte global header. *)
  check_str "global header"
    "d4c3b2a1020004000000000000000000ffff000001000000" (Hex.to_hex bytes);
  check_int "24 bytes" 24 (String.length bytes)

let test_pcap_roundtrip () =
  let packets =
    [
      { Pcap.ts_sec = 1700000000; ts_usec = 123456; orig_len = 98; data = "frame-one" };
      { Pcap.ts_sec = 1700000001; ts_usec = 0; orig_len = 4; data = "tiny" };
      { Pcap.ts_sec = 1700000002; ts_usec = 999999; orig_len = 0; data = "" };
    ]
  in
  let bytes = Pcap.write packets in
  match Pcap.read bytes with
  | Ok got -> check_bool "roundtrip" true (got = packets)
  | Error e -> Alcotest.failf "read failed: %s" e

let test_pcap_carries_ethernet () =
  (* A capture of frames produced by the Ethernet description: the formats
     compose. *)
  let frame =
    encode_ok Ethernet.format
      (Ethernet.make
         ~dst:(Ethernet.mac_of_string "ff:ff:ff:ff:ff:ff")
         ~src:(Ethernet.mac_of_string "00:11:22:33:44:55")
         ~ethertype:Ethernet.ethertype_ipv4 ~payload:"ip-payload")
  in
  let bytes =
    Pcap.write [ { Pcap.ts_sec = 1; ts_usec = 2; orig_len = String.length frame; data = frame } ]
  in
  match Pcap.read bytes with
  | Error e -> Alcotest.failf "read failed: %s" e
  | Ok [ p ] ->
    let d = decode_ok Ethernet.format p.Pcap.data in
    check_str "inner frame survives" "00:11:22:33:44:55"
      (Ethernet.mac_to_string (V.get_bytes d "src"))
  | Ok other -> Alcotest.failf "expected 1 packet, got %d" (List.length other)

let test_pcap_rejects_bad_magic () =
  let bytes = Pcap.write [] in
  let b = Bytes.of_string bytes in
  Bytes.set b 0 '\xd5';
  match Pcap.read (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error e -> check_bool "names the constant" true (Testutil.contains e "constant")

let test_pcap_rejects_lying_incl_len () =
  (* Truncate the last record's data: its incl_len no longer matches. *)
  let bytes =
    Pcap.write [ { Pcap.ts_sec = 0; ts_usec = 0; orig_len = 8; data = "8-bytes!" } ]
  in
  let cut = String.sub bytes 0 (String.length bytes - 3) in
  match Pcap.read cut with
  | Ok _ -> Alcotest.fail "truncated record accepted"
  | Error _ -> ()

let test_pcap_rejects_bad_usec () =
  let bytes =
    Pcap.write [ { Pcap.ts_sec = 0; ts_usec = 0; orig_len = 1; data = "x" } ]
  in
  (* Patch ts_usec (bytes 28..31, LE) to 1_000_000: out of range. *)
  let b = Bytes.of_string bytes in
  Bytes.set b 28 '\x40';
  Bytes.set b 29 '\x42';
  Bytes.set b 30 '\x0f';
  Bytes.set b 31 '\x00';
  match Pcap.read (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "microseconds >= 1e6 accepted"
  | Error e -> check_bool "constraint named" true (Testutil.contains e "constraint")

let pcap_suite =
  ( "formats.pcap",
    [
      Alcotest.test_case "golden header" `Quick test_pcap_golden_header;
      Alcotest.test_case "roundtrip" `Quick test_pcap_roundtrip;
      Alcotest.test_case "carries ethernet frames" `Quick test_pcap_carries_ethernet;
      Alcotest.test_case "bad magic rejected" `Quick test_pcap_rejects_bad_magic;
      Alcotest.test_case "lying incl_len rejected" `Quick test_pcap_rejects_lying_incl_len;
      Alcotest.test_case "bad microseconds rejected" `Quick test_pcap_rejects_bad_usec;
      Testutil.qcheck
        (prop_decode_never_raises Pcap.format "formats: pcap decode total on junk");
    ] )

let suite = suite @ [ pcap_suite ]

(* ------------------------------------------------------------------ *)
(* TFTP (NUL-terminated strings) *)

let test_tftp_rrq_golden () =
  (* The canonical RRQ from RFC 1350: opcode 1, "filename" NUL "octet" NUL. *)
  let bytes = Tftp.to_bytes_exn (Tftp.Rrq { filename = "rfc1350.txt"; mode = "octet" }) in
  check_str "golden" "0001726663313335302e747874006f6374657400" (Hex.to_hex bytes);
  match Tftp.of_bytes bytes with
  | Ok (Tftp.Rrq { filename = "rfc1350.txt"; mode = "octet" }) -> ()
  | Ok p -> Alcotest.failf "wrong packet: %s" (Format.asprintf "%a" Tftp.pp_packet p)
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_tftp_all_packets_roundtrip () =
  List.iter
    (fun p ->
      match Tftp.of_bytes (Tftp.to_bytes_exn p) with
      | Ok q -> check_bool "roundtrip" true (Tftp.equal_packet p q)
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    [
      Tftp.Rrq { filename = "a/b/c.bin"; mode = "netascii" };
      Tftp.Wrq { filename = "out.dat"; mode = "octet" };
      Tftp.Data { block = 1; data = String.make 512 'D' };
      Tftp.Data { block = 65535; data = "" };
      Tftp.Ack { block = 7 };
      Tftp.Error { code = 2; message = "Access violation" };
    ]

let test_tftp_nul_in_filename_rejected () =
  match Tftp.to_bytes (Tftp.Rrq { filename = "bad\000name"; mode = "octet" }) with
  | Ok _ -> Alcotest.fail "NUL inside a cstring accepted"
  | Error (C.Eval_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)

let test_tftp_missing_terminator_rejected () =
  (* An RRQ whose final NUL was truncated. *)
  let bytes = Tftp.to_bytes_exn (Tftp.Rrq { filename = "f"; mode = "octet" }) in
  let cut = String.sub bytes 0 (String.length bytes - 1) in
  match Tftp.of_bytes cut with
  | Ok _ -> Alcotest.fail "unterminated string accepted"
  | Error _ -> ()

let test_tftp_bad_opcode_rejected () =
  match Tftp.of_bytes (Hex.of_hex "00066f6f707300") with
  | Ok _ -> Alcotest.fail "opcode 6 accepted"
  | Error e -> check_bool "enum rejection" true (Testutil.contains e "enum")

let tftp_suite =
  ( "formats.tftp",
    [
      Alcotest.test_case "RRQ golden" `Quick test_tftp_rrq_golden;
      Alcotest.test_case "all packets roundtrip" `Quick test_tftp_all_packets_roundtrip;
      Alcotest.test_case "NUL in filename rejected" `Quick test_tftp_nul_in_filename_rejected;
      Alcotest.test_case "missing terminator rejected" `Quick test_tftp_missing_terminator_rejected;
      Alcotest.test_case "bad opcode rejected" `Quick test_tftp_bad_opcode_rejected;
      Testutil.qcheck
        (prop_decode_never_raises Tftp.format "formats: tftp decode total on junk");
    ] )

let suite = suite @ [ tftp_suite ]

(* ------------------------------------------------------------------ *)
(* One description per protocol: the library's descriptions are
   generated from specs/stacks.ndsl and specs/arq.ndsl, and
   specs/ipv4.ndsl and specs/tftp.ndsl repeat formats of stacks.ndsl.
   Every pair must be the same [Desc.t], docs aside, down to the names
   of variant bodies; the stacks must agree layer by layer. *)

module D = Netdsl_format.Desc
module P = Netdsl_lang.Parser

let rec strip_docs (fmt : D.t) : D.t =
  let ty : D.ty -> D.ty = function
    | Array { elem; length } -> Array { elem = strip_docs elem; length }
    | Record sub -> Record (strip_docs sub)
    | Variant { tag; cases; default } ->
      Variant
        { tag;
          cases = List.map (fun (n, v, sub) -> (n, v, strip_docs sub)) cases;
          default = Option.map strip_docs default }
    | t -> t
  in
  let field (f : D.field) = { f with doc = None; ty = ty f.ty } in
  { fmt with fields = List.map field fmt.fields }

(* The format and every sub-format it nests, for a readable failure. *)
let render fmt =
  String.concat "\n" (List.rev (D.fold_formats (fun acc f -> D.to_string f :: acc) [] fmt))

(* Every drifted pair, all reported at once. *)
let check_no_drift pairs =
  let drift (what, a, b) =
    let a = strip_docs a and b = strip_docs b in
    if a = b then None
    else Some (Printf.sprintf "%s drifted:\n%s\n--- vs ---\n%s" what (render a) (render b))
  in
  match List.filter_map drift pairs with
  | [] -> ()
  | msgs -> Alcotest.fail (String.concat "\n\n" msgs)

let spec_format prog name =
  match P.find_format prog name with
  | Some f -> f
  | None -> Alcotest.failf "no format %s in the spec" name

let test_library_matches_stacks_spec () =
  let prog = Testutil.spec_program "stacks.ndsl" in
  check_no_drift
    (List.map
       (fun (fmt : D.t) ->
         ("library " ^ fmt.format_name, fmt, spec_format prog fmt.format_name))
       [ Ethernet.format; Ipv4.format; Udp.format; Tftp.format; Arp.format; Icmp.format ])

let test_library_matches_arq_spec () =
  check_no_drift
    [ ( "library arq_packet",
        Arq.format,
        spec_format (Testutil.spec_program "arq.ndsl") "arq_packet" ) ]

let test_single_format_specs_match_stacks_spec () =
  let stacks = Testutil.spec_program "stacks.ndsl" in
  check_no_drift
    (List.concat_map
       (fun file ->
         let prog = Testutil.spec_program file in
         check_bool (file ^ " has formats") true (prog.P.formats <> []);
         List.map
           (fun (name, fmt) -> (file ^ " " ^ name, fmt, spec_format stacks name))
           prog.P.formats)
       [ "ipv4.ndsl"; "tftp.ndsl" ])

let test_library_stacks_match_spec () =
  let module S = Netdsl_format.Stack in
  let prog = Testutil.spec_program "stacks.ndsl" in
  Alcotest.(check (list string))
    "stack names" (List.map fst prog.P.stacks) (List.map fst Stacks.all);
  check_no_drift
    (List.concat_map
       (fun (name, lib) ->
         let spec = Option.get (P.find_stack prog name) in
         let layers st =
           List.mapi (fun i l -> (l, S.layer_select st i, S.layer_via st i)) (S.layer_names st)
         in
         if layers lib <> layers spec then Alcotest.failf "stack %s: layers drifted" name;
         List.mapi
           (fun i l ->
             ( Printf.sprintf "stack %s layer %s" name l,
               S.layer_format lib i,
               S.layer_format spec i ))
           (S.layer_names lib))
       Stacks.all)

let suite =
  suite
  @ [
      ( "formats.specs",
        [
          Alcotest.test_case "library = stacks.ndsl" `Quick test_library_matches_stacks_spec;
          Alcotest.test_case "library arq_packet = arq.ndsl" `Quick
            test_library_matches_arq_spec;
          Alcotest.test_case "ipv4.ndsl, tftp.ndsl = stacks.ndsl" `Quick
            test_single_format_specs_match_stacks_spec;
          Alcotest.test_case "library stacks = stacks.ndsl" `Quick
            test_library_stacks_match_spec;
        ] );
    ]

(* ---- the static layout, judged by the codec ----

   On every shipped format: each field the layout places statically,
   read at its offset, width and byte order from valid messages, is what
   [Codec.decode] decodes there; and each admitted interval's edges,
   written into a valid message, are refused by the codec (a constant,
   enum or constraint error on that field) exactly when the layout does
   not admit them. *)

module Sz = Netdsl_format.Sizing

let read_field msg ~off ~bits ~(endian : D.endian) =
  let v = ref 0L in
  for i = 0 to bits - 1 do
    let p = off + i in
    let b = (Char.code msg.[p / 8] lsr (7 - (p mod 8))) land 1 in
    v := Int64.logor (Int64.shift_left !v 1) (Int64.of_int b)
  done;
  match endian with Big -> !v | Little -> Sz.swap_bytes64 ~bits !v

let write_field msg ~off ~bits ~(endian : D.endian) v =
  let v = match endian with Big -> v | Little -> Sz.swap_bytes64 ~bits v in
  let b = Bytes.of_string msg in
  for i = 0 to bits - 1 do
    let p = off + i in
    let bit = Int64.logand (Int64.shift_right_logical v (bits - 1 - i)) 1L = 1L in
    let c = Char.code (Bytes.get b (p / 8)) and m = 0x80 lsr (p mod 8) in
    Bytes.set b (p / 8) (Char.chr (if bit then c lor m else c land lnot m))
  done;
  Bytes.to_string b

let refused_here name (e : C.error) =
  match e with
  | Const_mismatch { path; _ } | Enum_unknown { path; _ } | Constraint_violation { path; _ } ->
    path = [ name ]
  | _ -> false

(* Every kind of admitted set, beside the shipped formats': a constant,
   a non-contiguous exhaustive enum and each constraint kind. *)
let constrained =
  D.format "constrained"
    [
      D.field "magic" (D.const 8 0x5AL);
      D.field "kind" (D.enum 8 [ ("a", 1L); ("b", 3L); ("c", 4L) ]);
      D.field ~constraints:[ D.In_range (10L, 20L) ] "range" D.u8;
      D.field ~constraints:[ D.One_of [ 2L; 7L; 9L ] ] "pick" D.u8;
      D.field ~constraints:[ D.Not_equal 0L ] "nonzero" D.u16;
      D.field "body" D.bytes_remaining;
    ]

let layout_formats () =
  ("constrained", constrained)
  :: Netdsl_check.Corpus.shipped
  @ List.concat_map
      (fun spec ->
        List.map (fun (name, fmt) -> (spec ^ ":" ^ name, fmt)) (Testutil.spec_program spec).P.formats)
      [ "arq.ndsl"; "sensor.ndsl"; "stacks.ndsl"; "timeout.ndsl" ]

let layout_samples fmt =
  match Netdsl_check.Corpus.generator fmt with
  | None -> Alcotest.failf "%s: no generator" fmt.D.format_name
  | Some gen ->
    let rng = Netdsl_util.Prng.of_int 11 in
    List.init 20 (fun _ -> gen rng)

let layout_offsets () =
  List.iter
    (fun (label, fmt) ->
      let lay = Sz.layout fmt in
      List.iter
        (fun msg ->
          let v = match C.decode fmt msg with Ok v -> v | Error e -> Alcotest.failf "%s: %s" label (C.error_to_string e) in
          List.iter
            (fun (e : Sz.entry) ->
              match (e.shape, e.off) with
              | Some { bits; endian; kind; _ }, Some off when kind <> Padding && bits <= 62 ->
                let decoded =
                  match V.find v e.field.name with
                  | Some (V.Int x) -> x
                  | Some (V.Bool b) -> if b then 1L else 0L
                  | _ -> Alcotest.failf "%s.%s not decoded" label e.field.name
                in
                Alcotest.(check int64)
                  (Printf.sprintf "%s.%s at bit %d" label e.field.name off)
                  decoded (read_field msg ~off ~bits ~endian)
              | _ -> ())
            lay)
        (layout_samples fmt))
    (layout_formats ())

let layout_admitted () =
  List.iter
    (fun (label, fmt) ->
      let lay = Sz.layout fmt in
      let msg = List.hd (layout_samples fmt) in
      List.iter
        (fun (e : Sz.entry) ->
          match (e.shape, e.off) with
          | Some ({ bits; endian; kind = Int | Const; admitted } as sh), Some off when bits <= 62 ->
            let top = Int64.pred (Int64.shift_left 1L bits) in
            List.iter
              (fun (lo, hi) ->
                List.iter
                  (fun x ->
                    if Int64.compare x 0L >= 0 && Int64.compare x top <= 0 then
                      let refused =
                        match C.decode fmt (write_field msg ~off ~bits ~endian x) with
                        | Ok _ -> false
                        | Error err -> refused_here e.field.name err
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf "%s.%s = %Ld admitted" label e.field.name x)
                        (Sz.admits sh x) (not refused))
                  [ Int64.pred lo; lo; hi; Int64.succ hi ])
              admitted
          | _ -> ())
        lay)
    (layout_formats ())

let suite =
  suite
  @ [
      ( "formats.layout",
        [
          Alcotest.test_case "static fields read as the codec decodes" `Quick layout_offsets;
          Alcotest.test_case "admitted values = codec's" `Quick layout_admitted;
        ] );
    ]
