open Netdsl_format
module D = Desc
module V = Value
module U = Netdsl_util

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let decode_ok fmt bytes =
  match Codec.decode fmt bytes with
  | Ok v -> v
  | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e)

let encode_ok fmt v =
  match Codec.encode fmt v with
  | Ok s -> s
  | Error e -> Alcotest.failf "encode failed: %s" (Codec.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Formats used across the tests *)

(* The paper's ARQ packet and the IPv4 header now live in the formats
   library; the tests here exercise the codec through them. *)
let arq_packet = Netdsl_formats.Arq.format

let ipv4_header = Netdsl_formats.Ipv4.format

let ipv4_value ?(options = "") ?(payload = "hi") () =
  V.record
    [
      ("tos", V.int 0);
      ("identification", V.int 0x1c46);
      ("flags", V.int 2);
      ("fragment_offset", V.int 0);
      ("ttl", V.int 64);
      ("protocol", V.int 6);
      ("source", V.int64 0xAC100A63L);
      ("destination", V.int64 0xAC100A0CL);
      ("options", V.bytes options);
      ("payload", V.bytes payload);
    ]

(* ------------------------------------------------------------------ *)
(* Codec basics *)

let test_fixed_roundtrip () =
  let fmt =
    D.format "trio" [ D.field "a" D.u8; D.field "b" D.u16; D.field "c" D.u32 ]
  in
  let v = V.record [ ("a", V.int 1); ("b", V.int 515); ("c", V.int64 0xFFFFFFFFL) ] in
  let bytes = encode_ok fmt v in
  check_str "wire" "010203ffffffff" (U.Hexdump.to_hex bytes);
  Alcotest.check Alcotest.bool "roundtrip" true (V.equal v (decode_ok fmt bytes))

let test_sub_byte_fields () =
  let fmt = D.format "nibbles" [ D.field "hi" (D.uint 4); D.field "lo" (D.uint 4) ] in
  let bytes = encode_ok fmt (V.record [ ("hi", V.int 4); ("lo", V.int 5) ]) in
  check_str "0x45" "45" (U.Hexdump.to_hex bytes);
  let v = decode_ok fmt "\x9A" in
  check_int "hi" 9 (V.get_int v "hi");
  check_int "lo" 10 (V.get_int v "lo")

let test_flag_bits () =
  let fmt =
    D.format "flags"
      [
        D.field "syn" D.flag; D.field "ack" D.flag; D.field "fin" D.flag;
        D.field "rest" (D.padding 5);
      ]
  in
  let bytes =
    encode_ok fmt
      (V.record [ ("syn", V.bool true); ("ack", V.bool false); ("fin", V.bool true) ])
  in
  check_str "bits" "a0" (U.Hexdump.to_hex bytes);
  let v = decode_ok fmt bytes in
  check_bool "syn" true (V.get_bool v "syn");
  check_bool "ack" false (V.get_bool v "ack");
  check_bool "fin" true (V.get_bool v "fin")

let test_little_endian_field () =
  let fmt = D.format "le" [ D.field "x" (D.uint_le 16) ] in
  let bytes = encode_ok fmt (V.record [ ("x", V.int 0x1234) ]) in
  check_str "le wire" "3412" (U.Hexdump.to_hex bytes);
  check_int "le decode" 0x1234 (V.get_int (decode_ok fmt bytes) "x")

let test_const_checked () =
  let fmt = D.format "magic" [ D.field "magic" (D.const 16 0xCAFEL); D.field "x" D.u8 ] in
  let bytes = encode_ok fmt (V.record [ ("x", V.int 7) ]) in
  check_str "magic emitted" "cafe07" (U.Hexdump.to_hex bytes);
  (match Codec.decode fmt "\xca\xfe\x07" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "good magic rejected: %s" (Codec.error_to_string e));
  match Codec.decode fmt "\xca\xff\x07" with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error (Codec.Const_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_const_supplied_must_match () =
  let fmt = D.format "magic" [ D.field "magic" (D.const 8 9L) ] in
  match Codec.encode fmt (V.record [ ("magic", V.int 8) ]) with
  | Ok _ -> Alcotest.fail "wrong supplied constant accepted"
  | Error (Codec.Const_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_enum_exhaustive () =
  let fmt = D.format "e" [ D.field "op" (D.enum 8 [ ("get", 1L); ("put", 2L) ]) ] in
  check_int "decodes" 2 (V.get_int (decode_ok fmt "\x02") "op");
  (match Codec.decode fmt "\x03" with
  | Ok _ -> Alcotest.fail "unknown enum accepted"
  | Error (Codec.Enum_unknown _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e));
  match Codec.encode fmt (V.record [ ("op", V.int 9) ]) with
  | Ok _ -> Alcotest.fail "unknown enum encoded"
  | Error (Codec.Enum_unknown _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_enum_open () =
  let fmt =
    D.format "e" [ D.field "op" (D.enum ~exhaustive:false 8 [ ("get", 1L) ]) ]
  in
  check_int "unlisted ok" 42 (V.get_int (decode_ok fmt "\x2a") "op")

let test_constraints () =
  let fmt =
    D.format "c"
      [ D.field "ttl" ~constraints:[ D.In_range (1L, 255L) ] D.u8 ]
  in
  check_int "in range" 64 (V.get_int (decode_ok fmt "\x40") "ttl");
  (match Codec.decode fmt "\x00" with
  | Ok _ -> Alcotest.fail "zero ttl accepted"
  | Error (Codec.Constraint_violation _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e));
  match Codec.encode fmt (V.record [ ("ttl", V.int 0) ]) with
  | Ok _ -> Alcotest.fail "zero ttl encoded"
  | Error (Codec.Constraint_violation _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_missing_field () =
  let fmt = D.format "m" [ D.field "a" D.u8 ] in
  match Codec.encode fmt (V.record []) with
  | Ok _ -> Alcotest.fail "missing field accepted"
  | Error (Codec.Missing_field _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_value_out_of_range () =
  let fmt = D.format "m" [ D.field "a" (D.uint 4) ] in
  match Codec.encode fmt (V.record [ ("a", V.int 16) ]) with
  | Ok _ -> Alcotest.fail "oversized value accepted"
  | Error (Codec.Value_out_of_range _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_trailing_input () =
  let fmt = D.format "t" [ D.field "a" D.u8 ] in
  (match Codec.decode fmt "\x01\x02" with
  | Ok _ -> Alcotest.fail "trailing input accepted"
  | Error (Codec.Trailing_input { path = []; bits }) -> check_int "bits" 8 bits
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e));
  match Codec.decode ~allow_trailing:true fmt "\x01\x02" with
  | Ok v -> check_int "lenient" 1 (V.get_int v "a")
  | Error e -> Alcotest.failf "lenient decode failed: %s" (Codec.error_to_string e)

let test_truncated_decode () =
  let fmt = D.format "t" [ D.field "a" D.u32 ] in
  match Codec.decode fmt "\x01\x02" with
  | Ok _ -> Alcotest.fail "truncated accepted"
  | Error (Codec.Io { error = U.Bitio.Truncated _; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Length and computed fields *)

let test_length_prefixed_payload () =
  let fmt =
    D.format "lp"
      [
        D.field "len" (D.computed 8 (D.Byte_len "payload"));
        D.field "payload" (D.bytes_expr (D.Field "len"));
      ]
  in
  let bytes = encode_ok fmt (V.record [ ("payload", V.bytes "abc") ]) in
  check_str "wire" "03616263" (U.Hexdump.to_hex bytes);
  let v = decode_ok fmt bytes in
  check_int "len" 3 (V.get_int v "len");
  check_str "payload" "abc" (V.get_bytes v "payload")

let test_length_mismatch_detected () =
  (* A hand-forged message whose length field lies: decode must fail when
     the computed field check runs, or with trailing input. *)
  let fmt =
    D.format "lp"
      [
        D.field "len" (D.computed 8 (D.Byte_len "payload"));
        D.field "payload" (D.bytes_expr (D.Field "len"));
        D.field "tail" D.u8;
      ]
  in
  (* len says 2 but the real payload was 3 long: the final u8 eats one
     payload byte and a trailing byte remains. *)
  match Codec.decode fmt "\x02abcX" with
  | Ok _ -> Alcotest.fail "lying length accepted"
  | Error _ -> ()

let test_ihl_style_length () =
  (* A word-count field, like IPv4's IHL. *)
  let fmt =
    D.format "words"
      [
        D.field "nwords" (D.computed 8 D.(Div (Byte_len "body", Const 4L)));
        D.field "body" (D.bytes_expr D.(Mul (Field "nwords", Const 4L)));
      ]
  in
  let bytes = encode_ok fmt (V.record [ ("body", V.bytes "12345678") ]) in
  check_str "wire" "3132333435363738"
    (U.Hexdump.to_hex (String.sub bytes 1 (String.length bytes - 1)));
  check_int "nwords" 2 (Char.code bytes.[0]);
  let v = decode_ok fmt bytes in
  check_str "body" "12345678" (V.get_bytes v "body")

let test_msg_len_field () =
  let fmt =
    D.format "framed"
      [ D.field "total" (D.computed 16 D.Msg_len); D.field "body" D.bytes_remaining ]
  in
  let bytes = encode_ok fmt (V.record [ ("body", V.bytes "xyz") ]) in
  check_int "total" 5 ((Char.code bytes.[0] lsl 8) lor Char.code bytes.[1]);
  (* Corrupt the total-length field: decode must reject. *)
  let forged = "\x00\x09xyz" in
  match Codec.decode fmt forged with
  | Ok _ -> Alcotest.fail "wrong total length accepted"
  | Error (Codec.Computed_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_supplied_computed_checked () =
  let fmt =
    D.format "lp"
      [
        D.field "len" (D.computed 8 (D.Byte_len "payload"));
        D.field "payload" (D.bytes_expr (D.Field "len"));
      ]
  in
  (* Supplying the correct value is fine... *)
  (match Codec.encode fmt (V.record [ ("len", V.int 2); ("payload", V.bytes "ab") ]) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "correct supplied length rejected: %s" (Codec.error_to_string e));
  (* ...but supplying a wrong one is caught at encode time. *)
  match Codec.encode fmt (V.record [ ("len", V.int 5); ("payload", V.bytes "ab") ]) with
  | Ok _ -> Alcotest.fail "wrong supplied length accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Checksums *)

let test_arq_checksum_roundtrip () =
  let v =
    V.record [ ("seq", V.int 7); ("kind", V.int 0); ("payload", V.bytes "hello") ]
  in
  let bytes = encode_ok arq_packet v in
  let decoded = decode_ok arq_packet bytes in
  check_int "seq" 7 (V.get_int decoded "seq");
  check_str "payload" "hello" (V.get_bytes decoded "payload");
  (* The embedded checksum makes the whole message verify. *)
  check_int "message sums to zero" 0 (U.Checksum.internet_checksum bytes)

let test_checksum_detects_bit_flip () =
  let v = V.record [ ("seq", V.int 1); ("kind", V.int 0); ("payload", V.bytes "data!") ] in
  let bytes = encode_ok arq_packet v in
  let rng = U.Prng.create 99L in
  let mutants = List.init 50 (fun _ -> Gen.mutate rng bytes) in
  List.iter
    (fun m ->
      if String.equal m bytes then ()
      else
        match Codec.decode arq_packet m with
        | Ok _ ->
          (* A flip inside the payload alone always breaks the checksum; a
             flip in `len` breaks framing.  Nothing should decode cleanly. *)
          Alcotest.fail "corrupted packet decoded successfully"
        | Error _ -> ())
    mutants

let test_checksum_span () =
  let fmt =
    D.format "span"
      [
        D.field "hdr" D.u8;
        D.field "chk" (D.checksum ~region:(D.Region_span ("a", "b")) U.Checksum.Xor8);
        D.field "a" D.u8;
        D.field "b" D.u8;
        D.field "trailer" D.u8;
      ]
  in
  let bytes =
    encode_ok fmt
      (V.record [ ("hdr", V.int 0xFF); ("a", V.int 3); ("b", V.int 5); ("trailer", V.int 0xEE) ])
  in
  (* xor over a..b only: 3 xor 5 = 6; header and trailer excluded. *)
  check_int "xor value" 6 (Char.code bytes.[1]);
  ignore (decode_ok fmt bytes);
  (* Corrupting the trailer does not affect the span checksum. *)
  let b = Bytes.of_string bytes in
  Bytes.set b 4 '\x00';
  ignore (decode_ok fmt (Bytes.to_string b));
  (* Corrupting [a] does. *)
  let b = Bytes.of_string bytes in
  Bytes.set b 2 '\x00';
  match Codec.decode fmt (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "span corruption missed"
  | Error (Codec.Checksum_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_checksum_rest_region () =
  let fmt =
    D.format "rest"
      [
        D.field "chk" (D.checksum ~region:D.Region_rest U.Checksum.Sum8);
        D.field "a" D.u8;
        D.field "b" D.u8;
      ]
  in
  let bytes = encode_ok fmt (V.record [ ("a", V.int 1); ("b", V.int 2) ]) in
  check_int "sum" 3 (Char.code bytes.[0]);
  ignore (decode_ok fmt bytes)

let test_checksum_crc32 () =
  let fmt =
    D.format "framed"
      [ D.field "body" (D.bytes_fixed 9); D.field "fcs" (D.checksum ~region:(D.Region_span ("body", "body")) U.Checksum.Crc32) ]
  in
  let bytes = encode_ok fmt (V.record [ ("body", V.bytes "123456789") ]) in
  let v = decode_ok fmt bytes in
  Alcotest.(check int64) "crc32" 0xCBF43926L (V.get_int64 v "fcs")

(* ------------------------------------------------------------------ *)
(* Structures: arrays, records, variants *)

let test_array_fixed () =
  let pair = D.format "pair" [ D.field "x" D.u8; D.field "y" D.u8 ] in
  let fmt = D.format "arr" [ D.field "pts" (D.array_fixed pair 2) ] in
  let v =
    V.record
      [
        ( "pts",
          V.list
            [
              V.record [ ("x", V.int 1); ("y", V.int 2) ];
              V.record [ ("x", V.int 3); ("y", V.int 4) ];
            ] );
      ]
  in
  let bytes = encode_ok fmt v in
  check_str "wire" "01020304" (U.Hexdump.to_hex bytes);
  Alcotest.(check bool) "roundtrip" true (V.equal v (decode_ok fmt bytes))

let test_array_count_field () =
  let item = D.format "item" [ D.field "v" D.u16 ] in
  let fmt =
    D.format "counted"
      [ D.field "n" D.u8; D.field "items" (D.array_expr item (D.Field "n")) ]
  in
  let v =
    V.record
      [ ("n", V.int 3);
        ("items", V.list (List.map (fun i -> V.record [ ("v", V.int i) ]) [ 10; 20; 30 ])) ]
  in
  let bytes = encode_ok fmt v in
  check_int "length" 7 (String.length bytes);
  Alcotest.(check bool) "roundtrip" true (V.equal v (decode_ok fmt bytes));
  (* Count disagreeing with the list is an encode error. *)
  let bad = V.record [ ("n", V.int 2); ("items", V.get v "items" |> fun x -> x) ] in
  match Codec.encode fmt bad with
  | Ok _ -> Alcotest.fail "bad count accepted"
  | Error (Codec.Length_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_array_byte_delimited () =
  let item = D.format "kv" [ D.field "k" D.u8; D.field "v" D.u8 ] in
  let fmt =
    D.format "tlvs"
      [
        D.field "nbytes" (D.computed 8 (D.Byte_len "entries"));
        D.field "entries" (D.Array { elem = item; length = D.Len_bytes (D.Field "nbytes") });
        D.field "tail" D.u8;
      ]
  in
  let v =
    V.record
      [
        ("entries",
         V.list [ V.record [ ("k", V.int 1); ("v", V.int 2) ]; V.record [ ("k", V.int 3); ("v", V.int 4) ] ]);
        ("tail", V.int 0xFF);
      ]
  in
  let bytes = encode_ok fmt v in
  check_str "wire" "0401020304ff" (U.Hexdump.to_hex bytes);
  let decoded = decode_ok fmt bytes in
  check_int "two entries" 2 (List.length (V.get_list decoded "entries"));
  check_int "tail preserved" 0xFF (V.get_int decoded "tail")

let test_array_remaining () =
  let b = D.format "b" [ D.field "v" D.u8 ] in
  let fmt = D.format "greedy" [ D.field "all" (D.array_remaining b) ] in
  let decoded = decode_ok fmt "\x01\x02\x03" in
  check_int "three" 3 (List.length (V.get_list decoded "all"))

let test_nested_record_scoping () =
  (* An inner length field measured against an outer payload is not
     visible; but an outer field is visible from inner expressions. *)
  let inner =
    D.format "inner"
      [ D.field "data" (D.bytes_expr (D.Field "outer_len")) ]
  in
  let fmt =
    D.format "outer"
      [ D.field "outer_len" D.u8; D.field "body" (D.record inner) ]
  in
  let v =
    V.record
      [ ("outer_len", V.int 2); ("body", V.record [ ("data", V.bytes "ab") ]) ]
  in
  let bytes = encode_ok fmt v in
  check_str "wire" "026162" (U.Hexdump.to_hex bytes);
  Alcotest.(check bool) "roundtrip" true (V.equal v (decode_ok fmt bytes))

let test_variant_dispatch () =
  let data_body = D.format "data" [ D.field "payload" (D.bytes_fixed 2) ] in
  let ack_body = D.format "ack" [ D.field "acked" D.u8 ] in
  let fmt =
    D.format "msg"
      [
        D.field "kind" (D.enum 8 [ ("data", 0L); ("ack", 1L) ]);
        D.field "body"
          (D.Variant
             { tag = "kind"; cases = [ ("data", 0L, data_body); ("ack", 1L, ack_body) ]; default = None });
      ]
  in
  let vd =
    V.record [ ("kind", V.int 0); ("body", V.variant "data" (V.record [ ("payload", V.bytes "ok") ])) ]
  in
  let bytes = encode_ok fmt vd in
  check_str "data wire" "006f6b" (U.Hexdump.to_hex bytes);
  (match decode_ok fmt bytes with
  | v -> (
    match V.get v "body" with
    | V.Variant ("data", body) -> check_str "payload" "ok" (V.get_bytes body "payload")
    | other -> Alcotest.failf "wrong case: %s" (V.to_string other)));
  let va = V.record [ ("kind", V.int 1); ("body", V.variant "ack" (V.record [ ("acked", V.int 9) ])) ] in
  check_str "ack wire" "0109" (U.Hexdump.to_hex (encode_ok fmt va));
  (* Unknown tag on decode. *)
  (match Codec.decode fmt "\x05\x00" with
  | Ok _ -> Alcotest.fail "unknown tag accepted"
  | Error (Codec.Variant_unknown_tag _) -> ()
  | Error (Codec.Enum_unknown _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e));
  (* Tag and case disagreeing on encode. *)
  match
    Codec.encode fmt
      (V.record [ ("kind", V.int 1); ("body", V.variant "data" (V.record [ ("payload", V.bytes "no") ])) ])
  with
  | Ok _ -> Alcotest.fail "tag/case mismatch accepted"
  | Error (Codec.Variant_unknown_tag _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_variant_default () =
  let known = D.format "known" [ D.field "x" D.u8 ] in
  let unknown = D.format "unknown" [ D.field "raw" D.bytes_remaining ] in
  let fmt =
    D.format "msg"
      [
        D.field "kind" D.u8;
        D.field "body"
          (D.Variant { tag = "kind"; cases = [ ("known", 0L, known) ]; default = Some unknown });
      ]
  in
  match decode_ok fmt "\x07abc" with
  | v -> (
    match V.get v "body" with
    | V.Variant ("default", body) -> check_str "raw" "abc" (V.get_bytes body "raw")
    | other -> Alcotest.failf "wrong case: %s" (V.to_string other))

let test_padding_skipped () =
  let fmt =
    D.format "p" [ D.field "a" (D.uint 4); D.field "pad" (D.padding 4); D.field "b" D.u8 ]
  in
  let v = V.record [ ("a", V.int 5); ("b", V.int 9) ] in
  let bytes = encode_ok fmt v in
  check_str "wire" "5009" (U.Hexdump.to_hex bytes);
  let decoded = decode_ok fmt bytes in
  check_bool "no pad field" true (V.find decoded "pad" = None)

(* ------------------------------------------------------------------ *)
(* IPv4: full header including derived IHL, total length and checksum *)

let test_ipv4_roundtrip () =
  let bytes = encode_ok ipv4_header (ipv4_value ()) in
  check_int "20-byte header + 2 payload" 22 (String.length bytes);
  check_int "version/ihl" 0x45 (Char.code bytes.[0]);
  let v = decode_ok ipv4_header bytes in
  check_int "total length" 22 (V.get_int v "total_length");
  check_int "ihl" 5 (V.get_int v "ihl");
  check_int "ttl" 64 (V.get_int v "ttl")

let test_ipv4_options_grow_ihl () =
  let bytes = encode_ok ipv4_header (ipv4_value ~options:"\x01\x01\x01\x01" ()) in
  check_int "ihl=6" 0x46 (Char.code bytes.[0]);
  let v = decode_ok ipv4_header bytes in
  check_str "options" "\x01\x01\x01\x01" (V.get_bytes v "options")

let test_ipv4_corrupt_checksum_rejected () =
  let bytes = encode_ok ipv4_header (ipv4_value ()) in
  let b = Bytes.of_string bytes in
  (* Flip a bit in the TTL: header checksum must catch it. *)
  Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) lxor 0x01));
  match Codec.decode ipv4_header (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "corrupt header accepted"
  | Error (Codec.Checksum_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_ipv4_payload_corruption_not_header_problem () =
  (* The IPv4 header checksum does not cover the payload; flipping payload
     bits must NOT fail the header checksum. *)
  let bytes = encode_ok ipv4_header (ipv4_value ~payload:"abcdef" ()) in
  let b = Bytes.of_string bytes in
  Bytes.set b (String.length bytes - 1) 'X';
  match Codec.decode ipv4_header (Bytes.to_string b) with
  | Ok v -> check_str "payload changed" "abcdeX" (V.get_bytes v "payload")
  | Error e -> Alcotest.failf "payload corruption rejected: %s" (Codec.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Well-formedness *)

let has_error fmt =
  match Wf.errors fmt with [] -> false | _ :: _ -> true

let test_wf_accepts_good_formats () =
  List.iter
    (fun fmt ->
      match Wf.errors fmt with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s rejected: %s" fmt.D.format_name
          (String.concat "; " (List.map (fun d -> d.Wf.message) errs)))
    [ arq_packet; ipv4_header ]

let test_wf_duplicate_names () =
  check_bool "dup" true
    (has_error (D.format "d" [ D.field "x" D.u8; D.field "x" D.u8 ]))

let test_wf_unknown_reference () =
  check_bool "unknown ref" true
    (has_error (D.format "d" [ D.field "p" (D.bytes_expr (D.Field "nope")) ]))

let test_wf_forward_length_reference () =
  check_bool "forward len ref" true
    (has_error
       (D.format "d"
          [ D.field "p" (D.bytes_expr (D.Field "late")); D.field "late" D.u8 ]))

let test_wf_bad_widths () =
  check_bool "width 0" true (has_error (D.format "d" [ D.field "x" (D.uint 0) ]));
  check_bool "width 65" true (has_error (D.format "d" [ D.field "x" (D.uint 65) ]));
  check_bool "const overflow" true
    (has_error (D.format "d" [ D.field "x" (D.const 4 16L) ]))

let test_wf_le_sub_byte () =
  check_bool "le sub-byte" true
    (has_error (D.format "d" [ D.field "x" (D.Uint { bits = 12; endian = D.Little }) ]))

let test_wf_enum_duplicates () =
  check_bool "dup enum value" true
    (has_error (D.format "d" [ D.field "x" (D.enum 8 [ ("a", 1L); ("b", 1L) ]) ]));
  check_bool "dup enum name" true
    (has_error (D.format "d" [ D.field "x" (D.enum 8 [ ("a", 1L); ("a", 2L) ]) ]))

let test_wf_variant_checks () =
  let body = D.format "b" [ D.field "x" D.u8 ] in
  check_bool "tag missing" true
    (has_error
       (D.format "d"
          [ D.field "v" (D.Variant { tag = "t"; cases = [ ("a", 0L, body) ]; default = None }) ]));
  check_bool "dup tag value" true
    (has_error
       (D.format "d"
          [
            D.field "t" D.u8;
            D.field "v"
              (D.Variant { tag = "t"; cases = [ ("a", 0L, body); ("b", 0L, body) ]; default = None });
          ]));
  check_bool "no cases" true
    (has_error
       (D.format "d"
          [ D.field "t" D.u8; D.field "v" (D.Variant { tag = "t"; cases = []; default = None }) ]))

let test_wf_checksum_span_names () =
  check_bool "unknown span" true
    (has_error
       (D.format "d"
          [ D.field "c" (D.checksum ~region:(D.Region_span ("x", "y")) U.Checksum.Xor8) ]));
  check_bool "reversed span" true
    (has_error
       (D.format "d"
          [
            D.field "a" D.u8;
            D.field "b" D.u8;
            D.field "c" (D.checksum ~region:(D.Region_span ("b", "a")) U.Checksum.Xor8);
          ]))

let test_wf_computed_cycle () =
  check_bool "cycle" true
    (has_error
       (D.format "d"
          [
            D.field "a" (D.computed 8 (D.Field "b"));
            D.field "b" (D.computed 8 (D.Field "a"));
          ]))

let test_wf_msg_len_in_length_spec () =
  check_bool "msg_len in len spec" true
    (has_error (D.format "d" [ D.field "p" (D.bytes_expr D.Msg_len) ]))

let test_wf_greedy_not_last_warns () =
  let fmt =
    D.format "d" [ D.field "p" D.bytes_remaining; D.field "q" D.u8 ]
  in
  let warnings = List.filter (fun d -> d.Wf.severity = Wf.Warning) (Wf.check fmt) in
  check_bool "warned" true (warnings <> [])

let test_wf_check_exn () =
  (match Wf.check_exn arq_packet with _ -> ());
  match Wf.check_exn (D.format "d" [ D.field "x" (D.uint 0) ]) with
  | _ -> Alcotest.fail "check_exn accepted a malformed format"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Sizing *)

let test_sizing_fixed () =
  let fmt = D.format "f" [ D.field "a" D.u8; D.field "b" (D.uint 4); D.field "c" (D.uint 4) ] in
  Alcotest.(check (option int)) "16 bits" (Some 16) (Sizing.fixed_bits fmt);
  Alcotest.(check (option int)) "2 bytes" (Some 2) (Sizing.fixed_bytes fmt)

let test_sizing_variable () =
  Alcotest.(check (option int)) "arq not fixed" None (Sizing.fixed_bits arq_packet);
  let b = Sizing.bounds arq_packet in
  (* seq(8) + kind(8) + len(16) + chk(16) = 48 bits minimum. *)
  check_int "min bits" 48 b.Sizing.min_bits;
  check_bool "unbounded" true (b.Sizing.max_bits = None);
  check_int "min bytes" 6 (Sizing.min_bytes arq_packet)

let test_sizing_variant_union () =
  let small = D.format "s" [ D.field "x" D.u8 ] in
  let large = D.format "l" [ D.field "x" D.u32 ] in
  let fmt =
    D.format "v"
      [
        D.field "t" D.u8;
        D.field "b" (D.Variant { tag = "t"; cases = [ ("s", 0L, small); ("l", 1L, large) ]; default = None });
      ]
  in
  let b = Sizing.bounds fmt in
  check_int "min" 16 b.Sizing.min_bits;
  Alcotest.(check (option int)) "max" (Some 40) b.Sizing.max_bits

let test_sizing_ipv4_min () =
  (* Minimum IPv4 header: 20 bytes (no options, no payload). *)
  check_int "ipv4 min" 20 (Sizing.min_bytes ipv4_header)

(* ------------------------------------------------------------------ *)
(* Diagram: regenerating the paper's Figure 1 *)

(* RFC 791's header diagram, as reproduced in the paper (Figure 1), less the
   variable-length tail our description adds.  Spacing inside boxes varies
   between hand-drawn renditions, so comparison is after normalization. *)
let figure_1 =
  String.concat "\n"
    [
      " 0                   1                   2                   3";
      " 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1";
      "+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+";
      "|Version| IHL |Type of Service| Total Length |";
      "+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+";
      "| Identification |Flags| Fragment Offset |";
      "+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+";
      "| Time to Live | Protocol | Header Checksum |";
      "+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+";
      "| Source Address |";
      "+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+";
      "| Destination Address |";
      "+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+";
    ]

let test_diagram_reproduces_figure_1 () =
  let rendered = Diagram.render ipv4_header in
  let got = Diagram.normalize rendered in
  let want = Diagram.normalize figure_1 in
  (* Our description continues past Destination Address (options/payload);
     Figure 1 stops there, so compare the prefix. *)
  let rec prefix want got =
    match (want, got) with
    | [], _ -> ()
    | w :: ws, g :: gs ->
      check_str "diagram line" w g;
      prefix ws gs
    | _ :: _, [] -> Alcotest.fail "generated diagram too short"
  in
  prefix want got

let test_diagram_exact_geometry () =
  let lines = Diagram.render_lines ipv4_header in
  (* Every separator/content line is exactly 65 characters. *)
  List.iteri
    (fun i l ->
      if i >= 2 then check_int (Printf.sprintf "line %d width" i) 65 (String.length l))
    lines;
  (* First content row carries Version at bit 0 with a border at bit 4. *)
  let row1 = List.nth lines 3 in
  check_str "version cell" "|Version|" (String.sub row1 0 9)

let test_diagram_variable_field_row () =
  let rendered = Diagram.render arq_packet in
  check_bool "payload row present" true
    (List.exists
       (fun l ->
         (* payload renders as a full-width "..." row *)
         String.length l > 0 && String.contains l '.')
       (String.split_on_char '\n' rendered))

(* ------------------------------------------------------------------ *)
(* Generation and fuzzing *)

let test_generate_arq_valid () =
  let rng = U.Prng.create 7L in
  for _ = 1 to 50 do
    let bytes = Gen.generate_bytes rng arq_packet in
    match Codec.decode arq_packet bytes with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "generated packet invalid: %s" (Codec.error_to_string e)
  done

let test_generate_respects_constraints () =
  let fmt =
    D.format "c" [ D.field "x" ~constraints:[ D.In_range (10L, 20L) ] D.u8 ]
  in
  let rng = U.Prng.create 21L in
  for _ = 1 to 100 do
    let v = Gen.generate rng fmt in
    let x = V.get_int v "x" in
    if x < 10 || x > 20 then Alcotest.failf "constraint ignored: %d" x
  done

let test_generate_variant_tags_consistent () =
  let a = D.format "a" [ D.field "x" D.u8 ] in
  let b = D.format "b" [ D.field "y" D.u16 ] in
  let fmt =
    D.format "v"
      [
        D.field "t" D.u8;
        D.field "body" (D.Variant { tag = "t"; cases = [ ("a", 0L, a); ("b", 1L, b) ]; default = None });
      ]
  in
  let rng = U.Prng.create 31L in
  for _ = 1 to 50 do
    let bytes = Gen.generate_bytes rng fmt in
    ignore (decode_ok fmt bytes)
  done

let test_generate_unsupported () =
  (* Length depending on a computed field cannot be generated generically. *)
  let fmt =
    D.format "u"
      [
        D.field "n" (D.computed 8 (D.Byte_len "p"));
        D.field "p" (D.bytes_expr (D.Mul (D.Field "n", D.Const 1L)));
      ]
  in
  (* Note: p depends on n which is computed: Field "n" is unavailable at
     generation time. *)
  match Gen.generate_opt (U.Prng.create 1L) fmt with
  | None -> ()
  | Some _ -> Alcotest.fail "expected Unsupported"

let test_truncation_rejected () =
  let rng = U.Prng.create 17L in
  for _ = 1 to 30 do
    let bytes = Gen.generate_bytes rng arq_packet in
    let cut = Gen.truncate_random rng bytes in
    match Codec.decode arq_packet cut with
    | Ok _ -> Alcotest.fail "truncated packet accepted"
    | Error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_roundtrip fmt name =
  QCheck.Test.make ~name ~count:200 QCheck.int64 (fun seed ->
      let rng = U.Prng.create seed in
      match Gen.generate_opt rng fmt with
      | None -> QCheck.assume_fail ()
      | Some v -> (
        match Codec.encode fmt v with
        | Error _ -> false
        | Ok bytes -> (
          match Codec.decode fmt bytes with
          | Error _ -> false
          | Ok decoded ->
            V.equal (V.strip_derived fmt v) (V.strip_derived fmt decoded))))

let prop_canonical_idempotent =
  QCheck.Test.make ~name:"format: encode . decode = id on wire bytes" ~count:200
    QCheck.int64 (fun seed ->
      let rng = U.Prng.create seed in
      let bytes = Gen.generate_bytes rng arq_packet in
      match Codec.decode arq_packet bytes with
      | Error _ -> false
      | Ok v -> (
        match Codec.encode arq_packet v with
        | Error _ -> false
        | Ok bytes' -> String.equal bytes bytes'))

let prop_single_bitflip_on_checksummed_header =
  QCheck.Test.make
    ~name:"format: single bit flip in checksummed region never decodes" ~count:300
    QCheck.(pair int64 small_nat)
    (fun (seed, flip_seed) ->
      let rng = U.Prng.create seed in
      let v =
        V.record [ ("seq", V.int 1); ("kind", V.int 0); ("payload", V.bytes "abcdefgh") ]
      in
      ignore rng;
      let bytes =
        match Codec.encode arq_packet v with Ok b -> b | Error _ -> assert false
      in
      let bit = flip_seed mod (String.length bytes * 8) in
      let b = Bytes.of_string bytes in
      let idx = bit lsr 3 and mask = 1 lsl (7 - (bit land 7)) in
      Bytes.set b idx (Char.chr (Char.code (Bytes.get b idx) lxor mask));
      match Codec.decode arq_packet (Bytes.to_string b) with
      | Ok _ -> false
      | Error _ -> true)

let suite =
  [
    ( "format.codec",
      [
        Alcotest.test_case "fixed roundtrip" `Quick test_fixed_roundtrip;
        Alcotest.test_case "sub-byte fields" `Quick test_sub_byte_fields;
        Alcotest.test_case "flags and padding" `Quick test_flag_bits;
        Alcotest.test_case "little-endian" `Quick test_little_endian_field;
        Alcotest.test_case "const checked" `Quick test_const_checked;
        Alcotest.test_case "const supplied must match" `Quick test_const_supplied_must_match;
        Alcotest.test_case "enum exhaustive" `Quick test_enum_exhaustive;
        Alcotest.test_case "enum open" `Quick test_enum_open;
        Alcotest.test_case "constraints" `Quick test_constraints;
        Alcotest.test_case "missing field" `Quick test_missing_field;
        Alcotest.test_case "value out of range" `Quick test_value_out_of_range;
        Alcotest.test_case "trailing input" `Quick test_trailing_input;
        Alcotest.test_case "truncated decode" `Quick test_truncated_decode;
      ] );
    ( "format.semantic",
      [
        Alcotest.test_case "length-prefixed payload" `Quick test_length_prefixed_payload;
        Alcotest.test_case "lying length detected" `Quick test_length_mismatch_detected;
        Alcotest.test_case "IHL-style word count" `Quick test_ihl_style_length;
        Alcotest.test_case "msg_len field" `Quick test_msg_len_field;
        Alcotest.test_case "supplied computed checked" `Quick test_supplied_computed_checked;
        Alcotest.test_case "ARQ checksum roundtrip" `Quick test_arq_checksum_roundtrip;
        Alcotest.test_case "checksum detects bit flips" `Quick test_checksum_detects_bit_flip;
        Alcotest.test_case "checksum span region" `Quick test_checksum_span;
        Alcotest.test_case "checksum rest region" `Quick test_checksum_rest_region;
        Alcotest.test_case "crc32 field" `Quick test_checksum_crc32;
      ] );
    ( "format.structure",
      [
        Alcotest.test_case "fixed array" `Quick test_array_fixed;
        Alcotest.test_case "counted array" `Quick test_array_count_field;
        Alcotest.test_case "byte-delimited array" `Quick test_array_byte_delimited;
        Alcotest.test_case "greedy array" `Quick test_array_remaining;
        Alcotest.test_case "nested record scoping" `Quick test_nested_record_scoping;
        Alcotest.test_case "variant dispatch" `Quick test_variant_dispatch;
        Alcotest.test_case "variant default" `Quick test_variant_default;
        Alcotest.test_case "padding" `Quick test_padding_skipped;
      ] );
    ( "format.ipv4",
      [
        Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
        Alcotest.test_case "options grow IHL" `Quick test_ipv4_options_grow_ihl;
        Alcotest.test_case "corrupt header rejected" `Quick test_ipv4_corrupt_checksum_rejected;
        Alcotest.test_case "payload not covered" `Quick test_ipv4_payload_corruption_not_header_problem;
      ] );
    ( "format.wf",
      [
        Alcotest.test_case "accepts good formats" `Quick test_wf_accepts_good_formats;
        Alcotest.test_case "duplicate names" `Quick test_wf_duplicate_names;
        Alcotest.test_case "unknown reference" `Quick test_wf_unknown_reference;
        Alcotest.test_case "forward length reference" `Quick test_wf_forward_length_reference;
        Alcotest.test_case "bad widths" `Quick test_wf_bad_widths;
        Alcotest.test_case "little-endian sub-byte" `Quick test_wf_le_sub_byte;
        Alcotest.test_case "enum duplicates" `Quick test_wf_enum_duplicates;
        Alcotest.test_case "variant checks" `Quick test_wf_variant_checks;
        Alcotest.test_case "checksum span names" `Quick test_wf_checksum_span_names;
        Alcotest.test_case "computed cycle" `Quick test_wf_computed_cycle;
        Alcotest.test_case "msg_len in length spec" `Quick test_wf_msg_len_in_length_spec;
        Alcotest.test_case "greedy-not-last warning" `Quick test_wf_greedy_not_last_warns;
        Alcotest.test_case "check_exn" `Quick test_wf_check_exn;
      ] );
    ( "format.sizing",
      [
        Alcotest.test_case "fixed" `Quick test_sizing_fixed;
        Alcotest.test_case "variable" `Quick test_sizing_variable;
        Alcotest.test_case "variant union" `Quick test_sizing_variant_union;
        Alcotest.test_case "ipv4 minimum" `Quick test_sizing_ipv4_min;
      ] );
    ( "format.diagram",
      [
        Alcotest.test_case "reproduces Figure 1" `Quick test_diagram_reproduces_figure_1;
        Alcotest.test_case "exact geometry" `Quick test_diagram_exact_geometry;
        Alcotest.test_case "variable field row" `Quick test_diagram_variable_field_row;
      ] );
    ( "format.gen",
      [
        Alcotest.test_case "generated ARQ packets valid" `Quick test_generate_arq_valid;
        Alcotest.test_case "respects constraints" `Quick test_generate_respects_constraints;
        Alcotest.test_case "variant tags consistent" `Quick test_generate_variant_tags_consistent;
        Alcotest.test_case "unsupported reported" `Quick test_generate_unsupported;
        Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
        Testutil.qcheck (prop_roundtrip arq_packet "format: ARQ generate/encode/decode roundtrip");
        Testutil.qcheck prop_canonical_idempotent;
        Testutil.qcheck prop_single_bitflip_on_checksummed_header;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Framer: stream reassembly *)

let framer_fmt = arq_packet

let sample_frames =
  List.map
    (fun payload ->
      Framer.encode_frame_exn framer_fmt
        (V.record [ ("seq", V.int 1); ("kind", V.int 0); ("payload", V.bytes payload) ]))
    [ "alpha"; "bravo-bravo"; ""; "delta" ]

let payload_of = function
  | Ok v -> V.get_bytes v "payload"
  | Error e -> Alcotest.failf "frame failed: %s" (Format.asprintf "%a" Framer.pp_error e)

let test_framer_whole_frames () =
  let f = Framer.create framer_fmt in
  let got = List.concat_map (fun frame -> Framer.feed f frame) sample_frames in
  Alcotest.(check (list string)) "all frames"
    [ "alpha"; "bravo-bravo"; ""; "delta" ]
    (List.map payload_of got);
  check_int "nothing pending" 0 (Framer.pending_bytes f);
  check_int "delivered" 4 (Framer.frames_delivered f)

let test_framer_byte_at_a_time () =
  let f = Framer.create framer_fmt in
  let stream = String.concat "" sample_frames in
  let got = ref [] in
  String.iter
    (fun c -> got := !got @ Framer.feed f (String.make 1 c))
    stream;
  Alcotest.(check (list string)) "reassembled"
    [ "alpha"; "bravo-bravo"; ""; "delta" ]
    (List.map payload_of !got)

let test_framer_coalesced () =
  (* Everything in one burst: all frames pop out of a single feed. *)
  let f = Framer.create framer_fmt in
  let got = Framer.feed f (String.concat "" sample_frames) in
  check_int "four at once" 4 (List.length got)

let test_framer_bad_frame_does_not_poison () =
  let f = Framer.create framer_fmt in
  let good = List.nth sample_frames 0 in
  (* A frame whose body fails validation (checksum destroyed), between two
     good ones. *)
  let bad_body = Gen.mutate (U.Prng.create 5L) (String.sub good 4 (String.length good - 4)) in
  let bad =
    String.init 4 (fun i -> Char.chr (String.length bad_body lsr (8 * (3 - i)) land 0xFF))
    ^ bad_body
  in
  let got = Framer.feed f (good ^ bad ^ good) in
  (match got with
  | [ Ok _; Error (Framer.Decode_failed _); Ok _ ] -> ()
  | other -> Alcotest.failf "expected ok/error/ok, got %d results" (List.length other));
  check_int "two delivered" 2 (Framer.frames_delivered f)

let test_framer_oversized_resyncs () =
  let f = Framer.create ~max_frame:64 framer_fmt in
  let huge_declared = 1000 in
  let hdr =
    String.init 4 (fun i -> Char.chr ((huge_declared lsr (8 * (3 - i))) land 0xFF))
  in
  let junk = String.make huge_declared '\xAA' in
  let good = List.nth sample_frames 0 in
  let got = Framer.feed f (hdr ^ junk ^ good) in
  (match got with
  | [ Error (Framer.Frame_too_large { declared = 1000; limit = 64 }); Ok _ ] -> ()
  | other -> Alcotest.failf "expected too-large then ok, got %d results" (List.length other));
  check_int "resynchronised" 0 (Framer.pending_bytes f)

let prop_framer_chunking_invariant =
  QCheck.Test.make ~name:"framer: any chunking yields the same messages" ~count:200
    QCheck.(pair int64 (list_of_size (QCheck.Gen.int_range 1 6) (int_range 0 40)))
    (fun (seed, sizes) ->
      let rng = U.Prng.create seed in
      let payloads = List.map (fun n -> U.Prng.string rng n) sizes in
      let stream =
        String.concat ""
          (List.map
             (fun p ->
               Framer.encode_frame_exn framer_fmt
                 (V.record [ ("seq", V.int 0); ("kind", V.int 0); ("payload", V.bytes p) ]))
             payloads)
      in
      (* Cut the stream at random points. *)
      let f = Framer.create framer_fmt in
      let got = ref [] in
      let pos = ref 0 in
      while !pos < String.length stream do
        let n = 1 + U.Prng.int rng (String.length stream - !pos) in
        got := !got @ Framer.feed f (String.sub stream !pos n);
        pos := !pos + n
      done;
      List.map payload_of !got = payloads)

let framer_suite =
  ( "format.framer",
    [
      Alcotest.test_case "whole frames" `Quick test_framer_whole_frames;
      Alcotest.test_case "byte at a time" `Quick test_framer_byte_at_a_time;
      Alcotest.test_case "coalesced burst" `Quick test_framer_coalesced;
      Alcotest.test_case "bad frame does not poison" `Quick test_framer_bad_frame_does_not_poison;
      Alcotest.test_case "oversized resyncs" `Quick test_framer_oversized_resyncs;
      Testutil.qcheck prop_framer_chunking_invariant;
    ] )

let suite = suite @ [ framer_suite ]

(* ------------------------------------------------------------------ *)
(* ABNF export (§2.1: what the syntactic notation can and cannot say) *)

let test_abnf_ipv4_structure () =
  let out = Abnf.export ipv4_header in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Testutil.contains out fragment))
    [
      "ipv4 = 20OCTET";
      "version(4) ihl(4)";
      "NOT EXPRESSIBLE IN ABNF";
      "derived as ((len(options) + 20) / 4)";
      "internet checksum over fields version..options";
    ]

let test_abnf_const_bytes () =
  let fmt =
    D.format "magic_fmt"
      [ D.field "magic" (D.const 16 0xCAFEL); D.field "rest" D.bytes_remaining ]
  in
  let out = Abnf.export fmt in
  Alcotest.(check bool) "exact bytes" true (Testutil.contains out "%xCA.FE");
  Alcotest.(check bool) "greedy tail" true (Testutil.contains out "*OCTET")

let test_abnf_nested_rules () =
  let inner = D.format "inner_rec" [ D.field "v" D.u16 ] in
  let fmt =
    D.format "outer_rec"
      [ D.field "n" D.u8; D.field "items" (D.array_expr inner (D.Field "n")) ]
  in
  let out = Abnf.export fmt in
  Alcotest.(check bool) "outer rule" true (Testutil.contains out "outer-rec =");
  Alcotest.(check bool) "inner rule emitted" true (Testutil.contains out "inner-rec = 2OCTET");
  Alcotest.(check bool) "repetition" true (Testutil.contains out "*inner-rec")

let test_abnf_pure_syntax_has_no_losses () =
  let fmt = D.format "plain" [ D.field "a" D.u8; D.field "b" (D.bytes_fixed 4) ] in
  Alcotest.(check (list string)) "no losses" [] (Abnf.lost_information fmt);
  Alcotest.(check bool) "no comment block" false
    (Testutil.contains (Abnf.export fmt) "NOT EXPRESSIBLE")

let test_abnf_loss_catalogue_complete () =
  (* Every semantic feature used by the ARQ format appears in the loss
     catalogue. *)
  let losses = Abnf.lost_information arq_packet in
  Alcotest.(check int) "four facts" 4 (List.length losses)

let abnf_suite =
  ( "format.abnf",
    [
      Alcotest.test_case "ipv4 structure" `Quick test_abnf_ipv4_structure;
      Alcotest.test_case "const bytes" `Quick test_abnf_const_bytes;
      Alcotest.test_case "nested rules" `Quick test_abnf_nested_rules;
      Alcotest.test_case "pure syntax has no losses" `Quick test_abnf_pure_syntax_has_no_losses;
      Alcotest.test_case "loss catalogue complete" `Quick test_abnf_loss_catalogue_complete;
    ] )

let suite = suite @ [ abnf_suite ]

(* ------------------------------------------------------------------ *)
(* Codec edge cases *)

let test_two_checksums_one_format () =
  (* A header checksum over the header span and a trailer CRC over the
     whole message (which therefore covers the patched header checksum). *)
  let fmt =
    D.format "double"
      [
        D.field "a" D.u16;
        D.field "hdr_ck" (D.checksum ~region:(D.Region_span ("a", "a")) U.Checksum.Internet);
        D.field "body" (D.bytes_fixed 4);
        D.field "crc" (D.checksum ~region:D.Region_message U.Checksum.Crc32);
      ]
  in
  let v = V.record [ ("a", V.int 0xBEEF); ("body", V.bytes "body") ] in
  let bytes = encode_ok fmt v in
  ignore (decode_ok fmt bytes);
  (* Corrupt the header checksum itself: the outer CRC must also notice. *)
  let b = Bytes.of_string bytes in
  Bytes.set b 2 (Char.chr (Char.code (Bytes.get b 2) lxor 0xFF));
  match Codec.decode fmt (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "corrupted inner checksum accepted"
  | Error _ -> ()

let test_computed_chain () =
  (* words -> bytes -> payload: computed referencing computed. *)
  let fmt =
    D.format "chain"
      [
        D.field "words" (D.computed 8 D.(Div (Field "bytes", Const 2L)));
        D.field "bytes" (D.computed 8 (D.Byte_len "payload"));
        D.field "payload" (D.bytes_expr (D.Field "bytes"));
      ]
  in
  let bytes = encode_ok fmt (V.record [ ("payload", V.bytes "abcd") ]) in
  check_str "wire" "0204" (U.Hexdump.to_hex (String.sub bytes 0 2));
  let v = decode_ok fmt bytes in
  check_int "words" 2 (V.get_int v "words")

let test_le_computed_field () =
  let fmt =
    D.format "lec"
      [
        D.field "n" (D.Computed { bits = 16; endian = D.Little; expr = D.Byte_len "p" });
        D.field "p" (D.bytes_expr (D.Field "n"));
      ]
  in
  let bytes = encode_ok fmt (V.record [ ("p", V.bytes "xyz") ]) in
  check_str "LE length" "0300" (U.Hexdump.to_hex (String.sub bytes 0 2));
  check_str "roundtrip" "xyz" (V.get_bytes (decode_ok fmt bytes) "p")

let test_variant_inside_array () =
  let num = D.format "num" [ D.field "v" D.u8 ] in
  let txt =
    D.format "txt"
      [ D.field "n" (D.computed 8 (D.Byte_len "s")); D.field "s" (D.bytes_expr (D.Field "n")) ]
  in
  let item =
    D.format "item"
      [
        D.field "tag" (D.enum 8 [ ("num", 0L); ("txt", 1L) ]);
        D.field "body"
          (D.Variant { tag = "tag"; cases = [ ("num", 0L, num); ("txt", 1L, txt) ]; default = None });
      ]
  in
  let fmt = D.format "stream" [ D.field "items" (D.array_remaining item) ] in
  let v =
    V.record
      [
        ( "items",
          V.list
            [
              V.record [ ("tag", V.int 0); ("body", V.variant "num" (V.record [ ("v", V.int 7) ])) ];
              V.record
                [ ("tag", V.int 1);
                  ("body", V.variant "txt" (V.record [ ("s", V.bytes "hey") ])) ];
            ] );
      ]
  in
  let bytes = encode_ok fmt v in
  check_str "wire" "000701036865 79" (String.concat " " [ U.Hexdump.to_hex (String.sub bytes 0 6); U.Hexdump.to_hex (String.sub bytes 6 1) ]);
  let decoded = decode_ok fmt bytes in
  check_int "two items" 2 (List.length (V.get_list decoded "items"))

let test_region_rest_inside_nested_record () =
  (* A checksum with Region_rest inside a nested record covers the rest of
     that record only — the outer trailer is untouched. *)
  let inner =
    D.format "inner"
      [
        D.field "ck" (D.checksum ~region:D.Region_rest U.Checksum.Sum8);
        D.field "x" D.u8;
        D.field "y" D.u8;
      ]
  in
  let fmt = D.format "outer" [ D.field "body" (D.record inner); D.field "trailer" D.u8 ] in
  let v =
    V.record
      [
        ("body", V.record [ ("x", V.int 3); ("y", V.int 4) ]);
        ("trailer", V.int 0x7F);
      ]
  in
  let bytes = encode_ok fmt v in
  check_int "sum of x+y only" 7 (Char.code bytes.[0]);
  (* Corrupting the trailer does not disturb the inner checksum. *)
  let b = Bytes.of_string bytes in
  Bytes.set b 3 '\x00';
  ignore (decode_ok fmt (Bytes.to_string b))

let test_empty_format () =
  let fmt = D.format "empty" [] in
  check_str "encodes to nothing" "" (encode_ok fmt (V.record []));
  Alcotest.(check bool) "decodes nothing" true (V.equal (V.record []) (decode_ok fmt ""))

let test_64_bit_fields () =
  let fmt = D.format "wide" [ D.field "x" D.u64 ] in
  let v = V.record [ ("x", V.int64 (-1L)) ] in
  let bytes = encode_ok fmt v in
  check_str "all ones" "ffffffffffffffff" (U.Hexdump.to_hex bytes);
  Alcotest.(check int64) "roundtrip" (-1L) (V.get_int64 (decode_ok fmt bytes) "x")

let test_terminated_bytes_roundtrip () =
  let fmt =
    D.format "cs"
      [ D.field "name" D.cstring; D.field "mode" D.cstring; D.field "tail" D.u8 ]
  in
  let v =
    V.record [ ("name", V.bytes "file.txt"); ("mode", V.bytes ""); ("tail", V.int 9) ]
  in
  let bytes = encode_ok fmt v in
  check_str "wire" "66696c652e747874000009" (U.Hexdump.to_hex bytes);
  Alcotest.(check bool) "roundtrip" true (V.equal v (decode_ok fmt bytes))

let test_terminated_custom_byte () =
  let fmt = D.format "nl" [ D.field "line" (D.Bytes (D.Len_terminated 0x0A)) ] in
  let bytes = encode_ok fmt (V.record [ ("line", V.bytes "hello") ]) in
  check_str "newline-terminated" "68656c6c6f0a" (U.Hexdump.to_hex bytes);
  check_str "decoded" "hello" (V.get_bytes (decode_ok fmt bytes) "line")

let test_terminated_gen_avoids_terminator () =
  let fmt = D.format "cs" [ D.field "s" D.cstring ] in
  let rng = U.Prng.create 55L in
  for _ = 1 to 100 do
    let v = Gen.generate rng fmt in
    let s = V.get_bytes v "s" in
    if String.contains s '\000' then Alcotest.fail "generator produced a NUL"
  done

let test_terminated_array_rejected_by_wf () =
  let elem = D.format "e" [ D.field "x" D.u8 ] in
  let fmt =
    D.format "bad" [ D.field "a" (D.Array { elem; length = D.Len_terminated 0 }) ]
  in
  Alcotest.(check bool) "wf error" false (Wf.is_well_formed fmt)

let edge_suite =
  ( "format.edge",
    [
      Alcotest.test_case "two checksums" `Quick test_two_checksums_one_format;
      Alcotest.test_case "computed chain" `Quick test_computed_chain;
      Alcotest.test_case "little-endian computed" `Quick test_le_computed_field;
      Alcotest.test_case "variant inside array" `Quick test_variant_inside_array;
      Alcotest.test_case "Region_rest in nested record" `Quick test_region_rest_inside_nested_record;
      Alcotest.test_case "empty format" `Quick test_empty_format;
      Alcotest.test_case "64-bit fields" `Quick test_64_bit_fields;
      Alcotest.test_case "terminated bytes roundtrip" `Quick test_terminated_bytes_roundtrip;
      Alcotest.test_case "custom terminator" `Quick test_terminated_custom_byte;
      Alcotest.test_case "gen avoids terminator" `Quick test_terminated_gen_avoids_terminator;
      Alcotest.test_case "terminated arrays rejected" `Quick test_terminated_array_rejected_by_wf;
    ] )

let suite = suite @ [ edge_suite ]

(* ------------------------------------------------------------------ *)
(* JSON export *)

let test_json_shapes () =
  let v =
    V.record
      [
        ("n", V.int 5);
        ("flag", V.bool true);
        ("data", V.bytes "\x01\xFF");
        ("items", V.list [ V.int 1; V.int 2 ]);
        ("body", V.variant "ping" (V.record [ ("token", V.int 9) ]));
      ]
  in
  check_str "json" 
    {|{"n":5,"flag":true,"data":"hex:01ff","items":[1,2],"body":{"case":"ping","token":9}}|}
    (V.to_json v)

let test_json_escaping_and_wide_ints () =
  check_str "escaped key"
    {|{"a\"b\\c":1}|}
    (V.to_json (V.record [ ({|a"b\c|}, V.int 1) ]));
  (* 2^60 exceeds the double-exact range: rides as a string. *)
  check_str "wide int" {|"1152921504606846976"|} (V.to_json (V.int64 1152921504606846976L));
  check_str "small int stays numeric" "42" (V.to_json (V.int 42))

let json_suite =
  ( "format.json",
    [
      Alcotest.test_case "shapes" `Quick test_json_shapes;
      Alcotest.test_case "escaping and wide ints" `Quick test_json_escaping_and_wide_ints;
    ] )

let suite = suite @ [ json_suite ]

(* ------------------------------------------------------------------ *)
(* Meta-fuzzing: random format *descriptions* (not just packets), checked
   against every consumer at once.  The generator only produces
   well-formed, generable descriptions by construction: widths in range,
   length references pointing backwards at concrete integer fields. *)

let random_desc rng ~depth name =
  let module Pr = U.Prng in
  let fresh =
    let n = ref 0 in
    fun base ->
      incr n;
      Printf.sprintf "%s%d" base !n
  in
  let rec format depth name =
    let n_fields = 1 + Pr.int rng 5 in
    let int_fields = ref [] in
    let fields =
      List.init n_fields (fun _ ->
          let fname = fresh "f" in
          let pick = Pr.int rng (if depth > 0 then 9 else 7) in
          let ty =
            match pick with
            | 0 ->
              let bits = 1 + Pr.int rng 32 in
              int_fields := fname :: !int_fields;
              D.uint bits
            | 1 -> D.flag
            | 2 ->
              let bits = 8 * (1 + Pr.int rng 4) in
              D.const bits (Int64.of_int (Pr.int rng 200))
            | 3 ->
              int_fields := fname :: !int_fields;
              D.enum 8 [ ("a", 0L); ("b", 1L); ("c", 7L) ]
            | 4 -> D.padding (1 + Pr.int rng 15)
            | 5 -> D.bytes_fixed (Pr.int rng 9)
            | 6 -> (
              (* Data-dependent length when a previous integer exists. *)
              match !int_fields with
              | ref_field :: _ when Pr.bool rng ->
                D.bytes_expr (D.Div (D.Field ref_field, D.Const 16L))
              | _ -> D.cstring)
            | 7 -> D.record (format (depth - 1) (fresh "rec"))
            | _ -> D.array_fixed (format (depth - 1) (fresh "elem")) (Pr.int rng 3)
          in
          D.field fname ty)
    in
    D.format name fields
  in
  format depth name

let prop_random_desc_well_formed =
  QCheck.Test.make ~name:"meta: random descriptions are well-formed" ~count:300
    QCheck.int64 (fun seed ->
      let rng = U.Prng.create seed in
      let fmt = random_desc rng ~depth:2 "root" in
      match Wf.errors fmt with
      | [] -> true
      | errs ->
        QCheck.Test.fail_reportf "wf errors: %s"
          (String.concat "; " (List.map (fun d -> d.Wf.message) errs)))

let prop_random_desc_roundtrip =
  QCheck.Test.make ~name:"meta: random descriptions roundtrip packets" ~count:300
    QCheck.int64 (fun seed ->
      let rng = U.Prng.create seed in
      let fmt = random_desc rng ~depth:2 "root" in
      match Gen.generate_opt rng fmt with
      | None -> QCheck.assume_fail ()
      | Some v -> (
        match Codec.encode fmt v with
        | Error e -> QCheck.Test.fail_reportf "encode: %s" (Codec.error_to_string e)
        | Ok bytes -> (
          match Codec.decode fmt bytes with
          | Error e -> QCheck.Test.fail_reportf "decode: %s" (Codec.error_to_string e)
          | Ok decoded -> V.equal (V.strip_derived fmt v) (V.strip_derived fmt decoded))))

let prop_random_desc_abnf_total =
  QCheck.Test.make ~name:"meta: ABNF export total on random descriptions" ~count:300
    QCheck.int64 (fun seed ->
      let rng = U.Prng.create seed in
      let fmt = random_desc rng ~depth:2 "root" in
      String.length (Abnf.export fmt) > 0)

let prop_random_desc_printer_roundtrip =
  (* Flat formats only: the printer emits nested formats as named rules of
     a whole program, which the flat case sidesteps. *)
  QCheck.Test.make ~name:"meta: printer roundtrip on random flat descriptions"
    ~count:300 QCheck.int64 (fun seed ->
      let rng = U.Prng.create seed in
      let fmt = random_desc rng ~depth:0 "root" in
      let src = Netdsl_lang.Printer.format_to_ndsl fmt in
      match Netdsl_lang.Parser.parse_string src with
      | Error e ->
        QCheck.Test.fail_reportf "reparse failed: %s\n%s"
          (Format.asprintf "%a" Netdsl_lang.Parser.pp_error e)
          src
      | Ok p -> (
        match Netdsl_lang.Parser.find_format p "root" with
        | None -> false
        | Some fmt' -> fmt = fmt'))

let meta_suite =
  ( "format.meta",
    [
      Testutil.qcheck prop_random_desc_well_formed;
      Testutil.qcheck prop_random_desc_roundtrip;
      Testutil.qcheck prop_random_desc_abnf_total;
      Testutil.qcheck prop_random_desc_printer_roundtrip;
    ] )

let suite = suite @ [ meta_suite ]
