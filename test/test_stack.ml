(* Parse-graph correctness: the fused chained decoder must agree with the
   sequential per-layer reference on verdict, layer windows and register
   values for every input — golden chains, hostile mutants, cross-layer
   lies — and in-place patches of a chain must equal a decode → mutate →
   re-encode.  The heavier structure-aware oracle leg lives in
   [Netdsl_check]; these are the direct properties. *)

open Netdsl_format
module Fm = Netdsl_formats
module Stacks = Netdsl_formats.Stacks
module Tftp = Netdsl_formats.Tftp
module Prng = Netdsl_util.Prng

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let demand_inet =
  [ "tftp.opcode"; "udp.src_port"; "udp.dst_port"; "ipv4.source"; "ipv4.destination" ]

let compile_inet () =
  ok_exn "compile inet_tftp" (Stack.compile ~demand:demand_inet Stacks.inet_tftp)

let tftp_samples =
  [
    Tftp.Rrq { filename = "hosts"; mode = "octet" };
    Tftp.Wrq { filename = "x"; mode = "netascii" };
    Tftp.Data { block = 7; data = String.make 32 'Q' };
    Tftp.Data { block = 65535; data = "" };
    Tftp.Ack { block = 1 };
    Tftp.Error { code = 2; message = "denied" };
  ]

let chain_bytes plan pkt =
  ok_exn "encode chain" (Stack.encode plan (Stacks.inet_tftp_values pkt))

(* Fused and sequential must agree on the verdict (and, on accept, on
   every layer window) for arbitrary bytes. *)
let agree plan seq ~what data =
  let fused = Stack.run plan data in
  let refd = Stack.Seq.decode seq data in
  (match (fused, refd) with
  | true, Ok () -> ()
  | false, Error _ -> ()
  | true, Error e ->
    Alcotest.failf "%s: fused accepts, reference rejects (%s)" what
      (Codec.error_to_string e)
  | false, Ok () -> Alcotest.failf "%s: fused rejects, reference accepts" what);
  if fused then
    for i = 0 to Stack.layer_count plan - 1 do
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s: layer %d window" what i)
        (Stack.Seq.layer_off seq i, Stack.Seq.layer_len seq i)
        (Stack.layer_off plan i, Stack.layer_len plan i)
    done;
  fused

let test_golden_roundtrip () =
  let plan = compile_inet () in
  let seq = Stack.Seq.create plan in
  let opcode = ok_exn "reg" (Stack.reg plan "tftp.opcode") in
  let dst_port = ok_exn "reg" (Stack.reg plan "udp.dst_port") in
  List.iter
    (fun pkt ->
      let data = chain_bytes plan pkt in
      if not (agree plan seq ~what:"golden chain" data) then
        Alcotest.fail "golden chain rejected";
      Alcotest.(check int) "udp.dst_port register" 69 (Stack.reg_get plan dst_port);
      let expect_op =
        match pkt with
        | Tftp.Rrq _ -> 1 | Tftp.Wrq _ -> 2 | Tftp.Data _ -> 3
        | Tftp.Ack _ -> 4 | Tftp.Error _ -> 5
      in
      Alcotest.(check int) "tftp.opcode register" expect_op
        (Stack.reg_get plan opcode))
    tftp_samples

(* The two-layer and default-arm chains decode through their own engine
   shapes (fully linear terminal; variant-with-default terminal). *)
let test_other_chains () =
  let arp = ok_exn "compile eth_arp" (Stack.compile Stacks.eth_arp) in
  let arp_seq = Stack.Seq.create arp in
  let data = ok_exn "arp encode" (Stack.encode arp (Stacks.eth_arp_values ())) in
  if not (agree arp arp_seq ~what:"eth_arp" data) then
    Alcotest.fail "eth_arp golden rejected";
  let icmp = ok_exn "compile ipv4_icmp" (Stack.compile Stacks.ipv4_icmp) in
  let icmp_seq = Stack.Seq.create icmp in
  let data = ok_exn "icmp encode" (Stack.encode icmp (Stacks.ipv4_icmp_values ())) in
  if not (agree icmp icmp_seq ~what:"ipv4_icmp" data) then
    Alcotest.fail "ipv4_icmp golden rejected"

(* Red paths: a demux lie, a truncated inner header and an outer length
   lie must all be rejected by both decoders, and the reference must name
   the failing layer. *)
let set_byte s i v =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr v);
  Bytes.to_string b

let expect_reject plan seq ~what ~layer data =
  if Stack.run plan data then Alcotest.failf "%s: fused accepted" what;
  match Stack.Seq.decode seq data with
  | Ok () -> Alcotest.failf "%s: reference accepted" what
  | Error e ->
    (* the failing layer heads the error's path *)
    let e = Codec.error_to_string e in
    if not (List.exists (fun sep -> String.starts_with ~prefix:(layer ^ sep) e) [ "."; ":" ])
    then Alcotest.failf "%s: error %S does not name %S" what e layer

let test_red_paths () =
  let plan = compile_inet () in
  let seq = Stack.Seq.create plan in
  let data = chain_bytes plan (Tftp.Data { block = 3; data = "payload!" }) in
  if not (Stack.run plan data) then Alcotest.fail "golden rejected";
  (* layer windows recorded by the accepting run, used for the lie below *)
  let ip_off = Stack.layer_off plan 1 in
  (* ethertype 0x0800 -> 0x0806: valid enum value, wrong edge *)
  let demux_lie = set_byte (set_byte data 12 0x08) 13 0x06 in
  expect_reject plan seq ~what:"demux lie" ~layer:"ethernet" demux_lie;
  (* chop into the inner tftp header *)
  let truncated = String.sub data 0 (String.length data - 9) in
  expect_reject plan seq ~what:"truncated inner" ~layer:"ipv4" truncated;
  (* shrink ipv4.total_length below the udp header it must cover; repair
     the header checksum so only the cross-layer inconsistency remains *)
  let lying = Bytes.of_string data in
  let header_len = 4 * (Char.code (Bytes.get lying ip_off) land 0xF) in
  Bytes.set_uint16_be lying (ip_off + 2) 24;
  Bytes.set_uint16_be lying (ip_off + 10)
    (Netdsl_util.Checksum.internet_zeroed ~off:ip_off ~len:header_len
       ~zero_bit_off:(8 * (ip_off + 10)) ~zero_bit_len:16 (Bytes.to_string lying));
  expect_reject plan seq ~what:"outer length lie" ~layer:"ipv4"
    (Bytes.to_string lying)

(* In-place patches of a chain: rewrite udp.src_port and swap the ipv4
   addresses on the wire with Emit.patcher against the recorded layer
   windows (the address patches exercise the RFC 1624 header-checksum
   repair), then compare against a full re-encode with the same changes.
   dst_port stays 69 so the chain still matches its demux edge. *)
let test_patch_chain () =
  let plan = compile_inet () in
  let pkt = Tftp.Ack { block = 9 } in
  let data = chain_bytes plan pkt in
  if not (Stack.run plan data) then Alcotest.fail "golden rejected";
  let udp_fmt = Stack.layer_fmt plan 2 in
  let u_off = Stack.layer_off plan 2 and u_len = Stack.layer_len plan 2 in
  let ip_fmt = Stack.layer_fmt plan 1 in
  let i_off = Stack.layer_off plan 1 and i_len = Stack.layer_len plan 1 in
  let apply what p off len buf v =
    match Emit.patch_window p ~off ~len buf v with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" what (Codec.error_to_string e)
  in
  let src = ok_exn "patcher src" (Emit.patcher udp_fmt "src_port") in
  let ip_src = ok_exn "patcher ip src" (Emit.patcher ip_fmt "source") in
  let ip_dst = ok_exn "patcher ip dst" (Emit.patcher ip_fmt "destination") in
  let a = Fm.Ipv4.addr_of_string "192.0.2.1"
  and b = Fm.Ipv4.addr_of_string "192.0.2.2" in
  let patched = Bytes.of_string data in
  apply "patch src_port" src u_off u_len patched 4242L;
  apply "patch ip source" ip_src i_off i_len patched b;
  apply "patch ip destination" ip_dst i_off i_len patched a;
  let patched = Bytes.to_string patched in
  if not (Stack.run plan patched) then Alcotest.fail "patched chain rejected";
  let values = Stacks.inet_tftp_values pkt in
  let swapped =
    Array.mapi
      (fun i v ->
        if i = 2 then Fm.Udp.make ~src_port:4242 ~dst_port:69 ~payload:"" ()
        else if i = 1 then
          Fm.Ipv4.make ~protocol:Fm.Ipv4.protocol_udp ~source:b ~destination:a
            ~payload:"" ()
        else v)
      values
  in
  Alcotest.(check string)
    "patch ≡ decode→mutate→re-encode"
    (ok_exn "re-encode" (Stack.encode plan swapped))
    patched

(* Verdict lock-step under unstructured hostility: random byte flips and
   truncations of golden chains.  (Structure-aware cross-layer mutants go
   through the lib/check chain oracle.) *)
let test_mutant_agreement () =
  let rng = Prng.of_int 20260808 in
  List.iter
    (fun (stack, golden) ->
      let plan = ok_exn "compile" (Stack.compile stack) in
      let seq = Stack.Seq.create plan in
      for _ = 1 to 400 do
        let b = Bytes.of_string golden in
        for _ = 0 to Prng.int rng 3 do
          let i = Prng.int rng (Bytes.length b) in
          Bytes.set b i (Char.chr (Prng.int rng 256))
        done;
        let s = Bytes.to_string b in
        let s =
          if Prng.int rng 4 = 0 then String.sub s 0 (Prng.int rng (String.length s))
          else s
        in
        ignore (agree plan seq ~what:"mutant" s)
      done)
    [
      ( Stacks.inet_tftp,
        chain_bytes (compile_inet ()) (Tftp.Data { block = 2; data = "0123456789" }) );
      ( Stacks.eth_arp,
        ok_exn "arp"
          (Stack.encode
             (ok_exn "compile" (Stack.compile Stacks.eth_arp))
             (Stacks.eth_arp_values ())) );
      ( Stacks.ipv4_icmp,
        ok_exn "icmp"
          (Stack.encode
             (ok_exn "compile" (Stack.compile Stacks.ipv4_icmp))
             (Stacks.ipv4_icmp_values ())) );
    ]

(* Unknown TFTP opcode: the flattened-case dispatcher must reject (no
   default arm) exactly as the exhaustive enum check does. *)
let test_unknown_tag () =
  let plan = compile_inet () in
  let seq = Stack.Seq.create plan in
  let data = chain_bytes plan (Tftp.Ack { block = 1 }) in
  if not (Stack.run plan data) then Alcotest.fail "golden rejected";
  let t_off = Stack.layer_off plan 3 in
  let bad = set_byte data (t_off + 1) 9 in
  ignore (agree plan seq ~what:"unknown opcode" bad);
  if Stack.run plan bad then Alcotest.fail "unknown opcode accepted"

(* A carrier whose checksum covers its payload: the whole chain must be
   encoded before the carrier's checksum can be, and both decoders must
   agree on it, its truncations and a flipped payload byte.  A reply may
   patch the carrier's own fields, whose checksum the patch repairs, but
   not a field inside its payload, which would leave that checksum
   stale. *)
let sealed =
  Desc.format "sealed"
    [
      Desc.field "kind" Desc.u8;
      Desc.field "tag" Desc.u8;
      Desc.field "len" (Desc.computed 16 Desc.Msg_len);
      Desc.field "chk"
        (Desc.checksum ~region:Desc.Region_message Netdsl_util.Checksum.Internet);
      Desc.field "payload" Desc.bytes_remaining;
    ]

let test_payload_checksum_carrier () =
  let stack =
    ok_exn "stack"
      (Stack.v ~name:"sealed_arq"
         [ Stack.layer ~select:("kind", [ 7L ]) sealed; Stack.layer Fm.Arq.format ])
  in
  let demand = [ "sealed.kind"; "sealed.len"; "arq_packet.seq"; "arq_packet.len" ] in
  let plan = ok_exn "compile" (Stack.compile ~demand stack) in
  let seq = Stack.Seq.create plan in
  let data =
    ok_exn "encode"
      (Stack.encode plan
         [| Value.record [ ("kind", Value.int 7); ("tag", Value.int 0) ];
            Value.record
              [ ("seq", Value.int 5); ("kind", Value.int 0);
                ("payload", Value.bytes "sealed payload") ] |])
  in
  (match Codec.decode sealed data with
  | Ok v ->
    Alcotest.(check (option int64)) "carrier length" (Some (Int64.of_int (String.length data)))
      (Value.find_int_flat v "len")
  | Error e -> Alcotest.failf "carrier does not decode: %s" (Codec.error_to_string e));
  let lock_step what s =
    if agree plan seq ~what s then
      List.iter
        (fun q ->
          let i, field = ok_exn "locate" (Stack.locate plan q) in
          Alcotest.(check int64)
            (Printf.sprintf "%s: %s" what q)
            (Option.get (Value.find_int_flat (Stack.Seq.value seq i) field))
            (Int64.of_int (Stack.reg_get plan (ok_exn "reg" (Stack.reg plan q)))))
        demand
    else Alcotest.failf "%s rejected" what
  in
  lock_step "golden" data;
  for k = 0 to String.length data - 1 do
    expect_reject plan seq ~what:(Printf.sprintf "truncated to %d" k)
      ~layer:"sealed" (String.sub data 0 k)
  done;
  let last = String.length data - 1 in
  expect_reject plan seq ~what:"flipped payload byte" ~layer:"sealed"
    (set_byte data last (Char.code data.[last] lxor 0x01));
  let pipe =
    Netdsl_engine.Pipeline.create ~stack
      ~flight:(Netdsl_engine.Flight.spec ~flow_key:"arq_packet.seq" ())
      sealed
  in
  (match Netdsl_engine.Pipeline.process pipe data with
  | Netdsl_engine.Pipeline.Accepted -> ()
  | _ -> Alcotest.fail "pipeline over the sealed stack rejected its golden packet");
  (match Stack.patcher stack 1 "kind" with
  | Ok _ -> Alcotest.fail "patch under the carrier's payload checksum accepted"
  | Error _ -> ());
  let module P = Netdsl_engine.Pipeline in
  let module Fl = Netdsl_engine.Flight in
  (* the pipeline, and the reference executor by its own reading of the
     carrier's checksum regions *)
  let respond field v executor =
    let replies = ref [] in
    let flight =
      Fl.spec
        ~respond:
          [ { Fl.re_when = All []; re_set = [ { Fl.set_field = field; set_to = Fl.Const v } ] } ]
        ()
    in
    let on_response r = replies := r :: !replies in
    let outcome =
      if executor = "fused" then P.process (P.create ~stack ~flight ~on_response sealed) data
      else
        Netdsl_check.Reference.process
          (Netdsl_check.Reference.create ~stack ~flight ~on_response sealed)
          data
    in
    (outcome, !replies)
  in
  List.iter
    (fun name ->
      (match respond "sealed.tag" 9L name with
      | P.Accepted, [ reply ] -> (
        match Codec.decode sealed reply with
        | Ok v ->
          Alcotest.(check (option int64)) (name ^ ": patched tag") (Some 9L)
            (Value.find_int_flat v "tag");
          if not (agree plan seq ~what:(name ^ ": carrier reply") reply) then
            Alcotest.failf "%s: carrier reply rejected" name
        | Error e ->
          Alcotest.failf "%s: carrier reply does not decode: %s" name
            (Codec.error_to_string e))
      | _ -> Alcotest.failf "%s: carrier patch gave no single reply" name);
      match respond "arq_packet.kind" 1L name with
      | P.Rejected_encode, [] -> ()
      | _ -> Alcotest.failf "%s: patch under the payload checksum not refused" name)
    [ "fused"; "reference" ]

(* Encode round trip per shipped stack, over random payload sizes: both
   decoders accept the chain with the same windows, the terminal window
   is the codec's encoding of the terminal value, and every layer's
   decoded value re-encodes to exactly its window — so each carrier's
   lengths and checksums were derived over the finished inner bytes. *)
let encode_cases =
  [
    ( "inet_tftp",
      fun rng ->
        let data = String.make (Prng.int rng 513) 'd' in
        Stacks.inet_tftp_values ~src_port:(1024 + Prng.int rng 60000)
          (Tftp.Data { block = Prng.int rng 0x10000; data }) );
    ("eth_arp", fun _ -> Stacks.eth_arp_values ());
    ( "ipv4_icmp",
      fun rng -> Stacks.ipv4_icmp_values ~data:(String.make (Prng.int rng 600) 'i') () );
  ]

let encode_case (name, gen) =
  Alcotest.test_case name `Quick (fun () ->
      let stack = Option.get (Stacks.find name) in
      let plan = ok_exn "compile" (Stack.compile stack) in
      let seq = Stack.Seq.create plan in
      let rng = Prng.of_int 20261020 in
      let n = Stack.layer_count plan in
      for _ = 1 to 50 do
        let values = gen rng in
        let data = ok_exn "encode" (Stack.encode plan values) in
        if not (agree plan seq ~what:name data) then
          Alcotest.failf "%s: encoded chain rejected" name;
        let window i = String.sub data (Stack.layer_off plan i) (Stack.layer_len plan i) in
        Alcotest.(check string)
          (name ^ ": terminal window")
          (Codec.encode_exn (Stack.layer_fmt plan (n - 1)) values.(n - 1))
          (window (n - 1));
        for i = 0 to n - 1 do
          Alcotest.(check string)
            (Printf.sprintf "%s: layer %d re-encodes to its window" name i)
            (window i)
            (Codec.encode_exn (Stack.layer_fmt plan i) (Stack.Seq.value seq i))
        done
      done)

(* Encode refusals name what failed: the value count, a carrier whose
   demux field selects no next layer, and a bad field in an inner or an
   outer layer. *)
let test_encode_rejects () =
  let plan = compile_inet () in
  let values = Stacks.inet_tftp_values (Tftp.Ack { block = 1 }) in
  let expect what prefix vs =
    match Stack.encode plan vs with
    | Ok _ -> Alcotest.failf "%s: encoded" what
    | Error e ->
      if not (String.starts_with ~prefix e) then
        Alcotest.failf "%s: error %S does not start with %S" what e prefix
  in
  let with_field i name v =
    Array.mapi
      (fun j x ->
        match x with
        | Value.Record fs when i = j ->
          Value.Record (List.map (fun (n, fv) -> (n, if String.equal n name then v else fv)) fs)
        | x -> x)
      values
  in
  expect "missing layer" "stack inet_tftp: expected 4 layer values" (Array.sub values 0 3);
  expect "demux lie" "layer ethernet: ethertype = 2054 does not select"
    (with_field 0 "ethertype" (Value.int 0x0806));
  expect "bad inner layer" "layer tftp:" (with_field 3 "opcode" (Value.int 99));
  expect "bad carrier field" "layer ipv4:" (with_field 1 "ttl" (Value.int 300))

let test_compile_rejects () =
  (* Demanding a field of an unknown layer, an unextractable field, and a
     stack whose carrier is not linear must all fail with a reason. *)
  (match Stack.compile ~demand:[ "nosuch.field" ] Stacks.inet_tftp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown layer accepted");
  (match Stack.compile ~demand:[ "tftp" ] Stacks.inet_tftp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unqualified demand accepted");
  (match
     Stack.v ~name:"bad"
       [ Stack.layer Fm.Ethernet.format; Stack.layer Fm.Arp.format ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "carrier without select accepted");
  match
    Stack.v ~name:"bad2"
      [
        Stack.layer ~select:("opcode", [ 1L ]) ~via:"body" Fm.Tftp.format;
        Stack.layer Fm.Arp.format;
      ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "variant via-field accepted"

(* Compiling the parse graph pays: the fused 4-layer decode must run at
   least 1.5x as fast as the sequential per-layer reference and allocate
   nothing, over 20 000 TFTP DATA and ACK datagrams. *)
let test_fused_decode_pays () =
  let plan = ok_exn "compile inet_tftp" (Stack.compile Stacks.inet_tftp) in
  let pool =
    Array.of_list
      (List.map
         (fun m -> ok_exn "encode" (Stack.encode plan (Stacks.inet_tftp_values m)))
         [ Tftp.Data { block = 7; data = String.make 32 'd' }; Tftp.Ack { block = 7 } ])
  in
  let seq = Stack.Seq.create plan in
  Array.iter
    (fun pkt ->
      Alcotest.(check bool) "fused accepts its seed" true (Stack.run plan pkt);
      Alcotest.(check bool) "sequential accepts its seed" true
        (Result.is_ok (Stack.Seq.decode seq pkt)))
    pool;
  let n = 20_000 in
  let timed f =
    for i = 0 to (n / 10) - 1 do
      f pool.(i land 1)
    done;
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      f pool.(i land 1)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt, (Gc.allocated_bytes () -. a0) /. float_of_int n)
  in
  let fused_s, fused_alloc = timed (fun pkt -> ignore (Stack.run plan pkt)) in
  let seq_s, _ = timed (fun pkt -> ignore (Stack.Seq.decode seq pkt)) in
  Alcotest.(check bool)
    (Printf.sprintf "fused %.2fx the sequential decode (bar 1.5x)" (seq_s /. fused_s))
    true
    (seq_s /. fused_s >= 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "fused decode allocates nothing (%.2f B/pkt)" fused_alloc)
    true (fused_alloc <= 0.5)

let suite =
  [
    ( "stack",
      [
        Alcotest.test_case "golden chains round-trip, registers read" `Quick
          test_golden_roundtrip;
        Alcotest.test_case "2-layer and default-arm chains" `Quick test_other_chains;
        Alcotest.test_case "red paths: demux lie, truncation, length lie" `Quick
          test_red_paths;
        Alcotest.test_case "chain patches == decode-mutate-re-encode" `Quick
          test_patch_chain;
        Alcotest.test_case "fused/sequential verdict lock-step on mutants" `Quick
          test_mutant_agreement;
        Alcotest.test_case "unknown variant tag rejected in lock-step" `Quick
          test_unknown_tag;
        Alcotest.test_case "carrier checksum over its payload" `Quick
          test_payload_checksum_carrier;
        Alcotest.test_case "compile/validation red paths" `Quick test_compile_rejects;
        Alcotest.test_case "encode refusals name the layer" `Quick test_encode_rejects;
        Alcotest.test_case "fused 4-layer decode: 1.5x sequential, 0 B/pkt" `Quick
          test_fused_decode_pays;
      ] );
    ("stack.encode", List.map encode_case encode_cases);
  ]
