(* Parse-graph correctness: the fused chained decoder must agree with the
   sequential per-layer reference on verdict, layer windows and register
   values for every input — golden chains, hostile mutants, cross-layer
   lies — and the fused encoder's back-patched bytes must be identical to
   the naive innermost-first re-encode.  The heavier structure-aware
   oracle leg lives in [Netdsl_check]; these are the direct properties. *)

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

let test_fused_encode_equals_seq () =
  let plan = compile_inet () in
  List.iter
    (fun pkt ->
      let values = Stacks.inet_tftp_values pkt in
      let fused = ok_exn "fused encode" (Stack.encode plan values) in
      let naive = ok_exn "seq encode" (Stack.encode_seq plan values) in
      Alcotest.(check string) "fused == naive bytes" naive fused)
    tftp_samples;
  let arp = ok_exn "compile eth_arp" (Stack.compile Stacks.eth_arp) in
  let av = Stacks.eth_arp_values () in
  Alcotest.(check string)
    "eth_arp fused == naive"
    (ok_exn "seq" (Stack.encode_seq arp av))
    (ok_exn "fused" (Stack.encode arp av));
  let icmp = ok_exn "compile ipv4_icmp" (Stack.compile Stacks.ipv4_icmp) in
  let iv = Stacks.ipv4_icmp_values () in
  Alcotest.(check string)
    "ipv4_icmp fused == naive"
    (ok_exn "seq" (Stack.encode_seq icmp iv))
    (ok_exn "fused" (Stack.encode icmp iv))

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
  let ip_fmt = Stack.layer_fmt plan 1 in
  let ip_off = Stack.layer_off plan 1 and ip_len = Stack.layer_len plan 1 in
  (* ethertype 0x0800 -> 0x0806: valid enum value, wrong edge *)
  let demux_lie = set_byte (set_byte data 12 0x08) 13 0x06 in
  expect_reject plan seq ~what:"demux lie" ~layer:"ethernet" demux_lie;
  (* chop into the inner tftp header *)
  let truncated = String.sub data 0 (String.length data - 9) in
  expect_reject plan seq ~what:"truncated inner" ~layer:"ipv4" truncated;
  (* shrink ipv4.total_length below the udp header it must cover; repair
     the header checksum so only the cross-layer inconsistency remains *)
  let tl = ok_exn "patcher" (Emit.patcher ~computed:true ip_fmt "total_length") in
  let lying = Bytes.of_string data in
  (match Emit.patch_window tl ~off:ip_off ~len:ip_len lying 24L with
  | Ok () -> ()
  | Error e -> Alcotest.failf "length-lie patch: %s" (Codec.error_to_string e));
  expect_reject plan seq ~what:"outer length lie" ~layer:"ipv4"
    (Bytes.to_string lying)

(* Satellite: Emit back-patch ordering on nested derived fields.  Growing
   or rewriting the inner UDP payload and re-emitting through the fused
   encoder must equal the naive decode→mutate→re-encode route, byte for
   byte — outer total_length and header_checksum included. *)
let test_backpatch_ordering () =
  let plan = compile_inet () in
  let rng = Prng.of_int 20260808 in
  for _ = 1 to 100 do
    let n = Prng.int rng 64 in
    let data = String.init n (fun _ -> Char.chr (Prng.int rng 256)) in
    let pkt = Tftp.Data { block = 1 + Prng.int rng 1000; data } in
    let values = Stacks.inet_tftp_values pkt in
    let fused = ok_exn "fused" (Stack.encode plan values) in
    let naive = ok_exn "naive" (Stack.encode_seq plan values) in
    Alcotest.(check string) "grown inner payload" naive fused
  done;
  (* In-place patch route: rewrite udp.src_port and swap the ipv4
     addresses on the wire with Emit.patcher against the recorded layer
     windows (the address patches exercise the RFC 1624 header-checksum
     repair), then compare against a full re-encode with the same
     changes.  dst_port stays 69 so the chain still matches its demux
     edge. *)
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
    (ok_exn "re-encode" (Stack.encode_seq plan swapped))
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

let suite =
  [
    ( "stack",
      [
        Alcotest.test_case "golden chains round-trip, registers read" `Quick
          test_golden_roundtrip;
        Alcotest.test_case "fused encode == sequential encode" `Quick
          test_fused_encode_equals_seq;
        Alcotest.test_case "2-layer and default-arm chains" `Quick test_other_chains;
        Alcotest.test_case "red paths: demux lie, truncation, length lie" `Quick
          test_red_paths;
        Alcotest.test_case "back-patch ordering == decode-mutate-re-encode" `Quick
          test_backpatch_ordering;
        Alcotest.test_case "fused/sequential verdict lock-step on mutants" `Quick
          test_mutant_agreement;
        Alcotest.test_case "unknown variant tag rejected in lock-step" `Quick
          test_unknown_tag;
        Alcotest.test_case "compile/validation red paths" `Quick test_compile_rejects;
      ] );
  ]
