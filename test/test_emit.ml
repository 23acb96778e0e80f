(* The encode side of the serve path: [Emit.patch] and its compiled
   kernel must produce exactly what a decode → mutate → [Codec.encode]
   round trip would, incremental checksum included — the licence for the
   engine's respond path to never build a message from a value.  The
   wire-to-wire cases pin the reference itself: [Codec.encode] of a
   decoded packet reproduces it. *)

open Netdsl_format
module Fm = Netdsl_formats
module Prng = Netdsl_util.Prng
module Ck = Netdsl_util.Checksum

let trials = 200

module Check = Netdsl_check

let all_formats = Check.Corpus.shipped

let sample rng fmt =
  match Check.Corpus.value_generator fmt with
  | Some g -> g rng
  | None -> Alcotest.failf "no value generator for %s" fmt.Desc.format_name

let gen_ipv4_value rng =
  match Check.Corpus.value_generator Fm.Ipv4.format with
  | Some g -> g rng
  | None -> Alcotest.fail "no ipv4 generator"

let hex = Netdsl_util.Hexdump.to_hex

(* Adversarial input: corpus seeds mutated by the structure-aware fuzzer,
   through the differential oracle — every compiled fast path must agree
   with the codec's verdict (and, on acceptance, its field values). *)
let mutant_case (name, fmt) =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Prng.of_int 46 in
      let oracle = Check.Oracle.create fmt in
      let corpus = Check.Corpus.make fmt rng in
      let plan = Check.Mutate.plan fmt in
      for _ = 1 to trials do
        let seed_pkt = Check.Corpus.pick corpus rng in
        let mutant =
          Check.Mutate.apply (Check.Mutate.random plan rng seed_pkt) seed_pkt
        in
        match Check.Oracle.check oracle mutant with
        | Ok () -> ()
        | Error d ->
          Alcotest.failf "%s: %s" name (Check.Oracle.disagreement_to_string d)
      done)

(* ------------------------------------------------------------------ *)
(* Wire to wire *)

(* Re-encoding a decoded message reproduces it byte for byte: the
   codec's value of a packet, derived fields included, is something the
   codec accepts and turns back into the same packet. *)
let wire_roundtrip_case (name, fmt) =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Prng.of_int 4242 in
      for _ = 1 to 50 do
        match Codec.encode fmt (sample rng fmt) with
        | Error _ -> ()
        | Ok pkt -> (
          match Codec.decode fmt pkt with
          | Error e ->
            Alcotest.failf "%s: decode failed: %s" name (Codec.error_to_string e)
          | Ok v -> (
            match Codec.encode fmt v with
            | Ok pkt' ->
              if not (String.equal pkt pkt') then
                Alcotest.failf "%s: wire round trip differs\nin:  %s\nout: %s"
                  name (hex pkt) (hex pkt')
            | Error e ->
              Alcotest.failf "%s: re-encoding the decoded value failed: %s" name
                (Codec.error_to_string e)))
      done)

(* [Value.strip_derived] drops computed / checksum / const entries so the
   mutated value can be re-encoded by the codec as the oracle. *)
let strip_derived = Value.strip_derived

let set_field name v value =
  match value with
  | Value.Record fields ->
    Value.Record
      (List.map (fun (n, old) -> (n, if String.equal n name then v else old)) fields)
  | other -> other

(* A decoded value with one field replaced — its stale checksum still in
   it — re-encodes as the reference does: decode, strip derived fields,
   substitute, full re-encode.  A supplied checksum is recomputed, never
   trusted. *)
let wire_override () =
  let rng = Prng.of_int 99 in
  for _ = 1 to 100 do
    let pkt = Gen.generate_bytes rng Fm.Arq.format in
    let decoded = Codec.decode_exn Fm.Arq.format pkt in
    let seq = Value.Int (Int64.of_int (Prng.int rng 256)) in
    let expected =
      Codec.encode_exn Fm.Arq.format
        (set_field "seq" seq (strip_derived Fm.Arq.format decoded))
    in
    match Codec.encode Fm.Arq.format (set_field "seq" seq decoded) with
    | Ok got -> Alcotest.(check string) "override bytes" expected got
    | Error e -> Alcotest.failf "re-encode with seq replaced: %s" (Codec.error_to_string e)
  done

(* ------------------------------------------------------------------ *)
(* In-place patching *)

let get_patcher fmt name =
  match Emit.patcher fmt name with
  | Ok p -> p
  | Error e -> Alcotest.failf "patcher %s: %s" name e

(* The oracle: patched bytes = decode → strip derived → substitute →
   re-encode, and the result must still decode cleanly. *)
let check_patch fmt patcher field pkt v =
  let buf = Bytes.of_string pkt in
  (match Emit.patch patcher buf v with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "patch %s=%Ld: %s" field v (Codec.error_to_string e));
  let got = Bytes.to_string buf in
  let expected =
    Codec.encode_exn fmt
      (set_field field (Value.Int v)
         (strip_derived fmt (Codec.decode_exn fmt pkt)))
  in
  if not (String.equal expected got) then
    Alcotest.failf "patch %s=%Ld differs from re-encode\nwant: %s\ngot:  %s"
      field v (hex expected) (hex got);
  match Codec.decode fmt got with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "patched %s=%Ld does not re-decode: %s" field v
      (Codec.error_to_string e)

let patch_arq () =
  let rng = Prng.of_int 7131 in
  let p_seq = get_patcher Fm.Arq.format "seq" in
  let p_kind = get_patcher Fm.Arq.format "kind" in
  for _ = 1 to 100 do
    let pkt = Gen.generate_bytes rng Fm.Arq.format in
    check_patch Fm.Arq.format p_seq "seq" pkt (Int64.of_int (Prng.int rng 256));
    check_patch Fm.Arq.format p_kind "kind" pkt (Int64.of_int (Prng.int rng 2))
  done;
  (* the ones'-complement corner: patching towards an all-zero message must
     fall back to the canonical 0xffff checksum *)
  let zero =
    Codec.encode_exn Fm.Arq.format
      Value.(record [ ("seq", int 0); ("kind", int 0); ("payload", bytes "") ])
  in
  let one =
    Codec.encode_exn Fm.Arq.format
      Value.(record [ ("seq", int 1); ("kind", int 0); ("payload", bytes "") ])
  in
  check_patch Fm.Arq.format p_seq "seq" zero 0L;
  check_patch Fm.Arq.format p_seq "seq" one 0L;
  check_patch Fm.Arq.format p_seq "seq" zero 1L

let patch_ipv4 () =
  let rng = Prng.of_int 555 in
  let fields =
    [ ("tos", fun rng -> Int64.of_int (Prng.int rng 256));
      ("identification", fun rng -> Int64.of_int (Prng.int rng 0x10000));
      ("ttl", fun rng -> Int64.of_int (1 + Prng.int rng 255));
      ("protocol", fun rng -> Int64.of_int (Prng.int rng 256));
      ("source", fun rng -> Int64.of_int (Prng.int rng 0x40000000)) ]
  in
  let patchers = List.map (fun (n, _) -> (n, get_patcher Fm.Ipv4.format n)) fields in
  for _ = 1 to 60 do
    let pkt = Codec.encode_exn Fm.Ipv4.format (gen_ipv4_value rng) in
    List.iter
      (fun (name, gen) ->
        check_patch Fm.Ipv4.format (List.assoc name patchers) name pkt (gen rng))
      fields
  done

(* Patching inside a window of a larger buffer. *)
let patch_windowed () =
  let rng = Prng.of_int 12 in
  let p_seq = get_patcher Fm.Arq.format "seq" in
  let pkt = Gen.generate_bytes rng Fm.Arq.format in
  let buf = Bytes.of_string ("HDR" ^ pkt ^ "TRAILER") in
  (match Emit.patch p_seq ~off:3 ~len:(String.length pkt) buf 77L with
  | Ok () -> ()
  | Error e -> Alcotest.failf "windowed patch: %s" (Codec.error_to_string e));
  let got = Bytes.sub_string buf 3 (String.length pkt) in
  let expected =
    Codec.encode_exn Fm.Arq.format
      (set_field "seq" (Value.Int 77L)
         (strip_derived Fm.Arq.format (Codec.decode_exn Fm.Arq.format pkt)))
  in
  Alcotest.(check string) "windowed patch bytes" expected got;
  Alcotest.(check string) "prefix intact" "HDR" (Bytes.sub_string buf 0 3);
  Alcotest.(check string) "suffix intact" "TRAILER"
    (Bytes.sub_string buf (3 + String.length pkt) 7)

(* Validation: a patch must reject exactly what the full encoder would. *)
let patch_validation () =
  let p_kind = get_patcher Fm.Arq.format "kind" in
  let pkt = Fm.Arq.to_bytes (Fm.Arq.Data { seq = 1; payload = "x" }) in
  (match Emit.patch p_kind (Bytes.of_string pkt) 7L with
  | Error (Codec.Enum_unknown _) -> ()
  | Error e -> Alcotest.failf "expected Enum_unknown, got %s" (Codec.error_to_string e)
  | Ok () -> Alcotest.fail "out-of-enum kind accepted");
  let p_seq = get_patcher Fm.Arq.format "seq" in
  (match Emit.patch p_seq (Bytes.of_string pkt) 256L with
  | Error (Codec.Value_out_of_range _) -> ()
  | Error e ->
    Alcotest.failf "expected Value_out_of_range, got %s" (Codec.error_to_string e)
  | Ok () -> Alcotest.fail "overwide seq accepted");
  match Emit.patch p_seq (Bytes.of_string "\x00") 1L with
  | Error (Codec.Io { error = Netdsl_util.Bitio.Truncated _; _ }) -> ()
  | Error e -> Alcotest.failf "expected Truncated, got %s" (Codec.error_to_string e)
  | Ok () -> Alcotest.fail "truncated message accepted"

(* Fields that cannot be patched must be rejected at compile time, with a
   reason. *)
let patcher_rejections () =
  let expect_error fmt name =
    match Emit.patcher fmt name with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "patcher %S unexpectedly compiled" name
  in
  expect_error Fm.Arq.format "len" (* computed *);
  expect_error Fm.Arq.format "chk" (* checksum *);
  expect_error Fm.Arq.format "payload" (* not a scalar *);
  expect_error Fm.Arq.format "nope" (* unknown *);
  expect_error Fm.Ipv4.format "flags" (* not byte-aligned *);
  expect_error Fm.Ipv4.format "version" (* constant *);
  expect_error Fm.Tftp.format "opcode" (* variant tag: others derive from it *)

(* Padding under an Internet checksum: a patch clears the received
   padding bits, and repairs the checksum over them, in [Emit.patch] and
   in the compiled kernel alike. *)
let patch_padding_under_checksum () =
  let fmt =
    Desc.format "padded"
      [ Desc.field "a" Desc.u8;
        Desc.field "pad" (Desc.padding 5);
        Desc.field "b" (Desc.uint 3);
        Desc.field "chk" (Desc.checksum ~region:Desc.Region_message Ck.Internet);
        Desc.field "c" Desc.u16 ]
  in
  let p = get_patcher fmt "c" in
  let rng = Prng.of_int 31 in
  for _ = 1 to 200 do
    let b =
      Bytes.of_string
        (Codec.encode_exn fmt
           (Value.record
              [ ("a", Value.int (Prng.int rng 2)); ("b", Value.int (Prng.int rng 8));
                ("c", Value.int (Prng.int rng 2)) ]))
    in
    (* a sender that ignores the reservation: padding set, checksum right *)
    Bytes.set_uint8 b 1 (Bytes.get_uint8 b 1 lor (Prng.int rng 32 lsl 3));
    Bytes.set_uint16_be b 2 0;
    Bytes.set_uint16_be b 2 (Ck.internet_checksum (Bytes.to_string b));
    let pkt = Bytes.to_string b and v = Prng.int rng 2 in
    check_patch fmt p "c" pkt (Int64.of_int v);
    let via_patch = Bytes.of_string pkt and via_kernel = Bytes.of_string pkt in
    Emit.patch_exn p via_patch (Int64.of_int v);
    Alcotest.(check bool)
      "kernel accepts" true
      (Emit.kernel p via_kernel 0 (String.length pkt) v);
    Alcotest.(check string) "kernel = patch" (hex (Bytes.to_string via_patch))
      (hex (Bytes.to_string via_kernel))
  done

(* Valid wire inputs the generator never produces: it encodes padding
   as zero, but a received DNS header may carry its three reserved z
   bits set (a TCP header its six reserved bits, across two bytes), and
   a patch must clear them as the re-encode does. *)
let padded_inputs = function
  | "dns" -> [ Netdsl_util.Hexdump.of_hex "1234f6f50001000000000000" ]
  | "tcp" -> [ Netdsl_util.Hexdump.of_hex "04d2005000000001000000005fc2ffff00000000" ]
  | _ -> []

(* The patch against its reference on every shipped format: for every
   patchable field of generated messages and random values, [Emit.patch]
   and decode → strip derived → substitute → [Codec.encode] must agree on
   the verdict, and on acceptance byte for byte. *)
let patch_reference_case (name, fmt) =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Prng.of_int 20261020 in
      let patchers =
        List.filter_map
          (fun (f : Desc.field) ->
            match Emit.patcher fmt f.name with Ok p -> Some p | Error _ -> None)
          fmt.Desc.fields
      in
      let check pkt =
        let stripped = strip_derived fmt (Codec.decode_exn fmt pkt) in
        List.iter
          (fun p ->
            let field = Emit.patcher_field p in
            let v =
              Int64.of_int
                (match Prng.int rng 3 with
                | 0 -> Prng.int rng 256
                | 1 -> Prng.int rng 70_000
                | _ -> Prng.int rng 0x1_0000_0000)
            in
            let buf = Bytes.of_string pkt in
            match
              (Emit.patch p buf v, Codec.encode fmt (set_field field (Value.Int v) stripped))
            with
            | Ok (), Ok want ->
              if not (String.equal want (Bytes.to_string buf)) then
                Alcotest.failf "%s.%s := %Ld\nwant: %s\ngot:  %s" name field v
                  (hex want) (hex (Bytes.to_string buf))
            | Error _, Error _ -> ()
            | Ok (), Error e ->
              Alcotest.failf "%s.%s := %Ld: patch accepts, codec rejects: %s" name
                field v (Codec.error_to_string e)
            | Error e, Ok _ ->
              Alcotest.failf "%s.%s := %Ld: codec accepts, patch rejects: %s" name
                field v (Codec.error_to_string e))
          patchers
      in
      for _ = 1 to 50 do
        match Codec.encode fmt (sample rng fmt) with
        | Error _ -> ()
        | Ok pkt -> check pkt
      done;
      List.iter check (padded_inputs name))

(* RFC 1624 incremental update against full recomputation. *)
let internet_delta_matches () =
  let rng = Prng.of_int 90125 in
  for _ = 1 to 500 do
    let len = 2 * (1 + Prng.int rng 32) in
    let b = Bytes.init len (fun _ -> Char.chr (Prng.int rng 256)) in
    let before = Ck.internet_checksum (Bytes.to_string b) in
    let i = Prng.int rng len in
    let old_byte = Char.code (Bytes.get b i) in
    let new_byte = Prng.int rng 256 in
    Bytes.set b i (Char.chr new_byte);
    let after = Ck.internet_checksum (Bytes.to_string b) in
    let w = if i land 1 = 0 then 8 else 0 in
    let delta =
      Ck.internet_delta ~checksum:before ~removed:(old_byte lsl w)
        ~added:(new_byte lsl w)
    in
    (* modulo the ±0 ambiguity, which full recomputation also canonicalises *)
    let canon c = if c = 0 then 0xFFFF else c in
    if canon delta <> canon after then
      Alcotest.failf "delta %04x <> recomputed %04x (byte %d: %02x -> %02x)"
        delta after i old_byte new_byte
  done

(* The compiled patch kernel against the generic patch it is compiled
   from: for every patchable field of every shipped format, on generated
   messages and at an offset inside a larger buffer, random values —
   in range, out of range, negative, off the enum — must give the same
   verdict and the same bytes, checksum included. *)
let kernel_case (name, fmt) =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Prng.of_int 20261019 in
      let fields =
        List.filter_map
          (fun (f : Desc.field) ->
            match Emit.patcher fmt f.name with Ok p -> Some p | Error _ -> None)
          fmt.Desc.fields
      in
      List.iter
        (fun p ->
          let k = Emit.kernel p in
          for _ = 1 to trials do
            let pkt =
              match Codec.encode fmt (sample rng fmt) with
              | Ok s -> s
              | Error _ -> ""
            in
            if pkt <> "" then begin
              let off = Prng.int rng 4 in
              let buf () =
                let b = Bytes.make (String.length pkt + off + 3) '\xaa' in
                Bytes.blit_string pkt 0 b off (String.length pkt);
                b
              in
              let v =
                match Prng.int rng 4 with
                | 0 -> Prng.int rng 256
                | 1 -> Prng.int rng 0x1_0000_0000
                | 2 -> -1 - Prng.int rng 10
                | _ -> Prng.int rng 70_000
              in
              let a = buf () and b = buf () in
              let len = String.length pkt in
              let generic = Result.is_ok (Emit.patch_window p ~off ~len a (Int64.of_int v)) in
              let kernel = k b off len v in
              if generic <> kernel || (kernel && not (Bytes.equal a b)) then
                Alcotest.failf "%s.%s := %d: generic %b, kernel %b\n  generic: %s\n  kernel:  %s"
                  name (Emit.patcher_field p) v generic kernel
                  (hex (Bytes.to_string a)) (hex (Bytes.to_string b))
            end
          done)
        fields)

let suite =
  [ ("oracle.mutants", List.map mutant_case all_formats);
    ( "emit.wire",
      List.map wire_roundtrip_case all_formats
      @ [ Alcotest.test_case "override" `Quick wire_override ] );
    ( "emit.patch",
      [ Alcotest.test_case "arq fields" `Quick patch_arq;
        Alcotest.test_case "ipv4 fields" `Quick patch_ipv4;
        Alcotest.test_case "windowed" `Quick patch_windowed;
        Alcotest.test_case "validation" `Quick patch_validation;
        Alcotest.test_case "rejections" `Quick patcher_rejections;
        Alcotest.test_case "padding under a checksum" `Quick patch_padding_under_checksum;
        Alcotest.test_case "internet delta" `Quick internet_delta_matches ] );
    ("emit.patch_reference", List.map patch_reference_case all_formats);
    ("emit.kernel", List.map kernel_case all_formats) ]
