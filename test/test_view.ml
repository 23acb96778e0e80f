(* Equivalence of the zero-copy [View] decoder and the allocating [Codec]:
   for every shipped format and any input — valid, structure-aware mutant,
   bit-flipped, truncated, or garbage — both decoders must agree on the
   accept/reject verdict, and on acceptance the view must materialise
   exactly the codec's value.  This is the safety argument for using the
   zero-copy path in the engine: it surfaces no field the full validator
   would have rejected.

   The adversarial inputs come from [Netdsl_check]: corpus seeds mutated
   by the structure-aware fuzzer, judged by the differential oracle
   (which also cross-checks Emit and the Pipeline on the same bytes).
   The ad-hoc IPv4/TCP generators that used to live here are now
   [Netdsl_check.Corpus.value_generator]. *)

open Netdsl_format
module Fm = Netdsl_formats
module Prng = Netdsl_util.Prng
module Ck = Netdsl_check

let trials = 200

let all_formats = Ck.Corpus.shipped

let expect_agreement name oracle ~what pkt =
  match Ck.Oracle.check oracle pkt with
  | Ok () -> ()
  | Error d ->
    Alcotest.failf "%s (%s): %s" name what (Ck.Oracle.disagreement_to_string d)

(* Valid packets, structure-aware mutants and random truncations, all
   through the differential oracle. *)
let equivalence_case (name, fmt) =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Prng.of_int 20260806 in
      let oracle = Ck.Oracle.create fmt in
      let corpus = Ck.Corpus.make fmt rng in
      let plan = Ck.Mutate.plan fmt in
      Array.iter
        (fun s -> expect_agreement name oracle ~what:"corpus seed" s)
        (Ck.Corpus.seeds corpus);
      for _ = 1 to trials do
        let seed_pkt = Ck.Corpus.pick corpus rng in
        let mutant =
          Ck.Mutate.apply (Ck.Mutate.random plan rng seed_pkt) seed_pkt
        in
        expect_agreement name oracle ~what:"mutant" mutant;
        expect_agreement name oracle ~what:"bit flips"
          (Gen.mutate rng ~flips:(1 + Prng.int rng 8) seed_pkt);
        if String.length seed_pkt > 0 then
          expect_agreement name oracle ~what:"truncated"
            (Gen.truncate_random rng seed_pkt)
      done)

(* The view must also reject garbage the way the codec does, not crash. *)
let random_garbage () =
  let rng = Prng.of_int 4096 in
  List.iter
    (fun (name, fmt) ->
      let oracle = Ck.Oracle.create fmt in
      for _ = 1 to 100 do
        let len = Prng.int rng 64 in
        let s = String.init len (fun _ -> Char.chr (Prng.int rng 256)) in
        expect_agreement name oracle ~what:"garbage" s
      done)
    all_formats

(* Reuse: a view that just rejected must decode the next packet cleanly. *)
let reuse_after_reject () =
  let rng = Prng.of_int 7 in
  let view = View.create Fm.Arq.format in
  let good = Gen.generate_bytes rng Fm.Arq.format in
  (match View.decode view good with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid arq rejected: %s" (Codec.error_to_string e));
  let before = View.to_value view in
  (match View.decode view (Gen.mutate rng ~flips:4 good) with
  | Ok () -> () (* a flip can land in the payload and keep the packet valid *)
  | Error _ -> ());
  (match View.decode view good with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "valid arq rejected after reuse: %s" (Codec.error_to_string e));
  Alcotest.(check bool)
    "same value after pool reuse" true
    (Value.equal before (View.to_value view))

(* Windowed decode: the view validates a sub-range of a larger buffer
   in place, checksums included. *)
let windowed_decode () =
  let rng = Prng.of_int 11 in
  let pkt = Gen.generate_bytes rng Fm.Arq.format in
  let buf = "HDR" ^ pkt ^ "TRAILER" in
  let view = View.create Fm.Arq.format in
  (match View.decode view ~off:3 ~len:(String.length pkt) buf with
  | Ok () -> ()
  | Error e -> Alcotest.failf "windowed decode failed: %s" (Codec.error_to_string e));
  let direct = Codec.decode_exn Fm.Arq.format pkt in
  Alcotest.(check bool)
    "windowed value matches" true
    (Value.equal direct (View.to_value view))

let accessors () =
  let pkt =
    match Fm.Arq.to_bytes (Fm.Arq.Data { seq = 42; payload = "hello" }) with
    | s -> s
  in
  let view = View.create Fm.Arq.format in
  (match View.decode view pkt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e));
  Alcotest.(check int64) "seq" 42L (View.get_int view "seq");
  Alcotest.(check string) "payload" "hello" (View.get_bytes view "payload");
  Alcotest.(check bool) "missing find_int" true (View.find_int view "nope" = None)

let key_extraction () =
  let pkt =
    match Fm.Arq.to_bytes (Fm.Arq.Data { seq = 99; payload = "x" }) with
    | s -> s
  in
  match View.key_extractor Fm.Arq.format "seq" with
  | Error e -> Alcotest.failf "key_extractor: %s" e
  | Ok kx ->
    Alcotest.(check bool) "key value" true (View.extract_key kx pkt = Some 99)

(* Counted arrays of fixed-size records compile to the hot plan: the
   shipped sensor report, and elements carrying enum, range and sub-byte
   checks — followed by a fixed-count array and a field, or ending the
   message, where only the count bound catches a cut element.  Each is
   fuzzed through every oracle leg. *)
let counted_arrays () =
  let parse src = Netdsl_lang.Parser.parse_string_exn src in
  let sensor =
    parse (In_channel.with_open_bin (Testutil.spec_path "sensor.ndsl") In_channel.input_all)
  in
  let checked =
    parse
      {|format item {
          kind  : enum uint8 { a = 1, b = 2, c = 5 };
          hi    : uint4 where 1..9;
          lo    : uint4;
          level : uint16 where 0..1000;
        }
        format counted {
          magic : const uint8 = 0xA5;
          n     : uint8;
          items : item[n];
          pair  : item[2];
          tail  : uint16;
        }
        format trailing {
          n     : uint8;
          items : item[n];
        }|}
  in
  List.iter
    (fun (prog, name) ->
      let fmt = Option.get (Netdsl_lang.Parser.find_format prog name) in
      (match View.Hot.compile fmt with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s has no hot plan: %s" name e);
      match Ck.Fuzz.run_format ~seed:5 ~iters:3000 fmt with
      | Error r -> Alcotest.failf "%s: %s" name (Ck.Report.to_string r)
      | Ok st ->
        Alcotest.(check bool)
          (name ^ ": both verdicts seen") true
          (st.Ck.Fuzz.ws_accepted > 0 && st.Ck.Fuzz.ws_rejected > 0))
    [ (sensor, "sensor_report"); (checked, "counted"); (checked, "trailing") ]

let suite =
  [ ( "view.equivalence",
      List.map equivalence_case all_formats
      @ [ Alcotest.test_case "random garbage" `Quick random_garbage ] );
    ( "view.behaviour",
      [ Alcotest.test_case "pool reuse after reject" `Quick reuse_after_reject;
        Alcotest.test_case "windowed decode" `Quick windowed_decode;
        Alcotest.test_case "accessors" `Quick accessors;
        Alcotest.test_case "key extraction" `Quick key_extraction;
        Alcotest.test_case "counted arrays on the hot plan" `Quick counted_arrays ] ) ]
