(* Equivalence of the compiled decoder ([View.Hot], run as the format's
   one-layer [Stack] plan) and the reference [Codec]: for every shipped
   format and any input — valid, structure-aware mutant, bit-flipped,
   truncated, or garbage — both must agree on the accept/reject verdict,
   and on acceptance every register must hold the codec's value.  This is
   the safety argument for the engine's compiled path: it surfaces no
   field the full validator would have rejected.

   The adversarial inputs come from [Netdsl_check]: corpus seeds mutated
   by the structure-aware fuzzer, judged by the differential oracle
   (which also cross-checks the Pipelines and the kernel pre-filter on
   the same bytes).
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

(* The compiled paths must also reject garbage the way the codec does,
   not crash. *)
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

(* The compiled decoder on ARQ, demanding every scalar and the payload
   span. *)
let arq_hot () =
  match
    View.Hot.compile ~demand:[ "seq"; "kind"; "len"; "chk" ] ~span_demand:[ "payload" ]
      Fm.Arq.format
  with
  | Ok h -> h
  | Error e -> Alcotest.failf "arq has no hot plan: %s" e

(* The demanded registers after an accepting run, as the codec's values. *)
let hot_fields h =
  List.map
    (fun f -> (f, Int64.of_int (View.Hot.get h (View.Hot.demand_slot h f))))
    [ "seq"; "kind"; "len"; "chk" ]

let codec_fields pkt =
  let v = Codec.decode_exn Fm.Arq.format pkt in
  List.map (fun f -> (f, Value.get_int64 v f)) [ "seq"; "kind"; "len"; "chk" ]

let fields = Alcotest.(list (pair string int64))

(* Reuse: a plan that just rejected must run the next packet cleanly. *)
let reuse_after_reject () =
  let rng = Prng.of_int 7 in
  let h = arq_hot () in
  let good = Gen.generate_bytes rng Fm.Arq.format in
  Alcotest.(check bool) "valid arq accepted" true (View.Hot.run h good);
  let before = hot_fields h in
  (* a flip can land in the payload and keep the packet valid *)
  ignore (View.Hot.run h (Gen.mutate rng ~flips:4 good));
  Alcotest.(check bool) "valid arq accepted after reuse" true (View.Hot.run h good);
  Alcotest.check fields "same registers after reuse" before (hot_fields h);
  Alcotest.check fields "registers are the codec's values" (codec_fields good) before

(* Windowed decode: the plan validates a sub-range of a larger buffer in
   place, checksum included; a window one byte short rejects. *)
let windowed_decode () =
  let rng = Prng.of_int 11 in
  let pkt = Gen.generate_bytes rng Fm.Arq.format in
  let buf = "HDR" ^ pkt ^ "TRAILER" in
  let h = arq_hot () in
  Alcotest.(check bool)
    "window accepted" true
    (View.Hot.run h ~off:3 ~len:(String.length pkt) buf);
  Alcotest.check fields "windowed registers match" (codec_fields pkt) (hot_fields h);
  Alcotest.(check int) "window length" (String.length pkt) (View.Hot.length_bytes h);
  Alcotest.(check bool)
    "short window rejected" false
    (View.Hot.run h ~off:3 ~len:(String.length pkt - 1) buf)

(* Registers and spans: a demanded scalar is one register read, a
   demanded bytes field an absolute span into the decoded string. *)
let registers_and_spans () =
  let pkt = Fm.Arq.to_bytes (Fm.Arq.Data { seq = 42; payload = "hello" }) in
  let buf = "xy" ^ pkt in
  let h = arq_hot () in
  Alcotest.(check bool) "accepted" true (View.Hot.run h ~off:2 buf);
  Alcotest.(check int) "seq" 42 (View.Hot.get h (View.Hot.demand_slot h "seq"));
  let s = View.Hot.span_slot h "payload" in
  let off = View.Hot.span_off h s and len = View.Hot.span_len h s in
  Alcotest.(check string) "payload" "hello" (String.sub buf (off / 8) (len / 8));
  Alcotest.check_raises "undemanded field"
    (Invalid_argument "View.Hot: field \"nope\" was not demanded") (fun () ->
      ignore (View.Hot.demand_slot h "nope"))

let key_extraction () =
  let pkt =
    match Fm.Arq.to_bytes (Fm.Arq.Data { seq = 99; payload = "x" }) with
    | s -> s
  in
  match Bpf.key Fm.Arq.format "seq" with
  | Error e -> Alcotest.failf "Bpf.key: %s" e
  | Ok kx -> Alcotest.(check int) "key value" 99 (Bpf.read_key kx pkt)

(* Counted arrays of fixed-size records compile to the hot plan: the
   shipped sensor report, and elements carrying enum, range and sub-byte
   checks — followed by a fixed-count array and a field, or ending the
   message, where only the count bound catches a cut element.  Each is
   fuzzed through every oracle leg. *)
let counted_arrays () =
  let parse src = Netdsl_lang.Parser.parse_string_exn src in
  let sensor = Testutil.spec_program "sensor.ndsl" in
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
      [ Alcotest.test_case "plan reuse after reject" `Quick reuse_after_reject;
        Alcotest.test_case "windowed decode" `Quick windowed_decode;
        Alcotest.test_case "registers and spans" `Quick registers_and_spans;
        Alcotest.test_case "key extraction" `Quick key_extraction;
        Alcotest.test_case "counted arrays on the hot plan" `Quick counted_arrays ] ) ]
