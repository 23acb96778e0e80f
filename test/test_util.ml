open Netdsl_util

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    check_i64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_different_seeds () =
  let a = Prng.create 1L and b = Prng.create 2L in
  Alcotest.(check bool)
    "different seeds diverge" false
    (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b))

let test_prng_int_bounds () =
  let rng = Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Prng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_int_in () =
  let rng = Prng.create 9L in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_split_independence () =
  let parent = Prng.create 3L in
  let child = Prng.split parent in
  (* Splitting must not alias: child stream differs from parent's next. *)
  check_bool "split independent" false
    (Int64.equal (Prng.next_int64 parent) (Prng.next_int64 child))

let test_prng_bernoulli_extremes () =
  let rng = Prng.create 5L in
  check_bool "p=0 never" false (Prng.bernoulli rng 0.0);
  check_bool "p=1 always" true (Prng.bernoulli rng 1.0)

let test_prng_bernoulli_rate () =
  let rng = Prng.create 11L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if abs_float (rate -. 0.3) > 0.02 then Alcotest.failf "rate %.3f too far from 0.3" rate

let test_prng_float_range () =
  let rng = Prng.create 13L in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let test_prng_exponential_mean () =
  let rng = Prng.create 17L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 4.0) > 0.15 then Alcotest.failf "mean %.3f too far from 4" mean

let test_prng_gaussian_moments () =
  let rng = Prng.create 19L in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.gaussian rng ~mu:10.0 ~sigma:2.0 in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  if abs_float (mean -. 10.0) > 0.1 then Alcotest.failf "mean %.3f" mean;
  if abs_float (sqrt var -. 2.0) > 0.1 then Alcotest.failf "sigma %.3f" (sqrt var)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 23L in
  let a = Array.init 20 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let test_prng_string_length () =
  let rng = Prng.create 29L in
  check_int "length" 17 (String.length (Prng.string rng 17));
  check_int "empty" 0 (String.length (Prng.string rng 0))

(* ------------------------------------------------------------------ *)
(* Bitio *)

let test_writer_byte_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.write_uint8 w 0xAB;
  Bitio.Writer.write_uint16_be w 0x1234;
  Bitio.Writer.write_uint32_be w 0xDEADBEEFL;
  let s = Bitio.Writer.contents w in
  check_str "bytes" "ab1234deadbeef" (Hexdump.to_hex s);
  let r = Bitio.Reader.of_string s in
  check_int "u8" 0xAB (Bitio.Reader.read_uint8 r);
  check_int "u16" 0x1234 (Bitio.Reader.read_uint16_be r);
  check_i64 "u32" 0xDEADBEEFL (Bitio.Reader.read_uint32_be r);
  check_bool "at end" true (Bitio.Reader.at_end r)

let test_writer_bits_msb_first () =
  let w = Bitio.Writer.create () in
  (* 4-bit version = 4, 4-bit ihl = 5 gives byte 0x45 like an IPv4 header. *)
  Bitio.Writer.write_bits w ~width:4 4L;
  Bitio.Writer.write_bits w ~width:4 5L;
  check_str "0x45" "45" (Hexdump.to_hex (Bitio.Writer.contents w))

let test_writer_single_bits () =
  let w = Bitio.Writer.create () in
  List.iter (Bitio.Writer.write_bit w) [ true; false; true; false; true; false; true; false ];
  check_str "0xaa" "aa" (Hexdump.to_hex (Bitio.Writer.contents w))

let test_le_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.write_uint16_le w 0x1234;
  Bitio.Writer.write_uint32_le w 0xCAFEBABEL;
  let s = Bitio.Writer.contents w in
  check_str "le bytes" "3412bebafeca" (Hexdump.to_hex s);
  let r = Bitio.Reader.of_string s in
  check_int "u16le" 0x1234 (Bitio.Reader.read_uint16_le r);
  check_i64 "u32le" 0xCAFEBABEL (Bitio.Reader.read_uint32_le r)

let test_u64_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.write_uint64_be w (-1L);
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  check_i64 "u64" (-1L) (Bitio.Reader.read_uint64_be r)

let test_unaligned_wide_read () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.write_bits w ~width:3 0b101L;
  Bitio.Writer.write_bits w ~width:13 0x1ABCL;
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  check_i64 "3 bits" 0b101L (Bitio.Reader.read_bits r ~width:3);
  check_i64 "13 bits" 0x1ABCL (Bitio.Reader.read_bits r ~width:13)

let test_write_value_too_wide () =
  let w = Bitio.Writer.create () in
  match Bitio.Writer.write_bits w ~width:4 16L with
  | () -> Alcotest.fail "expected Value_out_of_range"
  | exception Bitio.Error (Bitio.Value_out_of_range _) -> ()

let test_read_truncated () =
  let r = Bitio.Reader.of_string "\x01" in
  match Bitio.Reader.read_uint16_be r with
  | _ -> Alcotest.fail "expected Truncated"
  | exception Bitio.Error (Bitio.Truncated _) -> ()

let test_reader_alignment_error () =
  let r = Bitio.Reader.of_string "\x01\x02" in
  let _ = Bitio.Reader.read_bit r in
  match Bitio.Reader.read_string r 1 with
  | _ -> Alcotest.fail "expected Unaligned"
  | exception Bitio.Error (Bitio.Unaligned _) -> ()

let test_writer_align () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.write_bits w ~width:3 0b111L;
  Bitio.Writer.align w;
  check_bool "aligned" true (Bitio.Writer.is_aligned w);
  check_str "padded" "e0" (Hexdump.to_hex (Bitio.Writer.contents w))

let test_reserve_and_patch () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.write_uint8 w 0x11;
  let off = Bitio.Writer.reserve_bits w 16 in
  Bitio.Writer.write_uint8 w 0x22;
  Bitio.Writer.patch_bits w ~bit_off:off ~width:16 0xABCDL;
  check_str "patched" "11abcd22" (Hexdump.to_hex (Bitio.Writer.contents w))

let test_patch_out_of_bounds () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.write_uint8 w 0xFF;
  match Bitio.Writer.patch_bits w ~bit_off:4 ~width:8 0L with
  | () -> Alcotest.fail "expected Truncated on patch past end"
  | exception Bitio.Error (Bitio.Truncated _) -> ()

let test_sub_window () =
  let r = Bitio.Reader.of_string "\x01\x02\x03\x04" in
  let _ = Bitio.Reader.read_uint8 r in
  let w = Bitio.Reader.sub_window r ~bit_len:16 in
  check_int "window u16" 0x0203 (Bitio.Reader.read_uint16_be w);
  check_bool "window exhausted" true (Bitio.Reader.at_end w);
  check_int "outer continues after window" 0x04 (Bitio.Reader.read_uint8 r)

let test_window_truncation () =
  let r = Bitio.Reader.of_string "\x01\x02" in
  let w = Bitio.Reader.sub_window r ~bit_len:8 in
  match Bitio.Reader.read_uint16_be w with
  | _ -> Alcotest.fail "expected Truncated inside window"
  | exception Bitio.Error (Bitio.Truncated _) -> ()

let test_growth () =
  let w = Bitio.Writer.create ~capacity:1 () in
  for i = 0 to 999 do
    Bitio.Writer.write_uint8 w (i land 0xFF)
  done;
  check_int "grew" 1000 (String.length (Bitio.Writer.contents w))

let test_try_with () =
  (match Bitio.try_with (fun () -> 42) with
  | Ok v -> check_int "ok" 42 v
  | Error _ -> Alcotest.fail "expected Ok");
  match
    Bitio.try_with (fun () ->
        Bitio.Reader.read_uint8 (Bitio.Reader.of_string ""))
  with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error (Bitio.Truncated _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Bitio.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Checksum *)

let test_internet_rfc1071 () =
  (* Worked example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7. *)
  let data = Hexdump.of_hex "0001f203f4f5f6f7" in
  check_int "rfc1071" (lnot 0xddf2 land 0xFFFF) (Checksum.internet_checksum data)

let test_internet_verifies_to_zero () =
  (* A buffer with its own correct checksum embedded sums to zero. *)
  (* Checksum field (bytes 10-11) is zero before computation, per the IPv4
     convention. *)
  let data = Hexdump.of_hex "45000073000040004011" ^ "\000\000"
             ^ Hexdump.of_hex "C0A80001C0A800C7" in
  let cksum = Checksum.internet_checksum data in
  let patched =
    let b = Bytes.of_string data in
    Bytes.set b 10 (Char.chr (cksum lsr 8));
    Bytes.set b 11 (Char.chr (cksum land 0xFF));
    Bytes.to_string b
  in
  (* Re-computing over the patched buffer with the field zeroed gives the
     same value back. *)
  let rezero =
    let b = Bytes.of_string patched in
    Bytes.set b 10 '\000';
    Bytes.set b 11 '\000';
    Bytes.to_string b
  in
  check_int "stable" cksum (Checksum.internet_checksum rezero)

let test_internet_odd_length () =
  let even = Checksum.internet_checksum "\x12\x34" in
  let odd = Checksum.internet_checksum "\x12" in
  (* An odd final byte is padded with zero on the right per RFC 1071. *)
  check_int "odd pads right" (lnot 0x1200 land 0xFFFF) odd;
  check_int "even" (lnot 0x1234 land 0xFFFF) even

let test_crc32_known () =
  (* Standard test vector: CRC-32("123456789") = 0xCBF43926. *)
  check_i64 "crc32 check vector" 0xCBF43926L (Checksum.crc32 "123456789")

let test_crc32_empty () = check_i64 "crc32 empty" 0L (Checksum.crc32 "")

let test_adler32_known () =
  (* Adler-32("Wikipedia") = 0x11E60398. *)
  check_i64 "adler32" 0x11E60398L (Checksum.adler32 "Wikipedia")

let test_fletcher16_known () =
  (* Fletcher-16("abcde") = 0xC8F0. *)
  check_int "fletcher16" 0xC8F0 (Checksum.fletcher16 "abcde")

let test_xor_sum8 () =
  check_i64 "xor8" 0x01L (Checksum.compute Checksum.Xor8 "\x03\x02");
  check_i64 "sum8" 0x05L (Checksum.compute Checksum.Sum8 "\x03\x02");
  check_i64 "sum8 wraps" 0x01L (Checksum.compute Checksum.Sum8 "\xFF\x02")

let test_checksum_range () =
  let s = "\xAA\x12\x34\xBB" in
  check_i64 "offset range"
    (Checksum.compute Checksum.Internet "\x12\x34")
    (Checksum.compute Checksum.Internet ~off:1 ~len:2 s)

let test_checksum_detects_corruption () =
  let data = "hello, network" in
  let expected = Checksum.compute Checksum.Internet data in
  let corrupted = "hellp, network" in
  check_bool "detects" false (Checksum.verify Checksum.Internet corrupted ~expected)

let test_algorithm_names_roundtrip () =
  List.iter
    (fun a ->
      match Checksum.algorithm_of_string (Checksum.algorithm_to_string a) with
      | Some a' when a = a' -> ()
      | _ -> Alcotest.failf "name roundtrip failed for %s" (Checksum.algorithm_to_string a))
    Checksum.all_algorithms

(* ------------------------------------------------------------------ *)
(* Hexdump *)

let test_hex_roundtrip () =
  let s = "\x00\x01\xFE\xFF" in
  check_str "to_hex" "0001feff" (Hexdump.to_hex s);
  check_str "of_hex" s (Hexdump.of_hex "0001feff");
  check_str "of_hex separators" s (Hexdump.of_hex "00:01:fe:ff")

let test_hex_bad_input () =
  (match Hexdump.of_hex "0" with
  | _ -> Alcotest.fail "odd length accepted"
  | exception Invalid_argument _ -> ());
  match Hexdump.of_hex "zz" with
  | _ -> Alcotest.fail "bad digit accepted"
  | exception Invalid_argument _ -> ()

let test_hexdump_layout () =
  let dump = Hexdump.to_string "ABCDEFGHIJKLMNOPQR" in
  let lines = String.split_on_char '\n' (String.trim dump) in
  check_int "two lines" 2 (List.length lines);
  check_bool "ascii gutter" true
    (String.length (List.nth lines 0) > 0
    && String.contains (List.nth lines 0) '|')

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_bits_roundtrip =
  QCheck.Test.make ~name:"bitio: write_bits/read_bits roundtrip" ~count:500
    QCheck.(list (pair (int_range 1 64) (int_bound 0xFFFF)))
    (fun fields ->
      let w = Bitio.Writer.create () in
      let expected =
        List.map
          (fun (width, v) ->
            let v = Int64.logand (Int64.of_int v) (if width >= 64 then -1L else Int64.sub (Int64.shift_left 1L width) 1L) in
            Bitio.Writer.write_bits w ~width v;
            (width, v))
          fields
      in
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      List.for_all
        (fun (width, v) -> Int64.equal v (Bitio.Reader.read_bits r ~width))
        expected)

let prop_internet_checksum_zero =
  QCheck.Test.make ~name:"checksum: message plus own checksum sums to zero" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 2 64))
    (fun s ->
      (* Append the checksum and verify the RFC 1071 property that the
         ones'-complement sum of data + checksum is 0xFFFF (i.e. the
         complemented checksum of the whole is 0). *)
      let s = if String.length s mod 2 = 0 then s else s ^ "\x00" in
      let c = Checksum.internet_checksum s in
      let whole = s ^ String.init 2 (fun i -> Char.chr (c lsr (8 * (1 - i)) land 0xFF)) in
      Checksum.internet_checksum whole = 0)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hexdump: of_hex . to_hex = id" ~count:500 QCheck.string
    (fun s -> String.equal s (Hexdump.of_hex (Hexdump.to_hex s)))

let suite =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seeds diverge" `Quick test_prng_different_seeds;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
        Alcotest.test_case "split independence" `Quick test_prng_split_independence;
        Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
        Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
        Alcotest.test_case "string length" `Quick test_prng_string_length;
      ] );
    ( "util.bitio",
      [
        Alcotest.test_case "byte roundtrip" `Quick test_writer_byte_roundtrip;
        Alcotest.test_case "bits MSB-first" `Quick test_writer_bits_msb_first;
        Alcotest.test_case "single bits" `Quick test_writer_single_bits;
        Alcotest.test_case "little-endian" `Quick test_le_roundtrip;
        Alcotest.test_case "uint64" `Quick test_u64_roundtrip;
        Alcotest.test_case "unaligned wide fields" `Quick test_unaligned_wide_read;
        Alcotest.test_case "value too wide" `Quick test_write_value_too_wide;
        Alcotest.test_case "truncated read" `Quick test_read_truncated;
        Alcotest.test_case "alignment error" `Quick test_reader_alignment_error;
        Alcotest.test_case "align pads zeros" `Quick test_writer_align;
        Alcotest.test_case "reserve and patch" `Quick test_reserve_and_patch;
        Alcotest.test_case "patch bounds" `Quick test_patch_out_of_bounds;
        Alcotest.test_case "sub window" `Quick test_sub_window;
        Alcotest.test_case "window truncation" `Quick test_window_truncation;
        Alcotest.test_case "buffer growth" `Quick test_growth;
        Alcotest.test_case "try_with" `Quick test_try_with;
        Testutil.qcheck prop_bits_roundtrip;
      ] );
    ( "util.checksum",
      [
        Alcotest.test_case "RFC 1071 example" `Quick test_internet_rfc1071;
        Alcotest.test_case "self-verifying buffer" `Quick test_internet_verifies_to_zero;
        Alcotest.test_case "odd length" `Quick test_internet_odd_length;
        Alcotest.test_case "crc32 vector" `Quick test_crc32_known;
        Alcotest.test_case "crc32 empty" `Quick test_crc32_empty;
        Alcotest.test_case "adler32 vector" `Quick test_adler32_known;
        Alcotest.test_case "fletcher16 vector" `Quick test_fletcher16_known;
        Alcotest.test_case "xor8/sum8" `Quick test_xor_sum8;
        Alcotest.test_case "offset range" `Quick test_checksum_range;
        Alcotest.test_case "detects corruption" `Quick test_checksum_detects_corruption;
        Alcotest.test_case "algorithm names" `Quick test_algorithm_names_roundtrip;
        Testutil.qcheck prop_internet_checksum_zero;
      ] );
    ( "util.hexdump",
      [
        Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
        Alcotest.test_case "bad input" `Quick test_hex_bad_input;
        Alcotest.test_case "dump layout" `Quick test_hexdump_layout;
        Testutil.qcheck prop_hex_roundtrip;
      ] );
  ]
