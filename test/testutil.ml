(* Shared helpers for the test suites. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= h - n do
      if String.equal (String.sub haystack !i n) needle then found := true
      else incr i
    done;
    !found
  end

module Pipeline = Netdsl_engine.Pipeline
module Stats = Netdsl_engine.Stats
module Slab = Netdsl_engine.Slab

(* Publish [pkts.(from ..)] into [slab] on the caller's domain the way a
   socket front end fills it: lease a contiguous run, write each packet
   and its length into the run's slots (through [raw_bufs]/[raw_lens],
   where [recvmmsg] writes), publish the run.  Stops at a full ring;
   returns the index of the first packet that did not fit.  A packet
   longer than a slot is written cut but recorded at its full length,
   so [publish_run] refuses it. *)
let fill_slab ?(from = 0) slab pkts =
  let bufs = Slab.raw_bufs slab and lens = Slab.raw_lens slab in
  let n = Array.length pkts in
  let rec go i =
    let k = if i < n then Slab.lease_run slab ~max:(n - i) else 0 in
    if k = 0 then i
    else begin
      let base = Slab.producer_slot slab in
      for j = 0 to k - 1 do
        let p = pkts.(i + j) in
        let l = String.length p in
        Bytes.blit_string p 0 bufs.(base + j) 0 (Int.min l (Slab.slot_bytes slab));
        lens.(base + j) <- l
      done;
      Slab.publish_run slab ~n:k;
      go (i + k)
    end
  in
  go from

(* A shipped spec, parsed; found from wherever the test binary runs:
   dune's test directory ([dune runtest]) or the repository root. *)
let spec_program name =
  let path =
    match List.find_opt Sys.file_exists [ "../specs/" ^ name; "specs/" ^ name ] with
    | Some p -> p
    | None -> failwith ("spec not found: " ^ name)
  in
  Netdsl_lang.Parser.parse_string_exn (In_channel.with_open_bin path In_channel.input_all)

module Reference = Netdsl_check.Reference

let outcome_tag = function
  | Pipeline.Accepted -> "accepted"
  | Pipeline.Rejected_decode _ -> "rejected_decode"
  | Pipeline.Rejected_verify -> "rejected_verify"
  | Pipeline.Rejected_step -> "rejected_step"
  | Pipeline.Rejected_encode -> "rejected_encode"

(* Every stage counter, the eviction count and the flow count of two
   pipelines fed the same traffic must agree exactly. *)
let check_same_counters a b =
  let check_int = Alcotest.(check int) in
  let sa = Pipeline.stats a and sb = Pipeline.stats b in
  List.iteri
    (fun idx name ->
      check_int (name ^ " packets equal") (Stats.stage_packets sa idx)
        (Stats.stage_packets sb idx);
      check_int (name ^ " rejects equal") (Stats.stage_rejects sa idx)
        (Stats.stage_rejects sb idx);
      check_int (name ^ " bytes equal") (Stats.stage_bytes sa idx)
        (Stats.stage_bytes sb idx))
    Pipeline.stage_names;
  check_int "evictions equal" (Stats.evicted_flows sa) (Stats.evicted_flows sb);
  check_int "flow count equal" (Pipeline.flow_count a) (Pipeline.flow_count b)

(* The same for a pipeline and the reference executor, expiries
   included. *)
let check_counters_match_reference p r =
  let check_int = Alcotest.(check int) in
  let s = Pipeline.stats p in
  List.iteri
    (fun idx name ->
      let c = Reference.stage r name in
      check_int (name ^ " packets equal") c.Reference.packets (Stats.stage_packets s idx);
      check_int (name ^ " rejects equal") c.Reference.rejects (Stats.stage_rejects s idx);
      check_int (name ^ " bytes equal") c.Reference.bytes (Stats.stage_bytes s idx))
    Pipeline.stage_names;
  check_int "evictions equal" (Reference.evicted r) (Stats.evicted_flows s);
  check_int "expiries equal" (Reference.expired r) (Stats.timers_expired s);
  check_int "flow count equal" (Reference.flow_count r) (Pipeline.flow_count p)

(* A pipeline and the reference executor built from the same arguments
   and driven in lock-step: every call runs both and asserts they agree
   (outcome, timers fired), and [finish] asserts equal counters and
   reply bytes.  Cases make their own assertions on [pipe]. *)
type twin = {
  pipe : Pipeline.t;
  reference : Reference.t;
  fused_replies : string list ref;  (* newest first *)
  ref_replies : string list ref;
}

let twin ?config ?stack ?flight ?machine ?on_transition ?clock_ms ?tick_ms ?on_response
    ?on_reply_slot fmt =
  let fused_replies = ref [] and ref_replies = ref [] in
  let on_response s =
    fused_replies := s :: !fused_replies;
    Option.iter (fun f -> f s) on_response
  in
  let on_reply_slot =
    Option.map
      (fun f i buf len ->
        fused_replies := Bytes.sub_string buf 0 len :: !fused_replies;
        f i buf len)
      on_reply_slot
  in
  let pipe =
    Pipeline.create ?config ?stack ?flight ?machine ?on_transition ?clock_ms ?tick_ms
      ~on_response ?on_reply_slot fmt
  in
  let reference =
    Reference.create ?config ?stack ?machine ?clock_ms ?tick_ms
      ~on_response:(fun s -> ref_replies := s :: !ref_replies)
      ~flight:(Option.value flight ~default:(Netdsl_engine.Flight.spec ()))
      fmt
  in
  { pipe; reference; fused_replies; ref_replies }

let process tw pkt =
  let a = Pipeline.process tw.pipe pkt and b = Reference.process tw.reference pkt in
  Alcotest.(check string) "outcome = reference" (outcome_tag b) (outcome_tag a);
  a

let process_batch tw pkts n =
  Pipeline.process_batch tw.pipe pkts n;
  Reference.process_batch tw.reference pkts n

let poll_timers tw =
  let a = Pipeline.poll_timers tw.pipe and b = Reference.poll_timers tw.reference in
  Alcotest.(check int) "timers fired = reference" b a;
  a

let finish tw =
  check_counters_match_reference tw.pipe tw.reference;
  Alcotest.(check int) "live timers = reference" (Reference.timers_live tw.reference)
    (Pipeline.timers_live tw.pipe);
  Alcotest.(check (list string)) "reply bytes = reference" (List.rev !(tw.ref_replies))
    (List.rev !(tw.fused_replies))

(* A QCheck property as an Alcotest case that tier-1 runs: the suite runs
   with [--quick-tests], and qcheck-alcotest marks its cases [`Slow] by
   default. *)
let qcheck t = QCheck_alcotest.to_alcotest ~speed_level:`Quick t
