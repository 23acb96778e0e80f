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

(* A shipped spec, found from wherever the test binary runs: dune's test
   directory or the repository root. *)
let spec_path name =
  let candidates = [ "../specs/" ^ name; "specs/" ^ name; "../../specs/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith ("spec not found: " ^ name)

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

let mode_name = function Pipeline.Staged -> "staged" | Pipeline.Fused -> "fused"

(* Run [case] under the staged reference and the fused fast path: each
   run makes its own assertions and returns its pipeline and the replies
   it captured, which must then agree between the modes — counters and
   reply bytes alike. *)
let in_both_modes case =
  let staged, staged_replies = case Pipeline.Staged in
  let fused, fused_replies = case Pipeline.Fused in
  check_same_counters staged fused;
  Alcotest.(check (list string)) "same reply bytes" staged_replies fused_replies
