(* The fuzzing harness testing itself: golden corpus samples through the
   differential oracle, quick fuzz runs over every shipped format and
   machine (zero disagreements expected), and the planted-bug sanity
   checks — a harness that cannot catch a known-bad fast path proves
   nothing by staying green. *)

module Ck = Netdsl_check
module Desc = Netdsl_format.Desc
module Codec = Netdsl_format.Codec
module Prng = Netdsl_util.Prng
module Fm = Netdsl_formats

let seed = 20260806

let golden_paths fmt =
  let name = fmt.Desc.format_name in
  ("corpus/" ^ name ^ "-valid.hex", "corpus/" ^ name ^ "-malformed.hex")

let golden fmt =
  let valid, malformed = golden_paths fmt in
  Ck.Corpus.load_hex_file valid @ Ck.Corpus.load_hex_file malformed

let fail_report r = Alcotest.failf "unexpected disagreement:\n%s" (Ck.Report.to_string r)

(* Golden samples: the valid one must decode, the malformed one must be
   rejected — and the oracle must agree with itself on both. *)
let golden_case (name, fmt) =
  Alcotest.test_case name `Quick (fun () ->
      let valid_path, malformed_path = golden_paths fmt in
      (match Ck.Corpus.load_hex_file valid_path with
      | [ pkt ] -> (
        match Codec.decode fmt pkt with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "golden valid sample rejected: %s"
            (Codec.error_to_string e))
      | l -> Alcotest.failf "expected 1 packet in %s, got %d" valid_path (List.length l));
      (match Ck.Corpus.load_hex_file malformed_path with
      | [ pkt ] -> (
        match Codec.decode fmt pkt with
        | Ok _ -> Alcotest.failf "golden malformed sample accepted"
        | Error _ -> ())
      | l ->
        Alcotest.failf "expected 1 packet in %s, got %d" malformed_path
          (List.length l));
      let oracle = Ck.Oracle.create fmt in
      List.iter
        (fun pkt ->
          match Ck.Oracle.check oracle pkt with
          | Ok () -> ()
          | Error d ->
            Alcotest.failf "oracle disagreement on golden sample: %s"
              (Ck.Oracle.disagreement_to_string d))
        (golden fmt))

(* --iters 0 still exercises every corpus seed through the oracle. *)
let zero_iters_case (name, fmt) =
  Alcotest.test_case name `Quick (fun () ->
      match Ck.Fuzz.run_format ~golden:(golden fmt) ~seed ~iters:0 fmt with
      | Error r -> fail_report r
      | Ok stats ->
        if stats.Ck.Fuzz.ws_mutants < 2 then
          Alcotest.failf "only %d seeds checked at iters=0" stats.Ck.Fuzz.ws_mutants)

(* The main property: structure-aware mutants per format, zero
   disagreements between Codec, the compiled plan, the Pipelines and the
   kernel pre-filter — a few hundred from the golden corpus, then the
   seed-only stream at 2 000 mutants (20 000 in the [`Slow] case the
   nightly job runs).  The 100k-per-format depth runs nightly via
   `netdsl fuzz`. *)
let fuzz_format ?golden ~iters fmt =
  match Ck.Fuzz.run_format ?golden ~seed ~iters fmt with
  | Error r -> fail_report r
  | Ok stats ->
    if stats.Ck.Fuzz.ws_mutants < iters then
      Alcotest.failf "only %d mutants checked" stats.Ck.Fuzz.ws_mutants;
    if stats.Ck.Fuzz.ws_accepted + stats.Ck.Fuzz.ws_rejected
       <> stats.Ck.Fuzz.ws_mutants
    then Alcotest.fail "accept/reject split does not sum to total"

let fuzz_case (name, fmt) =
  Alcotest.test_case name `Quick (fun () ->
      fuzz_format ~golden:(golden fmt) ~iters:400 fmt;
      fuzz_format ~iters:2_000 fmt)

let fuzz_deep_case (name, fmt) =
  Alcotest.test_case (name ^ " at depth") `Slow (fun () ->
      fuzz_format ~iters:20_000 fmt)

(* The seeded-bug sanity check [netdsl fuzz --plant-bug] runs on a format:
   inverting the compiled plan's accept verdict must be caught and shrunk
   to a small, committable repro. *)
let planted_wire_bug () =
  match
    Ck.Fuzz.run_format ~bug:Ck.Oracle.Invert_flight_accept
      ~golden:(golden Fm.Arq.format) ~seed ~iters:50 Fm.Arq.format
  with
  | Ok _ -> Alcotest.fail "planted bug not caught"
  | Error (Ck.Report.Trace _) -> Alcotest.fail "wire bug reported as trace"
  | Error (Ck.Report.Wire { w_bytes; _ } as r) ->
    if String.length w_bytes > 64 then
      Alcotest.failf "repro not shrunk: %d bytes" (String.length w_bytes);
    let rendered = Ck.Report.to_string r in
    List.iter
      (fun needle ->
        if
          not
            (List.exists
               (fun line ->
                 String.length line >= String.length needle
                 && String.sub line 0 (String.length needle) = needle)
               (String.split_on_char '\n' rendered))
        then Alcotest.failf "repro missing %S line:\n%s" needle rendered)
      [ "FUZZ DISAGREEMENT"; "format:"; "seed:"; "check:"; "input:"; "detail:" ]

(* The fused leg runs every format's compiled plan — a linear one and a
   variant format's flattened case plans alike: inverting its accept
   verdict must be caught by the "flight" comparison and shrunk. *)
let planted_flight_bug () =
  List.iter
    (fun fmt ->
      let name = fmt.Netdsl_format.Desc.format_name in
      match
        Ck.Fuzz.run_format ~bug:Ck.Oracle.Invert_flight_accept ~golden:(golden fmt) ~seed
          ~iters:50 fmt
      with
      | Ok _ -> Alcotest.failf "planted fusion bug not caught on %s" name
      | Error (Ck.Report.Trace _) -> Alcotest.fail "fusion bug reported as trace"
      | Error (Ck.Report.Wire { w_check; w_bytes; _ }) ->
        Alcotest.(check string) (name ^ " caught by the flight leg") "flight" w_check;
        if String.length w_bytes > 64 then
          Alcotest.failf "%s: repro not shrunk: %d bytes" name (String.length w_bytes))
    [ Fm.Arq.format; Fm.Icmp.format; Fm.Tftp.format ]

(* Determinism: the same (seed, iters) must find the same repro, ops
   included — that is what makes a dump committable. *)
let planted_bug_deterministic () =
  let run () =
    Ck.Fuzz.run_format ~bug:Ck.Oracle.Invert_flight_accept
      ~golden:(golden Fm.Arq.format) ~seed ~iters:50 Fm.Arq.format
  in
  match (run (), run ()) with
  | Error a, Error b ->
    Alcotest.(check string)
      "identical repro" (Ck.Report.to_string a) (Ck.Report.to_string b)
  | _ -> Alcotest.fail "planted bug not caught"

(* Mutation ops are self-contained: replaying a list is pure. *)
let mutation_replay () =
  let fmt = Fm.Ipv4.format in
  let plan = Ck.Mutate.plan fmt in
  if Ck.Mutate.slots plan = [] then Alcotest.fail "ipv4 plan has no slots";
  let rng = Prng.of_int seed in
  let gen = Option.get (Ck.Corpus.generator fmt) in
  for _ = 1 to 100 do
    let pkt = gen rng in
    let ops = Ck.Mutate.random plan rng pkt in
    let a = Ck.Mutate.apply ops pkt and b = Ck.Mutate.apply ops pkt in
    Alcotest.(check string) "replay is pure" a b;
    (* ops survive rendering (used in repro dumps) without raising *)
    List.iter (fun op -> ignore (Ck.Mutate.op_to_string op)) ops
  done;
  (* ops degrade to the identity out of range instead of raising *)
  let ops =
    [ Ck.Mutate.Flip_bit 100_000; Ck.Mutate.Set_byte (5000, 1);
      Ck.Mutate.Truncate 9999;
      Ck.Mutate.Remove_span { off = 50; len = 100 };
      Ck.Mutate.Zero_span { off = -1; len = 4 } ]
  in
  Alcotest.(check string) "oversized ops are identity" "ab" (Ck.Mutate.apply ops "ab")

let shrink_bytes () =
  let holds s = String.contains s 'Z' in
  let shrunk = Ck.Shrink.bytes holds ("prefix-Z-suffix" ^ String.make 100 'x') in
  Alcotest.(check string) "minimal witness" "Z" shrunk

let shrink_list () =
  let holds l = List.mem 7 l in
  let shrunk = Ck.Shrink.list holds [ 1; 2; 3; 7; 9; 11; 13 ] in
  Alcotest.(check (list int)) "minimal witness" [ 7 ] shrunk

(* The chained-decode leg: a quick cross-layer fuzz over every catalogue
   stack must find zero disagreements between the fused chain and the
   sequential per-layer decode. *)
let chain_golden name =
  Ck.Corpus.load_hex_file ("corpus/" ^ name ^ "-chain-valid.hex")
  @ Ck.Corpus.load_hex_file ("corpus/" ^ name ^ "-chain-malformed.hex")

(* Committed chained goldens: every valid sample must decode through both
   the fused chain and the sequential reference, every malformed one must
   be rejected by both. *)
let chain_golden_case (name, stack) =
  Alcotest.test_case name `Quick (fun () ->
      let plan = Result.get_ok (Netdsl_format.Stack.compile stack) in
      let seq = Netdsl_format.Stack.Seq.create plan in
      let verdict pkt = (Netdsl_format.Stack.run plan pkt,
                         Result.is_ok (Netdsl_format.Stack.Seq.decode seq pkt)) in
      List.iter
        (fun pkt ->
          match verdict pkt with
          | true, true -> ()
          | f, s ->
            Alcotest.failf "valid chained golden rejected (fused %b, seq %b)" f s)
        (Ck.Corpus.load_hex_file ("corpus/" ^ name ^ "-chain-valid.hex"));
      List.iter
        (fun pkt ->
          match verdict pkt with
          | false, false -> ()
          | f, s ->
            Alcotest.failf "malformed chained golden accepted (fused %b, seq %b)"
              f s)
        (Ck.Corpus.load_hex_file ("corpus/" ^ name ^ "-chain-malformed.hex")))

(* The chain oracle over every shipped stack: the golden corpus at
   seed 20260806, then the seed-only stream at seed 20260808 — 2 000
   cross-layer mutants per stack, 34 000 in the [`Slow] case. *)
let fuzz_chain ?golden ~seed ~iters (name, stack) =
  match Ck.Fuzz.run_stack ?golden ~seed ~iters (name, stack) with
  | Error r -> fail_report r
  | Ok stats ->
    if stats.Ck.Fuzz.cs_mutants < iters then
      Alcotest.failf "only %d mutants checked" stats.Ck.Fuzz.cs_mutants;
    if stats.Ck.Fuzz.cs_accepted = 0 then
      Alcotest.failf "no mutant ever chain-decoded on %s — the fuzz is vacuous"
        name;
    if stats.Ck.Fuzz.cs_answered = 0 then
      Alcotest.failf "no mutant was answered on %s — the reply leg is vacuous"
        name;
    if stats.Ck.Fuzz.cs_accepted + stats.Ck.Fuzz.cs_rejected
       <> stats.Ck.Fuzz.cs_mutants
    then Alcotest.fail "accept/reject split does not sum to total"

let chain_seed = 20260808

let chain_fuzz_case (name, stack) =
  Alcotest.test_case name `Quick (fun () ->
      fuzz_chain ~golden:(chain_golden name) ~seed ~iters:400 (name, stack);
      fuzz_chain ~seed:chain_seed ~iters:2_000 (name, stack))

let chain_fuzz_deep_case (name, stack) =
  Alcotest.test_case (name ^ " at depth") `Slow (fun () ->
      fuzz_chain ~seed:chain_seed ~iters:34_000 (name, stack))

(* Planted chain bug: inverting the fused chain's accept verdict — a
   deliberately flipped chained bounds check — must be caught by the
   "chain" comparison and shrunk, on the very first golden seed. *)
let planted_chain_bug () =
  match
    Ck.Fuzz.run_stack ~bug:Ck.Oracle.Invert_chain_accept ~seed ~iters:50
      ("inet_tftp", Fm.Stacks.inet_tftp)
  with
  | Ok _ -> Alcotest.fail "planted chain bug not caught"
  | Error (Ck.Report.Trace _) -> Alcotest.fail "chain bug reported as trace"
  | Error (Ck.Report.Wire { w_check; w_format; _ }) ->
    Alcotest.(check string) "caught by the chain leg" "chain" w_check;
    Alcotest.(check string) "against the right stack" "inet_tftp" w_format

let chain_seeds_decode () =
  List.iter
    (fun (name, stack) ->
      let seeds = Ck.Corpus.stack_seeds stack in
      if seeds = [] then Alcotest.failf "no chained seeds for %s" name;
      let plan = Result.get_ok (Netdsl_format.Stack.compile stack) in
      let seq = Netdsl_format.Stack.Seq.create plan in
      List.iter
        (fun pkt ->
          if not (Netdsl_format.Stack.run plan pkt) then
            Alcotest.failf "fused chain rejects a %s corpus seed" name;
          match Netdsl_format.Stack.Seq.decode seq pkt with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "sequential decode rejects a %s corpus seed: %s" name
              (Netdsl_format.Codec.error_to_string e))
        seeds)
    Fm.Stacks.all

(* ---- the stacked-reply leg: fused stacked replies, flows and timers
   vs the reference executor (Stack.Seq decode, Codec re-encode) ---- *)

module Flight = Netdsl_engine.Flight
module Pipeline = Netdsl_engine.Pipeline
module Stack = Netdsl_format.Stack
module Stats = Netdsl_engine.Stats

let check_replies name o pkts =
  Array.iteri
    (fun i pkt ->
      match Ck.Oracle.Stack_reply.check o pkt with
      | Ok () -> ()
      | Error d ->
        Alcotest.failf "%s packet %d: %s" name i (Ck.Oracle.disagreement_to_string d))
    pkts;
  if Ck.Oracle.Stack_reply.answered o = 0 then
    Alcotest.failf "%s: nothing answered — the leg is vacuous" name

(* The serve benchmark's tftp-flows traffic and engine: DATA then its ACK
   per flow over cubically skewed ports, swt_sender keyed on the UDP
   source port (DATA arms a timer, ACK cancels it), every accepted packet
   answered with ports and addresses swapped — through a flow table
   small enough to evict. *)
let tftp_flows_replies () =
  let swt_sender =
    Option.get (Netdsl_lang.Parser.find_machine (Testutil.spec_program "timeout.ndsl") "swt_sender")
  in
  let opcode_is n = Flight.Cmp (Flight.Eq, Flight.Field "tftp.opcode", Flight.Const n) in
  let flight =
    Flight.spec
      ~verify:(Flight.Cmp (Flight.Le, Flight.Field "tftp.opcode", Flight.Const 5L))
      ~classify:
        [ { Flight.ev_when = opcode_is 3L; ev_name = "send" };
          { Flight.ev_when = opcode_is 4L; ev_name = "ack" } ]
      ~flow_key:"udp.src_port"
      ~respond:
        [ { Flight.re_when = Flight.All [];
            re_set =
              [ { Flight.set_field = "udp.dst_port"; set_to = Flight.Field "udp.src_port" };
                { Flight.set_field = "udp.src_port"; set_to = Flight.Const 69L };
                { Flight.set_field = "ipv4.source"; set_to = Flight.Field "ipv4.destination" };
                { Flight.set_field = "ipv4.destination"; set_to = Flight.Field "ipv4.source" } ] } ]
      ()
  in
  let o =
    Result.get_ok
      (Ck.Oracle.Stack_reply.create
         ~config:{ Pipeline.default_config with max_flows = 64 }
         ~machine:swt_sender ~flight Fm.Stacks.inet_tftp)
  in
  let plan = Result.get_ok (Stack.compile Fm.Stacks.inet_tftp) in
  let chain ~src_port pkt =
    Result.get_ok (Stack.encode plan (Fm.Stacks.inet_tftp_values ~src_port pkt))
  in
  let rng = Prng.of_int 3 in
  let data = String.make 32 'd' in
  let pkts =
    Array.concat
      (List.init 2048 (fun j ->
           let u = Prng.float rng 1.0 in
           let src_port = min 65535 (int_of_float (4096. *. u *. u *. u)) in
           let block = j land 0xFFFF in
           [| chain ~src_port (Fm.Tftp.Data { block; data });
              chain ~src_port (Fm.Tftp.Ack { block }) |]))
  in
  check_replies "tftp-flows" o pkts

(* The serve benchmark's tftp-flows shape, judged independently: a fused
   pipeline and the reference executor in lock-step over 24 000 packets,
   DATA then its ACK per flow on ports drawn with a cubic skew over the
   16-bit space, through a 4096-flow table — the benchmark's spec
   (inet_tftp, swt_sender keyed on the UDP source port, every accepted
   packet answered with ports and addresses swapped), copied here.  Once
   on a frozen clock; once on a clock that jumps ahead by 151-400 ms
   before every 997th packet, so 150 ms timers expire (and retransmit)
   before an ACK cancels them.  [Error] names the first divergence. *)
let swt_sender =
  lazy
    (Option.get
       (Netdsl_lang.Parser.find_machine (Testutil.spec_program "timeout.ndsl") "swt_sender"))

let tftp_flows_flight =
  let opcode_is n = Flight.Cmp (Flight.Eq, Flight.Field "tftp.opcode", Flight.Const n) in
  Flight.spec
    ~verify:(Flight.Cmp (Flight.Le, Flight.Field "tftp.opcode", Flight.Const 5L))
    ~classify:
      [ { Flight.ev_when = opcode_is 3L; ev_name = "send" };
        { Flight.ev_when = opcode_is 4L; ev_name = "ack" } ]
    ~flow_key:"udp.src_port"
    ~respond:
      [ { Flight.re_when = Flight.All [];
          re_set =
            [ { Flight.set_field = "udp.dst_port"; set_to = Flight.Field "udp.src_port" };
              { Flight.set_field = "udp.src_port"; set_to = Flight.Const 69L };
              { Flight.set_field = "ipv4.source"; set_to = Flight.Field "ipv4.destination" };
              { Flight.set_field = "ipv4.destination"; set_to = Flight.Field "ipv4.source" } ] } ]
    ()

let tftp_flows_stream =
  lazy
    (let plan = Result.get_ok (Stack.compile Fm.Stacks.inet_tftp) in
     let chain ~src_port pkt =
       Result.get_ok (Stack.encode plan (Fm.Stacks.inet_tftp_values ~src_port pkt))
     in
     let rng = Prng.of_int 1 in
     let data = String.make 32 'd' in
     Array.concat
       (List.init 12_000 (fun j ->
            let u = Prng.float rng 1.0 in
            let src_port = min 65535 (int_of_float (65536. *. u *. u *. u)) in
            let block = j land 0xFFFF in
            [| chain ~src_port (Fm.Tftp.Data { block; data });
               chain ~src_port (Fm.Tftp.Ack { block }) |])))

let tftp_flows_lockstep ?plant ~stepping () =
  let now = ref 0 in
  let clock_ms () = !now in
  let config = { Pipeline.default_config with max_flows = 4096 } in
  let machine = Lazy.force swt_sender and flight = tftp_flows_flight in
  let fmt = Stack.layer_format Fm.Stacks.inet_tftp 0 and stack = Fm.Stacks.inet_tftp in
  let fr = ref None and rr = ref None in
  let p =
    Pipeline.create ~config ~stack ~flight ~machine ~clock_ms ?plant
      ~on_response:(fun s -> fr := Some s)
      fmt
  in
  let r =
    Ck.Reference.create ~config ~stack ~flight ~machine ~clock_ms
      ~on_response:(fun s -> rr := Some s)
      fmt
  in
  let rng = Prng.of_int 2 in
  let pkts = Lazy.force tftp_flows_stream in
  let rec go i =
    if i >= Array.length pkts then begin
      let st = Pipeline.stats p in
      if Stats.evicted_flows st <> Ck.Reference.evicted r then
        Error (Printf.sprintf "evictions: fused %d, reference %d" (Stats.evicted_flows st)
                 (Ck.Reference.evicted r))
      else if Stats.timers_expired st <> Ck.Reference.expired r then
        Error (Printf.sprintf "expiries: fused %d, reference %d" (Stats.timers_expired st)
                 (Ck.Reference.expired r))
      else Ok (Ck.Reference.evicted r, Ck.Reference.expired r)
    end
    else begin
      if stepping && i mod 997 = 996 then now := !now + 151 + Prng.int rng 250;
      fr := None;
      rr := None;
      let a = Pipeline.process p pkts.(i) and b = Ck.Reference.process r pkts.(i) in
      if Testutil.outcome_tag a <> Testutil.outcome_tag b then
        Error (Printf.sprintf "packet %d: fused %s, reference %s" i (Testutil.outcome_tag a)
                 (Testutil.outcome_tag b))
      else if !fr <> !rr then Error (Printf.sprintf "packet %d: replies differ" i)
      else if Pipeline.flow_count p <> Ck.Reference.flow_count r then
        Error (Printf.sprintf "packet %d: live flows: fused %d, reference %d" i
                 (Pipeline.flow_count p) (Ck.Reference.flow_count r))
      else go (i + 1)
    end
  in
  go 0

let tftp_flows_vs_reference () =
  List.iter
    (fun stepping ->
      let what = if stepping then "stepping clock" else "frozen clock" in
      match tftp_flows_lockstep ~stepping () with
      | Error e -> Alcotest.failf "%s: %s" what e
      | Ok (evicted, expired) ->
        if evicted = 0 then Alcotest.failf "%s: no flow evicted — the table is idle" what;
        if stepping && expired = 0 then Alcotest.failf "%s: no timer expired" what)
    [ false; true ];
  match tftp_flows_lockstep ~plant:Flight.Evict_mru ~stepping:false () with
  | Ok _ -> Alcotest.fail "a flow table evicting its most recent flow went unnoticed"
  | Error _ -> ()

(* Three defects in code a pipeline-vs-pipeline leg would share with the
   code it checks, each planted and each caught by a reference leg through
   the fuzz driver at every seed: a flow table that evicts the wrong end
   and a wheel that fires a tick late (the flow leg, on inet_tftp), and a
   stacked patch under a payload-covering carrier checksum that repairs
   only its own layer (the covered-patch leg, on a sealed carrier). *)
let sealed_stack =
  lazy
    (let sealed =
       Desc.format "sealed"
         [ Desc.field "kind" Desc.u8;
           Desc.field "tag" Desc.u8;
           Desc.field "len" (Desc.computed 16 Desc.Msg_len);
           Desc.field "chk" (Desc.checksum ~region:Desc.Region_message Netdsl_util.Checksum.Internet);
           Desc.field "payload" Desc.bytes_remaining ]
     in
     Result.get_ok
       (Stack.v ~name:"sealed_arq"
          [ Stack.layer ~select:("kind", [ 7L ]) sealed; Stack.layer Fm.Arq.format ]))

let new_plants_caught () =
  List.iter
    (fun (bug, name, stack) ->
      List.iter
        (fun seed ->
          (match Ck.Fuzz.run_stack ~seed ~iters:3000 (name, Lazy.force stack) with
          | Ok _ -> ()
          | Error r -> fail_report r);
          match Ck.Fuzz.run_stack ~bug ~seed ~iters:3000 (name, Lazy.force stack) with
          | Ok _ -> Alcotest.failf "%s: planted defect not caught at seed %d" name seed
          | Error (Ck.Report.Trace _) -> Alcotest.fail "reported as a trace"
          | Error (Ck.Report.Wire { w_check; _ }) ->
            Alcotest.(check string) (Printf.sprintf "%s, seed %d: caught by a reply leg" name seed)
              "reply" w_check)
        [ 1; 42; 20260806; 777; 123456789 ])
    [ (Ck.Oracle.Evict_mru, "inet_tftp", lazy Fm.Stacks.inet_tftp);
      (Ck.Oracle.Late_tick, "inet_tftp", lazy Fm.Stacks.inet_tftp);
      (Ck.Oracle.Unrefused_patch, "sealed_arq", sealed_stack) ]

(* Generated chains on every catalogue stack under the default rotation
   spec. *)
let generated_chain_replies (name, stack) =
  Alcotest.test_case name `Quick (fun () ->
      let gen =
        match Ck.Corpus.stack_generator stack with
        | Some g -> g
        | None -> Alcotest.failf "%s is not generable" name
      in
      let o = Result.get_ok (Ck.Oracle.Stack_reply.create stack) in
      let rng = Prng.of_int seed in
      let pkts = Array.of_list (List.filter_map (fun _ -> gen rng) (List.init 500 Fun.id)) in
      if Array.length pkts < 100 then Alcotest.failf "only %d chains generated" (Array.length pkts);
      check_replies name o pkts)

(* The planted specialiser bug — one static-offset load one byte late in
   every compiled plan — must be caught on a format (a linear one, ICMP's
   and TFTP's flattened variant case plans, and sensor_report's counted
   array) by the register-by-register comparison against the codec
   ("flight"), before the fused pipeline leg sees the packet; by the
   chain leg on a stack; and by the stacked-reply leg on its own. *)
let planted_specialiser_bug () =
  let spec_format file name =
    Option.get (Netdsl_lang.Parser.find_format (Testutil.spec_program file) name)
  in
  List.iter
    (fun fmt ->
      let name = fmt.Netdsl_format.Desc.format_name in
      match Ck.Fuzz.run_format ~bug:Ck.Oracle.Late_static_load ~seed ~iters:200 fmt with
      | Ok _ -> Alcotest.failf "planted specialiser bug not caught on %s" name
      | Error (Ck.Report.Trace _) -> Alcotest.fail "reported as a trace"
      | Error (Ck.Report.Wire { w_check; _ }) ->
        Alcotest.(check string) (name ^ " caught by the value leg") "flight" w_check)
    [ Fm.Arq.format;
      Fm.Icmp.format;
      spec_format "tftp.ndsl" "tftp";
      spec_format "sensor.ndsl" "sensor_report" ];
  (match
     Ck.Fuzz.run_stack ~bug:Ck.Oracle.Late_static_load ~seed ~iters:50
       ("inet_tftp", Fm.Stacks.inet_tftp)
   with
  | Ok _ -> Alcotest.fail "planted specialiser bug not caught on inet_tftp"
  | Error (Ck.Report.Trace _) -> Alcotest.fail "reported as a trace"
  | Error (Ck.Report.Wire { w_check; _ }) ->
    Alcotest.(check string) "caught by the chain leg" "chain" w_check);
  List.iter
    (fun (name, stack) ->
      let o =
        Result.get_ok (Ck.Oracle.Stack_reply.create ~bug:Ck.Oracle.Late_static_load stack)
      in
      let caught =
        List.exists
          (fun pkt ->
            match Ck.Oracle.Stack_reply.check o pkt with
            | Ok () -> false
            | Error d -> String.equal d.Ck.Oracle.d_check "reply")
          (Ck.Corpus.stack_seeds stack)
      in
      if not caught then Alcotest.failf "stacked-reply leg missed it on %s" name)
    Fm.Stacks.all

(* The compiled path allocates nothing: every shipped format that builds
   a pipeline, and every catalogue stack, served through
   a fused pipeline that decodes, demands every eligible register and
   answers with patched replies. *)
let compiled_path_zero_alloc () =
  let measure name p pkts =
    let batch = Pipeline.default_config.Pipeline.batch in
    let window = Array.init batch (fun i -> pkts.(i mod Array.length pkts)) in
    Pipeline.process_batch p window batch;
    let rounds = 64 in
    let m0 = Gc.minor_words () in
    for _ = 1 to rounds do
      Pipeline.process_batch p window batch
    done;
    let m1 = Gc.minor_words () in
    let per_pkt = (m1 -. m0) *. float (Sys.word_size / 8) /. float (rounds * batch) in
    if per_pkt > 0. then Alcotest.failf "%s: the compiled path allocates %.2f B/pkt" name per_pkt
  in
  let answered = ref 0 in
  let on_reply_slot _ _ _ = incr answered in
  let served = ref 0 in
  List.iter
    (fun (name, fmt) ->
      let eligible = Netdsl_format.View.Hot.eligible_fields fmt in
      let respond =
        List.filter_map
          (fun f ->
            match Netdsl_format.Emit.patcher fmt f with
            | Ok _ ->
              Some { Flight.re_when = Flight.All [];
                     re_set = [ { Flight.set_field = f; set_to = Flight.Field f } ] }
            | Error _ -> None)
          eligible
      in
      match
        Pipeline.create ~flight:(Flight.spec ~demand:eligible ~respond ())
          ~on_reply_slot fmt
      with
      | exception Invalid_argument _ -> () (* no compiled plan: TLV, pcap *)
      | p ->
        incr served;
        measure name p (Ck.Corpus.seeds (Ck.Corpus.make fmt (Prng.of_int seed))))
    Ck.Corpus.shipped;
  if !served = 0 then Alcotest.fail "no shipped format builds a pipeline";
  List.iter
    (fun (name, stack) ->
      let p =
        Pipeline.create ~stack
          ~flight:(Ck.Oracle.Stack_reply.patch_spec stack) ~on_reply_slot
          (Stack.layer_format stack 0)
      in
      measure name p (Array.of_list (Ck.Corpus.stack_seeds stack)))
    Fm.Stacks.all;
  if !answered = 0 then Alcotest.fail "nothing answered — the measurement is vacuous"

(* Step vs Interp lock-step over every shipped machine: 80 traces, then
   200 (2 000 in the [`Slow] case). *)
let fuzz_machine ~iters (name, m) =
  match Ck.Fuzz.run_machine ~seed ~iters (name, m) with
  | Error r -> fail_report r
  | Ok stats ->
    if stats.Ck.Trace_fuzz.traces = 0 then Alcotest.fail "no traces executed";
    if stats.Ck.Trace_fuzz.fired = 0 then
      Alcotest.failf "no event ever fired on %s — the fuzz is vacuous" name

let trace_case (name, m) =
  Alcotest.test_case name `Quick (fun () ->
      fuzz_machine ~iters:80 (name, m);
      fuzz_machine ~iters:200 (name, m))

let trace_deep_case (name, m) =
  Alcotest.test_case (name ^ " at depth") `Slow (fun () ->
      fuzz_machine ~iters:2_000 (name, m))

let planted_trace_bug () =
  let target = List.hd Netdsl_proto.Machines.all in
  match Ck.Fuzz.run_machine ~bug:true ~seed ~iters:50 target with
  | Ok _ -> Alcotest.fail "planted trace bug not caught"
  | Error (Ck.Report.Wire _) -> Alcotest.fail "trace bug reported as wire"
  | Error (Ck.Report.Trace { t_events; _ }) ->
    (* minimal repro: exactly the first transition that can fire *)
    if List.length t_events > 2 then
      Alcotest.failf "trace not shrunk: %d events" (List.length t_events)

(* ---- the kernel pre-filter: sound on every corpus ----

   [Bpf.compile]'s program may pass what the decoder rejects, never the
   reverse.  The cBPF interpreter is the judge: no packet [Codec.decode]
   accepts may be dropped or trimmed, over golden and generated seeds,
   [Gen] output and structure-aware mutants of every shipped format. *)

module Bpf = Netdsl_format.Bpf
module View = Netdsl_format.View

let filter_unsound fmt prog pkts =
  let t = Ck.Bpf_oracle.prepare prog in
  List.find_map (fun p -> Ck.Bpf_oracle.unsound fmt t p) pkts

let mutant_stream fmt ~n =
  let rng = Prng.of_int seed in
  let corpus = Ck.Corpus.make ~golden:(golden fmt) fmt rng in
  let plan = Ck.Mutate.plan fmt in
  let generated =
    match Ck.Corpus.generator fmt with
    | Some g -> List.init 200 (fun _ -> g rng)
    | None -> []
  in
  Array.to_list (Ck.Corpus.seeds corpus)
  @ generated
  @ List.init n (fun _ ->
        let s = Ck.Corpus.pick corpus rng in
        Ck.Mutate.apply (Ck.Mutate.random plan rng s) s)

let filter_sound_case (name, fmt) =
  Alcotest.test_case name `Quick (fun () ->
      match Bpf.compile fmt with
      | None -> ()
      | Some prog -> (
        match filter_unsound fmt prog (mutant_stream fmt ~n:2000) with
        | None -> ()
        | Some d -> Alcotest.failf "%s: %s" name d))

(* the hostile soak stream of the net.loopback tests (arq-hostile's
   too): 1 in 7 an ACK, payloads 0-63 B, 1 in 4 a structure-aware
   mutant *)
let e16_stream ~seed ~n =
  let fmt = Fm.Arq.format in
  let plan = Ck.Mutate.plan fmt in
  let rng = Prng.of_int seed in
  List.init n (fun i ->
      let seq = i land 0xFF in
      let valid =
        if i mod 7 = 0 then Fm.Arq.to_bytes (Fm.Arq.Ack { seq })
        else Fm.Arq.to_bytes (Fm.Arq.Data { seq; payload = String.make (i mod 64) 'p' })
      in
      if i mod 4 = 3 then Ck.Mutate.apply (Ck.Mutate.random plan rng valid) valid
      else valid)

let filter_sound_e16 () =
  let prog = Option.get (Bpf.compile Fm.Arq.format) in
  List.iter
    (fun seed ->
      let stream = e16_stream ~seed ~n:8000 in
      (match filter_unsound Fm.Arq.format prog stream with
      | None -> ()
      | Some d -> Alcotest.failf "seed %d: %s" seed d);
      (* the mutants whose fixed-offset structure breaks: most of them *)
      let dropped = Ck.Bpf_oracle.dropped (Some (Ck.Bpf_oracle.prepare prog)) stream in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %d of 2000 mutants filtered" seed dropped)
        true
        (dropped > 1000 && dropped < 2000))
    [ 20260808; 1; 7; 101 ]

(* Each planted defect must drop or trim some accepted ARQ packet. *)
let filter_mutants_caught () =
  let prog = Option.get (Bpf.compile Fm.Arq.format) in
  let stream = mutant_stream Fm.Arq.format ~n:500 in
  let mutants = Ck.Bpf_oracle.mutants prog in
  Alcotest.(check (list string)) "all three apply"
    [ "tightened range"; "loads one byte late"; "accept returns 6" ]
    (List.map fst mutants);
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ " caught") true
        (filter_unsound Fm.Arq.format m stream <> None))
    mutants

(* The interpreter models what the socket receives: loads past the end
   and a zero return drop, a small return trims to the header. *)
let filter_interpreter () =
  let prog = Option.get (Bpf.compile Fm.Arq.format) in
  let run p = Ck.Bpf_oracle.run (Ck.Bpf_oracle.prepare p) in
  let valid = Fm.Arq.to_bytes (Fm.Arq.Data { seq = 1; payload = "abc" }) in
  let verdict = Alcotest.testable
      (fun ppf -> function
        | Ck.Bpf_oracle.Drop -> Format.pp_print_string ppf "drop"
        | Keep n -> Format.fprintf ppf "keep %d" n)
      ( = )
  in
  Alcotest.check verdict "valid kept whole" (Keep 9) (run prog valid);
  Alcotest.check verdict "short dropped" Drop
    (run prog (String.sub valid 0 8));
  Alcotest.check verdict "trimming accept" (Keep 0)
    (run (Option.get (Ck.Bpf_oracle.trim_accept prog)) valid);
  Alcotest.check verdict "return 12 keeps 4 payload bytes" (Keep 4)
    (run [| Bpf.Ret 12 |] valid);
  Alcotest.check verdict "a load past the end drops" Drop
    (run [| Bpf.Ld_abs (W, 100); Bpf.Ret Bpf.accept |] valid);
  Alcotest.(check bool) "no program passes everything" true
    (Ck.Bpf_oracle.passes None "")

(* ---- the kernel steering program: the OCaml partition, key by key ----

   [Bpf.steering]'s program must send every payload to the worker
   [Bpf.steer] assigns its key.  Every top-level field of every shipped
   format and spec that the emitter accepts is a steering-capable key;
   the interpreter runs its program over the key's whole domain (2^16
   evenly spread values for a wider key) at several worker counts, and
   over every payload too short to carry the key. *)

let shipped_formats () =
  Ck.Corpus.shipped
  @ List.concat_map
      (fun spec ->
        List.map
          (fun (name, fmt) -> (spec ^ ":" ^ name, fmt))
          (Testutil.spec_program spec).Netdsl_lang.Parser.formats)
      [ "abp.ndsl"; "arq.ndsl"; "ipv4.ndsl"; "sensor.ndsl"; "stacks.ndsl";
        "tftp.ndsl"; "timeout.ndsl" ]

(* (format label, field, extractor) for every steering-capable key *)
let steering_keys () =
  List.concat_map
    (fun (label, (fmt : Desc.t)) ->
      List.filter_map
        (fun (f : Desc.field) ->
          match
            (Bpf.steering fmt ~key:f.name ~workers:2, View.key_extractor fmt f.name)
          with
          | Ok _, Ok ke -> Some (label, fmt, f.name, ke)
          | _ -> None)
        fmt.fields)
    (shipped_formats ())

(* Payloads carrying each key of the domain, in one reused buffer: the
   key's bits at its offset, zeros around it. *)
let iter_key_payloads ke f =
  let bit_off, bits, _ = View.key_layout ke in
  let buf = Bytes.make (View.key_min_bytes ke) ' ' in
  let set_bit pos v =
    let i = pos lsr 3 and m = 0x80 lsr (pos land 7) in
    let c = Char.code (Bytes.get buf i) in
    Bytes.set buf i (Char.chr (if v then c lor m else c land lnot m))
  in
  let n = if bits <= 16 then 1 lsl bits else 1 lsl 16 in
  let stride = if bits <= 16 then 1 else 1 lsl (bits - 16) in
  for i = 0 to n - 1 do
    let k = (i * stride) + (i land (stride - 1)) in
    for b = 0 to bits - 1 do
      set_bit (bit_off + b) ((k lsr (bits - 1 - b)) land 1 = 1)
    done;
    f k (Bytes.unsafe_to_string buf)
  done

(* The first payload [prog] sends to another worker than the key's
   owner, if any. *)
let steering_disagrees ke prog ~workers =
  let t = Ck.Bpf_oracle.prepare prog in
  let exception Found of string in
  let check p ~want what =
    let got = Ck.Bpf_oracle.steer t p in
    if got <> want then
      raise (Found (Printf.sprintf "%s: program picks %d, owner is %d" (what ()) got want))
  in
  match
    iter_key_payloads ke (fun k p ->
        let key = View.extract_key_int ke p in
        if key <> k then raise (Found (Printf.sprintf "key %d read back as %d" k key));
        let _, bits, _ = View.key_layout ke in
        check p ~want:(Bpf.steer ~workers ~bits key) (fun () -> Printf.sprintf "key %d" k));
    for len = 0 to View.key_min_bytes ke - 1 do
      check (String.make len '\xff') ~want:0 (fun () ->
          Printf.sprintf "a %d-byte payload" len)
    done
  with
  | () -> None
  | exception Found d -> Some d

let steering_matches_partition () =
  let keys = steering_keys () in
  Alcotest.(check bool)
    (Printf.sprintf "%d steering-capable keys" (List.length keys))
    true (List.length keys > 20);
  List.iter
    (fun (label, fmt, key, ke) ->
      List.iter
        (fun workers ->
          match Bpf.steering fmt ~key ~workers with
          | Error e -> Alcotest.failf "%s.%s: %s" label key e
          | Ok prog -> (
            match steering_disagrees ke prog ~workers with
            | None -> ()
            | Some d -> Alcotest.failf "%s.%s, %d workers: %s" label key workers d))
        [ 2; 3; 4; 7 ])
    keys

(* Each planted defect must send some key to the wrong worker, on every
   steering-capable key, at three workers: a key of at most 8 bits is
   reduced without a hash, so only the late load applies to it. *)
let steering_mutants_caught () =
  List.iter
    (fun (label, fmt, key, ke) ->
      let prog = Result.get_ok (Bpf.steering fmt ~key ~workers:3) in
      let mutants = Ck.Bpf_oracle.mutants prog in
      let _, bits, _ = View.key_layout ke in
      Alcotest.(check (list string)) "the mutants that apply"
        ("loads one byte late" :: (if bits <= 8 then [] else [ "wrong multiplier" ]))
        (List.map fst mutants);
      List.iter
        (fun (name, m) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s.%s: %s caught" label key name)
            true
            (steering_disagrees ke m ~workers:3 <> None))
        mutants)
    (steering_keys ())

(* No worker owns much more than its share of a key's whole domain (2^16
   evenly spread values for a wider key): at most [ceil (D / N)] of the
   [D] values, plus 2% of [D] for the hash of a wider key.  Both values
   of a 1-bit key hashed to one worker of three before small keys were
   reduced without the hash. *)
let steering_shares () =
  List.iter
    (fun (label, _, key, ke) ->
      let _, bits, _ = View.key_layout ke in
      List.iter
        (fun workers ->
          let counts = Array.make workers 0 and d = ref 0 in
          iter_key_payloads ke (fun k _ ->
              let w = Bpf.steer ~workers ~bits k in
              counts.(w) <- counts.(w) + 1;
              incr d);
          let d = !d in
          let bound = ((d + workers - 1) / workers) + (d / 50) in
          Array.iteri
            (fun w c ->
              if c > bound then
                Alcotest.failf "%s.%s (%d bits), %d workers: worker %d owns %d of %d values \
                                (bound %d)"
                  label key bits workers w c d bound)
            counts)
        [ 2; 3; 4 ])
    (steering_keys ())

(* What the emitter refuses, it refuses by name. *)
let steering_refusals () =
  let refused fmt key =
    match Bpf.steering fmt ~key ~workers:2 with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "missing field" true (refused Fm.Arq.format "nope");
  Alcotest.(check bool) "variable-size field" true (refused Fm.Arq.format "payload");
  Alcotest.(check bool) "one worker" true
    (Result.is_error (Bpf.steering Fm.Arq.format ~key:"seq" ~workers:1));
  Alcotest.(check string) "arq seq (8 bits): load, reduce, return"
    "(000) ldb      [0]\n(001) mod      #3\n(002) ret      a\n"
    (Bpf.to_string (Result.get_ok (Bpf.steering Fm.Arq.format ~key:"seq" ~workers:3)));
  Alcotest.(check string) "udp dst_port (16 bits): load, hash, reduce, return"
    "(000) ldh      [2]\n(001) mul      #0x9e3779b1\n(002) rsh      #16\n\
     (003) mod      #3\n(004) ret      a\n"
    (Bpf.to_string (Result.get_ok (Bpf.steering Fm.Udp.format ~key:"dst_port" ~workers:3)))

let suite =
  [ ("check.golden", List.map golden_case Ck.Corpus.shipped);
    ("check.zero_iters", List.map zero_iters_case Ck.Corpus.shipped);
    ( "check.fuzz",
      List.map fuzz_case Ck.Corpus.shipped @ List.map fuzz_deep_case Ck.Corpus.shipped );
    ( "check.self",
      [ Alcotest.test_case "planted wire bug caught+shrunk" `Quick planted_wire_bug;
        Alcotest.test_case "planted fusion bug caught+shrunk" `Quick
          planted_flight_bug;
        Alcotest.test_case "planted bug deterministic" `Quick
          planted_bug_deterministic;
        Alcotest.test_case "mutation replay" `Quick mutation_replay;
        Alcotest.test_case "shrink bytes" `Quick shrink_bytes;
        Alcotest.test_case "shrink list" `Quick shrink_list;
        Alcotest.test_case "planted trace bug caught+shrunk" `Quick
          planted_trace_bug ] );
    ("check.filter", List.map filter_sound_case Ck.Corpus.shipped);
    ( "check.filter_self",
      [ Alcotest.test_case "sound on the e16 soak streams" `Quick filter_sound_e16;
        Alcotest.test_case "planted filter mutants caught" `Quick
          filter_mutants_caught;
        Alcotest.test_case "interpreter models drops and trims" `Quick
          filter_interpreter ] );
    ( "check.steering",
      [ Alcotest.test_case "program = partition over every key domain" `Quick
          steering_matches_partition;
        Alcotest.test_case "planted steering mutants caught" `Quick
          steering_mutants_caught;
        Alcotest.test_case "per-worker share of every key domain" `Quick steering_shares;
        Alcotest.test_case "refusals and the arq program" `Quick
          steering_refusals ] );
    ("check.chain_golden", List.map chain_golden_case Fm.Stacks.all);
    ( "check.chain",
      List.map chain_fuzz_case Fm.Stacks.all @ List.map chain_fuzz_deep_case Fm.Stacks.all );
    ( "check.chain_self",
      [ Alcotest.test_case "chained corpus seeds decode" `Quick chain_seeds_decode;
        Alcotest.test_case "planted chain bug caught" `Quick planted_chain_bug ] );
    ( "check.stack_reply",
      [ Alcotest.test_case "tftp-flows stream" `Quick tftp_flows_replies;
        Alcotest.test_case "tftp-flows shape: fused = reference" `Quick
          tftp_flows_vs_reference;
        Alcotest.test_case "new plants caught at every seed" `Quick new_plants_caught;
        Alcotest.test_case "planted specialiser bug caught by every leg" `Quick
          planted_specialiser_bug;
        Alcotest.test_case "compiled path allocates nothing" `Quick
          compiled_path_zero_alloc ] );
    ("check.stack_reply_gen", List.map generated_chain_replies Fm.Stacks.all);
    ( "check.trace",
      List.map trace_case Netdsl_proto.Machines.all
      @ List.map trace_deep_case Netdsl_proto.Machines.all ) ]
