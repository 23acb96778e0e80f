(* The netdsl compiler driver: check, inspect, fuzz and compile .ndsl
   protocol specifications from the command line. *)

open Cmdliner
module P = Netdsl.Lang.Parser

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match P.parse_string (read_file path) with
  | Ok program -> program
  | Error e ->
    Format.eprintf "%s: %a@." path P.pp_error e;
    exit 1

let find_format program name =
  match P.find_format program name with
  | Some fmt -> fmt
  | None ->
    Format.eprintf "no format named %S (have: %s)@." name
      (String.concat ", " (List.map fst program.P.formats));
    exit 1

let find_machine program name =
  match P.find_machine program name with
  | Some m -> m
  | None ->
    Format.eprintf "no machine named %S (have: %s)@." name
      (String.concat ", " (List.map fst program.P.machines));
    exit 1

let find_stack program name =
  match P.find_stack program name with
  | Some st -> st
  | None ->
    Format.eprintf "no stack named %S (have: %s)@." name
      (String.concat ", " (List.map fst program.P.stacks));
    exit 1

(* A stack is only usable through its fused plan; a chain the compiler
   cannot fuse is a spec defect, reported before any packet is touched. *)
let compile_stack st =
  match Netdsl.Stack.compile st with
  | Ok plan -> plan
  | Error e ->
    Format.eprintf "netdsl: stack %s does not fuse: %s@." (Netdsl.Stack.name st) e;
    exit 1

(* ------------------------------------------------------------------ *)
(* Arguments *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"The .ndsl source file.")

let format_opt =
  Arg.(value & opt (some string) None & info [ "format"; "f" ] ~docv:"NAME" ~doc:"Format to operate on (default: the file's one root format, which no other format references).")

let machine_opt =
  Arg.(value & opt (some string) None & info [ "machine"; "m" ] ~docv:"NAME" ~doc:"Machine to operate on (default: the first one).")

let seed_opt =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let stack_opt =
  Arg.(value & opt (some string) None & info [ "stack"; "s" ] ~docv:"NAME"
         ~doc:"Layered stack to operate on instead of a single format.")

(* The default format is the file's root: the one format no other format
   in the file references.  A nested record, array element or variant
   case body is never the default, and a file with several roots names
   them instead of guessing. *)
let pick_format program = function
  | Some name -> find_format program name
  | None -> (
    let referenced (fmt : Netdsl.Desc.t) =
      List.concat_map
        (fun (f : Netdsl.Desc.field) ->
          match f.ty with
          | Netdsl.Desc.Record sub | Netdsl.Desc.Array { elem = sub; _ } ->
            [ sub.format_name ]
          | Netdsl.Desc.Variant { cases; default; _ } ->
            List.map
              (fun (sub : Netdsl.Desc.t) -> sub.format_name)
              (List.map (fun (_, _, sub) -> sub) cases @ Option.to_list default)
          | _ -> [])
        fmt.fields
    in
    let nested = List.concat_map (fun (_, fmt) -> referenced fmt) program.P.formats in
    match List.filter (fun (name, _) -> not (List.mem name nested)) program.P.formats with
    | [ (_, fmt) ] -> fmt
    | [] ->
      prerr_endline "the file defines no formats";
      exit 1
    | roots ->
      Format.eprintf "netdsl: the file has %d root formats (%s); name the one to use@."
        (List.length roots)
        (String.concat ", " (List.map fst roots));
      exit 1)

let pick_machine program = function
  | Some name -> find_machine program name
  | None -> (
    match program.P.machines with
    | (_, m) :: _ -> m
    | [] ->
      prerr_endline "the file defines no machines";
      exit 1)

(* ------------------------------------------------------------------ *)
(* Commands *)

let check_cmd =
  let run file =
    let program = load file in
    List.iter
      (fun (name, fmt) ->
        let warnings =
          List.filter
            (fun d -> d.Netdsl.Wf.severity = Netdsl.Wf.Warning)
            (Netdsl.Wf.check fmt)
        in
        Format.printf "format %s: %s (%a)@." name
          (if warnings = [] then "ok" else "ok with warnings")
          Netdsl.Sizing.pp_bounds (Netdsl.Sizing.bounds fmt);
        List.iter (fun d -> Format.printf "  %a@." Netdsl.Wf.pp_diagnostic d) warnings)
      program.P.formats;
    List.iter
      (fun (name, st) ->
        let plan = compile_stack st in
        Format.printf "stack %s: ok (%d layers: %s)@." name
          (Netdsl.Stack.layer_count plan)
          (String.concat " -> " (Netdsl.Stack.layer_names st)))
      program.P.stacks;
    List.iter
      (fun (_, m) ->
        let report = Netdsl.Analysis.analyse m in
        Format.printf "%a@." Netdsl.Analysis.pp_report report)
      program.P.machines
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse a specification and report analyses: sizes, well-formedness warnings, completeness, determinism, reachability.")
    Term.(const run $ file_arg)

let diagram_cmd =
  let run file format =
    let program = load file in
    let fmt = pick_format program format in
    print_string (Netdsl.Diagram.render fmt)
  in
  Cmd.v
    (Cmd.info "diagram" ~doc:"Render a format as an RFC-style ASCII packet diagram (the paper's Figure 1, regenerated).")
    Term.(const run $ file_arg $ format_opt)

let filter_cmd =
  (* The kernel pre-filter [netdsl serve] attaches to its UDP listeners:
     the format's fixed-offset wire checks as classic BPF. *)
  let format_pos =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FORMAT"
           ~doc:"Format to compile (default: the file's one root format, which no other format references).")
  in
  let run file format =
    let program = load file in
    let fmt = pick_format program format in
    match Netdsl.Bpf.compile fmt with
    | None ->
      Format.printf "%s: no fixed-offset wire check compiles; no filter is attached@."
        fmt.Netdsl.Desc.format_name
    | Some prog ->
      Format.printf
        "%s: %d instructions; offsets from the UDP header (payload at +%d)@."
        fmt.Netdsl.Desc.format_name (Array.length prog) Netdsl.Bpf.udp_header;
      print_string (Netdsl.Bpf.to_string prog)
  in
  Cmd.v
    (Cmd.info "filter"
       ~doc:"Print the classic-BPF socket filter compiled from a format's fixed-offset wire checks (what $(b,serve) attaches to every UDP listener), one instruction per line in tcpdump -d style.")
    Term.(const run $ file_arg $ format_pos)

let dot_cmd =
  let run file machine =
    let program = load file in
    print_string (Netdsl.Dot.of_machine (pick_machine program machine))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a machine as a Graphviz digraph.")
    Term.(const run $ file_arg $ machine_opt)

let fuzz_cmd =
  (* Differential fuzzing: every format in the file is hammered with
     structure-aware wire mutants and every compiled fast path (the
     format's compiled plan, the engine Pipelines, the kernel pre-filter)
     must agree with the reference Codec; every machine is driven with
     adversarial event traces and the compiled Step plan must stay in
     lock-step with Interp.
     Exit 1 with a deterministic, committable repro on the first
     disagreement. *)
  let iters_opt =
    Arg.(value & opt int 10_000 & info [ "iters"; "n" ] ~docv:"K"
           ~doc:"Mutants per format and traces per machine.")
  in
  let plant_bug_flag =
    Arg.(value & flag & info [ "plant-bug" ]
           ~doc:"Self-test: plant a known defect (an inverted accept verdict \
                 of the format's compiled plan on formats, an inverted chain \
                 accept verdict on stacks) and prove the harness catches and \
                 shrinks it.")
  in
  let plant_filter_flag =
    Arg.(value & flag & info [ "plant-filter-bug" ]
           ~doc:"Self-test: plant a kernel pre-filter that reads every field one \
                 byte late, and prove the filter leg catches it dropping accepted \
                 packets.")
  in
  let plant_specialiser_flag =
    Arg.(value & flag & info [ "plant-specialiser-bug" ]
           ~doc:"Self-test: plant a compiled fast path whose specialiser reads one \
                 static-offset field one byte late, and prove the fused, chain \
                 and stacked-reply legs catch it.")
  in
  let repro_dir_opt =
    Arg.(value & opt (some string) None & info [ "repro-dir" ] ~docv:"DIR"
           ~doc:"Also save any repro dump as a file under DIR (for CI artifacts).")
  in
  let run file format machine stack seed iters plant_bug plant_filter
      plant_specialiser repro_dir =
    let program = load file in
    let module Check = Netdsl.Check in
    (* no selector: fuzz everything in the file; any selector: fuzz only
       the selected targets *)
    let selected = format <> None || machine <> None || stack <> None in
    let formats =
      match format with
      | Some name -> [ (name, find_format program name) ]
      | None -> if selected then [] else program.P.formats
    in
    let machines =
      match machine with
      | Some name -> [ (name, find_machine program name) ]
      | None -> if selected then [] else program.P.machines
    in
    let stacks =
      match stack with
      | Some name -> [ (name, find_stack program name) ]
      | None -> if selected then [] else program.P.stacks
    in
    let bug =
      if plant_bug then Check.Oracle.Invert_flight_accept
      else if plant_filter then Check.Oracle.Shift_filter_loads
      else if plant_specialiser then Check.Oracle.Late_static_load
      else Check.Oracle.No_bug
    in
    let fail report =
      print_string (Check.Report.to_string report);
      flush stdout;
      (match repro_dir with
      | None -> ()
      | Some dir ->
        let path = Check.Report.save ~dir report in
        Format.eprintf "repro saved to %s@." path);
      Format.eprintf "netdsl: fuzzing found a disagreement@.";
      exit 1
    in
    List.iter
      (fun (name, fmt) ->
        match Check.Fuzz.run_format ~bug ~seed ~iters fmt with
        | Error report -> fail report
        | Ok stats ->
          Format.printf
            "format %s: %d mutants (%d accepted, %d rejected; the kernel pre-filter \
             drops %d) — all paths agree@."
            name stats.Check.Fuzz.ws_mutants stats.Check.Fuzz.ws_accepted
            stats.Check.Fuzz.ws_rejected stats.Check.Fuzz.ws_filtered;
          Option.iter
            (Format.printf "  (pipeline legs skipped: %s)@.")
            stats.Check.Fuzz.ws_skipped)
      formats;
    List.iter
      (fun (name, st) ->
        (* fail on an unfusable stack before fuzzing anything *)
        ignore (compile_stack st);
        let bug =
          if plant_bug then Check.Oracle.Invert_chain_accept
          else if plant_filter then Check.Oracle.Shift_filter_loads
          else if plant_specialiser then Check.Oracle.Late_static_load
          else Check.Oracle.No_bug
        in
        match Check.Fuzz.run_stack ~bug ~seed ~iters (name, st) with
        | Error report -> fail report
        | Ok stats ->
          Format.printf
            "stack %s: %d mutants (%d chained, %d rejected; %d answered) — fused = \
             sequential, replies = reference@."
            name stats.Check.Fuzz.cs_mutants stats.Check.Fuzz.cs_accepted
            stats.Check.Fuzz.cs_rejected stats.Check.Fuzz.cs_answered)
      stacks;
    List.iter
      (fun (name, m) ->
        match Check.Fuzz.run_machine ~seed ~iters (name, m) with
        | Error report -> fail report
        | Ok stats ->
          Format.printf
            "machine %s: %d traces, %d events (%d fired, %d refused) — step = interp@."
            name stats.Check.Trace_fuzz.traces stats.Check.Trace_fuzz.events
            stats.Check.Trace_fuzz.fired stats.Check.Trace_fuzz.refused)
      machines;
    Format.printf "fuzzed %d format(s), %d stack(s), %d machine(s): no disagreements@."
      (List.length formats) (List.length stacks) (List.length machines)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially fuzz a specification: structure-aware wire mutants through Codec and the compiled plan, the Pipelines and the kernel pre-filter, cross-layer mutants through every stack's fused chain vs sequential decode and its fused replies vs the reference executor, adversarial event traces through Step/Interp; exit 1 with a minimised repro on any disagreement.")
    Term.(const run $ file_arg $ format_opt $ machine_opt $ stack_opt $ seed_opt
          $ iters_opt $ plant_bug_flag $ plant_filter_flag $ plant_specialiser_flag
          $ repro_dir_opt)

let tests_cmd =
  let run file machine =
    let program = load file in
    let m = pick_machine program machine in
    let tests = Netdsl.Testgen.transition_tests m in
    Format.printf "%d behavioural test cases derived from %s:@." (List.length tests)
      m.Netdsl.Machine.machine_name;
    List.iter
      (fun tc ->
        Format.printf "  %-24s %s => %a@." tc.Netdsl.Testgen.tc_name
          (String.concat " " tc.Netdsl.Testgen.events)
          Netdsl.Machine.pp_config tc.Netdsl.Testgen.expected)
      tests;
    let tour = Netdsl.Testgen.transition_tour m in
    Format.printf "transition tour (%d events, %d runs): %s@."
      (List.length (List.concat tour))
      (List.length tour)
      (String.concat " / " (List.map (String.concat " ") tour))
  in
  Cmd.v
    (Cmd.info "tests" ~doc:"Derive behavioural conformance tests from a machine definition (the paper's automatic test construction).")
    Term.(const run $ file_arg $ machine_opt)

let codegen_cmd =
  let run file =
    let program = load file in
    print_string (Netdsl.Lang.Codegen.to_ocaml program)
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit an OCaml module reconstructing the specification's formats and machines.")
    Term.(const run $ file_arg)

let decode_cmd =
  let hex_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"HEX" ~doc:"Packet bytes in hex.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the decoded value as JSON.")
  in
  (* Chained decode: walk the layered packet with the sequential decoder
     (the same windows the fused plan computes) and print every layer's
     decoded value.  A demux mismatch or a truncated inner header exits 1
     with the failing layer named. *)
  let decode_stack program name bytes json =
    let st = find_stack program name in
    let plan = compile_stack st in
    let seq = Netdsl.Stack.Seq.create plan in
    (match Netdsl.Stack.Seq.decode seq bytes with
    | Ok () -> ()
    | Error e ->
      Format.eprintf "netdsl: invalid layered packet: %s@."
        (Netdsl.Codec.error_to_string e);
      exit 1);
    let layers =
      List.mapi
        (fun i lname ->
          ( lname,
            Netdsl.Stack.layer_format st i,
            Netdsl.Stack.Seq.layer_off seq i,
            Netdsl.Stack.Seq.layer_len seq i,
            Netdsl.Stack.Seq.value seq i ))
        (Netdsl.Stack.layer_names st)
    in
    if json then
      print_endline
        ("{ "
        ^ String.concat ", "
            (List.map
               (fun (lname, _, _, _, v) ->
                 Printf.sprintf "%S: %s" lname (Netdsl.Value.to_json v))
               layers)
        ^ " }")
    else
      List.iter
        (fun (lname, fmt, off, len, v) ->
          Format.printf "-- %s (%s) bytes [%d, %d) --@.%s@." lname
            fmt.Netdsl.Desc.format_name off (off + len)
            (Netdsl.Value.to_string v))
        layers
  in
  let run file format stack hex json =
    let program = load file in
    let bytes =
      match Netdsl.Hexdump.of_hex hex with
      | b -> b
      | exception Invalid_argument msg ->
        (* "Hexdump.of_hex: odd length" → "odd length" *)
        let reason =
          match String.index_opt msg ':' with
          | Some i -> String.sub msg (i + 2) (String.length msg - i - 2)
          | None -> msg
        in
        Format.eprintf "netdsl: malformed hex input: %s@." reason;
        exit 1
    in
    match stack with
    | Some name -> decode_stack program name bytes json
    | None -> (
      let fmt = pick_format program format in
      match Netdsl.Codec.decode fmt bytes with
      | Ok v ->
        if json then print_endline (Netdsl.Value.to_json v)
        else Format.printf "%s@." (Netdsl.Value.to_string v)
      | Error e ->
        Format.eprintf "invalid packet: %s@." (Netdsl.Codec.error_to_string e);
        exit 2)
  in
  Cmd.v
    (Cmd.info "decode"
       ~doc:"Decode and validate a hex packet against a format — or, with $(b,--stack), against a layered chain, printing every layer's fields.")
    Term.(const run $ file_arg $ format_opt $ stack_opt $ hex_arg $ json_flag)

let encode_cmd =
  let fields_arg =
    Arg.(value & pos_right 0 string []
         & info [] ~docv:"FIELD=VALUE"
             ~doc:"Field assignments.  Integers accept 0x/0o/0b prefixes; byte \
                   fields take a literal string or $(b,hex:)-prefixed hex; \
                   flags take true/false.  Derived fields (lengths, checksums, \
                   constants) are filled in automatically.")
  in
  let run file format assignments =
    let program = load file in
    let fmt = pick_format program format in
    let die msg =
      Format.eprintf "netdsl: cannot encode: %s@." msg;
      exit 1
    in
    let parse_assignment a =
      match String.index_opt a '=' with
      | None -> die (Printf.sprintf "%S is not a FIELD=VALUE assignment" a)
      | Some i ->
        let name = String.sub a 0 i in
        let raw = String.sub a (i + 1) (String.length a - i - 1) in
        let field =
          match Netdsl.Desc.find_field fmt name with
          | Some f -> f
          | None -> die (Printf.sprintf "no top-level field %S" name)
        in
        let value =
          match field.Netdsl.Desc.ty with
          | Netdsl.Desc.Bytes _ ->
            if String.length raw >= 4 && String.equal (String.sub raw 0 4) "hex:"
            then (
              match Netdsl.Hexdump.of_hex (String.sub raw 4 (String.length raw - 4)) with
              | b -> Netdsl.Value.bytes b
              | exception Invalid_argument _ ->
                die (Printf.sprintf "%s: malformed hex value %S" name raw))
            else Netdsl.Value.bytes raw
          | Netdsl.Desc.Bool_flag -> (
            match String.lowercase_ascii raw with
            | "true" | "1" -> Netdsl.Value.bool true
            | "false" | "0" -> Netdsl.Value.bool false
            | _ -> die (Printf.sprintf "%s: expected true or false, got %S" name raw))
          | _ -> (
            match Int64.of_string raw with
            | v -> Netdsl.Value.int64 v
            | exception _ ->
              die (Printf.sprintf "%s: %S is not an integer" name raw))
        in
        (name, value)
    in
    let value = Netdsl.Value.record (List.map parse_assignment assignments) in
    match Netdsl.Codec.encode fmt value with
    | Ok bytes -> print_endline (Netdsl.Hexdump.to_hex bytes)
    | Error e -> die (Netdsl.Codec.error_to_string e)
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:"Encode FIELD=VALUE assignments into a wire packet (printed as hex); derived fields are computed, supplied values are validated against widths and constraints.")
    Term.(const run $ file_arg $ format_opt $ fields_arg)

let bench_cmd =
  let bench_count_opt =
    Arg.(value & opt int 200_000 & info [ "count"; "n" ] ~docv:"N"
           ~doc:"Packets to push through the engine.")
  in
  let corrupt_opt =
    Arg.(value & opt float 0.0 & info [ "corrupt" ] ~docv:"FRACTION"
           ~doc:"Fraction of packets to bit-flip before feeding (exercises the reject path).")
  in
  let run file format count corrupt seed =
    let program = load file in
    let fmt = pick_format program format in
    let rng = Netdsl.Prng.of_int seed in
    let pool_size = max 1 (min count 4096) in
    let pool =
      try
        Array.init pool_size (fun _ ->
            let pkt = Netdsl.Gen.generate_bytes rng fmt in
            if corrupt > 0.0 && Netdsl.Prng.bernoulli rng corrupt then
              Netdsl.Gen.mutate rng ~flips:(1 + Netdsl.Prng.int rng 4) pkt
            else pkt)
      with Netdsl.Gen.Unsupported reason ->
        Format.eprintf "netdsl: cannot generate packets for %s: %s@."
          fmt.Netdsl.Desc.format_name reason;
        exit 1
    in
    let t0 = Unix.gettimeofday () in
    let pipe = Netdsl.Engine.Pipeline.create fmt in
    let batch = Netdsl.Engine.Pipeline.default_config.batch in
    let buf = Array.make batch "" in
    let fed = ref 0 in
    while !fed < count do
      let n = min batch (count - !fed) in
      for i = 0 to n - 1 do
        buf.(i) <- pool.((!fed + i) mod pool_size)
      done;
      Netdsl.Engine.Pipeline.process_batch pipe buf n;
      fed := !fed + n
    done;
    let stats = Netdsl.Engine.Pipeline.stats pipe in
    let dt = Unix.gettimeofday () -. t0 in
    let packets = Netdsl.Engine.Stats.stage_packets stats 0 in
    let bytes = Netdsl.Engine.Stats.stage_bytes stats 0 in
    print_string (Netdsl.Engine.Stats.to_text stats);
    Format.printf "%d packets, %d bytes in %.3fs — %.0f pkts/s, %.1f MB/s@."
      packets bytes dt
      (float_of_int packets /. dt)
      (float_of_int bytes /. dt /. 1e6)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Push generated packets for a format through one engine pipeline and report per-stage counters and throughput (multicore serving is $(b,serve --workers)).")
    Term.(const run $ file_arg $ format_opt $ bench_count_opt $ corrupt_opt
          $ seed_opt)

let print_cmd =
  let run file =
    let program = load file in
    print_string (Netdsl.Lang.Printer.program_to_ndsl program)
  in
  Cmd.v
    (Cmd.info "print"
       ~doc:"Parse and pretty-print the specification back to canonical .ndsl syntax (a formatter; also works as a decompiler for programs built with the OCaml API and exported via codegen).")
    Term.(const run $ file_arg)

let abnf_cmd =
  let run file format =
    let program = load file in
    let fmt = pick_format program format in
    print_string (Netdsl.Abnf.export fmt)
  in
  Cmd.v
    (Cmd.info "abnf"
       ~doc:"Export a format's syntactic skeleton as ABNF (RFC 5234); everything ABNF cannot express is listed as comments, making the DSL's semantic layer explicit.")
    Term.(const run $ file_arg $ format_opt)

let run_cmd =
  let events_arg =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"EVENT" ~doc:"Events to fire, in order.")
  in
  let run file machine events =
    let program = load file in
    let m = pick_machine program machine in
    let i = Netdsl.Interp.create m in
    Format.printf "start: %a@." Netdsl.Machine.pp_config (Netdsl.Interp.config i);
    List.iter
      (fun event ->
        match Netdsl.Interp.fire i event with
        | Ok t ->
          Format.printf "%-12s -[%s]-> %a@." event t.Netdsl.Machine.t_label
            Netdsl.Machine.pp_config (Netdsl.Interp.config i)
        | Error e ->
          Format.printf "%-12s REFUSED: %a@." event Netdsl.Interp.pp_error e;
          exit 2)
      events;
    Format.printf "final state %s (accepting: %b)@." (Netdsl.Interp.state i)
      (Netdsl.Interp.in_accepting i)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a machine on an event sequence; invalid transitions are refused, never executed.")
    Term.(const run $ file_arg $ machine_opt $ events_arg)

let fsm_cmd =
  (* Compiled-plan counterpart of [run]: the machine is lowered once
     (Step.compile) and driven on interned event ids — the same execution
     path the engine's step stage uses. *)
  let run_cmd =
    let events_arg =
      Arg.(value & pos_right 0 string [] & info [] ~docv:"EVENT" ~doc:"Events to fire, in order.")
    in
    let run file machine events =
      let program = load file in
      let m = pick_machine program machine in
      let plan = Netdsl.Step.compile m in
      let inst = Netdsl.Step.instance plan in
      Format.printf "compiled %s: %d states, %d events, %d registers@."
        m.Netdsl.Machine.machine_name (Netdsl.Step.n_states plan)
        (Netdsl.Step.n_events plan)
        (Netdsl.Step.n_registers plan);
      Format.printf "start: %a@." Netdsl.Machine.pp_config (Netdsl.Step.config inst);
      List.iter
        (fun event ->
          match Netdsl.Step.fire inst event with
          | Netdsl.Step.Fired ->
            let t = Netdsl.Step.transition plan (Netdsl.Step.last_transition inst) in
            Format.printf "%-12s -[%s]-> %a@." event t.Netdsl.Machine.t_label
              Netdsl.Machine.pp_config (Netdsl.Step.config inst)
          | verdict ->
            Format.eprintf "netdsl: %s@." (Netdsl.Step.describe inst event verdict);
            exit 1)
        events;
      Format.printf "final state %s (accepting: %b)@."
        (Netdsl.Step.state_name_of inst)
        (Netdsl.Step.in_accepting inst)
    in
    Cmd.v
      (Cmd.info "run"
         ~doc:"Execute a machine on an event sequence via its compiled step plan; an unhandled, unknown or nondeterministic event aborts with a clear message.")
      Term.(const run $ file_arg $ machine_opt $ events_arg)
  in
  Cmd.group
    (Cmd.info "fsm" ~doc:"Operate on machines through compiled execution plans.")
    [ run_cmd ]

let modelcheck_cmd =
  let avoid_opt =
    Arg.(value & opt (some string) None & info [ "avoid" ] ~docv:"STATE"
           ~doc:"Also check the safety invariant that no machine ever reaches a state with this name.")
  in
  let max_states_opt =
    Arg.(value & opt int 1_000_000 & info [ "max-states" ] ~docv:"N"
           ~doc:"Exploration bound.")
  in
  let run file avoid max_states =
    let program = load file in
    (match program.P.machines with
    | [] ->
      prerr_endline "the file defines no machines";
      exit 1
    | _ -> ());
    let sys =
      Netdsl.Compose.create ~name:(Filename.basename file)
        (List.map snd program.P.machines)
    in
    let stats = Netdsl.Model_check.explore ~max_states sys in
    Format.printf "composed %d machines: %d states, %d transitions%s@."
      (List.length program.P.machines)
      stats.Netdsl.Model_check.num_states stats.Netdsl.Model_check.num_edges
      (if stats.Netdsl.Model_check.complete then "" else " (truncated)");
    let failures = ref 0 in
    let verdict name = function
      | Netdsl.Model_check.Holds -> Format.printf "  %-24s HOLDS@." name
      | Netdsl.Model_check.Violated (g, trace) ->
        incr failures;
        Format.printf "  %-24s VIOLATED at %a@.  counterexample (%d steps):@.@[<v>%a@]@."
          name Netdsl.Compose.pp_global g (List.length trace)
          Netdsl.Model_check.pp_trace trace
      | Netdsl.Model_check.Unknown ->
        incr failures;
        Format.printf "  %-24s UNKNOWN (exploration truncated)@." name
    in
    verdict "deadlock freedom" (Netdsl.Model_check.check_deadlock_free ~max_states sys);
    verdict "can always finish"
      (Netdsl.Model_check.check_eventually_accepting ~max_states sys);
    (match avoid with
    | None -> ()
    | Some bad ->
      verdict
        (Printf.sprintf "never reaches %S" bad)
        (Netdsl.Model_check.check_invariant ~max_states sys (fun global ->
             not
               (List.exists
                  (fun c -> String.equal c.Netdsl.Machine.state bad)
                  global))));
    if !failures > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:"Compose every machine in the file (synchronising on shared event names) and model-check deadlock freedom, the ability to finish, and an optional avoid-state invariant.")
    Term.(const run $ file_arg $ avoid_opt $ max_states_opt)

let serve_cmd =
  let udp_opt =
    Arg.(value & opt (some int) None & info [ "udp" ] ~docv:"PORT"
           ~doc:"Listen for UDP datagrams on this port (0 picks an ephemeral port).")
  in
  let tcp_opt =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Listen for TCP connections carrying u16 big-endian length-prefixed frames, one frame per packet.")
  in
  let host_opt =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Numeric listen address.")
  in
  let max_packets_opt =
    Arg.(value & opt (some int) None & info [ "max-packets" ] ~docv:"N"
           ~doc:"Stop after processing N packets (0 exits right after binding).")
  in
  let duration_opt =
    Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Stop after this many seconds.")
  in
  let patch_opt =
    Arg.(value & opt_all string [] & info [ "patch" ] ~docv:"FIELD=VALUE"
           ~doc:"Patch this scalar field of the reply to a constant (repeatable).  Without any, the reply echoes the validated request unchanged.")
  in
  let serve_workers_opt =
    Arg.(value & opt int 1 & info [ "workers"; "w" ] ~docv:"N"
           ~doc:"Serve with N worker domains (UDP only), each its own copy of the serve loop on its own SO_REUSEPORT socket: a classic-BPF program compiled from the $(b,--shard-key) field has the kernel hand every datagram of a flow to the same worker.  Requires $(b,--shard-key).")
  in
  let shard_key_opt =
    Arg.(value & opt (some string) None & info [ "shard-key" ] ~docv:"FIELD"
           ~doc:"Field to steer on with --workers > 1; all packets sharing a value land on the same worker.")
  in
  let oversubscribe_opt =
    Arg.(value & flag & info [ "allow-oversubscribe" ]
           ~doc:"Allow more worker domains than available cores (they will time-share; throughput numbers then measure the scheduler).")
  in
  let tick_opt =
    Arg.(value & opt int 1 & info [ "tick" ] ~docv:"MS"
           ~doc:"Timer-wheel granularity: one engine tick per MS milliseconds (default 1).  Timeout durations declared by the served machine round up to whole ticks; without $(b,timeout) clauses the flag has no effect.")
  in
  let io_opt =
    Arg.(value
         & opt (enum [ ("auto", `Auto); ("legacy", `Legacy); ("mmsg", `Mmsg) ])
             `Auto
         & info [ "io" ] ~docv:"MODE"
             ~doc:"Receive-loop flavor: $(b,mmsg) forces the batched recvmmsg/sendmmsg + persistent-epoll path (UDP only; fails fast where the kernel lacks it), $(b,legacy) forces select + recvfrom/sendto, $(b,auto) (the default) picks mmsg when available.")
  in
  let io_batch_opt =
    Arg.(value & opt int 32 & info [ "io-batch" ] ~docv:"N"
           ~doc:"Datagrams moved per recvmmsg/sendmmsg call on the batched path (default 32); also sizes the reply staging window.")
  in
  let run file fmt_name stack_name host udp tcp max_packets duration patches
      workers shard_key allow_oversubscribe tick_ms io io_batch =
    let program = load file in
    let die msg =
      Format.eprintf "netdsl: %s@." msg;
      exit 1
    in
    let stack = Option.map (find_stack program) stack_name in
    Option.iter (fun st -> ignore (compile_stack st)) stack;
    let fmt =
      (* a stacked server's pipeline format is the chain's outermost layer *)
      match stack with
      | Some st -> Netdsl.Stack.layer_format st 0
      | None -> pick_format program fmt_name
    in
    let module Net = Netdsl.Net in
    let module Flight = Netdsl.Engine.Flight in
    (* Validate one --patch FIELD: bare field of [fmt], or, when serving a
       stack, a qualified "layer.field" resolved against the owning
       layer's format — rejected before binding either way. *)
    let check_patch_field field =
      match stack with
      | None ->
        if Netdsl.Desc.find_field fmt field = None then
          die
            (Printf.sprintf "unknown field %S in --patch (have: %s)" field
               (String.concat ", " (Netdsl.Desc.field_names fmt)));
        Netdsl.Emit.patcher fmt field
      | Some st -> (
        match String.index_opt field '.' with
        | None ->
          die
            (Printf.sprintf
               "--patch %S: patches on a stack are qualified \"layer.field\" \
                (layers: %s)"
               field
               (String.concat ", " (Netdsl.Stack.layer_names st)))
        | Some i -> (
          let lname = String.sub field 0 i in
          let fname = String.sub field (i + 1) (String.length field - i - 1) in
          let names = Netdsl.Stack.layer_names st in
          match
            List.find_index (fun n -> String.equal n lname) names
          with
          | None ->
            die
              (Printf.sprintf "unknown layer %S in --patch (have: %s)" lname
                 (String.concat ", " names))
          | Some li ->
            let lfmt = Netdsl.Stack.layer_format st li in
            if Netdsl.Desc.find_field lfmt fname = None then
              die
                (Printf.sprintf "unknown field %S in layer %s (have: %s)" fname
                   lname
                   (String.concat ", " (Netdsl.Desc.field_names lfmt)));
            Netdsl.Stack.patcher st li fname))
    in
    let actions =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | None ->
            die (Printf.sprintf "bad --patch %S (expected FIELD=VALUE)" spec)
          | Some i -> (
            let field = String.sub spec 0 i in
            let value = String.sub spec (i + 1) (String.length spec - i - 1) in
            match Int64.of_string_opt value with
            | None ->
              die (Printf.sprintf "bad --patch value %S (expected an integer)" value)
            | Some v -> (
              (* a patch the respond stage cannot apply would silently
                 reject every reply at runtime — refuse it before binding *)
              match check_patch_field field with
              | Error e ->
                die (Printf.sprintf "cannot patch field %S in place: %s" field e)
              | Ok _ -> { Flight.set_field = field; set_to = Flight.Const v })))
        patches
    in
    let listeners =
      (match udp with
      | Some port -> [ Net.Server.Udp { host; port } ]
      | None -> [])
      @
      match tcp with
      | Some port -> [ Net.Server.Tcp { host; port } ]
      | None -> []
    in
    if listeners = [] then
      die "nothing to listen on (give --udp PORT and/or --tcp PORT)";
    let flight =
      Flight.spec ~respond:[ { Flight.re_when = All []; re_set = actions } ] ()
    in
    (* a format without a compiled plan is refused before binding *)
    if stack = None then (
      match Flight.compile fmt flight with
      | _ -> ()
      | exception Invalid_argument msg -> die msg);
    if workers > 1 && shard_key = None then
      die "--workers > 1 requires --shard-key FIELD (the flow field to steer on)";
    if tick_ms <= 0 then die "--tick must be a positive millisecond count";
    if io_batch <= 0 then die "--io-batch must be a positive batch size";
    let io =
      match io with
      | `Auto -> Net.Server.Auto
      | `Legacy -> Net.Server.Legacy
      | `Mmsg -> Net.Server.Mmsg
    in
    match
      Net.Server.create ?stack ~flight ~listeners ~workers
        ~allow_oversubscribe ?shard_key ~tick_ms ~io ~io_batch fmt
    with
    | Error msg -> die msg
    | Ok srv ->
      let label =
        match stack with
        | Some st ->
          Printf.sprintf "stack %s (%s)" (Netdsl.Stack.name st)
            (String.concat " -> " (Netdsl.Stack.layer_names st))
        | None -> fmt.Netdsl.Desc.format_name
      in
      List.iter
        (fun (proto, h, p) ->
          Format.printf "serving %s on %s %s:%d (fused mode%s)@." label proto h p
            ((if Net.Server.workers srv > 1 then
                Printf.sprintf ", %d workers" (Net.Server.workers srv)
              else "")
            (* only a forced flavor is printed: what Auto resolves to
               depends on the host kernel, and cram output must not *)
            ^
            match io with
            | Net.Server.Auto -> ""
            | Net.Server.Legacy -> ", legacy io"
            | Net.Server.Mmsg -> ", batched io"))
        (Net.Server.bound srv);
      Option.iter
        (fun prog ->
          Format.printf
            "kernel pre-filter: %d instructions on every UDP listener (netdsl filter \
             prints them)@."
            (Array.length prog))
        (Net.Server.filter srv);
      Option.iter
        (fun (key, prog) ->
          Format.printf
            "kernel steering: %d instructions hash field %s to one of %d \
             workers' SO_REUSEPORT sockets@."
            (Array.length prog) key (Net.Server.workers srv))
        (Net.Server.steering srv);
      let n = Net.Server.run ?max_packets ?duration srv in
      (* Reported unconditionally: a SIGINT/SIGTERM exit lands here too,
         [run] having drained what was in flight. *)
      Format.printf "processed %d packet(s)@." n;
      List.iter
        (fun (label, st) ->
          Format.printf "%s@.  %s@." label
            (String.concat "\n  "
               (String.split_on_char '\n' (Net.Stats.to_text st))))
        (Net.Server.listener_stats srv);
      print_string
        (Netdsl.Engine.Stats.to_text (Net.Server.engine_stats srv));
      Net.Server.close srv
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Answer real datagrams: bind nonblocking UDP/TCP listeners on a format from the file and run every received packet through the engine, echoing each accepted packet back with the requested fields patched in place.  With $(b,--stack), packets decode through the fused layered chain and patches are qualified layer.field names.")
    Term.(const run $ file_arg $ format_opt $ stack_opt $ host_opt $ udp_opt
          $ tcp_opt $ max_packets_opt $ duration_opt $ patch_opt
          $ serve_workers_opt $ shard_key_opt $ oversubscribe_opt
          $ tick_opt $ io_opt $ io_batch_opt)

let () =
  let doc = "a DSL toolchain for network protocols" in
  let info = Cmd.info "netdsl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ check_cmd; diagram_cmd; dot_cmd; filter_cmd; fuzz_cmd; tests_cmd; codegen_cmd; decode_cmd; encode_cmd; bench_cmd; modelcheck_cmd; abnf_cmd; print_cmd; run_cmd; fsm_cmd; serve_cmd ]))
