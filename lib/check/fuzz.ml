module Prng = Netdsl_util.Prng
module Desc = Netdsl_format.Desc

type wire_stats = {
  ws_format : string;
  ws_mutants : int;
  ws_accepted : int;
  ws_rejected : int;
  ws_filtered : int;
  ws_skipped : string option;
}

(* Shrinking judges every candidate with a fresh oracle: the oracle's
   stats-consistency model is stateful, and a candidate must stand on its
   own to be a valid repro. *)
let disagrees ?bug fmt s =
  match Oracle.check (Oracle.create ?bug fmt) s with
  | Ok () -> false
  | Error _ -> true

let shrink_budget = 600

let minimise ?bug fmt ~seed_packet ~ops =
  let holds = disagrees ?bug fmt in
  let initial = Mutate.apply ops seed_packet in
  (* A finding that only reproduces against the long-lived oracle (e.g. a
     counter drifted) cannot be shrunk input-wise; report it as found. *)
  if not (holds initial) then (ops, initial)
  else
    let ops =
      Shrink.list ~max_tests:shrink_budget
        (fun ops -> holds (Mutate.apply ops seed_packet))
        ops
    in
    let bytes =
      Shrink.bytes ~max_tests:shrink_budget holds (Mutate.apply ops seed_packet)
    in
    (ops, bytes)

let report ?bug fmt ~seed ~seed_packet ~ops =
  let ops, bytes = minimise ?bug fmt ~seed_packet ~ops in
  let check, detail =
    match Oracle.check (Oracle.create ?bug fmt) bytes with
    | Error d -> (d.Oracle.d_check, d.Oracle.d_detail)
    | Ok () -> ("unknown", "disagreement vanished while shrinking")
  in
  Report.Wire
    {
      w_format = fmt.Desc.format_name;
      w_seed = seed;
      w_check = check;
      w_detail = detail;
      w_seed_packet = seed_packet;
      w_ops = ops;
      w_bytes = bytes;
    }

let run_format ?bug ?golden ~seed ~iters fmt =
  let rng = Prng.of_int seed in
  let corpus = Corpus.make ?golden fmt rng in
  let oracle = Oracle.create ?bug fmt in
  let plan = Mutate.plan fmt in
  let failure = ref None in
  let fail_on ~seed_packet ~ops pkt =
    match Oracle.check oracle pkt with
    | Ok () -> ()
    | Error _ -> failure := Some (report ?bug fmt ~seed ~seed_packet ~ops)
  in
  (* every corpus seed goes through the oracle unmutated first: golden
     samples are exercised even at --iters 0 *)
  Array.iter
    (fun s -> if !failure = None then fail_on ~seed_packet:s ~ops:[] s)
    (Corpus.seeds corpus);
  let i = ref 0 in
  while !failure = None && !i < iters do
    incr i;
    let seed_packet = Corpus.pick corpus rng in
    let ops = Mutate.random plan rng seed_packet in
    fail_on ~seed_packet ~ops (Mutate.apply ops seed_packet)
  done;
  match !failure with
  | Some r -> Error r
  | None ->
    let checked = Oracle.checked oracle and accepted = Oracle.accepted oracle in
    Ok
      {
        ws_format = fmt.Desc.format_name;
        ws_mutants = checked;
        ws_accepted = accepted;
        ws_rejected = checked - accepted;
        ws_filtered = Oracle.filtered oracle;
        ws_skipped = Oracle.skipped oracle;
      }

type chain_stats = {
  cs_stack : string;
  cs_mutants : int;
  cs_accepted : int;
  cs_rejected : int;
  cs_answered : int;
}

(* The chain leg mirrors [run_format]: fresh oracles judge every shrink
   candidate, and the repro is an ordinary Wire report whose ops replay
   with [Mutate.apply]. *)
let chain_disagrees ?bug stack s =
  match Oracle.Chain.create ?bug stack with
  | Error _ -> false
  | Ok o -> Result.is_error (Oracle.Chain.check o s)

let minimise_chain ?bug stack ~seed_packet ~ops =
  let holds = chain_disagrees ?bug stack in
  let initial = Mutate.apply ops seed_packet in
  if not (holds initial) then (ops, initial)
  else
    let ops =
      Shrink.list ~max_tests:shrink_budget
        (fun ops -> holds (Mutate.apply ops seed_packet))
        ops
    in
    let bytes =
      Shrink.bytes ~max_tests:shrink_budget holds (Mutate.apply ops seed_packet)
    in
    (ops, bytes)

(* [first] is the disagreement as the run saw it: a stateful leg's (a
   flow evicted or a timer fired by earlier packets) does not replay on a
   fresh oracle, and is reported as it happened. *)
let report_chain ?bug name stack ~seed ~seed_packet ~ops ~first =
  let ops, bytes = minimise_chain ?bug stack ~seed_packet ~ops in
  let check, detail =
    match Oracle.Chain.create ?bug stack with
    | Error e -> ("chain", "oracle failed to compile: " ^ e)
    | Ok o -> (
      match Oracle.Chain.check o bytes with
      | Error d -> (d.Oracle.d_check, d.Oracle.d_detail)
      | Ok () ->
        ( first.Oracle.d_check,
          first.Oracle.d_detail ^ " (after the packets before it; does not replay alone)" ))
  in
  Report.Wire
    {
      w_format = name;
      w_seed = seed;
      w_check = check;
      w_detail = detail;
      w_seed_packet = seed_packet;
      w_ops = ops;
      w_bytes = bytes;
    }

let run_stack ?bug ?(golden = []) ~seed ~iters (name, stack) =
  let oracle =
    match Oracle.Chain.create ?bug stack with
    | Ok o -> o
    | Error e ->
      invalid_arg (Printf.sprintf "Fuzz.run_stack: stack %s: %s" name e)
  in
  let rng = Prng.of_int seed in
  let seeds =
    match golden @ Corpus.stack_seeds stack with
    | [] ->
      (* no chaining seed at all: reject-path patterns of the outer layer *)
      Corpus.fallback_seeds (Netdsl_format.Stack.layer_format stack 0)
    | seeds -> seeds
  in
  let seeds = Array.of_list seeds in
  let cp = Mutate.chain_plan stack in
  let failure = ref None in
  let fail_on ~seed_packet ~ops pkt =
    match Oracle.Chain.check oracle pkt with
    | Ok () -> ()
    | Error first ->
      failure := Some (report_chain ?bug name stack ~seed ~seed_packet ~ops ~first)
  in
  Array.iter
    (fun s -> if !failure = None then fail_on ~seed_packet:s ~ops:[] s)
    seeds;
  let i = ref 0 in
  while !failure = None && !i < iters do
    incr i;
    let seed_packet = Prng.pick rng seeds in
    let windows = Oracle.Chain.seed_windows oracle seed_packet in
    let ops = Mutate.random_chain cp ~windows rng seed_packet in
    fail_on ~seed_packet ~ops (Mutate.apply ops seed_packet)
  done;
  match !failure with
  | Some r -> Error r
  | None ->
    let checked = Oracle.Chain.checked oracle
    and accepted = Oracle.Chain.accepted oracle in
    Ok
      {
        cs_stack = name;
        cs_mutants = checked;
        cs_accepted = accepted;
        cs_rejected = checked - accepted;
        cs_answered = Oracle.Chain.answered oracle;
      }

let run_machine ?bug ~seed ~iters (name, m) =
  match Trace_fuzz.run ?bug ~seed ~iters (name, m) with
  | Ok stats -> Ok stats
  | Error d ->
    Error
      (Report.Trace
         {
           t_machine = d.Trace_fuzz.t_machine;
           t_seed = seed;
           t_detail = d.Trace_fuzz.t_detail;
           t_events = d.Trace_fuzz.t_trace;
         })
