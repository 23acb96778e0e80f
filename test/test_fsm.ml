open Netdsl_fsm
module M = Machine
module P = Netdsl_proto

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A small deterministic traffic-light machine used by several tests. *)
let light =
  M.machine ~name:"light"
    ~states:[ "red"; "green"; "yellow" ]
    ~events:[ "go"; "caution"; "stop" ]
    ~initial:"red" ~accepting:[ "red" ]
    ~ignores:
      [
        ("red", "caution"); ("red", "stop");
        ("green", "go"); ("green", "stop");
        ("yellow", "go"); ("yellow", "caution");
      ]
    [
      M.trans ~label:"g" ~src:"red" ~event:"go" ~dst:"green" ();
      M.trans ~label:"c" ~src:"green" ~event:"caution" ~dst:"yellow" ();
      M.trans ~label:"s" ~src:"yellow" ~event:"stop" ~dst:"red" ();
    ]

(* A bounded counter with guards, to exercise registers. *)
let counter max =
  M.machine ~name:"counter"
    ~states:[ "counting"; "full" ]
    ~events:[ "inc"; "reset" ]
    ~registers:[ M.reg "n" ~domain:(max + 1) ]
    ~initial:"counting" ~accepting:[ "counting" ]
    ~ignores:[ ("full", "inc"); ("counting", "reset") ]
    [
      M.trans ~label:"inc" ~src:"counting" ~event:"inc" ~dst:"counting"
        ~guard:(M.Lt (M.Reg "n", M.Int (max - 1)))
        ~actions:[ M.Assign ("n", M.Add (M.Reg "n", M.Int 1)) ]
        ();
      M.trans ~label:"fill" ~src:"counting" ~event:"inc" ~dst:"full"
        ~guard:(M.Eq (M.Reg "n", M.Int (max - 1)))
        ~actions:[ M.Assign ("n", M.Add (M.Reg "n", M.Int 1)) ]
        ();
      M.trans ~label:"reset" ~src:"full" ~event:"reset" ~dst:"counting"
        ~actions:[ M.Assign ("n", M.Int 0) ]
        ();
    ]

(* ------------------------------------------------------------------ *)
(* Machine basics *)

let test_initial_config () =
  let c = M.initial_config (counter 3) in
  check_str "state" "counting" c.M.state;
  check_int "n" 0 (List.assoc "n" c.M.regs)

let test_step_and_guards () =
  let m = counter 2 in
  let c = M.initial_config m in
  (match M.step m c "inc" with
  | [ c1 ] -> (
    check_int "n=1" 1 (List.assoc "n" c1.M.regs);
    match M.step m c1 "inc" with
    | [ c2 ] ->
      check_str "full" "full" c2.M.state;
      check_int "n=2" 2 (List.assoc "n" c2.M.regs)
    | other -> Alcotest.failf "expected one successor, got %d" (List.length other))
  | other -> Alcotest.failf "expected one successor, got %d" (List.length other))

let test_register_wraps () =
  let m =
    M.machine ~name:"wrap" ~states:[ "s" ] ~events:[ "e" ]
      ~registers:[ M.reg "x" ~domain:4 ]
      ~initial:"s"
      [
        M.trans ~label:"t" ~src:"s" ~event:"e" ~dst:"s"
          ~actions:[ M.Assign ("x", M.Add (M.Reg "x", M.Int 3)) ]
          ();
      ]
  in
  let c = M.initial_config m in
  let c1 = List.hd (M.step m c "e") in
  let c2 = List.hd (M.step m c1 "e") in
  check_int "3" 3 (List.assoc "x" c1.M.regs);
  check_int "wraps to 2" 2 (List.assoc "x" c2.M.regs)

let test_eval_expr_and_cond () =
  let env = [ ("a", 5); ("b", 2) ] in
  check_int "arith" 13 (M.eval_expr env (M.Add (M.Reg "a", M.Mul (M.Reg "b", M.Int 4))));
  check_int "mod" 1 (M.eval_expr env (M.Mod (M.Reg "a", M.Reg "b")));
  check_int "mod negative" 1 (M.eval_expr env (M.Mod (M.Sub (M.Int 0, M.Reg "a"), M.Int 2)));
  check_bool "cond" true
    (M.eval_cond env (M.And (M.Lt (M.Reg "b", M.Reg "a"), M.Not (M.Eq (M.Reg "a", M.Int 0)))));
  check_bool "or" true (M.eval_cond env (M.Or (M.False, M.Le (M.Int 2, M.Reg "b"))))

let test_validate_clean () =
  Alcotest.(check (list string))
    "no defects" []
    (List.map (fun d -> d.M.what) (M.validate light))

let test_validate_catches_defects () =
  let bad =
    M.machine ~name:"bad" ~states:[ "a" ] ~events:[ "e" ]
      ~registers:[ M.reg "r" ~init:5 ~domain:3 ]
      ~initial:"nowhere"
      [
        M.trans ~label:"t" ~src:"a" ~event:"missing" ~dst:"ghost"
          ~guard:(M.Eq (M.Reg "unknown", M.Int 0))
          ~actions:[ M.Assign ("also_unknown", M.Int 1) ]
          ();
        M.trans ~label:"t" ~src:"a" ~event:"e" ~dst:"a" ();
      ]
  in
  let defects = M.validate bad in
  check_bool "several defects" true (List.length defects >= 5);
  match M.validate_exn bad with
  | _ -> Alcotest.fail "validate_exn accepted a broken machine"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_explore_counts () =
  let e = Analysis.explore (counter 3) in
  (* counting(n=0..3) reachable as counting(0..2)? counting holds n in
     0..2 before filling; full(3).  Configurations: counting@0,1,2 and
     full@3. *)
  check_int "configs" 4 (List.length e.Analysis.configs);
  check_bool "complete" true e.Analysis.complete

let test_explore_truncation () =
  let m =
    M.machine ~name:"big" ~states:[ "s" ] ~events:[ "e" ]
      ~registers:[ M.reg "x" ~domain:1000 ]
      ~initial:"s"
      [
        M.trans ~label:"t" ~src:"s" ~event:"e" ~dst:"s"
          ~actions:[ M.Assign ("x", M.Add (M.Reg "x", M.Int 1)) ]
          ();
      ]
  in
  let e = Analysis.explore ~max_configs:10 m in
  check_bool "truncated" false e.Analysis.complete;
  check_int "capped" 10 (List.length e.Analysis.configs)

let test_unhandled_pairs () =
  let m =
    M.machine ~name:"gap" ~states:[ "a"; "b" ] ~events:[ "e"; "f" ] ~initial:"a"
      [ M.trans ~label:"t" ~src:"a" ~event:"e" ~dst:"b" () ]
  in
  let pairs = Analysis.unhandled_pairs m in
  check_int "three gaps" 3 (List.length pairs);
  check_bool "a/f missing" true (List.mem ("a", "f") pairs);
  (* Ignores silence them. *)
  let silenced = { m with M.ignores = [ ("a", "f"); ("b", "e"); ("b", "f") ] } in
  Alcotest.(check (list (pair string string))) "silenced" [] (Analysis.unhandled_pairs silenced)

let test_unhandled_configs_guard_gap () =
  (* Transitions exist for the pair but guards leave a hole at n=1. *)
  let m =
    M.machine ~name:"hole" ~states:[ "s" ] ~events:[ "e" ]
      ~registers:[ M.reg "n" ~domain:3 ]
      ~initial:"s"
      [
        M.trans ~label:"zero" ~src:"s" ~event:"e" ~dst:"s"
          ~guard:(M.Eq (M.Reg "n", M.Int 0))
          ~actions:[ M.Assign ("n", M.Int 1) ]
          ();
      ]
  in
  (* From n=0 we reach n=1 where nothing is enabled: a semantic gap that
     syntactic completeness misses. *)
  Alcotest.(check (list (pair string string))) "syntactically complete" []
    (Analysis.unhandled_pairs m);
  let gaps = Analysis.unhandled_configs m in
  check_bool "semantic gap found" true
    (List.exists (fun (c, e) -> String.equal e "e" && List.assoc "n" c.M.regs = 1) gaps)

let test_nondeterminism_detection () =
  let m =
    M.machine ~name:"nd" ~states:[ "s"; "t"; "u" ] ~events:[ "e" ] ~initial:"s"
      [
        M.trans ~label:"one" ~src:"s" ~event:"e" ~dst:"t" ();
        M.trans ~label:"two" ~src:"s" ~event:"e" ~dst:"u" ();
      ]
  in
  match Analysis.nondeterministic_configs m with
  | [ (_, "e", labels) ] ->
    Alcotest.(check (list string)) "labels" [ "one"; "two" ] (List.sort compare labels)
  | other -> Alcotest.failf "expected one conflict, got %d" (List.length other)

let test_guards_make_deterministic () =
  check_int "counter deterministic" 0
    (List.length (Analysis.nondeterministic_configs (counter 3)))

let test_unreachable_and_dead () =
  let m =
    M.machine ~name:"island" ~states:[ "a"; "b"; "island" ] ~events:[ "e" ]
      ~initial:"a"
      [
        M.trans ~label:"ab" ~src:"a" ~event:"e" ~dst:"b" ();
        M.trans ~label:"island_loop" ~src:"island" ~event:"e" ~dst:"island" ();
        M.trans ~label:"never" ~src:"a" ~event:"e" ~dst:"island" ~guard:M.False ();
      ]
  in
  Alcotest.(check (list string)) "unreachable" [ "island" ] (Analysis.unreachable_states m);
  Alcotest.(check (list string))
    "dead" [ "island_loop"; "never" ]
    (List.sort compare (Analysis.dead_transitions m))

let test_stuck_configs () =
  let m =
    M.machine ~name:"jam" ~states:[ "a"; "pit" ] ~events:[ "e" ] ~initial:"a"
      ~accepting:[ "a" ]
      [ M.trans ~label:"fall" ~src:"a" ~event:"e" ~dst:"pit" () ]
  in
  match Analysis.stuck_configs m with
  | [ c ] -> check_str "pit" "pit" c.M.state
  | other -> Alcotest.failf "expected one stuck config, got %d" (List.length other)

let test_analyse_report_clean () =
  let r = Analysis.analyse light in
  check_bool "clean" true (Analysis.is_clean r);
  let rendered = Format.asprintf "%a" Analysis.pp_report r in
  check_bool "mentions clean" true
    (Testutil.contains rendered "clean")

(* ------------------------------------------------------------------ *)
(* ARQ sender (the paper's machine) *)

let test_arq_sender_analysis () =
  let m = P.Arq_fsm.sender ~seq_bits:2 in
  let r = Analysis.analyse m in
  if not (Analysis.is_clean r) then
    Alcotest.failf "ARQ sender not clean:@.%a" Analysis.pp_report r

let test_arq_sender_explored_configs () =
  (* 4 states x 4 sequence values, minus Wait/Timeout/Sent configs that are
     unreachable for some seq?  All are reachable: seq cycles via OK. *)
  let e = Analysis.explore (P.Arq_fsm.sender ~seq_bits:2) in
  check_int "4 states x 4 seqs" 16 (List.length e.Analysis.configs)

let test_arq_state_space_grows_exponentially () =
  let count bits =
    List.length (Analysis.explore (P.Arq_fsm.sender ~seq_bits:bits)).Analysis.configs
  in
  check_int "1 bit" 8 (count 1);
  check_int "3 bits" 32 (count 3);
  check_int "5 bits" 128 (count 5)

(* ------------------------------------------------------------------ *)
(* Composition *)

let test_compose_sync () =
  let sys = P.Arq_fsm.system ~seq_bits:1 in
  let g0 = Compose.initial sys in
  (* "send" is sender-only. *)
  (match Compose.step sys g0 "send" with
  | [ (g1, fired) ] -> (
    check_int "one machine fired" 1 (List.length fired);
    (* "ok" synchronises sender and receiver. *)
    match Compose.step sys g1 "ok" with
    | [ (g2, fired2) ] ->
      check_int "two machines fired" 2 (List.length fired2);
      check_bool "still in sync" true (P.Arq_fsm.in_sync g2)
    | other -> Alcotest.failf "ok: expected 1 successor, got %d" (List.length other))
  | other -> Alcotest.failf "send: expected 1 successor, got %d" (List.length other));
  (* "ok" is blocked when the sender is not waiting. *)
  check_int "ok blocked initially" 0 (List.length (Compose.step sys g0 "ok"))

let test_compose_alphabet () =
  let sys = P.Abp.system in
  let a = Compose.alphabet sys in
  check_bool "has snd0" true (List.mem "snd0" a);
  check_bool "has drop_data" true (List.mem "drop_data" a);
  check_int "participants of snd0" 2 (List.length (Compose.participants sys "snd0"))

let test_compose_rejects_duplicates () =
  match Compose.create ~name:"dup" [ light; light ] with
  | _ -> Alcotest.fail "duplicate machines accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Model checking: the paper's ARQ correctness claims *)

let test_abp_invariant_holds () =
  match Model_check.check_invariant P.Abp.system P.Abp.no_duplicate_delivery with
  | Model_check.Holds -> ()
  | Model_check.Violated (g, trace) ->
    Alcotest.failf "violated at %a after %d steps" Compose.pp_global g
      (List.length trace)
  | Model_check.Unknown -> Alcotest.fail "exploration truncated"

let test_abp_buggy_receiver_caught () =
  match Model_check.check_invariant P.Abp.buggy_system P.Abp.no_duplicate_delivery with
  | Model_check.Violated (_, trace) ->
    check_bool "non-empty counterexample" true (List.length trace > 0);
    (* The counterexample must involve a data retransmission (timeout). *)
    check_bool "involves timeout" true
      (List.exists (fun s -> String.equal s.Model_check.event "timeout") trace)
  | Model_check.Holds -> Alcotest.fail "bug not found"
  | Model_check.Unknown -> Alcotest.fail "exploration truncated"

let test_abp_deadlock_free () =
  match Model_check.check_deadlock_free P.Abp.system with
  | Model_check.Holds -> ()
  | Model_check.Violated (g, _) ->
    Alcotest.failf "deadlock at %a" Compose.pp_global g
  | Model_check.Unknown -> Alcotest.fail "truncated"

let test_abp_eventually_accepting () =
  (* The paper's property 4: every run can still end consistently. *)
  match Model_check.check_eventually_accepting P.Abp.system with
  | Model_check.Holds -> ()
  | Model_check.Violated (g, _) ->
    Alcotest.failf "no way to finish from %a" Compose.pp_global g
  | Model_check.Unknown -> Alcotest.fail "truncated"

let test_abp_delivery_possible () =
  (* Sanity: the system can actually deliver data (the monitor moves). *)
  check_bool "delivery reachable" true
    (Model_check.reachable P.Abp.system (fun g ->
         match List.rev g with
         | mon :: _ -> String.equal mon.M.state "m1"
         | [] -> false))

let test_arq_in_sync_invariant () =
  match
    Model_check.check_invariant (P.Arq_fsm.system ~seq_bits:3) P.Arq_fsm.in_sync
  with
  | Model_check.Holds -> ()
  | Model_check.Violated (g, _) -> Alcotest.failf "out of sync at %a" Compose.pp_global g
  | Model_check.Unknown -> Alcotest.fail "truncated"

let test_model_check_stats_grow () =
  let states bits =
    (Model_check.explore (P.Arq_fsm.system ~seq_bits:bits)).Model_check.num_states
  in
  let s1 = states 1 and s3 = states 3 in
  check_bool "exponential growth" true (s3 >= 4 * s1 - 8)

let test_truncated_is_unknown () =
  match
    Model_check.check_invariant ~max_states:3 (P.Arq_fsm.system ~seq_bits:4)
      (fun _ -> true)
  with
  | Model_check.Unknown -> ()
  | Model_check.Holds -> Alcotest.fail "truncated exploration claimed Holds"
  | Model_check.Violated _ -> Alcotest.fail "true invariant violated"

(* ------------------------------------------------------------------ *)
(* Test generation *)

let test_transition_tests_cover_and_pass () =
  let m = P.Arq_fsm.sender ~seq_bits:1 in
  let tests = Testgen.transition_tests m in
  (* Every syntactic transition is reachable here. *)
  check_int "one test per transition" (List.length m.M.transitions) (List.length tests);
  List.iter
    (fun tc ->
      match Testgen.run_test m tc with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "test %s failed: %s" tc.Testgen.tc_name msg)
    tests

let test_transition_tour_full_coverage () =
  let m = P.Arq_fsm.sender ~seq_bits:2 in
  let tour = Testgen.transition_tour m in
  let covered, total = Testgen.coverage_of_tour m tour in
  check_int "full coverage" total covered;
  check_bool "tour not empty" true (tour <> [] && List.concat tour <> [])

let test_tour_beats_random_walk () =
  let m = P.Arq_fsm.sender ~seq_bits:3 in
  let tour = Testgen.transition_tour m in
  let tour_events = List.length (List.concat tour) in
  let rng = Netdsl_util.Prng.create 2024L in
  match Testgen.random_walk_to_coverage rng m with
  | None -> Alcotest.fail "random walk never covered"
  | Some steps ->
    (* The directed tour is never longer than the random walk needed. *)
    check_bool "tour <= walk" true (tour_events <= steps)

let test_detects_wrong_expectation () =
  let m = light in
  let bogus =
    { Testgen.tc_name = "bogus"; events = [ "go" ]; expected = M.initial_config m }
  in
  match Testgen.run_test m bogus with
  | Ok () -> Alcotest.fail "wrong expectation passed"
  | Error _ -> ()

let test_testgen_rejects_nondeterminism () =
  let nd =
    M.machine ~name:"nd" ~states:[ "s"; "t" ] ~events:[ "e" ] ~initial:"s"
      [
        M.trans ~label:"a" ~src:"s" ~event:"e" ~dst:"t" ();
        M.trans ~label:"b" ~src:"s" ~event:"e" ~dst:"s" ();
      ]
  in
  match Testgen.transition_tour nd with
  | _ -> Alcotest.fail "nondeterministic machine accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Interpreter *)

let test_interp_fire () =
  let i = Interp.create light in
  check_str "initial" "red" (Interp.state i);
  (match Interp.fire i "go" with
  | Ok t -> check_str "label" "g" t.M.t_label
  | Error e -> Alcotest.failf "fire failed: %a" Interp.pp_error e);
  check_str "now green" "green" (Interp.state i)

let test_interp_unhandled () =
  let i = Interp.create light in
  match Interp.fire i "stop" with
  | Error (Interp.Unhandled { state = "red"; event = "stop" }) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Interp.pp_error e
  | Ok _ -> Alcotest.fail "invalid transition executed"

let test_interp_unknown_event () =
  let i = Interp.create light in
  match Interp.fire i "warp" with
  | Error (Interp.Unknown_event "warp") -> ()
  | _ -> Alcotest.fail "unknown event not rejected"

let test_interp_hooks_and_history () =
  let observed = ref [] in
  let i =
    Interp.create
      ~on_transition:(fun t _ -> observed := t.M.t_label :: !observed)
      light
  in
  (match Interp.fire_all i [ "go"; "caution"; "stop" ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sequence failed: %a" Interp.pp_error e);
  Alcotest.(check (list string)) "hook saw all" [ "g"; "c"; "s" ] (List.rev !observed);
  check_int "history length" 3 (List.length (Interp.history i));
  check_bool "accepting" true (Interp.in_accepting i);
  Interp.reset i;
  check_str "reset" "red" (Interp.state i);
  check_int "history cleared" 0 (List.length (Interp.history i))

let test_interp_registers () =
  let i = Interp.create (counter 2) in
  (match Interp.fire_all i [ "inc"; "inc" ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "failed: %a" Interp.pp_error e);
  check_int "register read" 2 (Interp.register i "n");
  check_str "full" "full" (Interp.state i)

(* ------------------------------------------------------------------ *)
(* DOT export *)

let test_dot_machine () =
  let dot = Dot.of_machine light in
  check_bool "digraph" true (Testutil.contains dot "digraph");
  check_bool "edge" true (Testutil.contains dot "\"red\" -> \"green\"");
  check_bool "accepting doubled" true (Testutil.contains dot "doublecircle")

let test_dot_guard_rendering () =
  let dot = Dot.of_machine (counter 2) in
  check_bool "guard shown" true (Testutil.contains dot "n < 1");
  check_bool "action shown" true (Testutil.contains dot "n := (n + 1)")

let test_dot_system () =
  let dot = Dot.of_system P.Abp.system in
  check_bool "clusters" true (Testutil.contains dot "subgraph cluster_0");
  check_bool "all machines" true (Testutil.contains dot "buggy" = false);
  check_bool "receiver present" true (Testutil.contains dot "receiver")

let suite =
  [
    ( "fsm.machine",
      [
        Alcotest.test_case "initial config" `Quick test_initial_config;
        Alcotest.test_case "step and guards" `Quick test_step_and_guards;
        Alcotest.test_case "register wraps" `Quick test_register_wraps;
        Alcotest.test_case "expr and cond eval" `Quick test_eval_expr_and_cond;
        Alcotest.test_case "validate clean" `Quick test_validate_clean;
        Alcotest.test_case "validate catches defects" `Quick test_validate_catches_defects;
      ] );
    ( "fsm.analysis",
      [
        Alcotest.test_case "explore counts" `Quick test_explore_counts;
        Alcotest.test_case "explore truncation" `Quick test_explore_truncation;
        Alcotest.test_case "unhandled pairs" `Quick test_unhandled_pairs;
        Alcotest.test_case "guard gaps found" `Quick test_unhandled_configs_guard_gap;
        Alcotest.test_case "nondeterminism detection" `Quick test_nondeterminism_detection;
        Alcotest.test_case "guards make deterministic" `Quick test_guards_make_deterministic;
        Alcotest.test_case "unreachable and dead" `Quick test_unreachable_and_dead;
        Alcotest.test_case "stuck configs" `Quick test_stuck_configs;
        Alcotest.test_case "clean report" `Quick test_analyse_report_clean;
        Alcotest.test_case "ARQ sender clean" `Quick test_arq_sender_analysis;
        Alcotest.test_case "ARQ sender config count" `Quick test_arq_sender_explored_configs;
        Alcotest.test_case "state space exponential" `Quick test_arq_state_space_grows_exponentially;
      ] );
    ( "fsm.compose",
      [
        Alcotest.test_case "synchronisation" `Quick test_compose_sync;
        Alcotest.test_case "alphabet and participants" `Quick test_compose_alphabet;
        Alcotest.test_case "rejects duplicates" `Quick test_compose_rejects_duplicates;
      ] );
    ( "fsm.model_check",
      [
        Alcotest.test_case "ABP invariant holds" `Quick test_abp_invariant_holds;
        Alcotest.test_case "buggy receiver caught" `Quick test_abp_buggy_receiver_caught;
        Alcotest.test_case "ABP deadlock free" `Quick test_abp_deadlock_free;
        Alcotest.test_case "ABP eventually accepting" `Quick test_abp_eventually_accepting;
        Alcotest.test_case "delivery reachable" `Quick test_abp_delivery_possible;
        Alcotest.test_case "ARQ in-sync invariant" `Quick test_arq_in_sync_invariant;
        Alcotest.test_case "state count grows" `Quick test_model_check_stats_grow;
        Alcotest.test_case "truncation reports Unknown" `Quick test_truncated_is_unknown;
      ] );
    ( "fsm.testgen",
      [
        Alcotest.test_case "transition tests pass" `Quick test_transition_tests_cover_and_pass;
        Alcotest.test_case "tour covers everything" `Quick test_transition_tour_full_coverage;
        Alcotest.test_case "tour beats random walk" `Quick test_tour_beats_random_walk;
        Alcotest.test_case "wrong expectation detected" `Quick test_detects_wrong_expectation;
        Alcotest.test_case "nondeterminism rejected" `Quick test_testgen_rejects_nondeterminism;
      ] );
    ( "fsm.interp",
      [
        Alcotest.test_case "fire" `Quick test_interp_fire;
        Alcotest.test_case "unhandled refused" `Quick test_interp_unhandled;
        Alcotest.test_case "unknown event" `Quick test_interp_unknown_event;
        Alcotest.test_case "hooks and history" `Quick test_interp_hooks_and_history;
        Alcotest.test_case "registers" `Quick test_interp_registers;
      ] );
    ( "fsm.dot",
      [
        Alcotest.test_case "machine export" `Quick test_dot_machine;
        Alcotest.test_case "guards rendered" `Quick test_dot_guard_rendering;
        Alcotest.test_case "system export" `Quick test_dot_system;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Equivalence checking *)

let test_equiv_reflexive () =
  check_bool "self-equivalent" true (Equiv.equivalent light light);
  check_bool "counter self-equivalent" true (Equiv.equivalent (counter 3) (counter 3))

let test_equiv_detects_receiver_bug () =
  match Equiv.check P.Abp.receiver P.Abp.buggy_receiver with
  | Ok () -> Alcotest.fail "buggy receiver declared equivalent"
  | Error ce ->
    (* The machines diverge after a duplicate arrives: the correct one
       re-acks, the buggy one re-delivers. *)
    check_bool "mentions a distinguishing event" true (List.length ce.Equiv.prefix > 0)

let test_equiv_register_renaming_is_fine () =
  (* Same behaviour, different register names: equivalent. *)
  let variant_of (m : M.t) suffix =
    {
      m with
      M.machine_name = m.M.machine_name ^ suffix;
      registers =
        List.map (fun r -> { r with M.reg_name = r.M.reg_name ^ suffix }) m.M.registers;
      transitions =
        List.map
          (fun (t : M.transition) ->
            let rec rename_e : M.expr -> M.expr = function
              | M.Reg r -> M.Reg (r ^ suffix)
              | M.Int n -> M.Int n
              | M.Add (a, b) -> M.Add (rename_e a, rename_e b)
              | M.Sub (a, b) -> M.Sub (rename_e a, rename_e b)
              | M.Mul (a, b) -> M.Mul (rename_e a, rename_e b)
              | M.Mod (a, b) -> M.Mod (rename_e a, rename_e b)
            in
            let rec rename_c : M.cond -> M.cond = function
              | M.True -> M.True
              | M.False -> M.False
              | M.Eq (a, b) -> M.Eq (rename_e a, rename_e b)
              | M.Ne (a, b) -> M.Ne (rename_e a, rename_e b)
              | M.Lt (a, b) -> M.Lt (rename_e a, rename_e b)
              | M.Le (a, b) -> M.Le (rename_e a, rename_e b)
              | M.Not c -> M.Not (rename_c c)
              | M.And (a, b) -> M.And (rename_c a, rename_c b)
              | M.Or (a, b) -> M.Or (rename_c a, rename_c b)
            in
            {
              t with
              M.guard = rename_c t.M.guard;
              actions =
                List.map (fun (M.Assign (r, e)) -> M.Assign (r ^ suffix, rename_e e)) t.M.actions;
            })
          m.M.transitions;
    }
  in
  let m = P.Arq_fsm.sender ~seq_bits:2 in
  check_bool "renamed registers equivalent" true (Equiv.equivalent m (variant_of m "_x"))

let test_equiv_alphabet_difference () =
  let base =
    M.machine ~name:"base" ~states:[ "s" ] ~events:[ "e" ] ~initial:"s"
      ~accepting:[ "s" ]
      [ M.trans ~label:"t" ~src:"s" ~event:"e" ~dst:"s" () ]
  in
  let extra =
    M.machine ~name:"extra" ~states:[ "s" ] ~events:[ "e"; "f" ] ~initial:"s"
      ~accepting:[ "s" ]
      [
        M.trans ~label:"t" ~src:"s" ~event:"e" ~dst:"s" ();
        M.trans ~label:"u" ~src:"s" ~event:"f" ~dst:"s" ();
      ]
  in
  match Equiv.check base extra with
  | Ok () -> Alcotest.fail "different alphabets declared equivalent"
  | Error ce -> check_bool "names the extra event" true (Testutil.contains ce.Equiv.reason "f")

let test_equiv_acceptance_difference () =
  let a =
    M.machine ~name:"acc" ~states:[ "s" ] ~events:[ "e" ] ~initial:"s" ~accepting:[ "s" ]
      [ M.trans ~label:"t" ~src:"s" ~event:"e" ~dst:"s" () ]
  in
  let b = { a with M.machine_name = "noacc"; accepting = [] } in
  match Equiv.check a b with
  | Ok () -> Alcotest.fail "acceptance difference missed"
  | Error ce -> check_bool "empty prefix (differ at start)" true (ce.Equiv.prefix = [])

let test_equiv_shortest_counterexample () =
  (* Machines that agree for two steps then diverge: the prefix has
     exactly the divergence depth. *)
  let chain name third =
    M.machine ~name ~states:[ "a"; "b"; "c"; "d" ] ~events:[ "e"; "f" ] ~initial:"a"
      ([
         M.trans ~label:"1" ~src:"a" ~event:"e" ~dst:"b" ();
         M.trans ~label:"2" ~src:"b" ~event:"e" ~dst:"c" ();
       ]
      @ if third then [ M.trans ~label:"3" ~src:"c" ~event:"f" ~dst:"d" () ] else [])
  in
  match Equiv.check (chain "with3" true) (chain "without3" false) with
  | Ok () -> Alcotest.fail "divergence missed"
  | Error ce -> Alcotest.(check (list string)) "prefix" [ "e"; "e"; "f" ] ce.Equiv.prefix

let equiv_suite =
  ( "fsm.equiv",
    [
      Alcotest.test_case "reflexive" `Quick test_equiv_reflexive;
      Alcotest.test_case "detects receiver bug" `Quick test_equiv_detects_receiver_bug;
      Alcotest.test_case "register renaming ok" `Quick test_equiv_register_renaming_is_fine;
      Alcotest.test_case "alphabet difference" `Quick test_equiv_alphabet_difference;
      Alcotest.test_case "acceptance difference" `Quick test_equiv_acceptance_difference;
      Alcotest.test_case "shortest counterexample" `Quick test_equiv_shortest_counterexample;
    ] )

let suite = suite @ [ equiv_suite ]

(* ------------------------------------------------------------------ *)
(* Properties over randomly generated machines: the analyses agree with
   each other on arbitrary inputs, not just the hand-built fixtures. *)

let random_machine rng =
  let n_states = 2 + Netdsl_util.Prng.int rng 4 in
  let n_events = 1 + Netdsl_util.Prng.int rng 3 in
  let states = List.init n_states (fun i -> Printf.sprintf "q%d" i) in
  let events = List.init n_events (fun i -> Printf.sprintf "ev%d" i) in
  let n_trans = 1 + Netdsl_util.Prng.int rng (2 * n_states) in
  let transitions =
    List.init n_trans (fun i ->
        M.trans
          ~label:(Printf.sprintf "t%d" i)
          ~src:(Netdsl_util.Prng.pick_list rng states)
          ~event:(Netdsl_util.Prng.pick_list rng events)
          ~dst:(Netdsl_util.Prng.pick_list rng states)
          ())
  in
  M.machine ~name:"random" ~states ~events ~initial:(List.hd states)
    ~accepting:(List.filter (fun _ -> Netdsl_util.Prng.bool rng) states)
    transitions

let prop_analysis_consistency =
  QCheck.Test.make ~name:"fsm: analyses are mutually consistent on random machines"
    ~count:200 QCheck.int64 (fun seed ->
      let rng = Netdsl_util.Prng.create seed in
      let m = random_machine rng in
      let explored = Analysis.explore m in
      let reachable = Analysis.reachable_states m in
      let unreachable = Analysis.unreachable_states m in
      let dead = Analysis.dead_transitions m in
      (* 1. reachable and unreachable partition the declared states. *)
      List.length reachable + List.length unreachable = List.length m.M.states
      (* 2. the initial state is reachable. *)
      && List.mem m.M.initial reachable
      (* 3. every edge's endpoints are reachable states. *)
      && List.for_all
           (fun (c, _, c') ->
             List.mem c.M.state reachable && List.mem c'.M.state reachable)
           explored.Analysis.edges
      (* 4. a dead transition never appears among the explored edges. *)
      && List.for_all
           (fun l ->
             not
               (List.exists
                  (fun (_, (t : M.transition), _) -> String.equal t.t_label l)
                  explored.Analysis.edges))
           dead
      (* 5. a transition out of an unreachable source is dead. *)
      && List.for_all
           (fun (t : M.transition) ->
             (not (List.mem t.src unreachable)) || List.mem t.t_label dead)
           m.M.transitions)

let prop_equiv_reflexive_random =
  QCheck.Test.make ~name:"fsm: every deterministic random machine equals itself"
    ~count:200 QCheck.int64 (fun seed ->
      let rng = Netdsl_util.Prng.create seed in
      let m = random_machine rng in
      (* Only meaningful for deterministic machines. *)
      if Analysis.nondeterministic_configs m <> [] then QCheck.assume_fail ()
      else Equiv.equivalent m m)

let prop_tour_matches_tests =
  QCheck.Test.make
    ~name:"fsm: tour coverage equals the number of derived tests" ~count:150
    QCheck.int64 (fun seed ->
      let rng = Netdsl_util.Prng.create seed in
      let m = random_machine rng in
      if Analysis.nondeterministic_configs m <> [] then QCheck.assume_fail ()
      else begin
        let tests = Testgen.transition_tests m in
        let tour = Testgen.transition_tour m in
        let covered, total = Testgen.coverage_of_tour m tour in
        covered = total
        && total = List.length tests
        && List.for_all (fun tc -> Testgen.run_test m tc = Ok ()) tests
      end)

let random_suite =
  ( "fsm.random",
    [
      Testutil.qcheck prop_analysis_consistency;
      Testutil.qcheck prop_equiv_reflexive_random;
      Testutil.qcheck prop_tour_matches_tests;
    ] )

let suite = suite @ [ random_suite ]

(* ------------------------------------------------------------------ *)
(* Step ≡ Interp: the compiled plan must agree with the interpreter on
   every shipped machine, over mined and PRNG traces, on accepts and on
   every refusal — same verdicts, same labels, same configurations. *)

let sorted_regs (c : M.config) = List.sort compare c.M.regs

let configs_agree inst interp =
  let sc = Step.config inst and ic = Interp.config interp in
  String.equal sc.M.state ic.M.state && sorted_regs sc = sorted_regs ic

(* One lock-step event; [Error msg] pinpoints the first disagreement. *)
let lockstep_event inst interp name =
  let expected_labels = Step.enabled_labels inst name in
  let sv = Step.fire inst name in
  let iv = Interp.fire interp name in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let verdicts_agree =
    match (sv, iv) with
    | Step.Fired, Ok tr ->
      let taken = Step.transition (Step.plan_of inst) (Step.last_transition inst) in
      if String.equal tr.M.t_label taken.M.t_label then Ok ()
      else
        fail "labels differ on %S: interp %s, step %s" name tr.M.t_label
          taken.M.t_label
    | Step.Unknown_event, Error (Interp.Unknown_event e) when String.equal e name ->
      Ok ()
    | Step.Unhandled, Error (Interp.Unhandled { state; event })
      when String.equal event name && String.equal state (Step.state_name_of inst)
      ->
      Ok ()
    | Step.Nondeterministic, Error (Interp.Nondeterministic { event; labels })
      when String.equal event name ->
      if labels = expected_labels then Ok ()
      else
        fail "nondet labels differ on %S: interp [%s], step [%s]" name
          (String.concat "," labels)
          (String.concat "," expected_labels)
    | _ ->
      fail "verdicts differ on %S: step says %S, interp says %s" name
        (Step.describe inst name sv)
        (match iv with
        | Ok tr -> Printf.sprintf "fired %s" tr.M.t_label
        | Error e -> Format.asprintf "%a" Interp.pp_error e)
  in
  match verdicts_agree with
  | Error _ as e -> e
  | Ok () ->
    if configs_agree inst interp then Ok ()
    else fail "configurations differ after %S" name

let run_lockstep (m : M.t) trace =
  let inst = Step.instance (Step.compile m) in
  let interp = Interp.create m in
  List.iter
    (fun ev ->
      match lockstep_event inst interp ev with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" m.M.machine_name msg)
    trace

let step_matches_interp_on_mined_tours () =
  (* Testgen-mined traces: every transition of every (deterministic)
     shipped machine is exercised at least once. *)
  List.iter
    (fun (_, m) ->
      match Testgen.transition_tour m with
      | tour -> List.iter (run_lockstep m) tour
      | exception Invalid_argument _ -> () (* nondeterministic: PRNG path *))
    P.Machines.all

let step_refusal_verdicts () =
  (* A machine with real nondeterminism and a real gap: both refusals must
     match the interpreter exactly, leave the configuration in place, and
     [describe] must render the interpreter's wording. *)
  let nd =
    M.machine ~name:"nd" ~states:[ "s"; "t" ] ~events:[ "e"; "f" ] ~initial:"s"
      [
        M.trans ~label:"one" ~src:"s" ~event:"e" ~dst:"t" ();
        M.trans ~label:"two" ~src:"s" ~event:"e" ~dst:"s" ();
      ]
  in
  let inst = Step.instance (Step.compile nd) in
  let interp = Interp.create nd in
  List.iter
    (fun ev ->
      (match lockstep_event inst interp ev with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "nd: %s" msg);
      check_str "state untouched" "s" (Step.state_name_of inst))
    [ "e" (* nondeterministic *); "f" (* unhandled *); "warp" (* unknown *) ];
  (* describe matches pp_error word for word *)
  check_str "nondet wording"
    (Format.asprintf "%a" Interp.pp_error
       (Interp.Nondeterministic { event = "e"; labels = [ "one"; "two" ] }))
    (Step.describe inst "e" Step.Nondeterministic);
  check_str "unhandled wording"
    (Format.asprintf "%a" Interp.pp_error
       (Interp.Unhandled { state = "s"; event = "f" }))
    (Step.describe inst "f" Step.Unhandled);
  check_str "unknown wording"
    (Format.asprintf "%a" Interp.pp_error (Interp.Unknown_event "warp"))
    (Step.describe inst "warp" Step.Unknown_event)

let step_register_wraparound () =
  (* Assignments that go negative and overflow must wrap exactly like
     [Machine.apply]: ((v mod d) + d) mod d. *)
  let m =
    M.machine ~name:"wrap" ~states:[ "s" ] ~events:[ "dec"; "inc" ]
      ~registers:[ M.reg "x" ~domain:5 ]
      ~initial:"s"
      [
        M.trans ~label:"dec" ~src:"s" ~event:"dec" ~dst:"s"
          ~actions:[ M.Assign ("x", M.Sub (M.Reg "x", M.Int 3)) ]
          ();
        M.trans ~label:"inc" ~src:"s" ~event:"inc" ~dst:"s"
          ~actions:[ M.Assign ("x", M.Add (M.Reg "x", M.Int 4)) ]
          ();
      ]
  in
  let inst = Step.instance (Step.compile m) in
  let interp = Interp.create m in
  List.iter
    (fun ev ->
      match lockstep_event inst interp ev with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "wrap: %s" msg)
    [ "dec"; "dec"; "inc"; "inc"; "dec"; "inc"; "dec"; "dec" ];
  (* spot-check the first wrap: 0 - 3 wraps to 2 in domain 5 *)
  let i2 = Step.instance (Step.plan_of inst) in
  check_bool "fresh dec fires" true (Step.fire i2 "dec" = Step.Fired);
  check_int "0 - 3 wraps to 2" 2 (Step.register_by_name i2 "x")

let step_instance_independence () =
  (* Instances of one plan are independent; reset restores the initial
     configuration and clears last_transition. *)
  let plan = Step.compile (counter 3) in
  let a = Step.instance plan and b = Step.instance plan in
  check_bool "a inc" true (Step.fire a "inc" = Step.Fired);
  check_bool "a inc" true (Step.fire a "inc" = Step.Fired);
  check_int "a advanced" 2 (Step.register_by_name a "n");
  check_int "b untouched" 0 (Step.register_by_name b "n");
  check_bool "ids roundtrip" true
    (Step.event_name plan (Step.event_id plan "inc") = "inc");
  check_int "unknown name is -1" (-1) (Step.event_id plan "nope");
  Step.reset a;
  check_int "reset regs" 0 (Step.register_by_name a "n");
  check_int "reset last" (-1) (Step.last_transition a);
  check_str "reset state" "counting" (Step.state_name_of a)

let prng_trace_agrees rng (m : M.t) =
  let events = Array.of_list ("__not_an_event__" :: m.M.events) in
  let inst = Step.instance (Step.compile m) in
  let interp = Interp.create m in
  let steps = 1 + Netdsl_util.Prng.int rng 120 in
  let rec go k =
    if k = 0 then true
    else
      let ev = events.(Netdsl_util.Prng.int rng (Array.length events)) in
      match lockstep_event inst interp ev with
      | Ok () -> go (k - 1)
      | Error msg -> QCheck.Test.fail_report (m.M.machine_name ^ ": " ^ msg)
  in
  go steps

let prop_step_equiv_interp_shipped =
  QCheck.Test.make
    ~name:"fsm: Step ≡ Interp on every shipped machine (PRNG traces)"
    ~count:400 QCheck.int64 (fun seed ->
      let rng = Netdsl_util.Prng.create seed in
      let _, m = Netdsl_util.Prng.pick_list rng P.Machines.all in
      prng_trace_agrees rng m)

let prop_step_equiv_interp_random =
  (* Random machines are frequently nondeterministic and full of gaps, so
     this hammers the refusal paths far harder than the shipped set. *)
  QCheck.Test.make ~name:"fsm: Step ≡ Interp on random machines" ~count:300
    QCheck.int64 (fun seed ->
      let rng = Netdsl_util.Prng.create seed in
      prng_trace_agrees rng (random_machine rng))

let step_suite =
  ( "fsm.step",
    [
      Alcotest.test_case "mined tours agree" `Quick step_matches_interp_on_mined_tours;
      Alcotest.test_case "refusal verdicts agree" `Quick step_refusal_verdicts;
      Alcotest.test_case "register wraparound" `Quick step_register_wraparound;
      Alcotest.test_case "instances independent" `Quick step_instance_independence;
      Testutil.qcheck prop_step_equiv_interp_shipped;
      Testutil.qcheck prop_step_equiv_interp_random;
    ] )

let suite = suite @ [ step_suite ]
