open Netdsl_lang
module D = Netdsl_format.Desc
module V = Netdsl_format.Value
module C = Netdsl_format.Codec
module M = Netdsl_fsm.Machine

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let parse_ok src =
  match Parser.parse_string src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" (Format.asprintf "%a" Parser.pp_error e)

let parse_err src =
  match Parser.parse_string src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_basics () =
  let toks = List.map fst (Lexer.tokenize "format x { a : uint8; } // comment") in
  Alcotest.(check int) "token count" 9 (List.length toks);
  match toks with
  | [ IDENT "format"; IDENT "x"; LBRACE; IDENT "a"; COLON; IDENT "uint8"; SEMI; RBRACE; EOF ] -> ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_literals () =
  match List.map fst (Lexer.tokenize "255 0xFF \"hi\\n\" ..") with
  | [ INT 255L; INT 0xFFL; STRING "hi\n"; DOTDOT; EOF ] -> ()
  | _ -> Alcotest.fail "literal lexing"

let test_lexer_operators () =
  match List.map fst (Lexer.tokenize ":= -> == != <= >= && || !") with
  | [ ASSIGN; ARROW; EQEQ; NEQ; LE; GE; ANDAND; OROR; BANG; EOF ] -> ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_errors_located () =
  (match Lexer.tokenize "a\n  @" with
  | _ -> Alcotest.fail "stray @ accepted"
  | exception Lexer.Error { loc; _ } ->
    check_int "line" 2 loc.Loc.line;
    check_int "col" 3 loc.Loc.col);
  match Lexer.tokenize "\"unterminated" with
  | _ -> Alcotest.fail "unterminated string accepted"
  | exception Lexer.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Parsing formats *)

let arq_src =
  {|
  // the paper's ARQ packet
  format arq_packet {
    seq     : uint8 "Sequence Number";
    kind    : enum uint8 { data = 0, ack = 1 };
    len     : uint16 = len(payload);
    chk     : checksum internet over message;
    payload : bytes[len];
  }
  |}

let test_parse_arq_equivalent_to_library () =
  let p = parse_ok arq_src in
  let fmt = Option.get (Parser.find_format p "arq_packet") in
  (* The parsed format encodes byte-identically to the hand-built library
     one. *)
  let v =
    V.record [ ("seq", V.int 5); ("kind", V.int 0); ("payload", V.bytes "hello") ]
  in
  let ours = C.encode_exn fmt v in
  let libs = C.encode_exn Netdsl_formats.Arq.format v in
  check_str "byte identical" (Netdsl_util.Hexdump.to_hex libs)
    (Netdsl_util.Hexdump.to_hex ours)

let ipv4_src =
  {|
  format ipv4 {
    version         : const uint4 = 4 "Version";
    ihl             : uint4 = (len(options) + 20) / 4 "IHL";
    tos             : uint8 "Type of Service";
    total_length    : uint16 = len(message) "Total Length";
    identification  : uint16 "Identification";
    flags           : uint3 "Flags";
    fragment_offset : uint13 "Fragment Offset";
    ttl             : uint8 "Time to Live";
    protocol        : uint8 "Protocol";
    header_checksum : checksum internet over version..options "Header Checksum";
    source          : uint32 "Source Address";
    destination     : uint32 "Destination Address";
    options         : bytes[ihl * 4 - 20];
    payload         : bytes[..];
  }
  |}

let test_parse_ipv4_decodes_real_header () =
  let p = parse_ok ipv4_src in
  let fmt = Option.get (Parser.find_format p "ipv4") in
  let bytes =
    Netdsl_util.Hexdump.of_hex "4500003c1c4640004006b1e6ac100a63ac100a0c"
    ^ String.make 40 '\000'
  in
  match C.decode fmt bytes with
  | Ok v ->
    check_int "ttl" 64 (V.get_int v "ttl");
    check_int "total length" 60 (V.get_int v "total_length")
  | Error e -> Alcotest.failf "decode failed: %s" (C.error_to_string e)

let test_parse_nested_and_arrays () =
  let src =
    {|
    format point { x : uint16; y : uint16; }
    format path {
      n      : uint8;
      points : point[n];
      origin : point;
      rest   : point[..];
    }
    |}
  in
  let p = parse_ok src in
  let path = Option.get (Parser.find_format p "path") in
  let v =
    V.record
      [
        ("n", V.int 1);
        ("points", V.list [ V.record [ ("x", V.int 1); ("y", V.int 2) ] ]);
        ("origin", V.record [ ("x", V.int 3); ("y", V.int 4) ]);
        ("rest", V.list []);
      ]
  in
  let bytes = C.encode_exn path v in
  check_str "wire" "010001000200030004" (Netdsl_util.Hexdump.to_hex bytes)

let test_parse_variant_and_constraints () =
  let src =
    {|
    format ping { token : uint32; }
    format pong { token : uint32; hops : uint8 where 1..64; }
    format msg {
      kind : enum uint8 open { ping = 1, pong = 2 };
      body : variant on kind {
        ping(1) : ping;
        pong(2) : pong;
        default : raw;
      }
    }
    format raw { data : bytes[..]; }
    |}
  in
  (* 'raw' is referenced before its definition: that is an error... *)
  let e = parse_err src in
  check_bool "mentions unknown format" true
    (Testutil.contains e.Parser.message "unknown format");
  (* ...so reorder, and it parses. *)
  let src_ok =
    {|
    format ping { token : uint32; }
    format pong { token : uint32; hops : uint8 where 1..64; }
    format raw { data : bytes[..]; }
    format msg {
      kind : enum uint8 open { ping = 1, pong = 2 };
      body : variant on kind {
        ping(1) : ping;
        pong(2) : pong;
        default : raw;
      }
    }
    |}
  in
  let p = parse_ok src_ok in
  let msg = Option.get (Parser.find_format p "msg") in
  let decoded = C.decode_exn msg "\x02\x00\x00\x00\x07\x20" in
  (match V.get decoded "body" with
  | V.Variant ("pong", body) ->
    check_int "hops" 32 (V.get_int body "hops")
  | other -> Alcotest.failf "wrong case: %s" (V.to_string other));
  (* Constraint from the source is enforced. *)
  match C.decode msg "\x02\x00\x00\x00\x07\x00" with
  | Ok _ -> Alcotest.fail "hops=0 accepted"
  | Error (C.Constraint_violation _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)

let test_parse_le_and_padding_and_open_constraints () =
  let src =
    {|
    format hdr {
      magic : const uint16 = 0xBEEF;
      size  : uint32 le;
      flags : uint8 where in { 0, 1, 2 };
      pad   : padding 8;
      tag   : uint8 where != 0;
    }
    |}
  in
  let p = parse_ok src in
  let fmt = Option.get (Parser.find_format p "hdr") in
  let v = V.record [ ("size", V.int 0x11223344); ("flags", V.int 1); ("tag", V.int 9) ] in
  check_str "wire" "beef44332211010009" (Netdsl_util.Hexdump.to_hex (C.encode_exn fmt v))

(* ------------------------------------------------------------------ *)
(* Parsing machines *)

let sender_src =
  {|
  machine sender {
    registers { seq : mod 4 = 0; }
    states { ready init; wait; timeout; sent accepting; }
    events { send, ok, fail, timer, finish, retry }
    on send:   ready -> wait;
    on ok:     wait -> ready { seq := seq + 1 } as "OK";
    on fail:   wait -> ready;
    on timer:  wait -> timeout;
    on retry:  timeout -> ready;
    on finish: ready -> sent;
    ignore ok in ready;
    ignore timer in ready;
  }
  |}

let test_parse_machine () =
  let p = parse_ok sender_src in
  let m = Option.get (Parser.find_machine p "sender") in
  check_int "states" 4 (List.length m.M.states);
  check_str "initial" "ready" m.M.initial;
  Alcotest.(check (list string)) "accepting" [ "sent" ] m.M.accepting;
  check_int "transitions" 6 (List.length m.M.transitions);
  check_int "ignores" 2 (List.length m.M.ignores);
  (* The machine runs: OK increments the register modulo 4. *)
  let i = Netdsl_fsm.Interp.create m in
  (match Netdsl_fsm.Interp.fire_all i [ "send"; "ok"; "send"; "ok"; "send"; "ok"; "send"; "ok" ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "run failed: %a" Netdsl_fsm.Interp.pp_error e);
  check_int "wrapped" 0 (Netdsl_fsm.Interp.register i "seq")

let test_parse_machine_guards () =
  let src =
    {|
    machine counter {
      registers { n : mod 10; }
      states { low init accepting; high; }
      events { inc }
      on inc: low -> low { n := n + 1 } when n < 4;
      on inc: low -> high { n := n + 1 } when n == 4;
      on inc: high -> high when n >= 5 && !(n == 9);
    }
    |}
  in
  let p = parse_ok src in
  let m = Option.get (Parser.find_machine p "counter") in
  (* Guards partition: deterministic everywhere. *)
  check_int "deterministic" 0
    (List.length (Netdsl_fsm.Analysis.nondeterministic_configs m));
  let i = Netdsl_fsm.Interp.create m in
  for _ = 1 to 5 do
    ignore (Netdsl_fsm.Interp.fire_exn i "inc")
  done;
  check_str "reached high" "high" (Netdsl_fsm.Interp.state i)

let test_machine_errors () =
  (* No initial state. *)
  let e =
    parse_err
      {| machine m { states { a; b; } events { e } on e: a -> b; } |}
  in
  check_bool "no init reported" true (Testutil.contains e.Parser.message "init");
  (* Undeclared state in a transition is caught by validation. *)
  let e2 =
    parse_err
      {| machine m { states { a init; } events { e } on e: a -> ghost; } |}
  in
  check_bool "ghost state reported" true (Testutil.contains e2.Parser.message "ghost");
  (* Unknown register in action. *)
  let e3 =
    parse_err
      {| machine m { states { a init; } events { e } on e: a -> a { x := 1 }; } |}
  in
  check_bool "unknown register" true (Testutil.contains e3.Parser.message "x")

let test_format_errors_located () =
  (* Well-formedness failures surface as parse errors naming the format. *)
  let e = parse_err {| format f { a : uint8; a : uint8; } |} in
  check_bool "duplicate field" true (Testutil.contains e.Parser.message "duplicate");
  let e2 = parse_err {| format f { p : bytes[later]; later : uint8; } |} in
  check_bool "forward length ref" true (Testutil.contains e2.Parser.message "decoded later");
  let e3 = parse_err {| format f { c : checksum sha256; } |} in
  check_bool "unknown algorithm" true (Testutil.contains e3.Parser.message "sha256")

let test_syntax_error_location () =
  let e = parse_err "format f {\n  a : uint8\n}" in
  (* Missing semicolon: reported on line 3 where '}' appears. *)
  check_int "line" 3 e.Parser.loc.Loc.line

let test_duplicate_format_rejected () =
  let e = parse_err {| format f { a : uint8; } format f { b : uint8; } |} in
  check_bool "duplicate format" true (Testutil.contains e.Parser.message "duplicate")

(* ------------------------------------------------------------------ *)
(* Code generation *)

let test_codegen_structure () =
  let p = parse_ok (arq_src ^ sender_src) in
  let code = Codegen.to_ocaml p in
  List.iter
    (fun fragment ->
      check_bool (Printf.sprintf "contains %s" fragment) true
        (Testutil.contains code fragment))
    [
      "let format_arq_packet : D.t";
      "D.format \"arq_packet\"";
      "(D.Byte_len \"payload\")";
      "algorithm_of_string \"internet\"";
      "let machine_sender : M.t";
      "~initial:\"ready\"";
      "M.Assign (\"seq\", (M.Add ((M.Reg \"seq\"), (M.Int 1))))";
      "let formats : (string * D.t) list";
      "let machines : (string * M.t) list";
    ]

let test_codegen_roundtrip_through_parser () =
  (* The generated OCaml reconstructs the same descriptions.  We cannot
     compile OCaml here, but we can check the emitted constructors cover
     every field of a rich format. *)
  let p = parse_ok ipv4_src in
  let code = Codegen.to_ocaml p in
  List.iter
    (fun field -> check_bool field true (Testutil.contains code (Printf.sprintf "%S" field)))
    [ "version"; "ihl"; "tos"; "total_length"; "identification"; "flags";
      "fragment_offset"; "ttl"; "protocol"; "header_checksum"; "source";
      "destination"; "options"; "payload" ]

(* ------------------------------------------------------------------ *)
(* Stacks *)

let stack_src =
  {|
  format a { tag : uint8; payload : bytes[..]; }
  format b { kind : uint16; body : bytes[..]; }
  format c { x : uint8; }
  stack abc {
    a select tag = 1;
    b as mid select kind in { 2, 3 } via body;
    c;
  }
  |}

let test_parse_stack () =
  let p = parse_ok stack_src in
  let st = Option.get (Parser.find_stack p "abc") in
  let module S = Netdsl_format.Stack in
  Alcotest.(check (list string)) "layer names" [ "a"; "mid"; "c" ] (S.layer_names st);
  check_str "via" "body" (S.layer_via st 1);
  (match S.layer_select st 0 with
  | Some ("tag", [ 1L ]) -> ()
  | _ -> Alcotest.fail "layer 0 select");
  (match S.layer_select st 1 with
  | Some ("kind", [ 2L; 3L ]) -> ()
  | _ -> Alcotest.fail "layer 1 select");
  check_bool "terminal has no select" true (S.layer_select st 2 = None);
  (* The parsed stack compiles and routes a real chained packet. *)
  let plan = Result.get_ok (S.compile st) in
  check_bool "accepts chain" true (S.run plan "\x01\x00\x02\x2a");
  check_bool "demux alternative" true (S.run plan "\x01\x00\x03\x2a");
  check_bool "wrong outer demux" false (S.run plan "\x02\x00\x02\x2a");
  check_bool "wrong inner demux" false (S.run plan "\x01\x00\x04\x2a");
  check_bool "truncated inner" false (S.run plan "\x01\x00\x02")

let test_stack_errors () =
  let e = parse_err {| stack s { nope select t = 1; also_nope; } |} in
  check_bool "unknown format" true (Testutil.contains e.Parser.message "unknown format");
  let e2 =
    parse_err
      {| format a { tag : uint8; payload : bytes[..]; }
         format c { x : uint8; }
         stack s { a; c; } |}
  in
  check_bool "missing demux" true (Testutil.contains e2.Parser.message "demux");
  let e3 =
    parse_err
      {| format a { tag : uint8; payload : bytes[..]; }
         format c { x : uint8; }
         stack s { a select tag = 1; c; }
         stack s { a select tag = 2; c; } |}
  in
  check_bool "duplicate stack" true (Testutil.contains e3.Parser.message "duplicate stack");
  let e4 =
    parse_err
      {| format a { tag : uint8; payload : bytes[..]; }
         stack s { a select tag; a2; } |}
  in
  check_bool "select needs = or in" true (Testutil.contains e4.Parser.message "expected '=' or 'in'")

let test_stack_codegen () =
  let p = parse_ok stack_src in
  let code = Codegen.to_ocaml p in
  List.iter
    (fun fragment ->
      check_bool (Printf.sprintf "contains %s" fragment) true
        (Testutil.contains code fragment))
    [
      "module S = Netdsl_format.Stack";
      "let stack_abc : S.t";
      "S.v ~name:\"abc\"";
      "S.layer ~name:\"a\" ~select:(\"tag\", [ 1L ]) format_a";
      "S.layer ~name:\"mid\" ~select:(\"kind\", [ 2L; 3L ]) ~via:\"body\" format_b";
      "S.layer ~name:\"c\" format_c";
      "let stacks : (string * S.t) list";
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end: DSL-defined protocol spec is analysable and model-checkable *)

let test_dsl_machine_analysable () =
  let p = parse_ok sender_src in
  let m = Option.get (Parser.find_machine p "sender") in
  let report = Netdsl_fsm.Analysis.analyse m in
  (* The DSL sender has a few deliberately unhandled pairs (no ignore
     clauses were written for them) — the analysis reports rather than
     hides them. *)
  check_bool "analysis runs" true (report.Netdsl_fsm.Analysis.explored_configs > 0)

let suite =
  [
    ( "lang.lexer",
      [
        Alcotest.test_case "basics" `Quick test_lexer_basics;
        Alcotest.test_case "literals" `Quick test_lexer_literals;
        Alcotest.test_case "operators" `Quick test_lexer_operators;
        Alcotest.test_case "errors located" `Quick test_lexer_errors_located;
      ] );
    ( "lang.formats",
      [
        Alcotest.test_case "ARQ equals library format" `Quick test_parse_arq_equivalent_to_library;
        Alcotest.test_case "IPv4 decodes real header" `Quick test_parse_ipv4_decodes_real_header;
        Alcotest.test_case "nested records and arrays" `Quick test_parse_nested_and_arrays;
        Alcotest.test_case "variants and constraints" `Quick test_parse_variant_and_constraints;
        Alcotest.test_case "le, padding, in/!= constraints" `Quick test_parse_le_and_padding_and_open_constraints;
        Alcotest.test_case "wf errors surfaced" `Quick test_format_errors_located;
        Alcotest.test_case "syntax error location" `Quick test_syntax_error_location;
        Alcotest.test_case "duplicate format" `Quick test_duplicate_format_rejected;
      ] );
    ( "lang.machines",
      [
        Alcotest.test_case "sender machine" `Quick test_parse_machine;
        Alcotest.test_case "guards" `Quick test_parse_machine_guards;
        Alcotest.test_case "machine errors" `Quick test_machine_errors;
        Alcotest.test_case "analysable" `Quick test_dsl_machine_analysable;
      ] );
    ( "lang.codegen",
      [
        Alcotest.test_case "structure" `Quick test_codegen_structure;
        Alcotest.test_case "covers all fields" `Quick test_codegen_roundtrip_through_parser;
      ] );
    ( "lang.stacks",
      [
        Alcotest.test_case "parse, compile, route" `Quick test_parse_stack;
        Alcotest.test_case "errors" `Quick test_stack_errors;
        Alcotest.test_case "codegen" `Quick test_stack_codegen;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Printer: parse . print = id (up to elaboration) *)

let reparses_identically src =
  let p = parse_ok src in
  let printed = Printer.program_to_ndsl p in
  match Parser.parse_string printed with
  | Error e ->
    Alcotest.failf "printed program does not re-parse: %s\n--- printed ---\n%s"
      (Format.asprintf "%a" Parser.pp_error e)
      printed
  | Ok p' ->
    List.iter2
      (fun (n1, f1) (n2, f2) ->
        check_str "format name" n1 n2;
        (* Structural equality of the elaborated descriptions. *)
        check_bool (Printf.sprintf "format %s identical" n1) true (f1 = f2))
      p.Parser.formats p'.Parser.formats;
    List.iter2
      (fun (n1, m1) (n2, m2) ->
        check_str "machine name" n1 n2;
        check_bool (Printf.sprintf "machine %s identical" n1) true (m1 = m2))
      p.Parser.machines p'.Parser.machines;
    List.iter2
      (fun (n1, s1) (n2, s2) ->
        check_str "stack name" n1 n2;
        check_bool (Printf.sprintf "stack %s identical" n1) true (s1 = s2))
      p.Parser.stacks p'.Parser.stacks

let test_print_parse_roundtrip_arq () = reparses_identically arq_src
let test_print_parse_roundtrip_ipv4 () = reparses_identically ipv4_src
let test_print_parse_roundtrip_machine () = reparses_identically sender_src
let test_print_parse_roundtrip_stack () = reparses_identically stack_src

let test_print_parse_roundtrip_rich () =
  reparses_identically
    {|
    format inner { x : uint16 le; tag : flag; z : padding 7; name : cstring; }
    format outer {
      magic : const uint8 = 0x7F;
      mode  : enum uint4 open { a = 0, b = 1 };
      pad   : padding 4;
      n     : uint8 where 0..16;
      elems : inner[n];
      body  : variant on mode {
        alpha(0) : inner;
        default  : inner;
      }
      crc   : checksum crc32 over magic..body;
      rest  : bytes[..];
    }
    machine g {
      registers { k : mod 7 = 2; }
      states { s init accepting; t; }
      events { e, f }
      on e: s -> t when (k < 5) && (!(k == 3)) { k := (k * 2) mod 7 };
      on f: t -> s when k >= 1 || false;
      ignore f in s;
      ignore e in t;
    }
    |}

let printer_suite =
  ( "lang.printer",
    [
      Alcotest.test_case "roundtrip: arq" `Quick test_print_parse_roundtrip_arq;
      Alcotest.test_case "roundtrip: ipv4" `Quick test_print_parse_roundtrip_ipv4;
      Alcotest.test_case "roundtrip: machine" `Quick test_print_parse_roundtrip_machine;
      Alcotest.test_case "roundtrip: rich program" `Quick test_print_parse_roundtrip_rich;
      Alcotest.test_case "roundtrip: stack" `Quick test_print_parse_roundtrip_stack;
    ] )

let suite = suite @ [ printer_suite ]

(* ------------------------------------------------------------------ *)
(* The ABP system written in .ndsl elaborates to machines behaviourally
   equivalent to the OCaml-defined ones, and verifies identically. *)

let test_abp_spec_machines_equivalent () =
  let p = Testutil.spec_program "abp.ndsl" in
  List.iter
    (fun (name, reference) ->
      let parsed = Option.get (Parser.find_machine p name) in
      match Netdsl_fsm.Equiv.check reference parsed with
      | Ok () -> ()
      | Error ce ->
        Alcotest.failf "%s differs: %s" name
          (Format.asprintf "%a" Netdsl_fsm.Equiv.pp_counterexample ce))
    [
      ("sender", Netdsl_proto.Abp.sender);
      ("data_channel", Netdsl_proto.Abp.data_channel);
      ("receiver", Netdsl_proto.Abp.receiver);
      ("ack_channel", Netdsl_proto.Abp.ack_channel);
    ]

let test_abp_spec_verifies () =
  let p = Testutil.spec_program "abp.ndsl" in
  let sys =
    Netdsl_fsm.Compose.create ~name:"abp_from_dsl" (List.map snd p.Parser.machines)
  in
  (match
     Netdsl_fsm.Model_check.check_invariant sys (fun global ->
         not
           (List.exists (fun c -> String.equal c.M.state "bad") global))
   with
  | Netdsl_fsm.Model_check.Holds -> ()
  | _ -> Alcotest.fail "no-duplicate-delivery failed on DSL-defined ABP");
  match Netdsl_fsm.Model_check.check_deadlock_free sys with
  | Netdsl_fsm.Model_check.Holds -> ()
  | _ -> Alcotest.fail "deadlock freedom failed on DSL-defined ABP"

let test_specs_parse_and_check () =
  List.iter
    (fun name ->
      let p = Testutil.spec_program name in
      (* Every machine in every shipped spec is structurally valid and
         passes analysis without defects. *)
      List.iter
        (fun (_, m) ->
          Alcotest.(check (list string)) (name ^ " machine defects") []
            (List.map (fun d -> d.M.what) (M.validate m)))
        p.Parser.machines)
    [ "arq.ndsl"; "ipv4.ndsl"; "sensor.ndsl"; "abp.ndsl"; "tftp.ndsl"; "stacks.ndsl" ]

let spec_suite =
  ( "lang.specs",
    [
      Alcotest.test_case "ABP spec equivalent to library" `Quick test_abp_spec_machines_equivalent;
      Alcotest.test_case "ABP spec verifies" `Quick test_abp_spec_verifies;
      Alcotest.test_case "all shipped specs valid" `Quick test_specs_parse_and_check;
    ] )

let suite = suite @ [ spec_suite ]

let test_arq_spec_sender_equivalent_to_library () =
  (* The .ndsl sender speaks of a "timer" event where the library machine
     says "timeout"; after renaming, the two are behaviourally equivalent
     (labels and ignore-lists play no role in the language). *)
  let p = Testutil.spec_program "arq.ndsl" in
  let parsed = Option.get (Parser.find_machine p "sender") in
  let rename e = if String.equal e "timer" then "timeout" else e in
  let renamed =
    {
      parsed with
      M.events = List.map rename parsed.M.events;
      transitions =
        List.map
          (fun (t : M.transition) -> { t with M.event = rename t.event })
          parsed.M.transitions;
      ignores = List.map (fun (s, e) -> (s, rename e)) parsed.M.ignores;
    }
  in
  let reference = Netdsl_proto.Arq_fsm.sender ~seq_bits:8 in
  (match Netdsl_fsm.Equiv.check ~max_pairs:2_000_000 reference renamed with
  | Ok () -> ()
  | Error ce ->
    Alcotest.failf "spec sender differs from library sender: %s"
      (Format.asprintf "%a" Netdsl_fsm.Equiv.pp_counterexample ce))

let () = ignore test_arq_spec_sender_equivalent_to_library

let spec_equiv_suite =
  ( "lang.spec_equiv",
    [
      Alcotest.test_case "ARQ spec sender = library sender" `Quick
        test_arq_spec_sender_equivalent_to_library;
    ] )

let suite = suite @ [ spec_equiv_suite ]
