(* gen_formats SPEC.ndsl: print the OCaml of SPEC's formats and stacks
   ([Codegen.formats_to_ocaml]); exit 1 on a spec that does not parse. *)

let () =
  let path = Sys.argv.(1) in
  match
    Netdsl_lang.Parser.parse_string (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok p -> print_string (Netdsl_lang.Codegen.formats_to_ocaml p)
  | Error e ->
    Format.eprintf "%s: %a@." path Netdsl_lang.Parser.pp_error e;
    exit 1
