module D = Netdsl_format.Desc
module S = Netdsl_format.Stack
module M = Netdsl_fsm.Machine

let bpf = Printf.bprintf

let rec fexpr buf (e : D.expr) =
  match e with
  | Const v -> bpf buf "(D.Const %LdL)" v
  | Field n -> bpf buf "(D.Field %S)" n
  | Byte_len n -> bpf buf "(D.Byte_len %S)" n
  | Msg_len -> bpf buf "D.Msg_len"
  | Add (a, b) -> bpf buf "(D.Add (%a, %a))" fexpr a fexpr b
  | Sub (a, b) -> bpf buf "(D.Sub (%a, %a))" fexpr a fexpr b
  | Mul (a, b) -> bpf buf "(D.Mul (%a, %a))" fexpr a fexpr b
  | Div (a, b) -> bpf buf "(D.Div (%a, %a))" fexpr a fexpr b

let endian buf = function
  | D.Big -> bpf buf "D.Big"
  | D.Little -> bpf buf "D.Little"

let len_spec buf = function
  | D.Len_fixed n -> bpf buf "(D.Len_fixed %d)" n
  | D.Len_expr e -> bpf buf "(D.Len_expr %a)" fexpr e
  | D.Len_bytes e -> bpf buf "(D.Len_bytes %a)" fexpr e
  | D.Len_remaining -> bpf buf "D.Len_remaining"
  | D.Len_terminated t -> bpf buf "(D.Len_terminated %d)" t

let region buf = function
  | D.Region_message -> bpf buf "D.Region_message"
  | D.Region_span (a, b) -> bpf buf "(D.Region_span (%S, %S))" a b
  | D.Region_rest -> bpf buf "D.Region_rest"

let constr buf = function
  | D.In_range (lo, hi) -> bpf buf "D.In_range (%LdL, %LdL)" lo hi
  | D.One_of vs ->
    bpf buf "D.One_of [%s]" (String.concat "; " (List.map (Printf.sprintf "%LdL") vs))
  | D.Not_equal v -> bpf buf "D.Not_equal %LdL" v

(* Sub-formats referenced by arrays/records/variants are emitted as their
   own bindings first; [binding_of] maps a format to its variable name. *)
let rec ty binding_of buf (t : D.ty) =
  match t with
  | Uint { bits; endian = e } -> bpf buf "(D.Uint { bits = %d; endian = %a })" bits endian e
  | Bool_flag -> bpf buf "D.Bool_flag"
  | Const { bits; endian = e; value } ->
    bpf buf "(D.Const { bits = %d; endian = %a; value = %LdL })" bits endian e value
  | Enum { bits; endian = e; cases; exhaustive } ->
    bpf buf "(D.Enum { bits = %d; endian = %a; cases = [%s]; exhaustive = %b })" bits
      endian e
      (String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "(%S, %LdL)" n v) cases))
      exhaustive
  | Computed { bits; endian = e; expr } ->
    bpf buf "(D.Computed { bits = %d; endian = %a; expr = %a })" bits endian e fexpr expr
  | Checksum { algorithm; region = r } ->
    bpf buf
      "(D.Checksum { algorithm = Option.get (Netdsl_util.Checksum.algorithm_of_string %S); region = %a })"
      (Netdsl_util.Checksum.algorithm_to_string algorithm)
      region r
  | Bytes spec -> bpf buf "(D.Bytes %a)" len_spec spec
  | Array { elem; length } ->
    bpf buf "(D.Array { elem = %s; length = %a })" (binding_of elem) len_spec length
  | Record sub -> bpf buf "(D.Record %s)" (binding_of sub)
  | Variant { tag; cases; default } ->
    bpf buf "(D.Variant { tag = %S; cases = [%s]; default = %s })" tag
      (String.concat "; "
         (List.map
            (fun (n, v, sub) -> Printf.sprintf "(%S, %LdL, %s)" n v (binding_of sub))
            cases))
      (match default with
      | None -> "None"
      | Some sub -> Printf.sprintf "(Some %s)" (binding_of sub))
  | Padding { bits } -> bpf buf "(D.Padding { bits = %d })" bits

and field binding_of buf (f : D.field) =
  bpf buf "      D.field%s%s %S %a;\n"
    (match f.doc with
    | None -> ""
    | Some d -> Printf.sprintf " ~doc:%S" d)
    (match f.constraints with
    | [] -> ""
    | cs ->
      let b = Buffer.create 64 in
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string b "; ";
          constr b c)
        cs;
      Printf.sprintf " ~constraints:[%s]" (Buffer.contents b))
    f.name (ty binding_of) f.ty

let format_binding binding_of buf name (fmt : D.t) =
  bpf buf "let %s : D.t =\n  D.format %S\n    [\n" name fmt.format_name;
  List.iter (field binding_of buf) fmt.fields;
  bpf buf "    ]\n\n"

let rec mexpr buf (e : M.expr) =
  match e with
  | Int n -> bpf buf "(M.Int %d)" n
  | Reg r -> bpf buf "(M.Reg %S)" r
  | Add (a, b) -> bpf buf "(M.Add (%a, %a))" mexpr a mexpr b
  | Sub (a, b) -> bpf buf "(M.Sub (%a, %a))" mexpr a mexpr b
  | Mul (a, b) -> bpf buf "(M.Mul (%a, %a))" mexpr a mexpr b
  | Mod (a, b) -> bpf buf "(M.Mod (%a, %a))" mexpr a mexpr b

let rec mcond buf (c : M.cond) =
  match c with
  | True -> bpf buf "M.True"
  | False -> bpf buf "M.False"
  | Eq (a, b) -> bpf buf "(M.Eq (%a, %a))" mexpr a mexpr b
  | Ne (a, b) -> bpf buf "(M.Ne (%a, %a))" mexpr a mexpr b
  | Lt (a, b) -> bpf buf "(M.Lt (%a, %a))" mexpr a mexpr b
  | Le (a, b) -> bpf buf "(M.Le (%a, %a))" mexpr a mexpr b
  | Not c -> bpf buf "(M.Not %a)" mcond c
  | And (a, b) -> bpf buf "(M.And (%a, %a))" mcond a mcond b
  | Or (a, b) -> bpf buf "(M.Or (%a, %a))" mcond a mcond b

let strings names = String.concat "; " (List.map (Printf.sprintf "%S") names)

let machine_binding buf name (m : M.t) =
  bpf buf "let %s : M.t =\n  M.machine ~name:%S\n" name m.machine_name;
  bpf buf "    ~states:[ %s ]\n" (strings m.states);
  bpf buf "    ~events:[ %s ]\n" (strings m.events);
  if m.registers <> [] then
    bpf buf "    ~registers:[ %s ]\n"
      (String.concat "; "
         (List.map
            (fun (r : M.register) ->
              Printf.sprintf "M.reg ~init:%d %S ~domain:%d" r.init r.reg_name r.domain)
            m.registers));
  bpf buf "    ~initial:%S\n" m.initial;
  if m.accepting <> [] then bpf buf "    ~accepting:[ %s ]\n" (strings m.accepting);
  if m.ignores <> [] then
    bpf buf "    ~ignores:[ %s ]\n"
      (String.concat "; "
         (List.map (fun (s, e) -> Printf.sprintf "(%S, %S)" s e) m.ignores));
  bpf buf "    [\n";
  List.iter
    (fun (t : M.transition) ->
      bpf buf "      M.trans ~label:%S ~src:%S ~event:%S ~dst:%S" t.t_label t.src
        t.event t.dst;
      (match t.guard with
      | M.True -> ()
      | g -> bpf buf " ~guard:%a" mcond g);
      (match t.actions with
      | [] -> ()
      | acts ->
        bpf buf " ~actions:[ %s ]"
          (String.concat "; "
             (List.map
                (fun (M.Assign (r, e)) ->
                  let b = Buffer.create 32 in
                  mexpr b e;
                  Printf.sprintf "M.Assign (%S, %s)" r (Buffer.contents b))
                acts)));
      (match t.timer with
      | M.No_timer -> ()
      | M.Arm_timer { after_ms; fire } ->
        bpf buf " ~timer:(M.Arm_timer { after_ms = %d; fire = %S })" after_ms fire
      | M.Cancel_timer -> bpf buf " ~timer:M.Cancel_timer");
      bpf buf " ();\n")
    m.transitions;
  bpf buf "    ]\n\n"

(* A parsed stack already validated, so [S.v] cannot fail on replay;
   [Result.get_ok] keeps the generated binding a plain value. *)
let stack_binding binding_of buf name (st : S.t) =
  bpf buf "let %s : S.t =\n  Result.get_ok\n    (S.v ~name:%S\n       [\n" name (S.name st);
  List.iteri
    (fun i lname ->
      let fmt : D.t = S.layer_format st i in
      bpf buf "         S.layer ~name:%S%s%s %s;\n" lname
        (match S.layer_select st i with
        | None -> ""
        | Some (f, vs) ->
          Printf.sprintf " ~select:(%S, [ %s ])" f
            (String.concat "; " (List.map (Printf.sprintf "%LdL") vs)))
        (if String.equal (S.layer_via st i) "payload" then ""
         else Printf.sprintf " ~via:%S" (S.layer_via st i))
        (binding_of fmt))
    (S.layer_names st);
  bpf buf "       ])\n\n"

let sanitize name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_') name

(* With [machines = false] the unit names no [Netdsl_fsm] module, so a
   library that links only [netdsl.format] can compile it. *)
let emit ~machines (p : Parser.program) =
  let buf = Buffer.create 4096 in
  bpf buf "(* Generated by the netdsl compiler — do not edit. *)\n";
  bpf buf "module D = Netdsl_format.Desc\n";
  bpf buf "module S = Netdsl_format.Stack\n";
  if machines then bpf buf "module M = Netdsl_fsm.Machine\n";
  bpf buf "\n";
  (* Formats are in definition order, so every reference points backwards
     and the bindings below resolve. *)
  let binding_of (fmt : D.t) = "format_" ^ sanitize fmt.format_name in
  List.iter
    (fun (name, fmt) -> format_binding binding_of buf ("format_" ^ sanitize name) fmt)
    p.formats;
  List.iter
    (fun (name, st) -> stack_binding binding_of buf ("stack_" ^ sanitize name) st)
    p.stacks;
  if machines then
    List.iter
      (fun (name, m) -> machine_binding buf ("machine_" ^ sanitize name) m)
      p.machines;
  let assoc name ty prefix names =
    Printf.sprintf "let %s : (string * %s) list =\n  [ %s ]\n" name ty
      (String.concat "; "
         (List.map (fun n -> Printf.sprintf "(%S, %s%s)" n prefix (sanitize n)) names))
  in
  let lists =
    [ assoc "formats" "D.t" "format_" (List.map fst p.formats);
      assoc "stacks" "S.t" "stack_" (List.map fst p.stacks) ]
    @ if machines then [ assoc "machines" "M.t" "machine_" (List.map fst p.machines) ] else []
  in
  Buffer.add_string buf (String.concat "\n" lists);
  Buffer.contents buf

let to_ocaml p = emit ~machines:true p
let formats_to_ocaml p = emit ~machines:false p
