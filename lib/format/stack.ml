(* Parse graphs: layered header stacks compiled into one flat plan.

   A stack is an ordered chain of single-header formats where a declared
   demux field of layer N (ethertype, protocol, dst_port) must select
   layer N+1 and a trailing payload field carries it.  [compile] lowers
   the chain once into per-layer fused decoders chained by span
   arithmetic: layer N's hot plan records its payload span, layer N+1
   decodes inside that window, demux is a flat native-int table, and a
   terminal one-level-variant format (TFTP, ICMP) is flattened into one
   hot plan per case behind a fixed-offset tag peek — so a whole
   eth->ipv4->udp->tftp decode allocates nothing.  The accept set is
   exactly the sequential per-layer [Codec.decode] reference in [Seq];
   the lib/check chain oracle keeps the two in lock-step.

   Encode builds the chain innermost first with [Codec.encode] per layer:
   each carrier's payload field holds the bytes of the layers inside it,
   so its lengths and checksums are derived over the finished payload. *)

(* ------------------------------------------------------------------ *)
(* Description and validation *)

type layer = {
  l_name : string;
  l_fmt : Desc.t;
  l_select : (string * int64 list) option;
  l_via : string;
}

type t = { s_name : string; s_layers : layer array }

let layer ?name ?(via = "payload") ?select (fmt : Desc.t) =
  {
    l_name = (match name with Some n -> n | None -> fmt.Desc.format_name);
    l_fmt = fmt;
    l_select = select;
    l_via = via;
  }

let errf fmt = Printf.ksprintf (fun s -> Result.Error s) fmt

(* The shape of a top-level integer field usable as demux or tag. *)
let int_shape lay name =
  match Sizing.find lay name with
  | Some { shape = Some ({ kind = Int | Flag | Const | Computed; _ } as s); _ } -> Some s
  | _ -> None

let fits_bits v bits =
  Int64.compare v 0L >= 0
  && (bits >= 63 || Int64.compare v (Int64.shift_left 1L bits) < 0)

let validate_layer ~terminal (l : layer) =
  let ( let* ) = Result.bind in
  let fmt = l.l_fmt in
  let* () =
    match (terminal, l.l_select) with
    | false, None ->
      errf "layer %s: a non-terminal layer needs a demux edge (~select)" l.l_name
    | true, Some _ ->
      errf "layer %s: the terminal layer cannot declare a demux edge" l.l_name
    | _ -> Ok ()
  in
  let* () =
    match l.l_select with
    | None -> Ok ()
    | Some (field, values) -> (
      match Desc.find_field fmt field with
      | None -> errf "layer %s: no demux field %S" l.l_name field
      | Some _ -> (
        match int_shape (Sizing.layout fmt) field with
        | None -> errf "layer %s: demux field %S is not an integer" l.l_name field
        | Some { bits; _ } when bits > 62 ->
          errf "layer %s: demux field %S is wider than 62 bits" l.l_name field
        | Some { bits; _ } ->
          if values = [] then
            errf "layer %s: demux field %S has no accepted values" l.l_name field
          else (
            match List.find_opt (fun v -> not (fits_bits v bits)) values with
            | Some v ->
              errf "layer %s: demux value %Ld does not fit %S (%d bits)" l.l_name
                v field bits
            | None -> Ok ())))
  in
  if terminal then Ok ()
  else
    (* The via field must be the trailing remaining-bytes payload: that is
       what makes the inner window "the rest of this layer" on decode. *)
    match List.rev fmt.Desc.fields with
    | last :: _
      when String.equal last.name l.l_via
           && (match last.ty with Desc.Bytes Desc.Len_remaining -> true | _ -> false)
      ->
      Ok ()
    | _ ->
      errf
        "layer %s: via field %S must be the trailing `bytes remaining` payload"
        l.l_name l.l_via

let v ~name layers =
  let ( let* ) = Result.bind in
  let n = List.length layers in
  let* () = if n < 1 then errf "stack %s: needs at least one layer" name else Ok () in
  let* () =
    let names = List.map (fun l -> l.l_name) layers in
    if List.length (List.sort_uniq compare names) <> n then
      errf "stack %s: duplicate layer names" name
    else Ok ()
  in
  let rec go i = function
    | [] -> Ok ()
    | l :: rest ->
      let* () = validate_layer ~terminal:(rest = []) l in
      go (i + 1) rest
  in
  let* () = go 0 layers in
  Ok { s_name = name; s_layers = Array.of_list layers }

let name t = t.s_name
let layer_names t = Array.to_list (Array.map (fun l -> l.l_name) t.s_layers)
let layer_format t i = t.s_layers.(i).l_fmt
let layer_via t i = t.s_layers.(i).l_via
let layer_select t i = t.s_layers.(i).l_select

(* A carrier checksum whose region reaches its via payload covers every
   byte of the layers inside it. *)
let payload_checksum (l : layer) =
  List.find_opt
    (fun (f : Desc.field) ->
      match f.ty with
      | Desc.Checksum { region = Desc.Region_message | Desc.Region_rest; _ } -> true
      | Desc.Checksum { region = Desc.Region_span (a, b); _ } ->
        String.equal a l.l_via || String.equal b l.l_via
      | _ -> false)
    l.l_fmt.Desc.fields

(* An in-place patch repairs the checksums of its own layer only, so a
   change to layer [j] under an enclosing carrier's payload checksum is
   refused: the patch would leave that checksum stale. *)
let unenclosed t j what =
  let rec enclosing i =
    if i >= j then Ok ()
    else
      match payload_checksum t.s_layers.(i) with
      | Some c ->
        errf "layer %s: checksum %S covers the payload; an in-place patch of %s would leave it stale"
          t.s_layers.(i).l_name c.name what
      | None -> enclosing (i + 1)
  in
  enclosing 0

let patcher t j field =
  Result.bind
    (unenclosed t j (t.s_layers.(j).l_name ^ "." ^ field))
    (fun () -> Emit.patcher t.s_layers.(j).l_fmt field)

let padding t j =
  match Emit.padding t.s_layers.(j).l_fmt with
  | Ok (Some _) as ok ->
    Result.bind (unenclosed t j (t.s_layers.(j).l_name ^ "'s padding")) (fun () -> ok)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Variant flattening: a terminal format shaped "linear prefix + one
   trailing Variant over a fixed-offset tag" becomes one synthetic linear
   format per case (prefix @ case body), each hot-compiled on its own.
   Dispatch is a raw tag peek; the chosen plan then revalidates the whole
   window from the start, so the verdict is exactly [Codec.decode]'s:
   prefix checks, enum exhaustiveness on the tag, unknown-tag rejection
   (no case, no default) and the global trailing check all live in the
   flattened plans. *)

type flat_case = {
  fc_tag : int; (* matched tag value; -1 for the default arm *)
  fc_fmt : Desc.t;
}

type flattened = {
  fl_tag_off : int; (* bits, relative to the layer window *)
  fl_tag_bits : int;
  fl_tag_little : bool;
  fl_cases : flat_case list; (* default arm last when present *)
  fl_has_default : bool;
}

let flatten_terminal (fmt : Desc.t) ~prefix ~tag ~cases ~default =
  let ( let* ) = Result.bind in
  let lay = Sizing.layout fmt in
  let* { Sizing.bits = tag_bits; endian = tag_endian; _ } =
    if not (List.exists (fun (f : Desc.field) -> String.equal f.name tag) prefix) then
      errf "variant tag %S is not a prefix field" tag
    else
      match int_shape lay tag with
      | Some ({ bits; _ } as s) when bits <= 62 -> Ok s
      | _ -> errf "variant tag %S is not a narrow integer" tag
  in
  let* tag_off, _ = Sizing.span lay tag in
  let prefix_names = List.map (fun (f : Desc.field) -> f.name) prefix in
  let* () =
    let clash (sub : Desc.t) =
      List.find_opt
        (fun (f : Desc.field) -> List.mem f.name prefix_names)
        sub.Desc.fields
    in
    let bodies =
      List.map (fun (_, _, sub) -> sub) cases
      @ (match default with Some d -> [ d ] | None -> [])
    in
    match List.find_map clash bodies with
    | Some f -> errf "case field %S shadows a prefix field" f.name
    | None -> Ok ()
  in
  let flat cname sub =
    Desc.format
      (fmt.Desc.format_name ^ "/" ^ cname)
      (prefix @ sub.Desc.fields)
  in
  (* A case value outside [0, 2^tag_bits) can never equal a tag read from
     the wire; the interpreted decoder falls through to the default (or
     rejects) on such values, so dropping them from the dispatch table
     preserves the verdict. *)
  let matched =
    List.filter_map
      (fun (cname, v, sub) ->
        if fits_bits v tag_bits then
          Some { fc_tag = Int64.to_int v; fc_fmt = flat cname sub }
        else None)
      cases
  in
  let default_case =
    match default with
    | Some d -> [ { fc_tag = -1; fc_fmt = flat "default" d } ]
    | None -> []
  in
  Ok
    {
      fl_tag_off = tag_off;
      fl_tag_bits = tag_bits;
      fl_tag_little = (tag_endian = Desc.Little);
      fl_cases = matched @ default_case;
      fl_has_default = default <> None;
    }

(* ------------------------------------------------------------------ *)
(* The compiled plan *)

type engine =
  | E_hot (* y_hots.(0) is the whole layer *)
  | E_cases of {
      e_tag_off : int;
      e_tag_bits : int;
      e_tag_little : bool;
      e_tags : int array; (* tag per plan; -1 marks the default arm *)
      e_default : int; (* index of the default plan, or -1 *)
    }

type clayer = {
  y_name : string;
  y_fmt : Desc.t;
  y_engine : engine;
  y_hots : View.Hot.t array;
  y_case_fmts : Desc.t array; (* per-plan (flattened) formats *)
  y_edges : int array; (* accepted demux values; [||] on the terminal *)
  y_edges64 : int64 list;
  y_demux : string;
  y_demux_slot : int; (* register of the demux field; -1 on the terminal *)
  y_via : string;
  y_via_slot : int; (* span slot of the payload; -1 on the terminal *)
}

(* A demanded field: its index in the plan's register file. *)
type reg = int

type plan = {
  p_stack : t;
  p_layers : clayer array;
  p_regs : (string * reg) list;
  p_copy : int array array array;
      (* per layer, per case plan: flat (source register, file index)
         pairs, source -1 where the case does not carry the field *)
  p_file : int array; (* demanded registers of the last accepting run *)
  p_win : int array; (* [off; len] in bytes per layer, same run *)
}

let stack p = p.p_stack

let split_qualified s =
  match String.index_opt s '.' with
  | Some i when i > 0 && i < String.length s - 1 ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> errf "stack field %S must be qualified as layer.field" s

let compile ?(demand = []) ?plant_late_load (t : t) =
  let ( let* ) = Result.bind in
  let nlayers = Array.length t.s_layers in
  (* Qualified demands, grouped per layer. *)
  let* grouped =
    let tbl = Array.make nlayers [] in
    let rec go = function
      | [] -> Ok tbl
      | q :: rest ->
        let* lname, fname = split_qualified q in
        let idx = ref (-1) in
        Array.iteri (fun i l -> if String.equal l.l_name lname then idx := i) t.s_layers;
        if !idx < 0 then errf "stack %s: no layer %S (in demand %S)" t.s_name lname q
        else begin
          tbl.(!idx) <- fname :: tbl.(!idx);
          go rest
        end
    in
    go demand
  in
  let* layers =
    let rec go i acc =
      if i >= nlayers then Ok (Array.of_list (List.rev acc))
      else begin
        let l = t.s_layers.(i) in
        let terminal = i = nlayers - 1 in
        let lay_demand = List.sort_uniq compare grouped.(i) in
        let* engine, hots, case_fmts =
          if not terminal then begin
            let demux, _ = Option.get l.l_select in
            match
              View.Hot.compile ?plant_late_load
                ~demand:(List.sort_uniq compare (demux :: lay_demand))
                ~span_demand:[ l.l_via ] l.l_fmt
            with
            | Ok h -> Ok (E_hot, [| h |], [| l.l_fmt |])
            | Error e ->
              errf "layer %s is not fusable (%s); carrier layers must be linear"
                l.l_name e
          end
          else
            match List.rev l.l_fmt.Desc.fields with
            | { ty = Desc.Variant { tag; cases; default }; _ } :: rev_prefix -> (
              match
                flatten_terminal l.l_fmt ~prefix:(List.rev rev_prefix) ~tag ~cases ~default
              with
              | Error e -> errf "layer %s is not fusable: %s" l.l_name e
              | Ok fl ->
                let rec comp acc = function
                  | [] -> Ok (List.rev acc)
                  | fc :: rest ->
                    let case_demand =
                      List.filter
                        (fun d ->
                          List.exists
                            (fun (f : Desc.field) -> String.equal f.name d)
                            fc.fc_fmt.Desc.fields)
                        lay_demand
                    in
                    let* h = View.Hot.compile ~demand:case_demand ?plant_late_load fc.fc_fmt in
                    comp ((fc, h) :: acc) rest
                in
                let* compiled = comp [] fl.fl_cases in
                let hots = Array.of_list (List.map snd compiled) in
                let fmts =
                  Array.of_list (List.map (fun (fc, _) -> fc.fc_fmt) compiled)
                in
                let tags =
                  Array.of_list (List.map (fun (fc, _) -> fc.fc_tag) compiled)
                in
                let default =
                  if fl.fl_has_default then Array.length tags - 1 else -1
                in
                Ok
                  ( E_cases
                      {
                        e_tag_off = fl.fl_tag_off;
                        e_tag_bits = fl.fl_tag_bits;
                        e_tag_little = fl.fl_tag_little;
                        e_tags = tags;
                        e_default = default;
                      },
                    hots,
                    fmts ))
            | _ -> (
              match View.Hot.compile ~demand:lay_demand ?plant_late_load l.l_fmt with
              | Ok h -> Ok (E_hot, [| h |], [| l.l_fmt |])
              | Error e -> errf "layer %s is not fusable: %s" l.l_name e)
        in
        let demux, edges64 =
          match l.l_select with Some (d, vs) -> (d, vs) | None -> ("", [])
        in
        let cl =
          {
            y_name = l.l_name;
            y_fmt = l.l_fmt;
            y_engine = engine;
            y_hots = hots;
            y_case_fmts = case_fmts;
            y_edges = Array.of_list (List.map Int64.to_int edges64);
            y_edges64 = edges64;
            y_demux = demux;
            y_demux_slot =
              (if terminal then -1 else View.Hot.demand_slot hots.(0) demux);
            y_via = l.l_via;
            y_via_slot = (if terminal then -1 else View.Hot.span_slot hots.(0) l.l_via);
          }
        in
        go (i + 1) (cl :: acc)
      end
    in
    go 0 []
  in
  (* Register directory: every demanded "layer.field" gets one slot of
     the plan's register file, and each case plan of its layer a copy
     from its own register into that slot (-1 where the case does not
     carry the field) — so the case is resolved once per accepting run,
     not on every read. *)
  let copies = Array.map (fun y -> Array.map (fun _ -> ref []) y.y_hots) layers in
  let* regs =
    let rec go acc idx = function
      | [] -> Ok (List.rev acc)
      | q :: rest ->
        let* lname, fname = split_qualified q in
        let i =
          let r = ref (-1) in
          Array.iteri (fun j l -> if String.equal l.y_name lname then r := j) layers;
          !r
        in
        let cl = layers.(i) in
        let slots =
          Array.map
            (fun h ->
              match View.Hot.demand_slot h fname with
              | s -> s
              | exception Invalid_argument _ -> -1)
            cl.y_hots
        in
        if Array.for_all (fun s -> s < 0) slots then
          errf "stack %s: demanded field %S is not extractable in any case" t.s_name q
        else begin
          Array.iteri (fun j s -> copies.(i).(j) := idx :: s :: !(copies.(i).(j))) slots;
          go ((q, idx) :: acc) (idx + 1) rest
        end
    in
    go [] 0 (List.sort_uniq compare demand)
  in
  Ok
    {
      p_stack = t;
      p_layers = layers;
      p_regs = regs;
      p_copy = Array.map (Array.map (fun l -> Array.of_list (List.rev !l))) copies;
      p_file = Array.make (max 1 (List.length regs)) 0;
      p_win = Array.make (2 * nlayers) 0;
    }

(* ------------------------------------------------------------------ *)
(* Fused decode *)

(* Raises [View.Hot.Reject] on any refusal: one handler, in
   [run_window], covers the whole chain. *)
let rec run_layers p (data : string) i off len =
  let y = Array.unsafe_get p.p_layers i in
  let case =
    match y.y_engine with
    | E_hot ->
      View.Hot.exec (Array.unsafe_get y.y_hots 0) ~off ~len data;
      0
    | E_cases c ->
      if len * 8 < c.e_tag_off + c.e_tag_bits then raise View.Hot.Reject;
      let tag =
        View.Hot.read_scalar data ~bit_off:((off * 8) + c.e_tag_off)
          ~bits:c.e_tag_bits ~little:c.e_tag_little
      in
      let tags = c.e_tags in
      let n = Array.length tags in
      let j = ref 0 in
      while !j < n && Array.unsafe_get tags !j <> tag do
        incr j
      done;
      let j = if !j < n then !j else c.e_default in
      if j < 0 then raise View.Hot.Reject;
      View.Hot.exec (Array.unsafe_get y.y_hots j) ~off ~len data;
      j
  in
  Array.unsafe_set p.p_win (2 * i) off;
  Array.unsafe_set p.p_win ((2 * i) + 1) len;
  let copy = Array.unsafe_get (Array.unsafe_get p.p_copy i) case in
  let regs = View.Hot.registers (Array.unsafe_get y.y_hots case) in
  let k = ref 0 in
  while !k < Array.length copy do
    let src = Array.unsafe_get copy !k in
    Array.unsafe_set p.p_file
      (Array.unsafe_get copy (!k + 1))
      (if src < 0 then -1 else Array.unsafe_get regs src);
    k := !k + 2
  done;
  if i < Array.length p.p_layers - 1 then begin
    let h = Array.unsafe_get y.y_hots 0 in
    let d = View.Hot.get h y.y_demux_slot in
    let edges = y.y_edges in
    let n = Array.length edges in
    let j = ref 0 in
    while !j < n && Array.unsafe_get edges !j <> d do
      incr j
    done;
    if !j >= n then raise View.Hot.Reject;
    let so = View.Hot.span_off h y.y_via_slot in
    let sl = View.Hot.span_len h y.y_via_slot in
    if so land 7 <> 0 || sl land 7 <> 0 then raise View.Hot.Reject;
    run_layers p data (i + 1) (so lsr 3) (sl lsr 3)
  end

let run_window p ~off ~len (data : string) =
  if off < 0 || len < 0 || off + len > String.length data then
    invalid_arg "Stack.run: window out of bounds";
  match run_layers p data 0 off len with
  | () -> true
  | exception View.Hot.Reject -> false

let run p ?(off = 0) ?len data =
  let len = match len with None -> String.length data - off | Some l -> l in
  run_window p ~off ~len data

let reg p q =
  match List.find_opt (fun (n, _) -> String.equal n q) p.p_regs with
  | Some (_, r) -> Ok r
  | None -> errf "stack %s: field %S was not demanded at compile" p.p_stack.s_name q

let registers p = p.p_file
let reg_get p (r : reg) = Array.unsafe_get p.p_file r

let layer_count p = Array.length p.p_layers

let layer_index p lname =
  let r = ref None in
  Array.iteri
    (fun i y -> if String.equal y.y_name lname && !r = None then r := Some i)
    p.p_layers;
  !r

let locate p q =
  Result.bind (split_qualified q) (fun (lname, field) ->
      match layer_index p lname with
      | Some i -> Ok (i, field)
      | None -> errf "stack %s: %S names no layer" p.p_stack.s_name q)

let layer_fmt p i = p.p_layers.(i).y_fmt
let windows p = p.p_win
let layer_off p i = p.p_win.(2 * i)
let layer_len p i = p.p_win.((2 * i) + 1)

(* ------------------------------------------------------------------ *)
(* Encode *)

let set_field_value (v : Value.t) name x =
  match v with
  | Value.Record fs ->
    if List.exists (fun (n, _) -> String.equal n name) fs then
      Value.Record
        (List.map (fun (n, fv) -> if String.equal n name then (n, x) else (n, fv)) fs)
    else Value.Record (fs @ [ (name, x) ])
  | other -> other

let check_demux_value (y : clayer) (v : Value.t) =
  let found = try Value.find v y.y_demux with Invalid_argument _ -> None in
  match found with
  | Some (Value.Int dv) ->
    if List.exists (Int64.equal dv) y.y_edges64 then Ok ()
    else
      errf "layer %s: %s = %Ld does not select the next layer" y.y_name y.y_demux dv
  | _ -> Ok () (* constants and omitted fields are the encoder's problem *)

(* Innermost first: each carrier is encoded with the finished inner bytes
   as its payload, so [Codec.encode] derives its lengths and checksums
   over exactly what it carries. *)
let encode p (values : Value.t array) =
  let ( let* ) = Result.bind in
  let nlayers = Array.length p.p_layers in
  let* () =
    if Array.length values <> nlayers then
      errf "stack %s: expected %d layer values, got %d" p.p_stack.s_name nlayers
        (Array.length values)
    else Ok ()
  in
  let rec go i inner =
    if i < 0 then Ok inner
    else begin
      let y = p.p_layers.(i) in
      let terminal = i = nlayers - 1 in
      let* () = if terminal then Ok () else check_demux_value y values.(i) in
      let v =
        if terminal then values.(i)
        else set_field_value values.(i) y.y_via (Value.Bytes inner)
      in
      match Codec.encode y.y_fmt v with
      | Error e -> errf "layer %s: %s" y.y_name (Codec.error_to_string e)
      | Ok s -> go (i - 1) s
    end
  in
  go (nlayers - 1) ""

(* ------------------------------------------------------------------ *)
(* Sequential reference decode *)

module Seq = struct
  type seq = {
    q_plan : plan;
    q_values : Value.t array;
    q_offs : int array;
    q_lens : int array;
  }

  type t = seq

  let create p =
    let n = Array.length p.p_layers in
    {
      q_plan = p;
      q_values = Array.make n (Value.Record []);
      q_offs = Array.make n 0;
      q_lens = Array.make n 0;
    }

  let decode q ?(off = 0) ?len data =
    let len = match len with None -> String.length data - off | Some l -> l in
    let layers = q.q_plan.p_layers in
    let n = Array.length layers in
    let rec go i off len =
      let y = layers.(i) in
      let fail fmt =
        Printf.ksprintf
          (fun reason -> Error (Codec.Eval_error { path = [ y.y_name ]; reason }))
          fmt
      in
      match Codec.decode y.y_fmt ~off ~len data with
      | Error e -> Error (Codec.map_path (fun p -> y.y_name :: p) e)
      | Ok v -> (
        q.q_values.(i) <- v;
        q.q_offs.(i) <- off;
        q.q_lens.(i) <- len;
        if i = n - 1 then Ok ()
        else
          match Value.find_int_flat v y.y_demux with
          | None -> fail "demux field %S missing" y.y_demux
          | Some d -> (
            if not (List.exists (Int64.equal d) y.y_edges64) then
              fail "%s = %Ld selects no next layer" y.y_demux d
            else
              (* the via field is the trailing remaining-bytes payload
                 ([validate_layer] enforces it), so it ends where the
                 window ends *)
              match Value.find v y.y_via with
              | Some (Value.Bytes payload) ->
                let pl = String.length payload in
                go (i + 1) (off + len - pl) pl
              | _ -> fail "payload field %S missing" y.y_via))
    in
    go 0 off len

  let value q i = q.q_values.(i)
  let layer_off q i = q.q_offs.(i)
  let layer_len q i = q.q_lens.(i)
end
