module B = Netdsl_util.Bitio
module Ck = Netdsl_util.Checksum

type path = string list

type error =
  | Io of { path : path; error : B.error }
  | Const_mismatch of { path : path; expected : int64; actual : int64 }
  | Enum_unknown of { path : path; value : int64 }
  | Constraint_violation of { path : path; constr : Desc.constr; value : int64 }
  | Computed_mismatch of { path : path; expected : int64; actual : int64 }
  | Checksum_mismatch of { path : path; expected : int64; actual : int64 }
  | Variant_unknown_tag of { path : path; value : int64 }
  | Missing_field of { path : path }
  | Type_mismatch of { path : path; expected : string }
  | Length_mismatch of { path : path; expected : int64; actual : int64 }
  | Eval_error of { path : path; reason : string }
  | Trailing_input of { path : path; bits : int }
  | Value_out_of_range of { path : path; value : int64; bits : int }

exception Error of error

let pp_path ppf path =
  match path with
  | [] -> Format.pp_print_string ppf "<message>"
  | _ -> Format.pp_print_string ppf (String.concat "." path)

let pp_error ppf = function
  | Io { path; error } -> Format.fprintf ppf "%a: %a" pp_path path B.pp_error error
  | Const_mismatch { path; expected; actual } ->
    Format.fprintf ppf "%a: constant mismatch: expected %Ld, found %Ld" pp_path path
      expected actual
  | Enum_unknown { path; value } ->
    Format.fprintf ppf "%a: value %Ld is not a declared enum case" pp_path path value
  | Constraint_violation { path; constr; value } ->
    Format.fprintf ppf "%a: value %Ld violates constraint %a" pp_path path value
      Desc.pp_constr constr
  | Computed_mismatch { path; expected; actual } ->
    Format.fprintf ppf "%a: computed field mismatch: expected %Ld, found %Ld" pp_path
      path expected actual
  | Checksum_mismatch { path; expected; actual } ->
    Format.fprintf ppf "%a: checksum mismatch: expected %Ld, found %Ld" pp_path path
      expected actual
  | Variant_unknown_tag { path; value } ->
    Format.fprintf ppf "%a: no variant case for tag value %Ld" pp_path path value
  | Missing_field { path } -> Format.fprintf ppf "%a: missing field" pp_path path
  | Type_mismatch { path; expected } ->
    Format.fprintf ppf "%a: expected a %s value" pp_path path expected
  | Length_mismatch { path; expected; actual } ->
    Format.fprintf ppf "%a: length mismatch: expected %Ld, found %Ld" pp_path path
      expected actual
  | Eval_error { path; reason } -> Format.fprintf ppf "%a: %s" pp_path path reason
  | Trailing_input { path = []; bits } ->
    Format.fprintf ppf "%d unconsumed bits after message" bits
  | Trailing_input { path; bits } ->
    Format.fprintf ppf "%a: %d unconsumed bits after message" pp_path path bits
  | Value_out_of_range { path; value; bits } ->
    Format.fprintf ppf "%a: value %Ld does not fit in %d bits" pp_path path value bits

let error_to_string e = Format.asprintf "%a" pp_error e
let fail e = raise (Error e)

let map_path f = function
  | Io e -> Io { e with path = f e.path }
  | Const_mismatch e -> Const_mismatch { e with path = f e.path }
  | Enum_unknown e -> Enum_unknown { e with path = f e.path }
  | Constraint_violation e -> Constraint_violation { e with path = f e.path }
  | Computed_mismatch e -> Computed_mismatch { e with path = f e.path }
  | Checksum_mismatch e -> Checksum_mismatch { e with path = f e.path }
  | Variant_unknown_tag e -> Variant_unknown_tag { e with path = f e.path }
  | Missing_field e -> Missing_field { path = f e.path }
  | Type_mismatch e -> Type_mismatch { e with path = f e.path }
  | Length_mismatch e -> Length_mismatch { e with path = f e.path }
  | Eval_error e -> Eval_error { e with path = f e.path }
  | Trailing_input e -> Trailing_input { e with path = f e.path }
  | Value_out_of_range e -> Value_out_of_range { e with path = f e.path }

(* Paths are threaded innermost-first (cons per nesting level, O(1) on the
   hot path) and reversed into root-first reader order only when an error
   escapes through the public entry points. *)
let outward_error = map_path List.rev

(* ------------------------------------------------------------------ *)
(* Scopes: the environment of already-seen fields, one scope per record
   nesting level.  Scopes are mutable and shared with deferred checks, so a
   check registered early sees siblings decoded later. *)

type scope = {
  mutable vals : (string * int64) list;
  mutable spans : (string * (int * int)) list; (* name -> bit_off, bit_len *)
  mutable computed_defs : (string * Desc.expr) list;
  parent : scope option;
}

let new_scope parent = { vals = []; spans = []; computed_defs = []; parent }

let rec lookup_val scope name =
  match List.assoc_opt name scope.vals with
  | Some v -> Some v
  | None -> ( match scope.parent with None -> None | Some p -> lookup_val p name)

let rec lookup_span scope name =
  match List.assoc_opt name scope.spans with
  | Some s -> Some s
  | None -> ( match scope.parent with None -> None | Some p -> lookup_span p name)

let rec lookup_computed scope name =
  match List.assoc_opt name scope.computed_defs with
  | Some e -> Some (e, scope)
  | None -> (
    match scope.parent with None -> None | Some p -> lookup_computed p name)

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

let check_le_width ~path ~bits = function
  | Desc.Big -> ()
  | Desc.Little ->
    if bits land 7 <> 0 then
      fail (Eval_error { path; reason = "little-endian field width must be whole bytes" })

let bswap ~bits v =
  let n = bits / 8 in
  let r = ref 0L in
  for i = 0 to n - 1 do
    r := Int64.logor (Int64.shift_left !r 8)
           (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)
  done;
  !r

let to_wire ~bits ~endian v =
  match endian with Desc.Big -> v | Desc.Little -> bswap ~bits v

let of_wire = to_wire (* byte swapping is an involution *)

let constraint_ok value = function
  | Desc.In_range (lo, hi) -> Int64.compare lo value <= 0 && Int64.compare value hi <= 0
  | Desc.One_of vs -> List.exists (Int64.equal value) vs
  | Desc.Not_equal v -> not (Int64.equal value v)

(* A recursive walk, not [List.iter] over a closure: this runs once per
   scalar field, and most fields have no constraint at all. *)
let rec apply_constraints ~path constraints value =
  match constraints with
  | [] -> ()
  | c :: rest ->
    if not (constraint_ok value c) then
      fail (Constraint_violation { path; constr = c; value });
    apply_constraints ~path rest value

let enum_check ~path ~exhaustive cases value =
  if exhaustive && not (List.exists (fun (_, v) -> Int64.equal v value) cases) then
    fail (Enum_unknown { path; value })

(* Expression evaluation.  [resolve_computed] enables encode-side resolution
   of not-yet-patched computed fields; decode passes [false] because every
   field read from the wire is concrete. *)
let eval ~path ~msg_bytes ~resolve_computed scope expr =
  let rec go visiting scope expr =
    match (expr : Desc.expr) with
    | Const v -> v
    | Field name -> (
      match lookup_val scope name with
      | Some v -> v
      | None ->
        if not resolve_computed then
          fail (Eval_error { path; reason = Printf.sprintf "unknown field %S in expression" name })
        else (
          match lookup_computed scope name with
          | Some (e, def_scope) ->
            if List.mem name visiting then
              fail (Eval_error { path; reason = Printf.sprintf "computed field cycle through %S" name })
            else begin
              let v = go (name :: visiting) def_scope e in
              def_scope.vals <- (name, v) :: def_scope.vals;
              v
            end
          | None ->
            fail (Eval_error { path; reason = Printf.sprintf "unknown field %S in expression" name })))
    | Byte_len name -> (
      match lookup_span scope name with
      | Some (_, bit_len) ->
        if bit_len land 7 <> 0 then
          fail (Eval_error
                  { path; reason = Printf.sprintf "len(%s): field is not a whole number of bytes" name })
        else Int64.of_int (bit_len / 8)
      | None ->
        fail (Eval_error { path; reason = Printf.sprintf "len(%s): unknown field" name }))
    | Msg_len -> Int64.of_int (msg_bytes ())
    | Add (a, b) -> Int64.add (go visiting scope a) (go visiting scope b)
    | Sub (a, b) -> Int64.sub (go visiting scope a) (go visiting scope b)
    | Mul (a, b) -> Int64.mul (go visiting scope a) (go visiting scope b)
    | Div (a, b) ->
      let d = go visiting scope b in
      if Int64.equal d 0L then fail (Eval_error { path; reason = "division by zero" })
      else Int64.div (go visiting scope a) d
  in
  go [] scope expr

(* Extracts the byte string covered by a checksum region and computes the
   algorithm over it, with the checksum field's own bits read as zero. *)
let compute_checksum ~path ~algorithm ~message ~region_bits:(roff, rlen)
    ~own_span:(ooff, olen) =
  if roff land 7 <> 0 || rlen land 7 <> 0 then
    fail (Eval_error { path; reason = "checksum region is not byte-aligned" });
  let sub = Bytes.sub (Bytes.unsafe_of_string message) (roff / 8) (rlen / 8) in
  (* Zero the checksum field itself where it overlaps the region. *)
  for i = 0 to olen - 1 do
    let bit = ooff + i in
    if bit >= roff && bit < roff + rlen then begin
      let rel = bit - roff in
      let byte_idx = rel lsr 3 and bit_idx = 7 - (rel land 7) in
      let old = Char.code (Bytes.get sub byte_idx) in
      Bytes.set sub byte_idx (Char.chr (old land lnot (1 lsl bit_idx)))
    end
  done;
  Ck.compute algorithm (Bytes.unsafe_to_string sub)

(* Resolves a checksum region to absolute (bit_off, bit_len) given the
   checksum field's own span, its scope, and the enclosing record's final
   extent (a ref filled in once the record has been fully processed). *)
let region_bits ~path ~msg_base ~msg_bits scope region ~own_span:(ooff, olen) ~record_end =
  match (region : Desc.region) with
  | Region_message -> (msg_base, msg_bits ())
  | Region_rest ->
    let stop = !record_end in
    (ooff + olen, stop - (ooff + olen))
  | Region_span (a, b) -> (
    match (List.assoc_opt a scope.spans, List.assoc_opt b scope.spans) with
    | Some (aoff, _), Some (boff, blen) ->
      if boff + blen < aoff then
        fail (Eval_error { path; reason = Printf.sprintf "empty checksum span %s .. %s" a b })
      else (aoff, boff + blen - aoff)
    | None, _ ->
      fail (Eval_error { path; reason = Printf.sprintf "checksum span: unknown field %S" a })
    | _, None ->
      fail (Eval_error { path; reason = Printf.sprintf "checksum span: unknown field %S" b }))

(* ------------------------------------------------------------------ *)
(* Decoding *)

type dctx = {
  data : string;
  base : int; (* bit offset of the message in [data] *)
  msg_bits : int;
  mutable deferred : (unit -> unit) list; (* run (in order) after the parse *)
}

let with_io path f = try f () with B.Error e -> fail (Io { path; error = e })

(* No [with_io] closure here: this runs once per scalar field. *)
let read_int ~path r ~bits ~endian =
  check_le_width ~path ~bits endian;
  match B.Reader.read_bits r ~width:bits with
  | raw -> of_wire ~bits ~endian raw
  | exception B.Error e -> fail (Io { path; error = e })

let read_str ~path r n =
  with_io path (fun () ->
      if B.Reader.is_aligned r then B.Reader.read_string r n
      else String.init n (fun _ -> Char.chr (B.Reader.read_uint8 r)))

let decode_len ~path ctx scope = function
  | Desc.Len_fixed n -> Int64.of_int n
  | Desc.Len_expr e ->
    eval ~path ~msg_bytes:(fun () -> ctx.msg_bits / 8) ~resolve_computed:false scope e
  | Desc.Len_bytes _ | Desc.Len_remaining | Desc.Len_terminated _ ->
    invalid_arg "decode_len: handled by caller"

(* Reads whole bytes until (and consuming) the terminator; the value
   excludes it. *)
let read_terminated ~path r terminator =
  let buf = Buffer.create 16 in
  let rec go () =
    let b = with_io path (fun () -> B.Reader.read_uint8 r) in
    if b = terminator then Buffer.contents buf
    else begin
      Buffer.add_char buf (Char.chr b);
      go ()
    end
  in
  go ()

let positive_len ~path n =
  if Int64.compare n 0L < 0 then
    fail (Length_mismatch { path; expected = 0L; actual = n })
  else if Int64.compare n (Int64.of_int Sys.max_string_length) > 0 then
    fail (Eval_error { path; reason = "length expression absurdly large" })
  else Int64.to_int n

let rec decode_fields ctx scope path (fmt : Desc.t) r : Value.t =
  let record_end = ref 0 in
  let rec go acc = function
    | [] -> List.rev acc
    | f :: rest -> go (decode_field ctx scope path record_end f r acc) rest
  in
  let out = go [] fmt.fields in
  record_end := B.Reader.bit_pos r;
  Value.Record out

(* [acc] is the record's fields so far, newest first; a decoded field is
   pushed onto it (padding pushes nothing). *)
and decode_field ctx scope path record_end (f : Desc.field) r acc =
  let path_f = f.name :: path in
  let start = B.Reader.bit_pos r in
  let value =
    match f.ty with
    | Uint { bits; endian } ->
      let v = read_int ~path:path_f r ~bits ~endian in
      apply_constraints ~path:path_f f.constraints v;
      scope.vals <- (f.name, v) :: scope.vals;
      Some (Value.Int v)
    | Bool_flag ->
      let b = with_io path_f (fun () -> B.Reader.read_bit r) in
      scope.vals <- (f.name, if b then 1L else 0L) :: scope.vals;
      Some (Value.Bool b)
    | Const { bits; endian; value } ->
      let v = read_int ~path:path_f r ~bits ~endian in
      if not (Int64.equal v value) then
        fail (Const_mismatch { path = path_f; expected = value; actual = v });
      scope.vals <- (f.name, v) :: scope.vals;
      Some (Value.Int v)
    | Enum { bits; endian; cases; exhaustive } ->
      let v = read_int ~path:path_f r ~bits ~endian in
      enum_check ~path:path_f ~exhaustive cases v;
      apply_constraints ~path:path_f f.constraints v;
      scope.vals <- (f.name, v) :: scope.vals;
      Some (Value.Int v)
    | Computed { bits; endian; expr } ->
      let v = read_int ~path:path_f r ~bits ~endian in
      scope.vals <- (f.name, v) :: scope.vals;
      ctx.deferred <-
        (fun () ->
          let expected =
            eval ~path:path_f ~msg_bytes:(fun () -> ctx.msg_bits / 8)
              ~resolve_computed:false scope expr
          in
          if not (Int64.equal expected v) then
            fail (Computed_mismatch { path = path_f; expected; actual = v }))
        :: ctx.deferred;
      Some (Value.Int v)
    | Checksum { algorithm; region } ->
      let bits = Ck.width_bits algorithm in
      let v = read_int ~path:path_f r ~bits ~endian:Desc.Big in
      let own_span = (start, bits) in
      ctx.deferred <-
        (fun () ->
          let rbits =
            region_bits ~path:path_f ~msg_base:ctx.base ~msg_bits:(fun () -> ctx.msg_bits)
              scope region
              ~own_span ~record_end
          in
          let expected =
            compute_checksum ~path:path_f ~algorithm ~message:ctx.data
              ~region_bits:rbits ~own_span
          in
          if not (Int64.equal expected v) then
            fail (Checksum_mismatch { path = path_f; expected; actual = v }))
        :: ctx.deferred;
      scope.vals <- (f.name, v) :: scope.vals;
      Some (Value.Int v)
    | Bytes spec ->
      let n =
        match spec with
        | Len_remaining ->
          let rem = B.Reader.bits_remaining r in
          if rem land 7 <> 0 then
            fail (Eval_error
                    { path = path_f; reason = "remaining input is not a whole number of bytes" })
          else rem / 8
        | Len_bytes e -> positive_len ~path:path_f (decode_len ~path:path_f ctx scope (Len_expr e))
        | Len_terminated t ->
          (* Handled wholesale: length is discovered while reading. *)
          ignore t;
          -1
        | (Len_fixed _ | Len_expr _) as spec ->
          positive_len ~path:path_f (decode_len ~path:path_f ctx scope spec)
      in
      (match spec with
      | Len_terminated t -> Some (Value.Bytes (read_terminated ~path:path_f r t))
      | Len_fixed _ | Len_expr _ | Len_bytes _ | Len_remaining ->
        Some (Value.Bytes (read_str ~path:path_f r n)))
    | Array { elem; length } ->
      let decode_elem sub_r =
        let child = new_scope (Some scope) in
        decode_fields ctx child path_f elem sub_r
      in
      let elems =
        match length with
        | Len_fixed _ | Len_expr _ ->
          let n = positive_len ~path:path_f (decode_len ~path:path_f ctx scope length) in
          List.init n (fun _ -> decode_elem r)
        | Len_bytes e ->
          let nbytes =
            positive_len ~path:path_f
              (eval ~path:path_f ~msg_bytes:(fun () -> ctx.msg_bits / 8)
                 ~resolve_computed:false scope e)
          in
          let w = with_io path_f (fun () -> B.Reader.sub_window r ~bit_len:(nbytes * 8)) in
          let rec loop acc =
            if B.Reader.at_end w then List.rev acc else loop (decode_elem w :: acc)
          in
          loop []
        | Len_remaining ->
          let rec loop acc =
            if B.Reader.at_end r then List.rev acc else loop (decode_elem r :: acc)
          in
          loop []
        | Len_terminated _ ->
          (* Rejected by Wf; unreachable through checked descriptions. *)
          fail (Eval_error { path = path_f; reason = "arrays cannot be terminator-delimited" })
      in
      Some (Value.List elems)
    | Record sub ->
      let child = new_scope (Some scope) in
      Some (decode_fields ctx child path_f sub r)
    | Variant { tag; cases; default } ->
      let tag_value =
        match lookup_val scope tag with
        | Some v -> v
        | None ->
          fail (Eval_error
                  { path = path_f; reason = Printf.sprintf "variant tag %S not in scope" tag })
      in
      let body sub =
        let child = new_scope (Some scope) in
        decode_fields ctx child path_f sub r
      in
      (match List.find_opt (fun (_, v, _) -> Int64.equal v tag_value) cases with
      | Some (case_name, _, sub) -> Some (Value.Variant (case_name, body sub))
      | None -> (
        match default with
        | Some sub -> Some (Value.Variant ("default", body sub))
        | None -> fail (Variant_unknown_tag { path = path_f; value = tag_value })))
    | Padding { bits } ->
      with_io path_f (fun () -> B.Reader.skip_bits r bits);
      None
  in
  scope.spans <- (f.name, (start, B.Reader.bit_pos r - start)) :: scope.spans;
  match value with None -> acc | Some v -> (f.name, v) :: acc

let decode ?(allow_trailing = false) ?(off = 0) ?len fmt data =
  let len = match len with Some l -> l | None -> String.length data - off in
  if off < 0 || len < 0 || off + len > String.length data then
    invalid_arg "Codec.decode: window outside the input";
  match
    let ctx = { data; base = off * 8; msg_bits = len * 8; deferred = [] } in
    let r = B.Reader.of_string ~bit_off:(off * 8) ~bit_len:(len * 8) data in
    let scope = new_scope None in
    let v = decode_fields ctx scope [] fmt r in
    List.iter (fun check -> check ()) (List.rev ctx.deferred);
    (* A message whose fields end off a byte boundary is zero-padded to the
       next byte on encode; tolerate exactly that on decode. *)
    let rem = B.Reader.bits_remaining r in
    let padding_only () =
      rem < 8 && Int64.equal (B.Reader.read_bits r ~width:rem) 0L
    in
    if (not allow_trailing) && rem > 0 && not (padding_only ()) then
      fail (Trailing_input { path = []; bits = rem });
    v
  with
  | v -> Ok v
  | exception Error e -> Result.Error (outward_error e)

let decode_exn ?allow_trailing fmt data =
  match decode ?allow_trailing fmt data with
  | Ok v -> v
  | Error e -> raise (Error e)

(* ------------------------------------------------------------------ *)
(* Encoding *)

type patch = {
  p_path : path;
  p_scope : scope;
  p_bit_off : int;
  p_bits : int;
  p_endian : Desc.endian;
  p_action : action;
}

and action =
  | Patch_computed of Desc.expr
  | Patch_checksum of {
      algorithm : Ck.algorithm;
      region : Desc.region;
      record_end : int ref;
    }

type ectx = {
  w : B.Writer.t;
  mutable patches : patch list;
  mutable checks : (unit -> unit) list; (* consistency checks, run last *)
}

let expect_record ~path = function
  | Value.Record fields -> fields
  | _ -> fail (Type_mismatch { path; expected = "record" })

let field_value ~path fields name =
  match List.assoc_opt name fields with
  | Some v -> Some v
  | None -> ignore path; None

let require ~path = function
  | Some v -> v
  | None -> fail (Missing_field { path })

let as_int ~path = function
  | Value.Int v -> v
  | Value.Bool true -> 1L
  | Value.Bool false -> 0L
  | _ -> fail (Type_mismatch { path; expected = "int" })

let as_bytes ~path = function
  | Value.Bytes s -> s
  | _ -> fail (Type_mismatch { path; expected = "bytes" })

let as_list ~path = function
  | Value.List vs -> vs
  | _ -> fail (Type_mismatch { path; expected = "list" })

let write_int ~path w ~bits ~endian v =
  check_le_width ~path ~bits endian;
  if not (bits >= 64 || Int64.equal (Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)) v)
  then fail (Value_out_of_range { path; value = v; bits });
  with_io path (fun () -> B.Writer.write_bits w ~width:bits (to_wire ~bits ~endian v))

let write_str ~path w s =
  with_io path (fun () ->
      if B.Writer.is_aligned w then B.Writer.write_string w s
      else String.iter (fun c -> B.Writer.write_uint8 w (Char.code c)) s)

let rec encode_fields ctx scope path (fmt : Desc.t) value =
  let fields = expect_record ~path value in
  let record_end = ref 0 in
  List.iter (fun f -> encode_field ctx scope path record_end f fields) fmt.fields;
  record_end := B.Writer.bit_length ctx.w

and encode_field ctx scope path record_end (f : Desc.field) fields =
  let path_f = f.name :: path in
  let supplied = field_value ~path:path_f fields f.name in
  let start = B.Writer.bit_length ctx.w in
  (match f.ty with
  | Uint { bits; endian } ->
    let v = as_int ~path:path_f (require ~path:path_f supplied) in
    apply_constraints ~path:path_f f.constraints v;
    write_int ~path:path_f ctx.w ~bits ~endian v;
    scope.vals <- (f.name, v) :: scope.vals
  | Bool_flag ->
    let v = as_int ~path:path_f (require ~path:path_f supplied) in
    with_io path_f (fun () -> B.Writer.write_bit ctx.w (not (Int64.equal v 0L)));
    scope.vals <- (f.name, v) :: scope.vals
  | Const { bits; endian; value } ->
    (match supplied with
    | Some v ->
      let v = as_int ~path:path_f v in
      if not (Int64.equal v value) then
        fail (Const_mismatch { path = path_f; expected = value; actual = v })
    | None -> ());
    write_int ~path:path_f ctx.w ~bits ~endian value;
    scope.vals <- (f.name, value) :: scope.vals
  | Enum { bits; endian; cases; exhaustive } ->
    let v = as_int ~path:path_f (require ~path:path_f supplied) in
    enum_check ~path:path_f ~exhaustive cases v;
    apply_constraints ~path:path_f f.constraints v;
    write_int ~path:path_f ctx.w ~bits ~endian v;
    scope.vals <- (f.name, v) :: scope.vals
  | Computed { bits; endian; expr } ->
    check_le_width ~path:path_f ~bits endian;
    (match supplied with
    | Some v ->
      (* A caller-supplied value must agree with the derivation; checked
         once every span is known. *)
      let v = as_int ~path:path_f v in
      ctx.checks <-
        (fun () ->
          match lookup_val scope f.name with
          | Some actual when not (Int64.equal actual v) ->
            fail (Computed_mismatch { path = path_f; expected = actual; actual = v })
          | Some _ | None -> ())
        :: ctx.checks
    | None -> ());
    let off = with_io path_f (fun () -> B.Writer.reserve_bits ctx.w bits) in
    scope.computed_defs <- (f.name, expr) :: scope.computed_defs;
    ctx.patches <-
      { p_path = path_f; p_scope = scope; p_bit_off = off; p_bits = bits;
        p_endian = endian; p_action = Patch_computed expr }
      :: ctx.patches
  | Checksum { algorithm; region } ->
    let bits = Ck.width_bits algorithm in
    let off = with_io path_f (fun () -> B.Writer.reserve_bits ctx.w bits) in
    ctx.patches <-
      { p_path = path_f; p_scope = scope; p_bit_off = off; p_bits = bits;
        p_endian = Desc.Big;
        p_action = Patch_checksum { algorithm; region; record_end } }
      :: ctx.patches
  | Bytes spec ->
    let s = as_bytes ~path:path_f (require ~path:path_f supplied) in
    (match spec with
    | Len_fixed n ->
      if String.length s <> n then
        fail (Length_mismatch
                { path = path_f; expected = Int64.of_int n;
                  actual = Int64.of_int (String.length s) })
    | Len_expr e | Len_bytes e ->
      let actual = Int64.of_int (String.length s) in
      ctx.checks <-
        (fun () ->
          let expected =
            eval ~path:path_f ~msg_bytes:(fun () -> B.Writer.byte_length ctx.w)
              ~resolve_computed:true scope e
          in
          if not (Int64.equal expected actual) then
            fail (Length_mismatch { path = path_f; expected; actual }))
        :: ctx.checks
    | Len_terminated t ->
      if String.exists (fun c -> Char.code c = t) s then
        fail
          (Eval_error
             {
               path = path_f;
               reason =
                 Printf.sprintf "terminated bytes may not contain the terminator 0x%02x" t;
             })
    | Len_remaining -> ());
    write_str ~path:path_f ctx.w s;
    (match spec with
    | Len_terminated t -> with_io path_f (fun () -> B.Writer.write_uint8 ctx.w t)
    | Len_fixed _ | Len_expr _ | Len_bytes _ | Len_remaining -> ())
  | Array { elem; length } ->
    let elems = as_list ~path:path_f (require ~path:path_f supplied) in
    (match length with
    | Len_fixed n ->
      if List.length elems <> n then
        fail (Length_mismatch
                { path = path_f; expected = Int64.of_int n;
                  actual = Int64.of_int (List.length elems) })
    | Len_expr e ->
      let actual = Int64.of_int (List.length elems) in
      ctx.checks <-
        (fun () ->
          let expected =
            eval ~path:path_f ~msg_bytes:(fun () -> B.Writer.byte_length ctx.w)
              ~resolve_computed:true scope e
          in
          if not (Int64.equal expected actual) then
            fail (Length_mismatch { path = path_f; expected; actual }))
        :: ctx.checks
    | Len_bytes e ->
      (* Checked after encoding via the recorded span. *)
      ctx.checks <-
        (fun () ->
          let expected =
            eval ~path:path_f ~msg_bytes:(fun () -> B.Writer.byte_length ctx.w)
              ~resolve_computed:true scope e
          in
          match List.assoc_opt f.name scope.spans with
          | Some (_, bit_len) ->
            let actual = Int64.of_int (bit_len / 8) in
            if not (Int64.equal expected actual) then
              fail (Length_mismatch { path = path_f; expected; actual })
          | None -> ())
        :: ctx.checks
    | Len_terminated _ ->
      fail (Eval_error { path = path_f; reason = "arrays cannot be terminator-delimited" })
    | Len_remaining -> ());
    List.iter
      (fun ev ->
        let child = new_scope (Some scope) in
        encode_fields ctx child path_f elem ev)
      elems
  | Record sub ->
    let v = require ~path:path_f supplied in
    let child = new_scope (Some scope) in
    encode_fields ctx child path_f sub v
  | Variant { tag; cases; default } -> (
    match require ~path:path_f supplied with
    | Value.Variant (case_name, body) -> (
      let encode_body sub =
        let child = new_scope (Some scope) in
        encode_fields ctx child path_f sub body
      in
      match List.find_opt (fun (n, _, _) -> String.equal n case_name) cases with
      | Some (_, tag_value, sub) ->
        ctx.checks <-
          (fun () ->
            let actual =
              eval ~path:path_f ~msg_bytes:(fun () -> B.Writer.byte_length ctx.w)
                ~resolve_computed:true scope (Desc.Field tag)
            in
            if not (Int64.equal actual tag_value) then
              fail (Variant_unknown_tag { path = path_f; value = actual }))
          :: ctx.checks;
        encode_body sub
      | None -> (
        match default with
        | Some sub -> encode_body sub
        | None -> fail (Type_mismatch { path = path_f; expected = "known variant case" })))
    | _ -> fail (Type_mismatch { path = path_f; expected = "variant" }))
  | Padding { bits } ->
    with_io path_f (fun () -> B.Writer.write_bits ctx.w ~width:bits 0L));
  scope.spans <- (f.name, (start, B.Writer.bit_length ctx.w - start)) :: scope.spans

let run_patches ctx =
  let patches = List.rev ctx.patches in
  let msg_bytes () = B.Writer.byte_length ctx.w in
  (* Phase 1: computed fields (lengths etc.), so that checksums cover final
     values. *)
  List.iter
    (fun p ->
      match p.p_action with
      | Patch_computed expr ->
        let v = eval ~path:p.p_path ~msg_bytes ~resolve_computed:true p.p_scope expr in
        if
          not
            (p.p_bits >= 64
            || Int64.equal
                 (Int64.logand v (Int64.sub (Int64.shift_left 1L p.p_bits) 1L))
                 v)
        then fail (Value_out_of_range { path = p.p_path; value = v; bits = p.p_bits });
        p.p_scope.vals <- (List.hd p.p_path, v) :: p.p_scope.vals;
        with_io p.p_path (fun () ->
            B.Writer.patch_bits ctx.w ~bit_off:p.p_bit_off ~width:p.p_bits
              (to_wire ~bits:p.p_bits ~endian:p.p_endian v))
      | Patch_checksum _ -> ())
    patches;
  (* Phase 2: checksums, over the patched bytes, in field order. *)
  List.iter
    (fun p ->
      match p.p_action with
      | Patch_computed _ -> ()
      | Patch_checksum { algorithm; region; record_end } ->
        let message = B.Writer.contents ctx.w in
        let own_span = (p.p_bit_off, p.p_bits) in
        let rbits =
          region_bits ~path:p.p_path ~msg_base:0
            ~msg_bits:(fun () -> B.Writer.bit_length ctx.w)
            p.p_scope region ~own_span ~record_end
        in
        let v =
          compute_checksum ~path:p.p_path ~algorithm ~message ~region_bits:rbits
            ~own_span
        in
        p.p_scope.vals <- (List.hd p.p_path, v) :: p.p_scope.vals;
        with_io p.p_path (fun () ->
            B.Writer.patch_bits ctx.w ~bit_off:p.p_bit_off ~width:p.p_bits v))
    patches;
  List.iter (fun check -> check ()) (List.rev ctx.checks)

let encode fmt value =
  match
    let ctx = { w = B.Writer.create (); patches = []; checks = [] } in
    let scope = new_scope None in
    encode_fields ctx scope [] fmt value;
    run_patches ctx;
    B.Writer.contents ctx.w
  with
  | s -> Ok s
  | exception Error e -> Result.Error (outward_error e)

let encode_exn fmt value =
  match encode fmt value with Ok s -> s | Error e -> raise (Error e)

let canonicalize fmt value =
  match encode fmt value with
  | Error _ as e -> e
  | Ok bytes -> decode fmt bytes
