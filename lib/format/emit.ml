(* Compiled encode plans: the encode-side mirror of [View]'s compiled decoder.

   [create] lowers a format descriptor once into a flat array of emit ops —
   endianness, widths and value checks are resolved at compile time, and
   derived fields (computed lengths, checksums) become *patch slots* that
   are back-filled after the body is written, so a checksummed region is
   streamed exactly once.  The per-packet encode then writes straight into
   a reusable [Bytes.t] buffer: no [Bitio.Writer], no [Buffer], no region
   copy for checksums ([Checksum.compute_zeroed] runs in place), and scope
   bindings are recorded only for fields something will actually read —
   zero allocation on the fixed-layout path beyond small scope bookkeeping.

   The output is byte-for-byte what [Codec.encode] produces, with the same
   derivations and deferred consistency checks in the same order; the
   property tests in [test/test_emit.ml] assert this for every shipped
   format.  [patcher]/[patch] go one step further for the engine's
   forward/reply loops: mutate a scalar field of an already-valid packet at
   its fixed wire offset and update the Internet checksum incrementally
   (RFC 1624), never touching the rest of the message. *)

module B = Netdsl_util.Bitio
module Ck = Netdsl_util.Checksum

type error = Codec.error

let fail e = raise (Codec.Error e)

(* Paths are threaded innermost-first while encoding and reversed when
   an error escapes. *)
let outward_error = Codec.map_path List.rev

(* ------------------------------------------------------------------ *)
(* Compiled ops *)

type blen =
  | L_fixed of int
  | L_expr of Desc.expr (* covers Len_expr and Len_bytes: same encode check *)
  | L_remaining
  | L_terminated of int

type alen =
  | A_fixed of int
  | A_expr of Desc.expr
  | A_bytes of Desc.expr
  | A_remaining

type op = {
  o_name : string;
  o_path : string list; (* innermost-first, ready for [outward_error] *)
  o_val : bool; (* some expression reads this field's value *)
  o_span : bool; (* some expression or length check reads its span *)
  o_k : okind;
}

and okind =
  | E_scalar of {
      bits : int;
      endian : Desc.endian;
      enum : (string * int64) list option; (* Some cases: exhaustive enum *)
      constraints : Desc.constr list;
    }
  | E_bool
  | E_const of { bits : int; endian : Desc.endian; value : int64 }
  | E_computed of { bits : int; endian : Desc.endian; expr : Desc.expr }
  | E_checksum of { alg : Ck.algorithm; bits : int; region : Desc.region }
  | E_bytes of blen
  | E_array of { length : alen; elem : op array }
  | E_record of op array
  | E_variant of {
      tag : string;
      cases : (string * int64 * op array) list;
      default : op array option;
    }
  | E_padding of int
  | E_invalid of string (* ill-formed field: fails when reached, as Codec does *)

(* Which field names any expression reads (values) or measures (spans), so
   the hot loop records scope bindings only when something will use them.
   Same walk as View's, plus: an array with [Len_bytes] needs its *own*
   span on the encode side (the deferred length check measures it). *)
let collect_refs (fmt : Desc.t) =
  let vals = ref [] and spans = ref [] in
  let rec expr (e : Desc.expr) =
    match e with
    | Const _ | Msg_len -> ()
    | Field n -> vals := n :: !vals
    | Byte_len n -> spans := n :: !spans
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      expr a;
      expr b
  in
  let rec fields (fmt : Desc.t) = List.iter field fmt.fields
  and field (f : Desc.field) =
    match f.ty with
    | Uint _ | Bool_flag | Const _ | Enum _ | Padding _ -> ()
    | Computed { expr = e; _ } -> expr e
    | Checksum { region; _ } -> (
      match region with
      | Region_span (a, b) -> spans := a :: b :: !spans
      | Region_message | Region_rest -> ())
    | Bytes spec -> (
      match spec with
      | Len_expr e | Len_bytes e -> expr e
      | Len_fixed _ | Len_remaining | Len_terminated _ -> ())
    | Array { elem; length } ->
      (match length with
      | Len_expr e -> expr e
      | Len_bytes e ->
        expr e;
        spans := f.name :: !spans
      | Len_fixed _ | Len_remaining | Len_terminated _ -> ());
      fields elem
    | Record sub -> fields sub
    | Variant { tag; cases; default } ->
      vals := tag :: !vals;
      List.iter (fun (_, _, sub) -> fields sub) cases;
      Option.iter fields default
  in
  fields fmt;
  (List.sort_uniq compare !vals, List.sort_uniq compare !spans)

let needed name l = List.exists (String.equal name) l
let le_bad bits = function Desc.Big -> false | Desc.Little -> bits land 7 <> 0
let le_bad_reason = "little-endian field width must be whole bytes"

let rec compile_fields ~vn ~sn path (fields : Desc.t_fields) : op array =
  Array.of_list (List.map (compile_field ~vn ~sn path) fields)

and compile_field ~vn ~sn path (f : Desc.field) : op =
  let path_f = f.name :: path in
  let mk k =
    { o_name = f.name;
      o_path = path_f;
      o_val = needed f.name vn;
      o_span = needed f.name sn;
      o_k = k }
  in
  match f.ty with
  | Uint { bits; endian } ->
    if le_bad bits endian then mk (E_invalid le_bad_reason)
    else mk (E_scalar { bits; endian; enum = None; constraints = f.constraints })
  | Const { bits; endian; value } ->
    if le_bad bits endian then mk (E_invalid le_bad_reason)
    else mk (E_const { bits; endian; value })
  | Enum { bits; endian; cases; exhaustive } ->
    if le_bad bits endian then mk (E_invalid le_bad_reason)
    else
      mk (E_scalar
            { bits; endian;
              enum = (if exhaustive then Some cases else None);
              constraints = f.constraints })
  | Bool_flag -> mk E_bool
  | Computed { bits; endian; expr } ->
    if le_bad bits endian then mk (E_invalid le_bad_reason)
    else mk (E_computed { bits; endian; expr })
  | Checksum { algorithm; region } ->
    mk (E_checksum { alg = algorithm; bits = Ck.width_bits algorithm; region })
  | Bytes spec ->
    mk (E_bytes
          (match spec with
          | Len_fixed n -> L_fixed n
          | Len_expr e | Len_bytes e -> L_expr e
          | Len_remaining -> L_remaining
          | Len_terminated t -> L_terminated t))
  | Array { elem; length } -> (
    let elem_ops = compile_fields ~vn ~sn path_f elem.fields in
    match length with
    | Len_fixed n -> mk (E_array { length = A_fixed n; elem = elem_ops })
    | Len_expr e -> mk (E_array { length = A_expr e; elem = elem_ops })
    | Len_bytes e -> mk (E_array { length = A_bytes e; elem = elem_ops })
    | Len_remaining -> mk (E_array { length = A_remaining; elem = elem_ops })
    | Len_terminated _ -> mk (E_invalid "arrays cannot be terminator-delimited"))
  | Record sub -> mk (E_record (compile_fields ~vn ~sn path_f sub.fields))
  | Variant { tag; cases; default } ->
    mk (E_variant
          { tag;
            cases =
              List.map
                (fun (cn, v, (sub : Desc.t)) ->
                  (cn, v, compile_fields ~vn ~sn path_f sub.fields))
                cases;
            default =
              Option.map
                (fun (sub : Desc.t) -> compile_fields ~vn ~sn path_f sub.fields)
                default })
  | Padding { bits } -> mk (E_padding bits)

(* ------------------------------------------------------------------ *)
(* Scopes — as in Codec, one per record nesting level, shared with the
   deferred checks and patch slots. *)

type scope = {
  mutable vals : (string * int64) list;
  mutable spans : (string * (int * int)) list;
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

(* Encode-side expression evaluation, identical to Codec's: not-yet-patched
   computed fields are resolved through their definitions, with cycle
   detection. *)
let eval ~path ~msg_bytes scope expr =
  let rec go visiting scope expr =
    match (expr : Desc.expr) with
    | Const v -> v
    | Field name -> (
      match lookup_val scope name with
      | Some v -> v
      | None -> (
        match lookup_computed scope name with
        | Some (e, def_scope) ->
          if List.mem name visiting then
            fail (Eval_error
                    { path; reason = Printf.sprintf "computed field cycle through %S" name })
          else begin
            let v = go (name :: visiting) def_scope e in
            def_scope.vals <- (name, v) :: def_scope.vals;
            v
          end
        | None ->
          fail (Eval_error
                  { path; reason = Printf.sprintf "unknown field %S in expression" name })))
    | Byte_len name -> (
      match lookup_span scope name with
      | Some (_, bit_len) ->
        if bit_len land 7 <> 0 then
          fail (Eval_error
                  { path;
                    reason =
                      Printf.sprintf "len(%s): field is not a whole number of bytes" name })
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

let apply_constraints ~path constraints value =
  let ok = function
    | Desc.In_range (lo, hi) -> Int64.compare lo value <= 0 && Int64.compare value hi <= 0
    | Desc.One_of vs -> List.exists (Int64.equal value) vs
    | Desc.Not_equal v -> not (Int64.equal value v)
  in
  List.iter
    (fun c -> if not (ok c) then fail (Constraint_violation { path; constr = c; value }))
    constraints

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

let mask_check ~path ~bits v =
  if
    not
      (bits >= 64
      || Int64.equal (Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)) v)
  then fail (Value_out_of_range { path; value = v; bits })

let region_bits ~path ~base_bits ~msg_bits scope region ~own_span:(ooff, olen)
    ~record_end =
  match (region : Desc.region) with
  | Desc.Region_message -> (base_bits, msg_bits)
  | Desc.Region_rest ->
    let stop = !record_end in
    (ooff + olen, stop - (ooff + olen))
  | Desc.Region_span (a, b) -> (
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
(* The emitter: a reusable destination buffer plus pooled patch slots. *)

type pslot = {
  mutable p_name : string;
  mutable p_path : string list;
  mutable p_scope : scope;
  mutable p_bit_off : int;
  mutable p_bits : int;
  mutable p_endian : Desc.endian;
  mutable p_is_cksum : bool;
  mutable p_expr : Desc.expr; (* computed slots *)
  mutable p_alg : Ck.algorithm; (* checksum slots *)
  mutable p_region : Desc.region;
  mutable p_record_end : int ref;
}

let nil_scope = { vals = []; spans = []; computed_defs = []; parent = None }
let nil_end = ref 0

let fresh_slot () =
  { p_name = ""; p_path = []; p_scope = nil_scope; p_bit_off = 0; p_bits = 0;
    p_endian = Desc.Big; p_is_cksum = false; p_expr = Desc.Msg_len;
    p_alg = Ck.Internet; p_region = Desc.Region_message; p_record_end = nil_end }

type t = {
  fmt : Desc.t;
  prog : op array;
  mutable scratch : Bytes.t; (* the internal buffer [encode] writes into *)
  mutable out : Bytes.t; (* current destination *)
  mutable own : bool; (* [out == scratch]: grow instead of failing *)
  mutable base_bits : int;
  mutable limit_bits : int;
  mutable pos_bits : int;
  mutable slots : pslot array;
  mutable n_slots : int;
  mutable checks : (unit -> unit) list;
}

let create fmt =
  let vn, sn = collect_refs fmt in
  let cap =
    match Sizing.fixed_bytes fmt with
    | Some n -> max n 16
    | None -> max (2 * Sizing.min_bytes fmt) 64
  in
  let scratch = Bytes.create cap in
  { fmt;
    prog = compile_fields ~vn ~sn [] fmt.Desc.fields;
    scratch;
    out = scratch;
    own = true;
    base_bits = 0;
    limit_bits = 8 * cap;
    pos_bits = 0;
    slots = Array.init 4 (fun _ -> fresh_slot ());
    n_slots = 0;
    checks = [] }

let format t = t.fmt

(* ------------------------------------------------------------------ *)
(* Raw buffer writing.  Bits are both set and cleared, so stale contents of
   a reused buffer can never leak into the output. *)

let grow t need_bytes =
  if t.own then begin
    let cap = max need_bytes (2 * Bytes.length t.out) in
    let bigger = Bytes.create cap in
    Bytes.blit t.out 0 bigger 0 (Bytes.length t.out);
    t.out <- bigger;
    t.scratch <- bigger;
    t.limit_bits <- 8 * cap
  end

let ensure t ~path bits =
  if t.pos_bits + bits > t.limit_bits then begin
    grow t ((t.pos_bits + bits + 7) lsr 3);
    if t.pos_bits + bits > t.limit_bits then
      fail (Io
              { path;
                error =
                  B.Truncated { need_bits = bits; have_bits = t.limit_bits - t.pos_bits } })
  end

(* Overwrite [width] (<= 64) bits at [bit_off] with the low bits of [v],
   MSB-first. *)
let set_bits_at t ~bit_off ~width v =
  if bit_off land 7 = 0 && width land 7 = 0 then begin
    let base = bit_off lsr 3 and n = width lsr 3 in
    for i = 0 to n - 1 do
      Bytes.unsafe_set t.out (base + i)
        (Char.unsafe_chr
           (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (n - 1 - i))) 0xFFL)))
    done
  end
  else
    for i = 0 to width - 1 do
      let bit = Int64.to_int (Int64.logand (Int64.shift_right_logical v (width - 1 - i)) 1L) in
      let idx = (bit_off + i) lsr 3 and sh = 7 - ((bit_off + i) land 7) in
      let old = Char.code (Bytes.unsafe_get t.out idx) in
      Bytes.unsafe_set t.out idx
        (Char.unsafe_chr (if bit = 1 then old lor (1 lsl sh) else old land lnot (1 lsl sh)))
    done

let put_int t ~path ~bits ~endian v =
  mask_check ~path ~bits v;
  ensure t ~path bits;
  set_bits_at t ~bit_off:t.pos_bits ~width:bits (to_wire ~bits ~endian v);
  t.pos_bits <- t.pos_bits + bits

let put_zeros t ~path bits =
  if bits < 0 || bits > 64 then
    fail (Io { path; error = B.Width_out_of_range bits });
  ensure t ~path bits;
  set_bits_at t ~bit_off:t.pos_bits ~width:bits 0L;
  t.pos_bits <- t.pos_bits + bits

let reserve t ~path bits =
  let off = t.pos_bits in
  put_zeros t ~path bits;
  off

let put_string t ~path s =
  let len = String.length s in
  ensure t ~path (8 * len);
  if t.pos_bits land 7 = 0 then begin
    Bytes.blit_string s 0 t.out (t.pos_bits lsr 3) len;
    t.pos_bits <- t.pos_bits + (8 * len)
  end
  else
    for i = 0 to len - 1 do
      set_bits_at t ~bit_off:t.pos_bits ~width:8
        (Int64.of_int (Char.code (String.unsafe_get s i)));
      t.pos_bits <- t.pos_bits + 8
    done

let put_byte t ~path b =
  ensure t ~path 8;
  set_bits_at t ~bit_off:t.pos_bits ~width:8 (Int64.of_int b);
  t.pos_bits <- t.pos_bits + 8

(* Clear any bits of the trailing partial byte beyond the message, matching
   Writer.contents' zero padding. *)
let zero_pad t =
  let rem = t.pos_bits land 7 in
  if rem <> 0 then begin
    let idx = t.pos_bits lsr 3 in
    let keep = 0xFF lsl (8 - rem) land 0xFF in
    Bytes.unsafe_set t.out idx
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.out idx) land keep))
  end

let msg_len_bytes t = (t.pos_bits - t.base_bits + 7) lsr 3

(* ------------------------------------------------------------------ *)
(* Patch slots (pooled: reused across encodes) *)

let push_slot t =
  if t.n_slots >= Array.length t.slots then
    t.slots <-
      Array.init (2 * Array.length t.slots) (fun i ->
          if i < Array.length t.slots then t.slots.(i) else fresh_slot ());
  let s = t.slots.(t.n_slots) in
  t.n_slots <- t.n_slots + 1;
  s

(* ------------------------------------------------------------------ *)
(* Field values come from the record being encoded: its field list, in
   wire order.  Nested structure recurses into the nested record. *)

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

let expect_record ~path = function
  | Value.Record fields -> fields
  | _ -> fail (Type_mismatch { path; expected = "record" })

let require_value fields (op : op) =
  match List.assoc_opt op.o_name fields with
  | Some v -> v
  | None -> fail (Missing_field { path = op.o_path })

let require_int fields (op : op) = as_int ~path:op.o_path (require_value fields op)
let require_bytes fields (op : op) = as_bytes ~path:op.o_path (require_value fields op)

(* Constants and computed fields never *need* a value: one supplied is
   checked against the derivation. *)
let override_int fields (op : op) =
  Option.map (as_int ~path:op.o_path) (List.assoc_opt op.o_name fields)

(* ------------------------------------------------------------------ *)
(* The compiled-plan encoder.  Mirrors Codec.encode_field case by case so
   the wire bytes, derivations and check order are identical. *)

let rec run_prog t src scope (prog : op array) =
  let record_end = ref 0 in
  for i = 0 to Array.length prog - 1 do
    run_op t src scope record_end (Array.unsafe_get prog i)
  done;
  record_end := t.pos_bits

and run_op t src scope record_end (op : op) =
  let start = t.pos_bits in
  (match op.o_k with
  | E_scalar { bits; endian; enum; constraints } ->
    let v = require_int src op in
    (match enum with
    | Some cases ->
      if not (List.exists (fun (_, c) -> Int64.equal c v) cases) then
        fail (Enum_unknown { path = op.o_path; value = v })
    | None -> ());
    if constraints <> [] then apply_constraints ~path:op.o_path constraints v;
    put_int t ~path:op.o_path ~bits ~endian v;
    if op.o_val then scope.vals <- (op.o_name, v) :: scope.vals
  | E_bool ->
    let v = require_int src op in
    ensure t ~path:op.o_path 1;
    set_bits_at t ~bit_off:t.pos_bits ~width:1 (if Int64.equal v 0L then 0L else 1L);
    t.pos_bits <- t.pos_bits + 1;
    if op.o_val then scope.vals <- (op.o_name, v) :: scope.vals
  | E_const { bits; endian; value } ->
    (match override_int src op with
    | Some v ->
      if not (Int64.equal v value) then
        fail (Const_mismatch { path = op.o_path; expected = value; actual = v })
    | None -> ());
    put_int t ~path:op.o_path ~bits ~endian value;
    if op.o_val then scope.vals <- (op.o_name, value) :: scope.vals
  | E_computed { bits; endian; expr } ->
    (match override_int src op with
    | Some v ->
      (* A caller-supplied value must agree with the derivation; checked
         once every span is known. *)
      t.checks <-
        (fun () ->
          match lookup_val scope op.o_name with
          | Some actual when not (Int64.equal actual v) ->
            fail (Computed_mismatch { path = op.o_path; expected = actual; actual = v })
          | Some _ | None -> ())
        :: t.checks
    | None -> ());
    let off = reserve t ~path:op.o_path bits in
    scope.computed_defs <- (op.o_name, expr) :: scope.computed_defs;
    let s = push_slot t in
    s.p_name <- op.o_name;
    s.p_path <- op.o_path;
    s.p_scope <- scope;
    s.p_bit_off <- off;
    s.p_bits <- bits;
    s.p_endian <- endian;
    s.p_is_cksum <- false;
    s.p_expr <- expr
  | E_checksum { alg; bits; region } ->
    let off = reserve t ~path:op.o_path bits in
    let s = push_slot t in
    s.p_name <- op.o_name;
    s.p_path <- op.o_path;
    s.p_scope <- scope;
    s.p_bit_off <- off;
    s.p_bits <- bits;
    s.p_endian <- Desc.Big;
    s.p_is_cksum <- true;
    s.p_alg <- alg;
    s.p_region <- region;
    s.p_record_end <- record_end
  | E_bytes spec ->
    let s = require_bytes src op in
    let blen = String.length s in
    (match spec with
    | L_fixed n ->
      if blen <> n then
        fail (Length_mismatch
                { path = op.o_path; expected = Int64.of_int n; actual = Int64.of_int blen })
    | L_expr e ->
      let actual = Int64.of_int blen in
      t.checks <-
        (fun () ->
          let expected =
            eval ~path:op.o_path ~msg_bytes:(fun () -> msg_len_bytes t) scope e
          in
          if not (Int64.equal expected actual) then
            fail (Length_mismatch { path = op.o_path; expected; actual }))
        :: t.checks
    | L_terminated term ->
      for i = 0 to blen - 1 do
        if Char.code (String.unsafe_get s i) = term then
          fail (Eval_error
                  { path = op.o_path;
                    reason =
                      Printf.sprintf "terminated bytes may not contain the terminator 0x%02x"
                        term })
      done
    | L_remaining -> ());
    put_string t ~path:op.o_path s;
    (match spec with
    | L_terminated term -> put_byte t ~path:op.o_path term
    | L_fixed _ | L_expr _ | L_remaining -> ())
  | E_array { length; elem } ->
    let elems = as_list ~path:op.o_path (require_value src op) in
    (match length with
    | A_fixed n ->
      if List.length elems <> n then
        fail (Length_mismatch
                { path = op.o_path;
                  expected = Int64.of_int n;
                  actual = Int64.of_int (List.length elems) })
    | A_expr e ->
      let actual = Int64.of_int (List.length elems) in
      t.checks <-
        (fun () ->
          let expected =
            eval ~path:op.o_path ~msg_bytes:(fun () -> msg_len_bytes t) scope e
          in
          if not (Int64.equal expected actual) then
            fail (Length_mismatch { path = op.o_path; expected; actual }))
        :: t.checks
    | A_bytes e ->
      (* Checked after encoding via the recorded span. *)
      t.checks <-
        (fun () ->
          let expected =
            eval ~path:op.o_path ~msg_bytes:(fun () -> msg_len_bytes t) scope e
          in
          match List.assoc_opt op.o_name scope.spans with
          | Some (_, bit_len) ->
            let actual = Int64.of_int (bit_len / 8) in
            if not (Int64.equal expected actual) then
              fail (Length_mismatch { path = op.o_path; expected; actual })
          | None -> ())
        :: t.checks
    | A_remaining -> ());
    List.iter
      (fun ev ->
        let child = new_scope (Some scope) in
        run_prog t (expect_record ~path:op.o_path ev) child elem)
      elems
  | E_record body ->
    let v = require_value src op in
    let child = new_scope (Some scope) in
    run_prog t (expect_record ~path:op.o_path v) child body
  | E_variant { tag; cases; default } -> (
    match require_value src op with
    | Value.Variant (case_name, body) -> (
      let encode_body sub =
        let child = new_scope (Some scope) in
        run_prog t (expect_record ~path:op.o_path body) child sub
      in
      match List.find_opt (fun (n, _, _) -> String.equal n case_name) cases with
      | Some (_, tag_value, sub) ->
        t.checks <-
          (fun () ->
            let actual =
              eval ~path:op.o_path ~msg_bytes:(fun () -> msg_len_bytes t) scope
                (Desc.Field tag)
            in
            if not (Int64.equal actual tag_value) then
              fail (Variant_unknown_tag { path = op.o_path; value = actual }))
          :: t.checks;
        encode_body sub
      | None -> (
        match default with
        | Some sub -> encode_body sub
        | None -> fail (Type_mismatch { path = op.o_path; expected = "known variant case" })))
    | _ -> fail (Type_mismatch { path = op.o_path; expected = "variant" }))
  | E_padding bits -> put_zeros t ~path:op.o_path bits
  | E_invalid reason -> fail (Eval_error { path = op.o_path; reason }));
  if op.o_span then
    scope.spans <- (op.o_name, (start, t.pos_bits - start)) :: scope.spans

let run_patches t =
  let msg_bytes () = msg_len_bytes t in
  (* Phase 1: computed fields (lengths etc.), so that checksums cover final
     values. *)
  for i = 0 to t.n_slots - 1 do
    let p = t.slots.(i) in
    if not p.p_is_cksum then begin
      let v = eval ~path:p.p_path ~msg_bytes p.p_scope p.p_expr in
      mask_check ~path:p.p_path ~bits:p.p_bits v;
      p.p_scope.vals <- (p.p_name, v) :: p.p_scope.vals;
      set_bits_at t ~bit_off:p.p_bit_off ~width:p.p_bits
        (to_wire ~bits:p.p_bits ~endian:p.p_endian v)
    end
  done;
  (* Phase 2: checksums, over the patched bytes, in field order — computed
     in place over the output buffer, no region copy. *)
  for i = 0 to t.n_slots - 1 do
    let p = t.slots.(i) in
    if p.p_is_cksum then begin
      let own_span = (p.p_bit_off, p.p_bits) in
      let (roff, rlen) =
        region_bits ~path:p.p_path ~base_bits:t.base_bits
          ~msg_bits:(t.pos_bits - t.base_bits) p.p_scope p.p_region ~own_span
          ~record_end:p.p_record_end
      in
      if roff land 7 <> 0 || rlen land 7 <> 0 then
        fail (Eval_error { path = p.p_path; reason = "checksum region is not byte-aligned" });
      let v =
        Ck.compute_zeroed p.p_alg ~off:(roff / 8) ~len:(rlen / 8)
          ~zero_bit_off:p.p_bit_off ~zero_bit_len:p.p_bits
          (Bytes.unsafe_to_string t.out)
      in
      p.p_scope.vals <- (p.p_name, v) :: p.p_scope.vals;
      set_bits_at t ~bit_off:p.p_bit_off ~width:p.p_bits v
    end
  done;
  List.iter (fun check -> check ()) (List.rev t.checks)

(* ------------------------------------------------------------------ *)
(* Entry points *)

let reset t ~out ~own ~off =
  t.out <- out;
  t.own <- own;
  t.base_bits <- off * 8;
  t.pos_bits <- off * 8;
  t.limit_bits <- 8 * Bytes.length out;
  t.n_slots <- 0;
  t.checks <- []

let run t src =
  let scope = new_scope None in
  run_prog t src scope t.prog;
  zero_pad t;
  run_patches t

let restore t = t.out <- t.scratch; t.own <- true

let not_a_record = Result.Error (Codec.Type_mismatch { path = []; expected = "record" })

let encode t value =
  match value with
  | Value.Record fields -> (
    reset t ~out:t.scratch ~own:true ~off:0;
    match run t fields with
    | () -> Ok (Bytes.sub_string t.out 0 (msg_len_bytes t))
    | exception Codec.Error e -> Result.Error (outward_error e))
  | _ -> not_a_record

let encode_exn t value =
  match encode t value with Ok s -> s | Error e -> raise (Codec.Error e)

let encode_into t ?(off = 0) buf value =
  match value with
  | Value.Record fields -> (
    if off < 0 || off > Bytes.length buf then
      invalid_arg "Emit.encode_into: offset out of bounds";
    reset t ~out:buf ~own:false ~off;
    match run t fields with
    | () ->
      let n = msg_len_bytes t in
      restore t;
      Ok n
    | exception Codec.Error e ->
      restore t;
      Result.Error (outward_error e))
  | _ -> not_a_record

(* ------------------------------------------------------------------ *)
(* In-place patching: mutate one scalar field of an already-encoded (and
   validated) message at its fixed wire offset, updating any Internet
   checksum that covers it incrementally (RFC 1624) instead of re-streaming
   the region. *)

type fallback =
  | F_none (* region provably never all-zero: delta result is canonical *)
  | F_scan of int (* region start (bytes from message start) .. message end *)

type cks_patch = {
  c_bit_off : int; (* checksum field offset, bits from message start *)
  c_region_start : int; (* region start, bytes from message start *)
  c_fallback : fallback;
}

type patcher = {
  pa_name : string;
  pa_bit_off : int; (* byte-aligned *)
  pa_bits : int; (* whole bytes *)
  pa_endian : Desc.endian;
  pa_enum : (string * int64) list option;
  pa_constraints : Desc.constr list;
  pa_min_bytes : int; (* any valid message is at least this long *)
  pa_cks : cks_patch list;
}

let patcher_field p = p.pa_name

(* Bit offset of the end of [name]'s span in the *shortest* message — the
   guaranteed extent of a span region ending at [name]. *)
let min_end_of (fmt : Desc.t) name =
  let rec go acc = function
    | [] -> None
    | (g : Desc.field) :: rest ->
      let acc = acc + (Sizing.field_bounds g).min_bits in
      if String.equal g.name name then Some acc else go acc rest
  in
  go 0 fmt.fields

(* Is there a fixed-offset nonzero constant field inside [lo, hi) bits?  If
   so the summed region can never be all-zero, and an incremental checksum
   result of 0 is canonical (the ones'-complement ±0 ambiguity cannot
   arise). *)
let nonzero_const_within (fmt : Desc.t) lo hi =
  let rec scan off = function
    | [] -> false
    | (g : Desc.field) :: rest -> (
      match (Sizing.field_bounds g : Sizing.bounds) with
      | { min_bits; max_bits = Some m } when m = min_bits ->
        (match g.ty with
        | Desc.Const { value; _ }
          when (not (Int64.equal value 0L)) && off >= lo && off + m <= hi ->
          true
        | _ -> scan (off + m) rest)
      | _ -> false)
  in
  scan 0 fmt.fields

let rec has_checksum (fmt : Desc.t) =
  List.exists
    (fun (g : Desc.field) ->
      match g.ty with
      | Desc.Checksum _ -> true
      | Desc.Record sub -> has_checksum sub
      | Desc.Array { elem; _ } -> has_checksum elem
      | Desc.Variant { cases; default; _ } ->
        List.exists (fun (_, _, sub) -> has_checksum sub) cases
        || (match default with Some sub -> has_checksum sub | None -> false)
      | _ -> false)
    fmt.fields

let patcher ?(computed = false) (fmt : Desc.t) name =
  let ( let* ) = Result.bind in
  let* f =
    match Desc.find_field fmt name with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "no top-level field %S" name)
  in
  let* bits, endian, enum =
    match f.ty with
    | Desc.Uint { bits; endian } -> Ok (bits, endian, None)
    | Desc.Enum { bits; endian; cases; exhaustive } ->
      Ok (bits, endian, if exhaustive then Some cases else None)
    | Desc.Const _ -> Error (Printf.sprintf "field %S is a constant" name)
    | Desc.Computed { bits; endian; _ } when computed ->
      (* The stack back-patcher rewrites derived lengths on purpose: it
         re-evaluates the defining expression itself over the fused chain
         and takes responsibility for consistency. *)
      Ok (bits, endian, None)
    | Desc.Computed _ | Desc.Checksum _ ->
      Error (Printf.sprintf "field %S is derived; a patch would be recomputed away" name)
    | Desc.Bool_flag -> Error (Printf.sprintf "field %S is a single bit, not whole bytes" name)
    | Desc.Bytes _ | Desc.Array _ | Desc.Record _ | Desc.Variant _ | Desc.Padding _ ->
      Error (Printf.sprintf "field %S is not a scalar" name)
  in
  let* off_bits, _ = Sizing.fixed_field_span fmt name in
  let* () =
    if off_bits land 7 <> 0 || bits land 7 <> 0 then
      Error (Printf.sprintf "field %S is not byte-aligned on the wire" name)
    else Ok ()
  in
  let vn, _ = collect_refs fmt in
  let* () =
    if needed name vn then
      Error (Printf.sprintf "other fields are derived from %S; patching it would desynchronise them" name)
    else Ok ()
  in
  (* Checksum coverage: every checksum lives at the top level (nested ones
     cannot be updated without a decode) and there is at most one (regions
     of several could include each other's stored values). *)
  let nested_cks =
    List.exists
      (fun (g : Desc.field) ->
        match g.ty with
        | Desc.Record sub -> has_checksum sub
        | Desc.Array { elem; _ } -> has_checksum elem
        | Desc.Variant { cases; default; _ } ->
          List.exists (fun (_, _, sub) -> has_checksum sub) cases
          || (match default with Some sub -> has_checksum sub | None -> false)
        | _ -> false)
      fmt.fields
  in
  let* () =
    if nested_cks then Error "format has a checksum inside a nested field" else Ok ()
  in
  let cks_fields =
    List.filter
      (fun (g : Desc.field) -> match g.ty with Desc.Checksum _ -> true | _ -> false)
      fmt.fields
  in
  let* () =
    match cks_fields with
    | [] | [ _ ] -> Ok ()
    | _ -> Error "format has several checksum fields"
  in
  let* cks =
    match cks_fields with
    | [] -> Ok []
    | c :: _ -> (
      let alg, region =
        match c.ty with
        | Desc.Checksum { algorithm; region } -> (algorithm, region)
        | _ -> assert false
      in
      let* () =
        match alg with
        | Ck.Internet -> Ok ()
        | _ ->
          Error
            (Printf.sprintf "checksum algorithm %s has no incremental update"
               (Ck.algorithm_to_string alg))
      in
      let* coff, cbits = Sizing.fixed_field_span fmt c.name in
      let* () =
        if coff land 7 <> 0 then
          Error (Printf.sprintf "checksum field %S is not byte-aligned" c.name)
        else Ok ()
      in
      let mk region_start fallback =
        Ok [ { c_bit_off = coff; c_region_start = region_start; c_fallback = fallback } ]
      in
      match region with
      | Desc.Region_message ->
        (* Always covers the patched field; all-zero regions are possible
           unless a nonzero constant is pinned somewhere in the message. *)
        if nonzero_const_within fmt 0 max_int then mk 0 F_none
        else mk 0 (F_scan 0)
      | Desc.Region_rest ->
        let cend = coff + cbits in
        if off_bits + bits <= cend then Ok [] (* field precedes the region *)
        else begin
          let start = cend / 8 in
          if cend land 7 <> 0 then
            Error (Printf.sprintf "checksum region after %S is not byte-aligned" c.name)
          else if nonzero_const_within fmt cend max_int then mk start F_none
          else mk start (F_scan start)
        end
      | Desc.Region_span (a, b) -> (
        let* aoff, _ = Sizing.fixed_field_span fmt a in
        let* () =
          if aoff land 7 <> 0 then
            Error (Printf.sprintf "checksum region start %S is not byte-aligned" a)
          else Ok ()
        in
        match min_end_of fmt b with
        | None -> Error (Printf.sprintf "checksum span: unknown field %S" b)
        | Some min_end ->
          if off_bits + bits <= aoff then Ok [] (* field precedes the region *)
          else if off_bits >= aoff && off_bits + bits <= min_end then
            (* Inside the region in every message.  The region's end varies
               at run time, so there is no scan fallback; demand a pinned
               nonzero constant instead. *)
            if nonzero_const_within fmt aoff min_end then mk (aoff / 8) F_none
            else
              Error
                (Printf.sprintf
                   "checksum region %S..%S may be all-zero; incremental update would be ambiguous"
                   a b)
          else (
            match Sizing.fixed_field_span fmt b with
            | Ok (boff, blen) when off_bits >= boff + blen ->
              Ok [] (* field follows the (fixed) region *)
            | _ ->
              Error
                (Printf.sprintf "field %S may or may not be covered by the checksum" name)))
      )
  in
  Ok
    { pa_name = name;
      pa_bit_off = off_bits;
      pa_bits = bits;
      pa_endian = endian;
      pa_enum = enum;
      pa_constraints = f.constraints;
      pa_min_bytes = Sizing.min_bytes fmt;
      pa_cks = cks }

(* 0 and 0xffff encode the same ones'-complement value, so a delta
   result of 0 is ambiguous: the canonical checksum is 0xffff exactly
   when the summed region is all zero.  Decide by scanning (the new
   field bytes are in place; the stored checksum at [coff] reads as zero
   by convention). *)
let canonical_zero c ~off ~len ~coff buf =
  match c.c_fallback with
  | F_none -> 0
  | F_scan rstart ->
    let rhi = off + len in
    let rec all_zero i =
      i >= rhi
      || ((i = coff || i = coff + 1 || Char.code (Bytes.get buf i) = 0)
         && all_zero (i + 1))
    in
    if all_zero (off + rstart) then 0xFFFF else 0

(* Incremental checksum update, all native ints.  A byte at an even offset
   from the region start is the high half of its 16-bit word, at an odd
   offset the low half — so the field itself need not be word-aligned.
   Top-level with explicit state (not a closure): the respond hot loop of
   the fused pipeline runs this per packet and must not allocate. *)
let rec patch_cks ~off ~len ~fbyte ~nbytes ~oldw ~wire buf = function
  | [] -> ()
  | c :: rest ->
    let rbase = off + c.c_region_start in
    let removed = ref 0 and added = ref 0 in
    for i = 0 to nbytes - 1 do
      let sh = 8 * (nbytes - 1 - i) in
      let w = if (fbyte + i - rbase) land 1 = 0 then 8 else 0 in
      removed := !removed + (((oldw lsr sh) land 0xFF) lsl w);
      added := !added + (((wire lsr sh) land 0xFF) lsl w)
    done;
    let coff = off + (c.c_bit_off lsr 3) in
    let hc = (Char.code (Bytes.get buf coff) lsl 8) lor Char.code (Bytes.get buf (coff + 1)) in
    let hc' = Ck.internet_delta ~checksum:hc ~removed:!removed ~added:!added in
    let hc' = if hc' <> 0 then hc' else canonical_zero c ~off ~len ~coff buf in
    Bytes.set buf coff (Char.unsafe_chr (hc' lsr 8));
    Bytes.set buf (coff + 1) (Char.unsafe_chr (hc' land 0xFF));
    patch_cks ~off ~len ~fbyte ~nbytes ~oldw ~wire buf rest

let rec enum_mem cases v =
  match cases with
  | [] -> false
  | (_, c) :: rest -> Int64.equal c v || enum_mem rest v

let bswap_nat ~bits v =
  let n = bits / 8 in
  let r = ref 0 in
  for i = 0 to n - 1 do
    r := (!r lsl 8) lor ((v lsr (8 * i)) land 0xFF)
  done;
  !r

(* Non-optional window variant: the fused reply path calls this so the
   call site allocates no [Some len]. *)
let patch_window p ~off ~len buf v =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Emit.patch: window out of bounds";
  match
    if len < p.pa_min_bytes then
      fail (Io
              { path = [ p.pa_name ];
                error =
                  B.Truncated { need_bits = 8 * p.pa_min_bytes; have_bits = 8 * len } });
    let fbyte = off + (p.pa_bit_off lsr 3) in
    let nbytes = p.pa_bits lsr 3 in
    if p.pa_bits <= 56 then begin
      (* Native fast path: byte-aligned narrow field, every step in
         unboxed ints.  [Int64.to_int] keeps the value exact whenever the
         sign check and the native range check both pass, so together they
         stand in for [mask_check] without boxing anything. *)
      if Int64.compare v 0L < 0 then
        fail (Value_out_of_range { path = [ p.pa_name ]; value = v; bits = p.pa_bits });
      let vi = Int64.to_int v in
      if vi < 0 || vi lsr p.pa_bits <> 0 then
        fail (Value_out_of_range { path = [ p.pa_name ]; value = v; bits = p.pa_bits });
      (match p.pa_enum with
      | Some cases ->
        if not (enum_mem cases v) then
          fail (Enum_unknown { path = [ p.pa_name ]; value = v })
      | None -> ());
      if p.pa_constraints <> [] then
        apply_constraints ~path:[ p.pa_name ] p.pa_constraints v;
      let wire =
        match p.pa_endian with
        | Desc.Big -> vi
        | Desc.Little -> bswap_nat ~bits:p.pa_bits vi
      in
      (* Capture the outgoing bytes, then overwrite. *)
      let oldw = ref 0 in
      for i = 0 to nbytes - 1 do
        oldw := (!oldw lsl 8) lor Char.code (Bytes.get buf (fbyte + i))
      done;
      for i = 0 to nbytes - 1 do
        Bytes.set buf (fbyte + i)
          (Char.unsafe_chr ((wire lsr (8 * (nbytes - 1 - i))) land 0xFF))
      done;
      patch_cks ~off ~len ~fbyte ~nbytes ~oldw:!oldw ~wire buf p.pa_cks
    end
    else begin
      (* Validate the new value exactly as the full encoder would. *)
      mask_check ~path:[ p.pa_name ] ~bits:p.pa_bits v;
      (match p.pa_enum with
      | Some cases ->
        if not (List.exists (fun (_, c) -> Int64.equal c v) cases) then
          fail (Enum_unknown { path = [ p.pa_name ]; value = v })
      | None -> ());
      if p.pa_constraints <> [] then
        apply_constraints ~path:[ p.pa_name ] p.pa_constraints v;
      let wire = to_wire ~bits:p.pa_bits ~endian:p.pa_endian v in
      let byte_of w i =
        Int64.to_int (Int64.logand (Int64.shift_right_logical w (8 * (nbytes - 1 - i))) 0xFFL)
      in
      let oldwire = ref 0L in
      for i = 0 to nbytes - 1 do
        oldwire :=
          Int64.logor (Int64.shift_left !oldwire 8)
            (Int64.of_int (Char.code (Bytes.get buf (fbyte + i))))
      done;
      for i = 0 to nbytes - 1 do
        Bytes.set buf (fbyte + i) (Char.unsafe_chr (byte_of wire i))
      done;
      List.iter
        (fun c ->
          let rbase = off + c.c_region_start in
          let removed = ref 0 and added = ref 0 in
          for i = 0 to nbytes - 1 do
            let w = if (fbyte + i - rbase) land 1 = 0 then 8 else 0 in
            removed := !removed + (byte_of !oldwire i lsl w);
            added := !added + (byte_of wire i lsl w)
          done;
          let coff = off + (c.c_bit_off lsr 3) in
          let hc = (Char.code (Bytes.get buf coff) lsl 8) lor Char.code (Bytes.get buf (coff + 1)) in
          let hc' = Ck.internet_delta ~checksum:hc ~removed:!removed ~added:!added in
          let hc' = if hc' <> 0 then hc' else canonical_zero c ~off ~len ~coff buf in
          Bytes.set buf coff (Char.unsafe_chr (hc' lsr 8));
          Bytes.set buf (coff + 1) (Char.unsafe_chr (hc' land 0xFF)))
        p.pa_cks
    end
  with
  | () -> Ok ()
  | exception Codec.Error e -> Result.Error (outward_error e)

(* ---- patch kernels ----

   A patcher compiled once more, for the fused respond path: a closure
   that already knows the field's offset inside the message, its width,
   its admissible enum values, and the covering Internet checksum's
   offset and word parity, and takes the new value as a native int — so
   a reply patch is a range test, the byte stores and one incremental
   checksum update, with no boxing.  The verdict and the bytes written
   are exactly [patch_window]'s, which stays the reference. *)

type kernel = Bytes.t -> int -> int -> int -> bool

let byte buf i = Char.code (Bytes.unsafe_get buf i)
let set_byte buf i v = Bytes.unsafe_set buf i (Char.unsafe_chr (v land 0xFF))

(* [n]-byte big-endian load and store, 2 and 4 bytes open-coded. *)
let load_be buf i n =
  if n = 2 then (byte buf i lsl 8) lor byte buf (i + 1)
  else if n = 4 then
    (byte buf i lsl 24) lor (byte buf (i + 1) lsl 16) lor (byte buf (i + 2) lsl 8)
    lor byte buf (i + 3)
  else begin
    let v = ref 0 in
    for k = 0 to n - 1 do
      v := (!v lsl 8) lor byte buf (i + k)
    done;
    !v
  end

let store_be buf i n v =
  if n = 2 then begin
    set_byte buf i (v lsr 8);
    set_byte buf (i + 1) v
  end
  else if n = 4 then begin
    set_byte buf i (v lsr 24);
    set_byte buf (i + 1) (v lsr 16);
    set_byte buf (i + 2) (v lsr 8);
    set_byte buf (i + 3) v
  end
  else
    for k = 0 to n - 1 do
      set_byte buf (i + k) (v lsr (8 * (n - 1 - k)))
    done

(* The ones'-complement word sum of an [n]-byte big-endian value whose
   first byte sits at an even ([odd = 0]) or odd offset from the start of
   the checksummed region. *)
let word_sum n odd v =
  if odd = 0 && n = 2 then v
  else if odd = 0 && n = 4 then (v lsr 16) + (v land 0xFFFF)
  else begin
    let s = ref 0 in
    for k = 0 to n - 1 do
      let b = (v lsr (8 * (n - 1 - k))) land 0xFF in
      s := !s + if (k + odd) land 1 = 0 then b lsl 8 else b
    done;
    !s
  end

let rec mem_int a v i = i < Array.length a && (Array.unsafe_get a i = v || mem_int a v (i + 1))

let kernel p : kernel =
  let generic buf off len v =
    match patch_window p ~off ~len buf (Int64.of_int v) with Ok () -> true | Error _ -> false
  in
  if p.pa_bits > 56 || p.pa_constraints <> [] then generic
  else
    let fo = p.pa_bit_off lsr 3 and n = p.pa_bits lsr 3 and bits = p.pa_bits in
    let min = p.pa_min_bytes in
    let little = p.pa_endian = Desc.Little in
    (* enum cases a [bits]-wide value can equal *)
    let has_enum, cases =
      match p.pa_enum with
      | None -> (false, [||])
      | Some cs ->
        ( true,
          Array.of_list
            (List.filter_map
               (fun (_, c) ->
                 if Int64.compare c 0L >= 0 && Int64.compare c (Int64.shift_left 1L bits) < 0
                 then Some (Int64.to_int c)
                 else None)
               cs) )
    in
    let valid buf off len v =
      if off < 0 || len < 0 || off + len > Bytes.length buf then
        invalid_arg "Emit.patch: window out of bounds";
      len >= min && v >= 0 && v lsr bits = 0 && ((not has_enum) || mem_int cases v 0)
    in
    match p.pa_cks with
    | [] ->
      fun buf off len v ->
        valid buf off len v
        && begin
             store_be buf (off + fo) n (if little then bswap_nat ~bits v else v);
             true
           end
    | [ c ] ->
      let co = c.c_bit_off lsr 3 and odd = (fo - c.c_region_start) land 1 in
      fun buf off len v ->
        valid buf off len v
        && begin
             let i = off + fo in
             let old = load_be buf i n in
             let wire = if little then bswap_nat ~bits v else v in
             store_be buf i n wire;
             let ci = off + co in
             let hc = load_be buf ci 2 in
             let hc' =
               Ck.internet_delta ~checksum:hc ~removed:(word_sum n odd old)
                 ~added:(word_sum n odd wire)
             in
             let hc' = if hc' <> 0 then hc' else canonical_zero c ~off ~len ~coff:ci buf in
             store_be buf ci 2 hc';
             true
           end
    | _ -> generic

let patch p ?(off = 0) ?len buf v =
  let len = match len with None -> Bytes.length buf - off | Some l -> l in
  patch_window p ~off ~len buf v

let patch_exn p ?off ?len buf v =
  match patch p ?off ?len buf v with Ok () -> () | Error e -> raise (Codec.Error e)
