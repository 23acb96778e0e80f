module B = Netdsl_util.Bitio
module Ck = Netdsl_util.Checksum

(* Errors are shared with Codec so callers see one decode-error type
   regardless of which decode path ran. *)
type error = Codec.error

let fail e = raise (Codec.Error e)

(* Decode-side subset of Codec.outward_error: paths are threaded
   innermost-first during the parse and reversed when an error escapes. *)
let outward_error : Codec.error -> Codec.error = function
  | Io e -> Io { e with path = List.rev e.path }
  | Const_mismatch e -> Const_mismatch { e with path = List.rev e.path }
  | Enum_unknown e -> Enum_unknown { e with path = List.rev e.path }
  | Constraint_violation e -> Constraint_violation { e with path = List.rev e.path }
  | Computed_mismatch e -> Computed_mismatch { e with path = List.rev e.path }
  | Checksum_mismatch e -> Checksum_mismatch { e with path = List.rev e.path }
  | Variant_unknown_tag e -> Variant_unknown_tag { e with path = List.rev e.path }
  | Missing_field e -> Missing_field { path = List.rev e.path }
  | Type_mismatch e -> Type_mismatch { e with path = List.rev e.path }
  | Length_mismatch e -> Length_mismatch { e with path = List.rev e.path }
  | Eval_error e -> Eval_error { e with path = List.rev e.path }
  | Trailing_input _ as e -> e
  | Value_out_of_range e -> Value_out_of_range { e with path = List.rev e.path }

(* ------------------------------------------------------------------ *)
(* The span table.  One entry per value-bearing field, in wire order; a
   container's children follow it and [stop] indexes one past its subtree.
   Entries are pooled and reused across decodes, so the steady-state decode
   path allocates no per-field values. *)

let k_int = 0 (* scalar; [ival] holds the value (fits an OCaml int) *)
let k_int_wide = 1 (* scalar > 62 bits; re-read from the span on access *)
let k_bool = 2 (* [ival] is 0/1 *)
let k_bytes = 3 (* span only; bytes are extracted lazily *)
let k_record = 4
let k_list = 5 (* [ival] is the element count *)
let k_variant = 6 (* [sval] is the chosen case name *)

type entry = {
  mutable name : string;
  mutable kind : int;
  mutable ival : int;
  mutable sval : string;
  mutable voff : int; (* absolute bit offset of the field's span *)
  mutable vlen : int; (* bit length *)
  mutable stop : int; (* index one past this entry's subtree *)
}

let fresh_entry () =
  { name = ""; kind = 0; ival = 0; sval = ""; voff = 0; vlen = 0; stop = 0 }

(* ------------------------------------------------------------------ *)
(* Compiled decode plans.  [create] lowers the format descriptor into a
   flat op array once; the per-packet walk then dispatches on precomputed
   ops instead of re-interpreting the tree: error paths are consed at
   compile time, endianness and width classification are baked in, and
   each op carries booleans saying whether any expression in the format
   actually references its value or span (so the hot loop records scope
   bindings only when something will read them). *)

type scalar_check =
  | C_none
  | C_const of int * int64 (* comparison value, declared value for errors *)
  | C_enum of int list (* exhaustive case values that can fit the width *)

type wide_check =
  | W_none
  | W_const of int64
  | W_enum of (string * int64) list

type blen =
  | L_fixed of int
  | L_expr of Desc.expr
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
  o_span : bool; (* some expression or checksum region reads its span *)
  o_k : okind;
}

and okind =
  | K_scalar of {
      bits : int; (* <= 62: value fits an immediate int *)
      little : bool;
      check : scalar_check;
      constraints : Desc.constr list;
    }
  | K_scalar64 of {
      bits : int;
      endian : Desc.endian;
      check : wide_check;
      constraints : Desc.constr list;
    }
  | K_bool
  | K_computed of { bits : int; little : bool; endian : Desc.endian; expr : Desc.expr }
  | K_checksum of { alg : Ck.algorithm; bits : int; region : Desc.region }
  | K_bytes of blen
  | K_array of { length : alen; elem_name : string; elem : op array }
  | K_record of op array
  | K_variant of {
      tag : string;
      cases : (string * int64 * op array) list;
      default : op array option;
    }
  | K_padding of int
  | K_invalid of string (* ill-formed field: fails when reached, as Codec does *)

type t = {
  fmt : Desc.t;
  prog : op array;
  mutable data : string;
  mutable base_bits : int; (* window start *)
  mutable msg_bits : int; (* window length *)
  mutable entries : entry array;
  mutable n : int;
}

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
  let len_spec = function
    | Desc.Len_expr e | Desc.Len_bytes e -> expr e
    | Desc.Len_fixed _ | Desc.Len_remaining | Desc.Len_terminated _ -> ()
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
    | Bytes spec -> len_spec spec
    | Array { elem; length } ->
      len_spec length;
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

(* A narrow (<= 62 bit) field value is a non-negative immediate int, so
   only declared values in [0, 2^62) can ever match; anything else maps to
   a comparison value no read can produce ([Int64.to_int] would wrap). *)
let fits_narrow c =
  Int64.compare c 0L >= 0 && Int64.compare c (Int64.shift_left 1L 62) < 0

let narrow_const value = if fits_narrow value then Int64.to_int value else -1

let narrow_enum_cases cases =
  List.filter_map
    (fun (_, c) -> if fits_narrow c then Some (Int64.to_int c) else None)
    cases

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
    if le_bad bits endian then mk (K_invalid le_bad_reason)
    else if bits <= 62 then
      mk (K_scalar
            { bits; little = (endian = Desc.Little); check = C_none;
              constraints = f.constraints })
    else mk (K_scalar64 { bits; endian; check = W_none; constraints = f.constraints })
  | Const { bits; endian; value } ->
    if le_bad bits endian then mk (K_invalid le_bad_reason)
    else if bits <= 62 then
      mk (K_scalar
            { bits; little = (endian = Desc.Little);
              check = C_const (narrow_const value, value);
              constraints = f.constraints })
    else
      mk (K_scalar64 { bits; endian; check = W_const value; constraints = f.constraints })
  | Enum { bits; endian; cases; exhaustive } ->
    if le_bad bits endian then mk (K_invalid le_bad_reason)
    else if bits <= 62 then
      mk (K_scalar
            { bits; little = (endian = Desc.Little);
              check = (if exhaustive then C_enum (narrow_enum_cases cases) else C_none);
              constraints = f.constraints })
    else
      mk (K_scalar64
            { bits; endian;
              check = (if exhaustive then W_enum cases else W_none);
              constraints = f.constraints })
  | Bool_flag -> mk K_bool
  | Computed { bits; endian; expr } ->
    if le_bad bits endian then mk (K_invalid le_bad_reason)
    else mk (K_computed { bits; little = (endian = Desc.Little); endian; expr })
  | Checksum { algorithm; region } ->
    mk (K_checksum { alg = algorithm; bits = Ck.width_bits algorithm; region })
  | Bytes spec ->
    let spec =
      match spec with
      | Len_fixed n -> L_fixed n
      | Len_expr e | Len_bytes e -> L_expr e
      | Len_remaining -> L_remaining
      | Len_terminated t -> L_terminated t
    in
    mk (K_bytes spec)
  | Array { elem; length } -> (
    let elem_ops = compile_fields ~vn ~sn path_f elem.fields in
    match length with
    | Len_fixed n ->
      mk (K_array { length = A_fixed n; elem_name = elem.format_name; elem = elem_ops })
    | Len_expr e ->
      mk (K_array { length = A_expr e; elem_name = elem.format_name; elem = elem_ops })
    | Len_bytes e ->
      mk (K_array { length = A_bytes e; elem_name = elem.format_name; elem = elem_ops })
    | Len_remaining ->
      mk (K_array
            { length = A_remaining; elem_name = elem.format_name; elem = elem_ops })
    | Len_terminated _ -> mk (K_invalid "arrays cannot be terminator-delimited"))
  | Record sub -> mk (K_record (compile_fields ~vn ~sn path_f sub.fields))
  | Variant { tag; cases; default } ->
    mk (K_variant
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
  | Padding { bits } -> mk (K_padding bits)

let create fmt =
  let vn, sn = collect_refs fmt in
  {
    fmt;
    prog = compile_fields ~vn ~sn [] fmt.Desc.fields;
    data = "";
    base_bits = 0;
    msg_bits = 0;
    entries = Array.init 16 (fun _ -> fresh_entry ());
    n = 0;
  }

let format t = t.fmt
let raw t = t.data
let length_bytes t = t.msg_bits / 8

let push t =
  if t.n >= Array.length t.entries then begin
    let bigger =
      Array.init (2 * Array.length t.entries) (fun i ->
          if i < Array.length t.entries then t.entries.(i) else fresh_entry ())
    in
    t.entries <- bigger
  end;
  let e = t.entries.(t.n) in
  t.n <- t.n + 1;
  e

(* ------------------------------------------------------------------ *)
(* Scopes: as in Codec, one per record nesting level, shared with deferred
   checks so a check registered early sees siblings decoded later. *)

type scope = {
  mutable vals : (string * int64) list;
  mutable spans : (string * (int * int)) list;
  parent : scope option;
}

let new_scope parent = { vals = []; spans = []; parent }

let rec lookup_val scope name =
  match List.assoc_opt name scope.vals with
  | Some v -> Some v
  | None -> ( match scope.parent with None -> None | Some p -> lookup_val p name)

let rec lookup_span scope name =
  match List.assoc_opt name scope.spans with
  | Some s -> Some s
  | None -> ( match scope.parent with None -> None | Some p -> lookup_span p name)

(* ------------------------------------------------------------------ *)
(* Shared helpers (mirroring Codec's decode side). *)

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

let of_wire ~bits ~endian v =
  match endian with Desc.Big -> v | Desc.Little -> bswap ~bits v

let apply_constraints ~path constraints value =
  let ok = function
    | Desc.In_range (lo, hi) -> Int64.compare lo value <= 0 && Int64.compare value hi <= 0
    | Desc.One_of vs -> List.exists (Int64.equal value) vs
    | Desc.Not_equal v -> not (Int64.equal value v)
  in
  List.iter
    (fun c -> if not (ok c) then fail (Constraint_violation { path; constr = c; value }))
    constraints

(* Decode-side expression evaluation: every referenced field is concrete. *)
let rec eval ~path ~msg_bits scope (expr : Desc.expr) =
  match expr with
  | Const v -> v
  | Field name -> (
    match lookup_val scope name with
    | Some v -> v
    | None ->
      fail (Eval_error { path; reason = Printf.sprintf "unknown field %S in expression" name }))
  | Byte_len name -> (
    match lookup_span scope name with
    | Some (_, bit_len) ->
      if bit_len land 7 <> 0 then
        fail (Eval_error
                { path; reason = Printf.sprintf "len(%s): field is not a whole number of bytes" name })
      else Int64.of_int (bit_len / 8)
    | None ->
      fail (Eval_error { path; reason = Printf.sprintf "len(%s): unknown field" name }))
  | Msg_len -> Int64.of_int (msg_bits / 8)
  | Add (a, b) -> Int64.add (eval ~path ~msg_bits scope a) (eval ~path ~msg_bits scope b)
  | Sub (a, b) -> Int64.sub (eval ~path ~msg_bits scope a) (eval ~path ~msg_bits scope b)
  | Mul (a, b) -> Int64.mul (eval ~path ~msg_bits scope a) (eval ~path ~msg_bits scope b)
  | Div (a, b) ->
    let d = eval ~path ~msg_bits scope b in
    if Int64.equal d 0L then fail (Eval_error { path; reason = "division by zero" })
    else Int64.div (eval ~path ~msg_bits scope a) d

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

(* The checksum of a region with the field's own bits read as zero —
   computed in place over the message, no copy. *)
let compute_checksum ~path ~algorithm ~data ~region_bits:(roff, rlen)
    ~own_span:(ooff, olen) =
  if roff land 7 <> 0 || rlen land 7 <> 0 then
    fail (Eval_error { path; reason = "checksum region is not byte-aligned" });
  Ck.compute_zeroed algorithm ~off:(roff / 8) ~len:(rlen / 8) ~zero_bit_off:ooff
    ~zero_bit_len:olen data

(* ------------------------------------------------------------------ *)
(* Decoding *)

type ctx = {
  view : t;
  mutable deferred : (unit -> unit) list; (* run (in order) after the parse *)
}

let with_io path f = try f () with B.Error e -> fail (Io { path; error = e })

let read_int ~path r ~bits ~endian =
  check_le_width ~path ~bits endian;
  let raw = with_io path (fun () -> B.Reader.read_bits r ~width:bits) in
  of_wire ~bits ~endian raw

(* Native-int byte swap for whole-byte widths up to 62 bits. *)
let bswap_int ~bits v =
  let n = bits lsr 3 in
  let r = ref 0 in
  for i = 0 to n - 1 do
    r := (!r lsl 8) lor ((v lsr (8 * i)) land 0xFF)
  done;
  !r

let max_len64 = Int64.of_int Sys.max_string_length

let positive_len ~path n =
  if Int64.compare n 0L < 0 then
    fail (Length_mismatch { path; expected = 0L; actual = n })
  else if Int64.compare n max_len64 > 0 then
    fail (Eval_error { path; reason = "length expression absurdly large" })
  else Int64.to_int n

(* Same checks for lengths fixed in the descriptor, without boxing. *)
let check_count ~path n =
  if n < 0 then
    fail (Length_mismatch { path; expected = 0L; actual = Int64.of_int n })
  else if n > Sys.max_string_length then
    fail (Eval_error { path; reason = "length expression absurdly large" })
  else n

let endian_flag = function Desc.Big -> 0 | Desc.Little -> 1
let flag_endian = function 0 -> Desc.Big | _ -> Desc.Little

(* On pool reuse the slot already holds this field's name; skipping the
   store skips a write barrier per field. *)
let set_name (e : entry) name = if e.name != name then e.name <- name

let set_scalar_int ctx name ~start ~bits v =
  let e = push ctx.view in
  set_name e name;
  e.voff <- start;
  e.vlen <- bits;
  e.kind <- k_int;
  e.ival <- v;
  e.stop <- ctx.view.n

let set_scalar ctx name ~start ~bits ~endian v =
  let e = push ctx.view in
  e.name <- name;
  e.voff <- start;
  e.vlen <- bits;
  if bits <= 62 then begin
    e.kind <- k_int;
    e.ival <- Int64.to_int v
  end
  else begin
    e.kind <- k_int_wide;
    e.ival <- endian_flag endian
  end;
  e.stop <- ctx.view.n

(* The compiled-plan interpreter.  One op per field; [o_path] and the
   classification work were done at compile time, so the per-packet cost
   of a scalar field is a bounds-checked read, the optional value check,
   and a pooled entry store. *)
let rec run_prog ctx scope (prog : op array) r =
  let record_end = ref 0 in
  for i = 0 to Array.length prog - 1 do
    run_op ctx scope record_end (Array.unsafe_get prog i) r
  done;
  record_end := B.Reader.bit_pos r

and run_op ctx scope record_end (op : op) r =
  let start = B.Reader.bit_pos r in
  (match op.o_k with
  | K_scalar s ->
    let v =
      match B.Reader.read_bits_int r ~width:s.bits with
      | v -> if s.little then bswap_int ~bits:s.bits v else v
      | exception B.Error e -> fail (Io { path = op.o_path; error = e })
    in
    (match s.check with
    | C_none -> ()
    | C_const (c, declared) ->
      if v <> c then
        fail
          (Const_mismatch
             { path = op.o_path; expected = declared; actual = Int64.of_int v })
    | C_enum cs ->
      if not (List.exists (fun (c : int) -> c = v) cs) then
        fail (Enum_unknown { path = op.o_path; value = Int64.of_int v }));
    if s.constraints <> [] then
      apply_constraints ~path:op.o_path s.constraints (Int64.of_int v);
    if op.o_val then scope.vals <- (op.o_name, Int64.of_int v) :: scope.vals;
    set_scalar_int ctx op.o_name ~start ~bits:s.bits v
  | K_scalar64 s ->
    let v = read_int ~path:op.o_path r ~bits:s.bits ~endian:s.endian in
    (match s.check with
    | W_none -> ()
    | W_const c ->
      if not (Int64.equal v c) then
        fail (Const_mismatch { path = op.o_path; expected = c; actual = v })
    | W_enum cases ->
      if not (List.exists (fun (_, c) -> Int64.equal c v) cases) then
        fail (Enum_unknown { path = op.o_path; value = v }));
    apply_constraints ~path:op.o_path s.constraints v;
    if op.o_val then scope.vals <- (op.o_name, v) :: scope.vals;
    set_scalar ctx op.o_name ~start ~bits:s.bits ~endian:s.endian v
  | K_bool ->
    let b =
      match B.Reader.read_bit r with
      | b -> b
      | exception B.Error e -> fail (Io { path = op.o_path; error = e })
    in
    if op.o_val then scope.vals <- (op.o_name, if b then 1L else 0L) :: scope.vals;
    let e = push ctx.view in
    set_name e op.o_name;
    e.kind <- k_bool;
    e.ival <- (if b then 1 else 0);
    e.voff <- start;
    e.vlen <- 1;
    e.stop <- ctx.view.n
  | K_computed c ->
    if c.bits <= 62 then begin
      let v =
        match B.Reader.read_bits_int r ~width:c.bits with
        | i -> if c.little then bswap_int ~bits:c.bits i else i
        | exception B.Error e -> fail (Io { path = op.o_path; error = e })
      in
      if op.o_val then scope.vals <- (op.o_name, Int64.of_int v) :: scope.vals;
      ctx.deferred <-
        (fun () ->
          let expected =
            eval ~path:op.o_path ~msg_bits:ctx.view.msg_bits scope c.expr
          in
          if not (Int64.equal expected (Int64.of_int v)) then
            fail
              (Computed_mismatch
                 { path = op.o_path; expected; actual = Int64.of_int v }))
        :: ctx.deferred;
      set_scalar_int ctx op.o_name ~start ~bits:c.bits v
    end
    else begin
      let v = read_int ~path:op.o_path r ~bits:c.bits ~endian:c.endian in
      if op.o_val then scope.vals <- (op.o_name, v) :: scope.vals;
      ctx.deferred <-
        (fun () ->
          let expected =
            eval ~path:op.o_path ~msg_bits:ctx.view.msg_bits scope c.expr
          in
          if not (Int64.equal expected v) then
            fail (Computed_mismatch { path = op.o_path; expected; actual = v }))
        :: ctx.deferred;
      set_scalar ctx op.o_name ~start ~bits:c.bits ~endian:c.endian v
    end
  | K_checksum c ->
    let v =
      match B.Reader.read_bits_int r ~width:c.bits with
      | v -> v
      | exception B.Error e -> fail (Io { path = op.o_path; error = e })
    in
    let own_span = (start, c.bits) in
    ctx.deferred <-
      (fun () ->
        let rbits =
          region_bits ~path:op.o_path ~base_bits:ctx.view.base_bits
            ~msg_bits:ctx.view.msg_bits scope c.region ~own_span ~record_end
        in
        let expected =
          compute_checksum ~path:op.o_path ~algorithm:c.alg ~data:ctx.view.data
            ~region_bits:rbits ~own_span
        in
        if not (Int64.equal expected (Int64.of_int v)) then
          fail
            (Checksum_mismatch
               { path = op.o_path; expected; actual = Int64.of_int v }))
      :: ctx.deferred;
    if op.o_val then scope.vals <- (op.o_name, Int64.of_int v) :: scope.vals;
    set_scalar_int ctx op.o_name ~start ~bits:c.bits v
  | K_bytes spec ->
    let e = push ctx.view in
    set_name e op.o_name;
    e.kind <- k_bytes;
    (match spec with
    | L_terminated terminator ->
      (* Consume whole bytes until (and including) the terminator; the
         recorded span excludes it. *)
      let rec scan () =
        let b =
          match B.Reader.read_uint8 r with
          | b -> b
          | exception B.Error err -> fail (Io { path = op.o_path; error = err })
        in
        if b <> terminator then scan ()
      in
      scan ();
      e.voff <- start;
      e.vlen <- B.Reader.bit_pos r - start - 8
    | L_fixed _ | L_expr _ | L_remaining ->
      let n =
        match spec with
        | L_remaining ->
          let rem = B.Reader.bits_remaining r in
          if rem land 7 <> 0 then
            fail
              (Eval_error
                 { path = op.o_path;
                   reason = "remaining input is not a whole number of bytes" })
          else rem / 8
        | L_fixed n -> check_count ~path:op.o_path n
        | L_expr le ->
          positive_len ~path:op.o_path
            (eval ~path:op.o_path ~msg_bits:ctx.view.msg_bits scope le)
        | L_terminated _ -> assert false
      in
      (match B.Reader.skip_bits r (n * 8) with
      | () -> ()
      | exception B.Error err -> fail (Io { path = op.o_path; error = err }));
      e.voff <- start;
      e.vlen <- n * 8);
    e.stop <- ctx.view.n
  | K_array a ->
    let e = push ctx.view in
    set_name e op.o_name;
    e.kind <- k_list;
    e.voff <- start;
    let count = ref 0 in
    let decode_elem sub_r =
      incr count;
      let ee = push ctx.view in
      set_name ee a.elem_name;
      ee.kind <- k_record;
      ee.voff <- B.Reader.bit_pos sub_r;
      let child = new_scope (Some scope) in
      run_prog ctx child a.elem sub_r;
      ee.vlen <- B.Reader.bit_pos sub_r - ee.voff;
      ee.stop <- ctx.view.n
    in
    (match a.length with
    | A_fixed n ->
      let n = check_count ~path:op.o_path n in
      for _ = 1 to n do
        decode_elem r
      done
    | A_expr le ->
      let n =
        positive_len ~path:op.o_path
          (eval ~path:op.o_path ~msg_bits:ctx.view.msg_bits scope le)
      in
      for _ = 1 to n do
        decode_elem r
      done
    | A_bytes le ->
      let nbytes =
        positive_len ~path:op.o_path
          (eval ~path:op.o_path ~msg_bits:ctx.view.msg_bits scope le)
      in
      let w =
        match B.Reader.sub_window r ~bit_len:(nbytes * 8) with
        | w -> w
        | exception B.Error err -> fail (Io { path = op.o_path; error = err })
      in
      while not (B.Reader.at_end w) do
        decode_elem w
      done
    | A_remaining ->
      while not (B.Reader.at_end r) do
        decode_elem r
      done);
    e.ival <- !count;
    e.vlen <- B.Reader.bit_pos r - start;
    e.stop <- ctx.view.n
  | K_record body ->
    let e = push ctx.view in
    set_name e op.o_name;
    e.kind <- k_record;
    e.voff <- start;
    let child = new_scope (Some scope) in
    run_prog ctx child body r;
    e.vlen <- B.Reader.bit_pos r - start;
    e.stop <- ctx.view.n
  | K_variant vr ->
    let tag_value =
      match lookup_val scope vr.tag with
      | Some v -> v
      | None ->
        fail
          (Eval_error
             { path = op.o_path;
               reason = Printf.sprintf "variant tag %S not in scope" vr.tag })
    in
    let e = push ctx.view in
    set_name e op.o_name;
    e.kind <- k_variant;
    e.voff <- start;
    let body case_name sub =
      if e.sval != case_name then e.sval <- case_name;
      let child = new_scope (Some scope) in
      run_prog ctx child sub r
    in
    (match List.find_opt (fun (_, v, _) -> Int64.equal v tag_value) vr.cases with
    | Some (case_name, _, sub) -> body case_name sub
    | None -> (
      match vr.default with
      | Some sub -> body "default" sub
      | None -> fail (Variant_unknown_tag { path = op.o_path; value = tag_value })));
    e.vlen <- B.Reader.bit_pos r - start;
    e.stop <- ctx.view.n
  | K_padding bits -> (
    match B.Reader.skip_bits r bits with
    | () -> ()
    | exception B.Error e -> fail (Io { path = op.o_path; error = e }))
  | K_invalid reason -> fail (Eval_error { path = op.o_path; reason }));
  if op.o_span then
    scope.spans <- (op.o_name, (start, B.Reader.bit_pos r - start)) :: scope.spans

let decode ?(allow_trailing = false) t ?(off = 0) ?len data =
  let len =
    match len with
    | None -> String.length data - off
    | Some l -> l
  in
  if off < 0 || len < 0 || off + len > String.length data then
    invalid_arg "View.decode: window out of bounds";
  t.data <- data;
  t.base_bits <- off * 8;
  t.msg_bits <- len * 8;
  t.n <- 0;
  match
    let r = B.Reader.of_string ~bit_off:(off * 8) ~bit_len:(len * 8) data in
    let ctx = { view = t; deferred = [] } in
    let scope = new_scope None in
    run_prog ctx scope t.prog r;
    List.iter (fun check -> check ()) (List.rev ctx.deferred);
    let rem = B.Reader.bits_remaining r in
    let padding_only () =
      rem < 8 && Int64.equal (B.Reader.read_bits r ~width:rem) 0L
    in
    if (not allow_trailing) && rem > 0 && not (padding_only ()) then
      fail (Trailing_input { bits = rem })
  with
  | () -> Ok ()
  | exception Codec.Error e ->
    t.n <- 0;
    Result.Error (outward_error e)

let of_string ?allow_trailing fmt data =
  let t = create fmt in
  match decode ?allow_trailing t data with
  | Ok () -> Ok t
  | Error e -> Result.Error e

(* ------------------------------------------------------------------ *)
(* Access *)

let reread_int t (e : entry) =
  let r = B.Reader.of_string ~bit_off:e.voff ~bit_len:e.vlen t.data in
  of_wire ~bits:e.vlen ~endian:(flag_endian e.ival) (B.Reader.read_bits r ~width:e.vlen)

let entry_int t (e : entry) =
  if e.kind = k_int || e.kind = k_bool then Int64.of_int e.ival
  else if e.kind = k_int_wide then reread_int t e
  else invalid_arg (Printf.sprintf "View: field %S is not a scalar" e.name)

let extract_bytes t ~bit_off ~bit_len =
  if bit_len land 7 = 0 && bit_off land 7 = 0 then
    String.sub t.data (bit_off / 8) (bit_len / 8)
  else begin
    let r = B.Reader.of_string ~bit_off ~bit_len t.data in
    String.init (bit_len / 8) (fun _ -> Char.chr (B.Reader.read_uint8 r))
  end

let entry_bytes t (e : entry) =
  if e.kind = k_bytes then extract_bytes t ~bit_off:e.voff ~bit_len:e.vlen
  else invalid_arg (Printf.sprintf "View: field %S is not bytes" e.name)

let find_entry t name =
  let rec go i =
    if i >= t.n then None
    else
      let e = t.entries.(i) in
      if String.equal e.name name then Some e else go e.stop
  in
  go 0

let get_entry t name =
  match find_entry t name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "View: no top-level field %S" name)

let find_int t name = Option.map (entry_int t) (find_entry t name)
let get_int t name = entry_int t (get_entry t name)
let get_bool t name = (get_entry t name).ival <> 0
let get_bytes t name = entry_bytes t (get_entry t name)

let find_span t name =
  match find_entry t name with
  | Some e when e.kind = k_bytes -> Some (e.voff, e.vlen)
  | Some _ | None -> None

let variant_case t name =
  match find_entry t name with
  | Some e when e.kind = k_variant -> Some e.sval
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Materialization: rebuild the Value.t that Codec.decode would have
   produced (used by the equivalence tests and by callers that want to
   leave the zero-copy world). *)

let to_value t =
  (* Consumes entries [i, stop) of a record body, returning the fields. *)
  let rec fields i stop =
    if i >= stop then []
    else
      let e = t.entries.(i) in
      (e.name, value_at i) :: fields e.stop stop
  and value_at i =
    let e = t.entries.(i) in
    if e.kind = k_int || e.kind = k_int_wide then Value.Int (entry_int t e)
    else if e.kind = k_bool then Value.Bool (e.ival <> 0)
    else if e.kind = k_bytes then Value.Bytes (entry_bytes t e)
    else if e.kind = k_record then Value.Record (fields (i + 1) e.stop)
    else if e.kind = k_list then begin
      let rec elems i stop =
        if i >= stop then []
        else
          let ee = t.entries.(i) in
          Value.Record (fields (i + 1) ee.stop) :: elems ee.stop stop
      in
      Value.List (elems (i + 1) e.stop)
    end
    else (* k_variant *)
      Value.Variant (e.sval, Value.Record (fields (i + 1) e.stop))
  in
  Value.Record (fields 0 t.n)

(* ------------------------------------------------------------------ *)
(* Key extraction: a precompiled reader for a scalar field that sits at a
   fixed offset in every message of the format — the cheap flow-sharding
   hash input (no decode needed). *)

type key_extractor = { k_bit_off : int; k_bits : int; k_endian : Desc.endian }

let scalar_width (f : Desc.field) =
  match f.ty with
  | Uint { bits; endian } | Const { bits; endian; _ }
  | Enum { bits; endian; _ } | Computed { bits; endian; _ } ->
    Some (bits, endian)
  | Checksum { algorithm; _ } -> Some (Ck.width_bits algorithm, Desc.Big)
  | Bool_flag -> Some (1, Desc.Big)
  | Bytes _ | Array _ | Record _ | Variant _ | Padding _ -> None

let key_extractor fmt name =
  match Desc.find_field fmt name with
  | None -> Result.Error (Printf.sprintf "no top-level field %S" name)
  | Some f -> (
    match scalar_width f with
    | Some (bits, endian) when bits <= 62 -> (
      match Sizing.fixed_field_span fmt name with
      | Ok (off, _) -> Ok { k_bit_off = off; k_bits = bits; k_endian = endian }
      | Error _ as e -> e)
    | Some _ -> Result.Error (Printf.sprintf "field %S is too wide for a key" name)
    | None -> Result.Error (Printf.sprintf "field %S is not a scalar" name))

let extract_key ke ?(off = 0) data =
  let bit_off = (off * 8) + ke.k_bit_off in
  if bit_off + ke.k_bits > String.length data * 8 then None
  else
    let r = B.Reader.of_string ~bit_off data in
    let raw = B.Reader.read_bits r ~width:ke.k_bits in
    Some (Int64.to_int (of_wire ~bits:ke.k_bits ~endian:ke.k_endian raw))

(* MSB-first native-int bit read for the steering fast path; bounds
   already checked by the caller.  Same logic as [Hot.read_narrow]. *)
let rec key_read_bits s pos width =
  if width <= 56 then begin
    let first = pos lsr 3 in
    let last = (pos + width - 1) lsr 3 in
    let drop = pos land 7 in
    let acc = ref (Char.code (String.unsafe_get s first) land (0xFF lsr drop)) in
    for i = first + 1 to last do
      acc := (!acc lsl 8) lor Char.code (String.unsafe_get s i)
    done;
    !acc lsr ((8 - ((pos + width) land 7)) land 7)
  end
  else
    let hiw = width - 32 in
    (key_read_bits s pos hiw lsl 32) lor key_read_bits s (pos + hiw) 32

let no_key = min_int

let key_layout ke = (ke.k_bit_off, ke.k_bits, ke.k_endian)

let key_min_bytes ke = (ke.k_bit_off + ke.k_bits + 7) lsr 3

let extract_key_int ke ?(off = 0) data =
  let bit_off = (off * 8) + ke.k_bit_off in
  if bit_off + ke.k_bits > String.length data * 8 then no_key
  else
    let v = key_read_bits data bit_off ke.k_bits in
    match ke.k_endian with
    | Desc.Big -> v
    | Desc.Little -> bswap_int ~bits:ke.k_bits v

(* ------------------------------------------------------------------ *)
(* Hot: a fused, demand-driven decoder for linear formats.

   [Hot.compile] lowers the same compiled op array a second time, into a
   flat program over preallocated native-int register/span/pending files:
   no [View.t] entry table, no scope assoc lists, no deferred-check
   closures, no reader record — a successful steady-state [run] allocates
   nothing.  Every check the interpreted decoder performs is preserved
   (constants, enum exhaustiveness, constraints, computed fields,
   checksums, trailing bits), only collapsed to a verdict: the accept set
   is exactly [View.decode]'s, which the differential oracle enforces over
   the corpus and fuzz mutants.

   Only formats whose top level is a straight line of scalar-ish fields
   qualify (no arrays/records/variants — no nested scopes), and only when
   every expression provably stays inside native-int-exact arithmetic;
   anything else returns [Error] and callers fall back to the interpreted
   view. *)

module Hot = struct
  exception Reject

  type hot = {
    hp : hop array;
    hdefs : hdef array;
    hregs : int array; (* latest value of each referenced/demanded field *)
    hpend : int array; (* raw values of deferred (computed/checksum) fields *)
    hpoff : int array; (* their own absolute bit offsets, per packet *)
    hsoff : int array; (* span bit offsets *)
    hslen : int array; (* span bit lengths *)
    hdemand : (string * int) array; (* demanded field -> register *)
    hsdemand : (string * int) array; (* demanded span -> span slot *)
    helig : string list;
    mutable hbase : int; (* window start, bits *)
    mutable hbits : int; (* window length, bits *)
    mutable hend : int; (* parse end position, bits *)
  }

  and iexpr = hot -> int

  and hop = { hreg : int; hspan : int; hk : hkind }

  and hkind =
    | H_scalar of {
        sbits : int;
        slittle : bool;
        scheck : hcheck;
        scons : hcon array;
      }
    | H_wide of {
        wbits : int;
        wendian : Desc.endian;
        wcheck : wide_check;
        wcons : Desc.constr list;
      }
    | H_bool
    | H_deferred of { dbits : int; dlittle : bool; dpend : int }
    | H_bytes_fixed of int (* byte count *)
    | H_bytes_expr of iexpr
    | H_bytes_remaining
    | H_bytes_terminated of int
    | H_padding of int

  and hcheck = HS_none | HS_const of int | HS_enum of int array
  and hcon = HC_range of int * int | HC_oneof of int array | HC_ne of int

  and hdef =
    | HD_computed of { cpend : int; cexpr : iexpr }
    | HD_checksum of {
        kpend : int;
        kbits : int;
        kalg : Ck.algorithm;
        kregion : hregion;
      }

  and hregion = HR_message | HR_rest | HR_span of int * int | HR_unknown

  type t = hot

  (* MSB-first bit read returning a native int; bounds already checked. *)
  let rec read_narrow s pos width =
    if width = 0 then 0
    else if width <= 56 then begin
      let first = pos lsr 3 in
      let last = (pos + width - 1) lsr 3 in
      let drop = pos land 7 in
      let acc = ref (Char.code (String.unsafe_get s first) land (0xFF lsr drop)) in
      for i = first + 1 to last do
        acc := (!acc lsl 8) lor Char.code (String.unsafe_get s i)
      done;
      !acc lsr ((8 - ((pos + width) land 7)) land 7)
    end
    else
      let hiw = width - 32 in
      (read_narrow s pos hiw lsl 32) lor read_narrow s (pos + hiw) 32

  let read_wide s pos width =
    if width <= 62 then Int64.of_int (read_narrow s pos width)
    else
      let hiw = width - 32 in
      Int64.logor
        (Int64.shift_left (Int64.of_int (read_narrow s pos hiw)) 32)
        (Int64.of_int (read_narrow s (pos + hiw) 32))

  let wcon_ok (c : Desc.constr) v =
    match c with
    | Desc.In_range (lo, hi) ->
      Int64.compare lo v <= 0 && Int64.compare v hi <= 0
    | Desc.One_of vs -> List.exists (Int64.equal v) vs
    | Desc.Not_equal x -> not (Int64.equal v x)

  (* Narrow constraints against a value in [0, 2^62): endpoints outside
     that window become always-true / unsatisfiable at compile time, the
     same classification [narrow_const] applies to constants. *)
  let compile_con (c : Desc.constr) =
    match c with
    | Desc.In_range (lo, hi) ->
      if
        Int64.compare lo (Int64.of_int max_int) > 0 || Int64.compare hi 0L < 0
      then Some (HC_range (1, 0)) (* unsatisfiable *)
      else
        let lo' = if Int64.compare lo 0L <= 0 then 0 else Int64.to_int lo in
        let hi' =
          if Int64.compare hi (Int64.of_int max_int) >= 0 then max_int
          else Int64.to_int hi
        in
        Some (HC_range (lo', hi'))
    | Desc.One_of vs -> Some (HC_oneof (Array.of_list (narrow_enum_cases (List.map (fun v -> ("", v)) vs))))
    | Desc.Not_equal v -> if fits_narrow v then Some (HC_ne (Int64.to_int v)) else None

  (* Expression bounds, tracked as floats with a 4x safety margin under
     the 2^62 wrap point: a node whose worst-case magnitude stays below
     2^60 can never make 63-bit arithmetic disagree with int64. *)
  let bound_limit = ldexp 1. 60

  let compile ?(demand = []) ?(span_demand = []) (fmt : Desc.t) =
    let vn, sn = collect_refs fmt in
    let vn = List.sort_uniq compare (demand @ vn) in
    let sn = List.sort_uniq compare (span_demand @ sn) in
    let ops = compile_fields ~vn ~sn [] fmt.Desc.fields in
    let nops = Array.length ops in
    let err = ref None in
    let fail_ msg = if !err = None then err := Some msg in
    let op_width (op : op) =
      match op.o_k with
      | K_scalar s -> s.bits
      | K_bool -> 1
      | K_computed c -> c.bits
      | K_checksum c -> c.bits
      | _ -> 0
    in
    let intish (op : op) =
      match op.o_k with
      | K_scalar _ | K_bool | K_checksum _ -> true
      | K_computed c -> c.bits <= 62
      | _ -> false
    in
    (* slot assignment; binding lists are consed newest-first so the first
       match below a cutoff is the latest earlier binding, mirroring scope
       shadowing in the interpreted decoder *)
    let nregs = ref 0 and nspans = ref 0 and npend = ref 0 in
    let reg_binds = ref [] and span_binds = ref [] in
    let reg_of = Array.make (max 1 nops) (-1) in
    let span_of = Array.make (max 1 nops) (-1) in
    Array.iteri
      (fun i (op : op) ->
        (match op.o_k with
        | K_array _ | K_record _ | K_variant _ ->
          fail_ "format is not linear (nested containers)"
        | K_invalid _ -> fail_ "format has an invalid field"
        | K_scalar64 _ when op.o_val ->
          fail_ "a wide (> 62 bit) field value is referenced"
        | K_computed c when c.bits > 62 ->
          fail_ "wide computed field"
        | _ -> ());
        if op.o_val && intish op then begin
          reg_of.(i) <- !nregs;
          reg_binds := (op.o_name, i, !nregs, op_width op) :: !reg_binds;
          incr nregs
        end;
        if op.o_span then begin
          span_of.(i) <- !nspans;
          span_binds := (op.o_name, i, !nspans) :: !span_binds;
          incr nspans
        end)
      ops;
    let lookup_reg ~before name =
      List.find_map
        (fun (n, i, slot, w) ->
          if i < before && String.equal n name then Some (slot, w) else None)
        !reg_binds
    in
    let lookup_span ~before name =
      List.find_map
        (fun (n, i, slot) ->
          if i < before && String.equal n name then Some slot else None)
        !span_binds
    in
    let reject_expr : iexpr = fun _ -> raise Reject in
    let ck lo hi =
      if Float.abs lo >= bound_limit || Float.abs hi >= bound_limit then
        fail_ "expression escapes native-int-exact bounds"
    in
    let rec cexpr ~before (e : Desc.expr) : iexpr * float * float =
      match e with
      | Desc.Const v ->
        let f = Int64.to_float v in
        ck f f;
        let c = if Float.abs f < bound_limit then Int64.to_int v else 0 in
        ((fun _ -> c), f, f)
      | Desc.Field name -> (
        match lookup_reg ~before name with
        | Some (slot, w) ->
          ((fun h -> Array.unsafe_get h.hregs slot), 0., ldexp 1. w -. 1.)
        | None ->
          (* the interpreted eval fails with "unknown field" exactly when
             this expression is evaluated: same verdict, same moment *)
          (reject_expr, 0., 0.))
      | Desc.Byte_len name -> (
        match lookup_span ~before name with
        | Some slot ->
          ( (fun h ->
              let bl = Array.unsafe_get h.hslen slot in
              if bl land 7 <> 0 then raise Reject else bl lsr 3),
            0.,
            ldexp 1. 52 )
        | None -> (reject_expr, 0., 0.))
      | Desc.Msg_len -> ((fun h -> h.hbits lsr 3), 0., ldexp 1. 52)
      | Desc.Add (a, b) ->
        let fa, alo, ahi = cexpr ~before a in
        let fb, blo, bhi = cexpr ~before b in
        let lo = alo +. blo and hi = ahi +. bhi in
        ck lo hi;
        ((fun h -> fa h + fb h), lo, hi)
      | Desc.Sub (a, b) ->
        let fa, alo, ahi = cexpr ~before a in
        let fb, blo, bhi = cexpr ~before b in
        let lo = alo -. bhi and hi = ahi -. blo in
        ck lo hi;
        ((fun h -> fa h - fb h), lo, hi)
      | Desc.Mul (a, b) ->
        let fa, alo, ahi = cexpr ~before a in
        let fb, blo, bhi = cexpr ~before b in
        let p1 = alo *. blo and p2 = alo *. bhi and p3 = ahi *. blo
        and p4 = ahi *. bhi in
        let lo = Float.min (Float.min p1 p2) (Float.min p3 p4) in
        let hi = Float.max (Float.max p1 p2) (Float.max p3 p4) in
        ck lo hi;
        ((fun h -> fa h * fb h), lo, hi)
      | Desc.Div (a, b) ->
        let fa, alo, ahi = cexpr ~before a in
        let fb, _, _ = cexpr ~before b in
        let m = Float.max (Float.abs alo) (Float.abs ahi) in
        ck (-.m) m;
        ( (fun h ->
            let d = fb h in
            if d = 0 then raise Reject else fa h / d),
          -.m,
          m )
    in
    let defs = ref [] in
    let hops =
      Array.mapi
        (fun i (op : op) ->
          let hk =
            match op.o_k with
            | K_scalar s ->
              let scheck =
                match s.check with
                | C_none -> HS_none
                | C_const (c, _) -> HS_const c
                | C_enum cs -> HS_enum (Array.of_list cs)
              in
              H_scalar
                {
                  sbits = s.bits;
                  slittle = s.little;
                  scheck;
                  scons =
                    Array.of_list (List.filter_map compile_con s.constraints);
                }
            | K_scalar64 s ->
              H_wide
                {
                  wbits = s.bits;
                  wendian = s.endian;
                  wcheck = s.check;
                  wcons = s.constraints;
                }
            | K_bool -> H_bool
            | K_computed c ->
              let p = !npend in
              incr npend;
              let cexpr', _, _ = cexpr ~before:nops c.expr in
              defs := HD_computed { cpend = p; cexpr = cexpr' } :: !defs;
              H_deferred { dbits = c.bits; dlittle = c.little; dpend = p }
            | K_checksum c ->
              let p = !npend in
              incr npend;
              let kregion =
                match c.region with
                | Desc.Region_message -> HR_message
                | Desc.Region_rest -> HR_rest
                | Desc.Region_span (a, b) -> (
                  match
                    (lookup_span ~before:nops a, lookup_span ~before:nops b)
                  with
                  | Some sa, Some sb -> HR_span (sa, sb)
                  | _ -> HR_unknown)
              in
              defs :=
                HD_checksum { kpend = p; kbits = c.bits; kalg = c.alg; kregion }
                :: !defs;
              H_deferred { dbits = c.bits; dlittle = false; dpend = p }
            | K_bytes (L_fixed n) ->
              if n < 0 || n > Sys.max_string_length then H_bytes_expr reject_expr
              else H_bytes_fixed n
            | K_bytes (L_expr e) ->
              let f, _, _ = cexpr ~before:i e in
              H_bytes_expr f
            | K_bytes L_remaining -> H_bytes_remaining
            | K_bytes (L_terminated term) -> H_bytes_terminated term
            | K_padding bits -> H_padding bits
            | K_array _ | K_record _ | K_variant _ | K_invalid _ -> H_padding 0
          in
          { hreg = reg_of.(i); hspan = span_of.(i); hk })
        ops
    in
    let demand_slots =
      List.map
        (fun name ->
          match lookup_reg ~before:nops name with
          | Some (slot, _) -> (name, slot)
          | None ->
            fail_ (Printf.sprintf "demanded field %S is not extractable" name);
            (name, -1))
        demand
    in
    let span_demand_slots =
      List.map
        (fun name ->
          match lookup_span ~before:nops name with
          | Some slot -> (name, slot)
          | None ->
            fail_ (Printf.sprintf "demanded span %S is not extractable" name);
            (name, -1))
        span_demand
    in
    match !err with
    | Some msg -> Result.Error msg
    | None ->
      Ok
        {
          hp = hops;
          hdefs = Array.of_list (List.rev !defs);
          hregs = Array.make (max 1 !nregs) 0;
          hpend = Array.make (max 1 !npend) 0;
          hpoff = Array.make (max 1 !npend) 0;
          hsoff = Array.make (max 1 !nspans) 0;
          hslen = Array.make (max 1 !nspans) 0;
          hdemand = Array.of_list demand_slots;
          hsdemand = Array.of_list span_demand_slots;
          helig =
            List.filter_map
              (fun (op : op) -> if intish op then Some op.o_name else None)
              (Array.to_list ops);
          hbase = 0;
          hbits = 0;
          hend = 0;
        }

  let eligible_fields fmt =
    match compile fmt with Error _ -> [] | Ok h -> h.helig

  let demand_slot h name =
    let rec go i =
      if i >= Array.length h.hdemand then
        invalid_arg (Printf.sprintf "View.Hot: field %S was not demanded" name)
      else
        let n, slot = h.hdemand.(i) in
        if String.equal n name then slot else go (i + 1)
    in
    go 0

  let get h slot = Array.unsafe_get h.hregs slot

  let span_slot h name =
    let rec go i =
      if i >= Array.length h.hsdemand then
        invalid_arg (Printf.sprintf "View.Hot: span %S was not demanded" name)
      else
        let n, slot = h.hsdemand.(i) in
        if String.equal n name then slot else go (i + 1)
    in
    go 0

  (* Absolute bit offset/length (within the decoded string, not the
     window) of a demanded span, from the last accepting [run]. *)
  let span_off h slot = Array.unsafe_get h.hsoff slot
  let span_len h slot = Array.unsafe_get h.hslen slot
  let parse_end_bits h = h.hend

  (* Raw scalar read used by the stack dispatcher to peek a variant tag
     before choosing a per-case plan; bounds must be pre-checked. *)
  let read_scalar (data : string) ~bit_off ~bits ~little =
    let v = read_narrow data bit_off bits in
    if little then bswap_int ~bits v else v

  (* Non-optional window variant: the fused per-packet path calls this so
     the call site allocates no [Some len]. *)
  let run_window h ~off ~len (data : string) =
    if off < 0 || len < 0 || off + len > String.length data then
      invalid_arg "View.Hot.run: window out of bounds";
    h.hbase <- off * 8;
    h.hbits <- len * 8;
    let endb = h.hbase + h.hbits in
    match
      let pos = ref h.hbase in
      let prog = h.hp in
      for i = 0 to Array.length prog - 1 do
        let op = Array.unsafe_get prog i in
        let start = !pos in
        (match op.hk with
        | H_scalar sc ->
          if start + sc.sbits > endb then raise Reject;
          let v0 = read_narrow data start sc.sbits in
          let v = if sc.slittle then bswap_int ~bits:sc.sbits v0 else v0 in
          pos := start + sc.sbits;
          (match sc.scheck with
          | HS_none -> ()
          | HS_const c -> if v <> c then raise Reject
          | HS_enum cs ->
            let n = Array.length cs in
            let j = ref 0 in
            while !j < n && Array.unsafe_get cs !j <> v do
              incr j
            done;
            if !j >= n then raise Reject);
          let cons = sc.scons in
          for ci = 0 to Array.length cons - 1 do
            match Array.unsafe_get cons ci with
            | HC_range (lo, hi) -> if v < lo || v > hi then raise Reject
            | HC_oneof a ->
              let n = Array.length a in
              let j = ref 0 in
              while !j < n && Array.unsafe_get a !j <> v do
                incr j
              done;
              if !j >= n then raise Reject
            | HC_ne x -> if v = x then raise Reject
          done;
          if op.hreg >= 0 then Array.unsafe_set h.hregs op.hreg v
        | H_wide w ->
          if start + w.wbits > endb then raise Reject;
          let v =
            of_wire ~bits:w.wbits ~endian:w.wendian (read_wide data start w.wbits)
          in
          pos := start + w.wbits;
          (match w.wcheck with
          | W_none -> ()
          | W_const c -> if not (Int64.equal v c) then raise Reject
          | W_enum cases ->
            if not (List.exists (fun (_, c) -> Int64.equal c v) cases) then
              raise Reject);
          List.iter (fun c -> if not (wcon_ok c v) then raise Reject) w.wcons
        | H_bool ->
          if start + 1 > endb then raise Reject;
          let v =
            (Char.code (String.unsafe_get data (start lsr 3))
            lsr (7 - (start land 7)))
            land 1
          in
          pos := start + 1;
          if op.hreg >= 0 then Array.unsafe_set h.hregs op.hreg v
        | H_deferred d ->
          if start + d.dbits > endb then raise Reject;
          let v0 = read_narrow data start d.dbits in
          let v = if d.dlittle then bswap_int ~bits:d.dbits v0 else v0 in
          pos := start + d.dbits;
          Array.unsafe_set h.hpend d.dpend v;
          Array.unsafe_set h.hpoff d.dpend start;
          if op.hreg >= 0 then Array.unsafe_set h.hregs op.hreg v
        | H_bytes_fixed n ->
          let bits = n * 8 in
          if start + bits > endb then raise Reject;
          pos := start + bits
        | H_bytes_expr f ->
          let n = f h in
          if n < 0 || n > Sys.max_string_length then raise Reject;
          let bits = n * 8 in
          if start + bits > endb then raise Reject;
          pos := start + bits
        | H_bytes_remaining ->
          let rem = endb - start in
          if rem land 7 <> 0 then raise Reject;
          pos := endb
        | H_bytes_terminated term ->
          let p = ref start in
          let b = ref (term + 1) in
          while !b <> term do
            if !p + 8 > endb then raise Reject;
            b := read_narrow data !p 8;
            p := !p + 8
          done;
          pos := !p
        | H_padding bits ->
          if start + bits > endb then raise Reject;
          pos := start + bits);
        if op.hspan >= 0 then begin
          Array.unsafe_set h.hsoff op.hspan start;
          Array.unsafe_set h.hslen op.hspan (!pos - start)
        end
      done;
      h.hend <- !pos;
      (* deferred checks, in parse order, exactly as the interpreted
         decoder replays its deferred list *)
      let defs = h.hdefs in
      for i = 0 to Array.length defs - 1 do
        match Array.unsafe_get defs i with
        | HD_computed d ->
          if d.cexpr h <> Array.unsafe_get h.hpend d.cpend then raise Reject
        | HD_checksum k ->
          let ooff = Array.unsafe_get h.hpoff k.kpend in
          let roff, rlen =
            match k.kregion with
            | HR_message -> (h.hbase, h.hbits)
            | HR_rest -> (ooff + k.kbits, h.hend - (ooff + k.kbits))
            | HR_span (a, b) ->
              let aoff = Array.unsafe_get h.hsoff a in
              let boff = Array.unsafe_get h.hsoff b
              and blen = Array.unsafe_get h.hslen b in
              if boff + blen < aoff then raise Reject;
              (aoff, boff + blen - aoff)
            | HR_unknown -> raise Reject
          in
          if roff land 7 <> 0 || rlen land 7 <> 0 then raise Reject;
          let actual = Array.unsafe_get h.hpend k.kpend in
          let agrees =
            match k.kalg with
            | Ck.Internet ->
              Ck.internet_zeroed ~off:(roff lsr 3) ~len:(rlen lsr 3)
                ~zero_bit_off:ooff ~zero_bit_len:k.kbits data
              = actual
            | alg ->
              Int64.equal
                (Ck.compute_zeroed alg ~off:(roff lsr 3) ~len:(rlen lsr 3)
                   ~zero_bit_off:ooff ~zero_bit_len:k.kbits data)
                (Int64.of_int actual)
          in
          if not agrees then raise Reject
      done;
      let rem = endb - h.hend in
      if rem > 0 then begin
        if rem >= 8 then raise Reject;
        if read_narrow data h.hend rem <> 0 then raise Reject
      end
    with
    | () -> true
    | exception Reject -> false

  let run h ?(off = 0) ?len (data : string) =
    let len =
      match len with None -> String.length data - off | Some l -> l
    in
    run_window h ~off ~len data

  let length_bytes h = h.hbits lsr 3
end
