(* In-place patching: the encode side of the serve path.

   No serving path builds a whole message from a value: a reply is the
   request blitted into the transmit slot with a few scalar fields
   rewritten.  [patcher] resolves one top-level field's wire offset,
   width, validation and covering Internet checksum once; [patch] then
   rewrites the field in place and updates that checksum incrementally
   (RFC 1624), touching nothing else but the padding bits the codec
   would write as zero, and [kernel] compiles the same rewrite into a
   fixed-offset closure for the fused respond path.  The whole-message encoder is [Codec.encode]; the patch
   is byte-for-byte what decode, mutate and [Codec.encode] would produce
   ([test/test_emit.ml] asserts this for every shipped format). *)

module B = Netdsl_util.Bitio
module Ck = Netdsl_util.Checksum

type error = Codec.error

let fail e = raise (Codec.Error e)

(* The names whose values some expression of [fmt] reads: computed
   lengths, length expressions and variant tags are derived from them, so
   none of them can be patched on its own. *)
let value_refs (fmt : Desc.t) =
  let vals = ref [] in
  let rec expr (e : Desc.expr) =
    match e with
    | Const _ | Msg_len | Byte_len _ -> ()
    | Field n -> vals := n :: !vals
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      expr a;
      expr b
  in
  let rec fields (fmt : Desc.t) = List.iter field fmt.fields
  and field (f : Desc.field) =
    match f.ty with
    | Uint _ | Bool_flag | Const _ | Enum _ | Padding _ | Checksum _ -> ()
    | Computed { expr = e; _ } -> expr e
    | Bytes (Len_expr e | Len_bytes e) -> expr e
    | Bytes (Len_fixed _ | Len_remaining | Len_terminated _) -> ()
    | Array { elem; length } ->
      (match length with
      | Len_expr e | Len_bytes e -> expr e
      | Len_fixed _ | Len_remaining | Len_terminated _ -> ());
      fields elem
    | Record sub -> fields sub
    | Variant { tag; cases; default } ->
      vals := tag :: !vals;
      List.iter (fun (_, _, sub) -> fields sub) cases;
      Option.iter fields default
  in
  fields fmt;
  !vals

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

type fallback =
  | F_none (* region provably never all-zero: delta result is canonical *)
  | F_scan of int (* region start (bytes from message start) .. message end *)

type cks_patch = {
  c_bit_off : int; (* checksum field offset, bits from message start *)
  c_region_start : int; (* region start, bytes from message start *)
  c_fallback : fallback;
}

(* Reserved bits of one byte that the codec writes as zero. *)
type pad = {
  pd_byte : int; (* bytes from message start *)
  pd_clear : int; (* mask of the reserved bits *)
  pd_cks : cks_patch list; (* the checksum covering them, if any *)
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
  pa_pad : pad list; (* the format's padding, cleared by every patch *)
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

(* The codec writes padding as zero, so a patch clears the received
   padding bits too (and repairs the checksum over them).  That needs a
   fixed offset: padding nested in a record, array or variant, or after
   a variable-size field, is refused. *)
let padding (fmt : Desc.t) cover =
  let ( let* ) = Result.bind in
  let is_pad (g : Desc.field) = match g.ty with Desc.Padding _ -> true | _ -> false in
  let nested acc (sub : Desc.t) = acc || (sub != fmt && List.exists is_pad sub.fields) in
  if Desc.fold_formats nested false fmt then Error "format has padding inside a nested field"
  else
    List.fold_left
      (fun acc (g : Desc.field) ->
        let* pads = acc in
        if not (is_pad g) then Ok pads
        else
          let* off, bits =
            Result.map_error
              (fun _ -> Printf.sprintf "padding %S is not at a fixed offset" g.name)
              (Sizing.fixed_field_span fmt g.name)
          in
          let* cks = cover ~what:(Printf.sprintf "padding %S" g.name) off bits in
          (* one entry per byte the padding touches; bits are MSB-first *)
          let byte b =
            let lo = max off (8 * b) and hi = min (off + bits) ((8 * b) + 8) in
            let mask = ((1 lsl (hi - lo)) - 1) lsl ((8 * b) + 8 - hi) in
            { pd_byte = b; pd_clear = mask; pd_cks = cks }
          in
          let first = off / 8 and last = (off + bits - 1) / 8 in
          Ok (pads @ List.init (last - first + 1) (fun k -> byte (first + k))))
      (Ok []) fmt.fields

let patcher (fmt : Desc.t) name =
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
  let* () =
    if List.mem name (value_refs fmt) then
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
  (* [cover ~what off bits]: the checksum patch for a change to bits
     [off, off + bits) of the message, [[]] when no checksum covers them. *)
  let* cover =
    match cks_fields with
    | [] -> Ok (fun ~what:_ _ _ -> Ok [])
    | c :: _ ->
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
      Ok
        (fun ~what off_bits bits ->
          match region with
          | Desc.Region_message ->
            (* Always covers the change; all-zero regions are possible
               unless a nonzero constant is pinned somewhere in the
               message. *)
            if nonzero_const_within fmt 0 max_int then mk 0 F_none
            else mk 0 (F_scan 0)
          | Desc.Region_rest ->
            let cend = coff + cbits in
            if off_bits + bits <= cend then Ok [] (* precedes the region *)
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
              if off_bits + bits <= aoff then Ok [] (* precedes the region *)
              else if off_bits >= aoff && off_bits + bits <= min_end then
                (* Inside the region in every message.  The region's end
                   varies at run time, so there is no scan fallback; demand
                   a pinned nonzero constant instead. *)
                if nonzero_const_within fmt aoff min_end then mk (aoff / 8) F_none
                else
                  Error
                    (Printf.sprintf
                       "checksum region %S..%S may be all-zero; incremental update would be ambiguous"
                       a b)
              else (
                match Sizing.fixed_field_span fmt b with
                | Ok (boff, blen) when off_bits >= boff + blen ->
                  Ok [] (* follows the (fixed) region *)
                | _ ->
                  Error
                    (Printf.sprintf "%s may or may not be covered by the checksum" what))))
  in
  let* cks = cover ~what:(Printf.sprintf "field %S" name) off_bits bits in
  let* pad = padding fmt cover in
  Ok
    { pa_name = name;
      pa_bit_off = off_bits;
      pa_bits = bits;
      pa_endian = endian;
      pa_enum = enum;
      pa_constraints = f.constraints;
      pa_min_bytes = Sizing.min_bytes fmt;
      pa_cks = cks;
      pa_pad = pad }

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

let rec clear_padding ~off ~len buf = function
  | [] -> ()
  | pd :: rest ->
    let i = off + pd.pd_byte in
    let old = Char.code (Bytes.get buf i) in
    let cleared = old land lnot pd.pd_clear in
    if cleared <> old then begin
      Bytes.set buf i (Char.unsafe_chr cleared);
      patch_cks ~off ~len ~fbyte:i ~nbytes:1 ~oldw:old ~wire:cleared buf pd.pd_cks
    end;
    clear_padding ~off ~len buf rest

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
    (if p.pa_bits <= 56 then begin
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
      (* Validate the new value exactly as [Codec.encode] would. *)
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
    end);
    clear_padding ~off ~len buf p.pa_pad
  with
  | () -> Ok ()
  | exception Codec.Error e -> Result.Error e

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
    let k =
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
    in
    (* Padding is cleared after the field's own checksum update, which
       leaves a canonical checksum for the bytes in between. *)
    match p.pa_pad with
    | [] -> k
    | pads -> fun buf off len v -> k buf off len v && (clear_padding ~off ~len buf pads; true)

let patch p ?(off = 0) ?len buf v =
  let len = match len with None -> Bytes.length buf - off | Some l -> l in
  patch_window p ~off ~len buf v

let patch_exn p ?off ?len buf v =
  match patch p ?off ?len buf v with Ok () -> () | Error e -> raise (Codec.Error e)
