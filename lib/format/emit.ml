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

let apply_constraints ~path constraints value =
  let ok = function
    | Desc.In_range (lo, hi) -> Int64.compare lo value <= 0 && Int64.compare value hi <= 0
    | Desc.One_of vs -> List.exists (Int64.equal value) vs
    | Desc.Not_equal v -> not (Int64.equal value v)
  in
  List.iter
    (fun c -> if not (ok c) then fail (Constraint_violation { path; constr = c; value }))
    constraints

let to_wire ~bits ~endian v =
  match endian with Desc.Big -> v | Desc.Little -> Sizing.swap_bytes64 ~bits v

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
  pa_shape : Sizing.shape; (* the values it admits, for [kernel] *)
  pa_min_bytes : int; (* any valid message is at least this long *)
  pa_cks : cks_patch list;
  pa_pad : pad list; (* the format's padding, cleared by every patch *)
}

let patcher_field p = p.pa_name

let is_checksum (g : Desc.field) = match g.ty with Desc.Checksum _ -> true | _ -> false
let is_pad (g : Desc.field) = match g.ty with Desc.Padding _ -> true | _ -> false

(* Whether a format nested in [fmt] has a field [p] holds for. *)
let nested p (fmt : Desc.t) =
  Desc.fold_formats (fun acc sub -> acc || (sub != fmt && List.exists p sub.Desc.fields)) false fmt

(* [cover ~what off bits]: the checksum patch for a change to bits
   [off, off + bits) of the message, [[]] when no checksum covers them.
   Every checksum lives at the top level (nested ones cannot be updated
   without a decode) and there is at most one (regions of several could
   include each other's stored values). *)
let cover (fmt : Desc.t) (lay : Sizing.layout) =
  let ( let* ) = Result.bind in
  let* () =
    if nested is_checksum fmt then Error "format has a checksum inside a nested field" else Ok ()
  in
  match List.filter is_checksum fmt.fields with
  | [] -> Ok (fun ~what:_ _ _ -> Ok [])
  | _ :: _ :: _ -> Error "format has several checksum fields"
  | [ c ] ->
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
    let* coff, cbits = Sizing.span lay c.name in
    let* () =
      if coff land 7 <> 0 then Error (Printf.sprintf "checksum field %S is not byte-aligned" c.name)
      else Ok ()
    in
    (* A nonzero constant at a fixed offset inside [lo, hi) bits keeps the
       summed region from ever being all-zero, so an incremental result
       of 0 is canonical (the ones'-complement ±0 ambiguity cannot
       arise); otherwise a scan from the region start decides. *)
    let pinned lo hi =
      List.exists
        (fun (e : Sizing.entry) ->
          match (e.shape, e.off, e.width) with
          | Some { kind = Const; admitted = [ (v, _) ]; _ }, Some o, Some m ->
            (not (Int64.equal v 0L)) && o >= lo && o + m <= hi
          | _ -> false)
        lay
    in
    let mk region_start fallback =
      Ok [ { c_bit_off = coff; c_region_start = region_start; c_fallback = fallback } ]
    in
    let scan lo start = mk start (if pinned lo max_int then F_none else F_scan start) in
    Ok
      (fun ~what off_bits bits ->
        match region with
        | Desc.Region_message -> scan 0 0
        | Desc.Region_rest ->
          let cend = coff + cbits in
          if off_bits + bits <= cend then Ok [] (* precedes the region *)
          else if cend land 7 <> 0 then
            Error (Printf.sprintf "checksum region after %S is not byte-aligned" c.name)
          else scan cend (cend / 8)
        | Desc.Region_span (a, b) -> (
          let* aoff, _ = Sizing.span lay a in
          let* () =
            if aoff land 7 <> 0 then
              Error (Printf.sprintf "checksum region start %S is not byte-aligned" a)
            else Ok ()
          in
          match Sizing.find lay b with
          | None -> Error (Printf.sprintf "checksum span: unknown field %S" b)
          | Some { min_end; _ } ->
            if off_bits + bits <= aoff then Ok [] (* precedes the region *)
            else if off_bits >= aoff && off_bits + bits <= min_end then
              (* Inside the region in every message.  The region's end
                 varies at run time, so there is no scan fallback; demand
                 a pinned nonzero constant instead. *)
              if pinned aoff min_end then mk (aoff / 8) F_none
              else
                Error
                  (Printf.sprintf
                     "checksum region %S..%S may be all-zero; incremental update would be ambiguous"
                     a b)
            else (
              match Sizing.span lay b with
              | Ok (boff, blen) when off_bits >= boff + blen ->
                Ok [] (* follows the (fixed) region *)
              | _ ->
                Error (Printf.sprintf "%s may or may not be covered by the checksum" what))))

(* The codec writes padding as zero, so a patch clears the received
   padding bits too (and repairs the checksum over them).  That needs a
   fixed offset: padding nested in a record, array or variant, or after
   a variable-size field, is refused. *)
let pads (fmt : Desc.t) lay cover =
  let ( let* ) = Result.bind in
  if nested is_pad fmt then Error "format has padding inside a nested field"
  else
    List.fold_left
      (fun acc (e : Sizing.entry) ->
        let* pads = acc in
        let name = e.field.name in
        if not (is_pad e.field) then Ok pads
        else
          let* off, bits =
            Result.map_error
              (fun _ -> Printf.sprintf "padding %S is not at a fixed offset" name)
              (Sizing.span lay name)
          in
          let* cks = cover ~what:(Printf.sprintf "padding %S" name) off bits in
          (* one entry per byte the padding touches; bits are MSB-first *)
          let byte b =
            let lo = max off (8 * b) and hi = min (off + bits) ((8 * b) + 8) in
            let mask = ((1 lsl (hi - lo)) - 1) lsl ((8 * b) + 8 - hi) in
            { pd_byte = b; pd_clear = mask; pd_cks = cks }
          in
          let first = off / 8 and last = (off + bits - 1) / 8 in
          Ok (pads @ List.init (last - first + 1) (fun k -> byte (first + k))))
      (Ok []) lay

let patcher (fmt : Desc.t) name =
  let ( let* ) = Result.bind in
  let lay = Sizing.layout fmt in
  let* e =
    match Sizing.find lay name with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "no top-level field %S" name)
  in
  let* bits, endian, enum =
    match e.field.ty with
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
  let* off_bits, _ = Sizing.span lay name in
  let* () =
    if off_bits land 7 <> 0 || bits land 7 <> 0 then
      Error (Printf.sprintf "field %S is not byte-aligned on the wire" name)
    else Ok ()
  in
  let* () =
    if List.mem name (fst (Desc.references fmt)) then
      Error (Printf.sprintf "other fields are derived from %S; patching it would desynchronise them" name)
    else Ok ()
  in
  let* cover = cover fmt lay in
  let* cks = cover ~what:(Printf.sprintf "field %S" name) off_bits bits in
  let* pad = pads fmt lay cover in
  Ok
    { pa_name = name;
      pa_bit_off = off_bits;
      pa_bits = bits;
      pa_endian = endian;
      pa_enum = enum;
      pa_constraints = e.field.constraints;
      pa_shape = Option.get e.shape;
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

type padding = pad list

let padding (fmt : Desc.t) =
  if not (Desc.fold_formats (fun acc sub -> acc || List.exists is_pad sub.Desc.fields) false fmt)
  then Ok None
  else
    let lay = Sizing.layout fmt in
    Result.bind (cover fmt lay) (fun cover -> Result.map Option.some (pads fmt lay cover))

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
        | Desc.Little -> Sizing.swap_bytes ~bits:p.pa_bits vi
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

let kernel p : kernel =
  let generic buf off len v =
    match patch_window p ~off ~len buf (Int64.of_int v) with Ok () -> true | Error _ -> false
  in
  if p.pa_bits > 56 then generic
  else
    let fo = p.pa_bit_off lsr 3 and n = p.pa_bits lsr 3 and bits = p.pa_bits in
    let min = p.pa_min_bytes in
    let little = p.pa_endian = Desc.Little in
    (* the admitted values; a field that admits its whole width is
       only range-checked *)
    let lo, hi, resid = Sizing.ranges p.pa_shape in
    let residual = Array.length resid > 0 in
    let valid buf off len v =
      if off < 0 || len < 0 || off + len > Bytes.length buf then
        invalid_arg "Emit.patch: window out of bounds";
      len >= min && v >= lo && v <= hi && ((not residual) || Sizing.in_ranges resid v 0)
    in
    let k =
      match p.pa_cks with
      | [] ->
        fun buf off len v ->
          valid buf off len v
          && begin
               store_be buf (off + fo) n (if little then Sizing.swap_bytes ~bits v else v);
               true
             end
      | [ c ] ->
        let co = c.c_bit_off lsr 3 and odd = (fo - c.c_region_start) land 1 in
        fun buf off len v ->
          valid buf off len v
          && begin
               let i = off + fo in
               let old = load_be buf i n in
               let wire = if little then Sizing.swap_bytes ~bits v else v in
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
