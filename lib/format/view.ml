module Ck = Netdsl_util.Checksum

(* ------------------------------------------------------------------ *)
(* The op lowering.  [Hot.compile] lowers the format descriptor into a
   flat op array once, then compiles that array into kernels.  Where each
   field sits, how wide it is and which values it admits come from the
   format's static layout ([Sizing.layout]); endianness and width
   classification are baked in, and each op carries booleans saying
   whether any expression in the format references its value or span
   (so only those fields get a register or a span slot). *)

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
  o_val : bool; (* some expression reads this field's value *)
  o_span : bool; (* some expression or checksum region reads its span *)
  o_off : int option; (* static bit offset, from the layout *)
  o_width : int option; (* fixed bit width, from the layout *)
  o_k : okind;
}

and okind =
  | K_scalar of {
      bits : int; (* <= 62: value fits an immediate int *)
      little : bool;
      lo : int; (* admitted values lie in [lo, hi] ... *)
      hi : int;
      resid : int array; (* ... and in one of these [lo; hi] pairs, when non-empty *)
    }
  | K_scalar64 of { bits : int; endian : Desc.endian; shape : Sizing.shape }
  | K_bool
  | K_computed of { bits : int; little : bool; expr : Desc.expr }
  | K_checksum of { alg : Ck.algorithm; bits : int; region : Desc.region }
  | K_bytes of blen
  | K_array of { length : alen; elem : op array }
  | K_record
  | K_variant
  | K_padding of int
  | K_invalid (* ill-formed field (a little-endian width that is not whole
                 bytes, a terminator-delimited array): Codec rejects every
                 message that reaches it, and no plan compiles over it *)

let needed name l = List.exists (String.equal name) l

let le_bad bits = function Desc.Big -> false | Desc.Little -> bits land 7 <> 0

(* A narrow field that admits its whole width checks nothing
   ([0, max_int]). *)
let narrow (s : Sizing.shape) =
  let lo, hi, resid = if Sizing.full s then (0, max_int, [||]) else Sizing.ranges s in
  K_scalar { bits = s.bits; little = s.endian = Desc.Little; lo; hi; resid }

let rec compile_fields ~vn ~sn (fmt : Desc.t) : op array =
  Array.of_list (List.map (compile_field ~vn ~sn) (Sizing.layout fmt))

and compile_field ~vn ~sn (e : Sizing.entry) : op =
  let f = e.field in
  let mk k =
    { o_name = f.name; o_val = needed f.name vn; o_span = needed f.name sn;
      o_off = e.off; o_width = e.width; o_k = k }
  in
  match (f.ty, e.shape) with
  | (Uint { bits; endian } | Const { bits; endian; _ } | Enum { bits; endian; _ }), Some s ->
    if le_bad bits endian then mk K_invalid
    else if bits <= 62 then mk (narrow s)
    else mk (K_scalar64 { bits; endian; shape = s })
  | Bool_flag, _ -> mk K_bool
  | Computed { bits; endian; expr }, _ ->
    if le_bad bits endian then mk K_invalid
    else mk (K_computed { bits; little = (endian = Desc.Little); expr })
  | Checksum { algorithm; region }, _ ->
    mk (K_checksum { alg = algorithm; bits = Ck.width_bits algorithm; region })
  | Bytes spec, _ ->
    let spec =
      match spec with
      | Len_fixed n -> L_fixed n
      | Len_expr e | Len_bytes e -> L_expr e
      | Len_remaining -> L_remaining
      | Len_terminated t -> L_terminated t
    in
    mk (K_bytes spec)
  | Array { elem; length }, _ -> (
    let elem = compile_fields ~vn ~sn elem in
    match length with
    | Len_fixed n -> mk (K_array { length = A_fixed n; elem })
    | Len_expr e -> mk (K_array { length = A_expr e; elem })
    | Len_bytes e -> mk (K_array { length = A_bytes e; elem })
    | Len_remaining -> mk (K_array { length = A_remaining; elem })
    | Len_terminated _ -> mk K_invalid)
  | Record _, _ -> mk K_record
  | Variant _, _ -> mk K_variant
  | Padding { bits }, _ -> mk (K_padding bits)
  | (Uint _ | Const _ | Enum _), None -> mk K_invalid

let of_wire ~bits ~endian v =
  match endian with Desc.Big -> v | Desc.Little -> Sizing.swap_bytes64 ~bits v

(* MSB-first bit read returning a native int ([width] <= 62); bounds
   already checked by the caller.  Every [Hot] kernel shares it. *)
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

(* ------------------------------------------------------------------ *)
(* Hot: the compiled fast path for linear formats.

   [Hot.compile] lowers the op array into a chain of specialised
   closures — kernels — over preallocated native-int register and span
   files: no value tree, no scope assoc lists, no per-packet dispatch on
   the field kind, no reader record.
   Every field whose bit offset does not depend on the packet is resolved
   to a constant offset inside the window:

   - one bounds check covers that whole static prefix;
   - a narrow scalar becomes a load of the one, two or four bytes it
     spans at a constant offset, shifted and masked to its bits, with its
     admitted values (the layout's intervals) tested as one [lo, hi]
     range, plus a residual interval test when there are several;
   - a field nothing checks or reads — [bytes[n]], padding, an
     unreferenced unchecked scalar — compiles to nothing;
   - only fields after the first variable-length one keep a running
     position;
   - computed and checksum checks run after the parse, in parse order,
     over the same constants.

   Every check the reference decoder [Codec.decode] performs is preserved
   (constants, enum exhaustiveness, constraints, computed fields,
   checksums, trailing bits), only collapsed to a verdict: the accept set
   is exactly [Codec.decode]'s, which the differential oracle enforces
   over the corpus and fuzz mutants.  A successful steady-state [run] allocates
   nothing.

   Only formats whose top level is a straight line of scalar-ish fields
   qualify — no records or variants, and no array but a counted one of
   fixed-size scalar records, whose elements' checks compile once and run
   at [start + i * stride] — and only when every expression provably stays
   inside native-int-exact arithmetic; anything else returns [Error]
   naming the field.  {!Stack} flattens a trailing variant into one such
   plan per case. *)

module Hot = struct
  exception Reject

  (* A run's cursor: the window's first byte and its end in bits, and
     the running bit position — meaningful only past the static prefix,
     where it starts; a kernel at a static offset reads at [base] plus a
     constant. *)
  type cursor = { mutable base : int; mutable lim : int; mutable pos : int }

  (* [k data] validates its part of the message and tail-calls the next
     kernel; one argument, so every call is a direct jump through the
     closure. *)
  type kernel = string -> unit

  type hot = {
    hrun : kernel;
    hcur : cursor;
    hprefix : int; (* bits of the static prefix *)
    hregs : int array; (* latest value of each referenced/demanded field *)
    hsoff : int array; (* span bit offsets, absolute *)
    hslen : int array; (* span bit lengths *)
    hdemand : (string * int) array; (* demanded field -> register *)
    hsdemand : (string * int) array; (* demanded span -> span slot *)
    helig : string list;
  }

  type t = hot

  let read_wide s pos width =
    if width <= 62 then Int64.of_int (read_narrow s pos width)
    else
      let hiw = width - 32 in
      Int64.logor
        (Int64.shift_left (Int64.of_int (read_narrow s pos hiw)) 32)
        (Int64.of_int (read_narrow s (pos + hiw) 32))

  let read_value s pos width little =
    let v = read_narrow s pos width in
    if little then Sizing.swap_bytes ~bits:width v else v

  (* [read_value] with the byte-aligned big-endian 8/16/32-bit reads
     open-coded. *)
  let load s pos width little =
    if little || pos land 7 <> 0 then read_value s pos width little
    else
      let i = pos lsr 3 in
      if width = 16 then
        (Char.code (String.unsafe_get s i) lsl 8)
        lor Char.code (String.unsafe_get s (i + 1))
      else if width = 8 then Char.code (String.unsafe_get s i)
      else if width = 32 then
        (Char.code (String.unsafe_get s i) lsl 24)
        lor (Char.code (String.unsafe_get s (i + 1)) lsl 16)
        lor (Char.code (String.unsafe_get s (i + 2)) lsl 8)
        lor Char.code (String.unsafe_get s (i + 3))
      else read_narrow s pos width

  (* A field of variable extent records its span as it goes; [s < 0]:
     nobody reads it. *)
  let record soff slen s start stop =
    if s >= 0 then begin
      Array.unsafe_set soff s start;
      Array.unsafe_set slen s (stop - start)
    end

  (* The kernel of a narrow scalar at static bit offset [o]: a load of
     the bytes it spans, shifted and masked, then its checks and the
     register store.  Little-endian and wider-than-four-byte fields take
     the general bit reader. *)
  let static_scalar ~c ~regs ~r ~o ~w ~little ~lo ~hi ~resid (next : kernel) : kernel =
    let ib = o lsr 3 and drop = o land 7 in
    let nb = (drop + w + 7) lsr 3 in
    let sh = (nb * 8) - drop - w and mask = (1 lsl w) - 1 in
    let residual = Array.length resid > 0 in
    if little || (nb <> 1 && nb <> 2 && nb <> 4) then
      fun d ->
        let v = read_value d ((c.base lsl 3) + o) w little in
        if v < lo || v > hi || (residual && not (Sizing.in_ranges resid v 0)) then raise Reject;
        Array.unsafe_set regs r v;
        next d
    else if nb = 1 then
      fun d ->
        let v = (Char.code (String.unsafe_get d (c.base + ib)) lsr sh) land mask in
        if v < lo || v > hi || (residual && not (Sizing.in_ranges resid v 0)) then raise Reject;
        Array.unsafe_set regs r v;
        next d
    else if nb = 2 then
      fun d ->
        let i = c.base + ib in
        let v =
          (((Char.code (String.unsafe_get d i) lsl 8)
           lor Char.code (String.unsafe_get d (i + 1)))
          lsr sh)
          land mask
        in
        if v < lo || v > hi || (residual && not (Sizing.in_ranges resid v 0)) then raise Reject;
        Array.unsafe_set regs r v;
        next d
    else
      fun d ->
        let i = c.base + ib in
        let v =
          (((Char.code (String.unsafe_get d i) lsl 24)
           lor (Char.code (String.unsafe_get d (i + 1)) lsl 16)
           lor (Char.code (String.unsafe_get d (i + 2)) lsl 8)
           lor Char.code (String.unsafe_get d (i + 3)))
          lsr sh)
          land mask
        in
        if v < lo || v > hi || (residual && not (Sizing.in_ranges resid v 0)) then raise Reject;
        Array.unsafe_set regs r v;
        next d

  (* A scalar past the static prefix: bounds-checked at the running
     position. *)
  let dynamic_scalar ~c ~regs ~r ~w ~little ~lo ~hi ~resid (next : kernel) : kernel =
    let residual = Array.length resid > 0 in
    fun d ->
      let p = c.pos in
      if p + w > c.lim then raise Reject;
      let v = read_value d p w little in
      if v < lo || v > hi || (residual && not (Sizing.in_ranges resid v 0)) then raise Reject;
      Array.unsafe_set regs r v;
      c.pos <- p + w;
      next d

  (* Expression bounds, tracked as floats with a 4x safety margin under
     the 2^62 wrap point: a node whose worst-case magnitude stays below
     2^60 can never make 63-bit arithmetic disagree with int64. *)
  let bound_limit = ldexp 1. 60

  (* A compiled expression over the window length in bits: a constant
     folded at compile time, or a closure. *)
  type cexp = E_const of int | E_fun of (int -> int)

  (* Where a field sits: at a bit offset from the window start, or past
     the first variable-length field. *)
  type place = Static of int | Dynamic

  (* A counted array whose element is a fixed-size record of scalars,
     like a P4 header stack: its stride in bits and its checked fields as
     (bit offset in the element, width, little-endian, checks).  [None]
     for an element of variable size or with fields it cannot check in
     isolation. *)
  let element_layout (elem : op array) =
    let rec go stride acc i =
      if i = Array.length elem then if stride > 0 then Some (stride, List.rev acc) else None
      else
        let op = elem.(i) in
        match (op.o_k, op.o_off, op.o_width) with
        | K_scalar sc, Some o, Some w ->
          let acc =
            if sc.lo = 0 && sc.hi = max_int && sc.resid = [||] then acc
            else (o, w, sc.little, sc.lo, sc.hi, sc.resid) :: acc
          in
          go (o + w) acc (i + 1)
        | (K_bool | K_padding _ | K_bytes (L_fixed _)), Some o, Some w -> go (o + w) acc (i + 1)
        | K_scalar64 { shape; _ }, Some o, Some w when Sizing.full shape -> go (o + w) acc (i + 1)
        | _ -> None
    in
    go 0 [] 0

  let compile ?(demand = []) ?(span_demand = []) ?(plant_late_load = false) (fmt : Desc.t) =
    let vn, sn = Desc.references fmt in
    let vn = List.sort_uniq compare (demand @ vn) in
    let sn = List.sort_uniq compare (span_demand @ sn) in
    let ops = compile_fields ~vn ~sn fmt in
    let nops = Array.length ops in
    let err = ref None in
    let fail_ msg = if !err = None then err := Some msg in
    let intish (op : op) =
      match op.o_k with
      | K_scalar _ | K_bool | K_checksum _ -> true
      | K_computed c -> c.bits <= 62
      | _ -> false
    in
    (* the static layout: every field up to and including the first one
       of variable width sits at a constant offset *)
    let place = Array.map (fun op -> match op.o_off with Some o -> Static o | None -> Dynamic) ops in
    let width = Array.map (fun op -> op.o_width) ops in
    let prefix =
      Array.fold_left
        (fun p op -> match (op.o_off, op.o_width) with Some o, Some w -> o + w | _ -> p)
        0 ops
    in
    (* slot assignment; binding lists are consed newest-first so the first
       match below a cutoff is the latest earlier binding, mirroring scope
       shadowing in [Codec.decode] *)
    let nregs = ref 0 and nspans = ref 0 and npos = ref 0 in
    let fresh r =
      let s = !r in
      incr r;
      s
    in
    let reg_binds = ref [] and span_binds = ref [] in
    let reg_of = Array.make nops (-1) in
    let span_of = Array.make nops (-1) in
    Array.iteri
      (fun i (op : op) ->
        (match op.o_k with
        | K_array a -> (
          match (element_layout a.elem, a.length) with
          | None, _ ->
            fail_ (Printf.sprintf "field %S is a list of variable-size records" op.o_name)
          | Some _, (A_bytes _ | A_remaining) ->
            fail_ (Printf.sprintf "field %S is a list without an element count" op.o_name)
          | Some _, (A_fixed _ | A_expr _) -> ())
        | K_record -> fail_ (Printf.sprintf "field %S is a nested record" op.o_name)
        | K_variant -> fail_ (Printf.sprintf "field %S is a variant" op.o_name)
        | K_invalid -> fail_ (Printf.sprintf "field %S is invalid" op.o_name)
        | K_scalar64 _ when op.o_val ->
          fail_ "a wide (> 62 bit) field value is referenced"
        | K_computed c when c.bits > 62 -> fail_ "wide computed field"
        | _ -> ());
        if op.o_val && intish op then begin
          reg_of.(i) <- fresh nregs;
          let w = match width.(i) with Some w -> w | None -> 0 in
          reg_binds := (op.o_name, i, reg_of.(i), w) :: !reg_binds
        end;
        if op.o_span then begin
          span_of.(i) <- fresh nspans;
          span_binds := (op.o_name, i, span_of.(i)) :: !span_binds
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
          if i < before && String.equal n name then Some (i, slot) else None)
        !span_binds
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
          | Some (_, slot) -> (name, slot)
          | None ->
            fail_ (Printf.sprintf "demanded span %S is not extractable" name);
            (name, -1))
        span_demand
    in
    (* deferred fields read their raw value back from a register when
       something else needs it there or its offset is dynamic; a pending
       checksum past the prefix records its own offset *)
    let pend_of = Array.copy reg_of in
    let pos_of = Array.make nops (-1) in
    Array.iteri
      (fun i (op : op) ->
        match op.o_k with
        | K_computed _ | K_checksum _ ->
          if place.(i) = Dynamic then begin
            if pend_of.(i) < 0 then pend_of.(i) <- fresh nregs;
            if (match op.o_k with K_checksum _ -> true | _ -> false) then
              pos_of.(i) <- fresh npos
          end
        | _ -> ())
      ops;
    let sink = fresh nregs in
    let regs = Array.make !nregs 0 in
    let hsoff = Array.make (max 1 !nspans) 0 in
    let hslen = Array.make (max 1 !nspans) 0 in
    let hpos = Array.make (max 1 !npos) 0 in
    (* a span is recorded per packet when its extent varies or a caller
       demanded it; otherwise its length is a constant set here and its
       readers below use the constant offset *)
    let external_span slot = List.exists (fun (_, s) -> s = slot) span_demand_slots in
    Array.iteri
      (fun i s ->
        if s >= 0 then
          match width.(i) with Some w -> hslen.(s) <- w | None -> ())
      span_of;
    let span_static i =
      match (place.(i), width.(i)) with Static _, Some _ -> true | _ -> false
    in
    let c = { base = 0; lim = 0; pos = 0 } in
    let reject : kernel = fun _ -> raise Reject in
    let reject_exp = E_fun (fun _ -> raise Reject) in
    let exp_fun = function E_const k -> fun _ -> k | E_fun f -> f in
    let ck lo hi =
      if Float.abs lo >= bound_limit || Float.abs hi >= bound_limit then
        fail_ "expression escapes native-int-exact bounds"
    in
    (* a constant operand is folded into its node's closure *)
    let binop f fc a b =
      match (a, b) with
      | E_const x, E_const y -> fc x y
      | E_fun fa, E_const y -> E_fun (fun mb -> f (fa mb) y)
      | E_const x, E_fun fb -> E_fun (fun mb -> f x (fb mb))
      | E_fun fa, E_fun fb -> E_fun (fun mb -> f (fa mb) (fb mb))
    in
    let rec cexpr ~before (e : Desc.expr) : cexp * float * float =
      match e with
      | Desc.Const v ->
        let f = Int64.to_float v in
        ck f f;
        (E_const (if Float.abs f < bound_limit then Int64.to_int v else 0), f, f)
      | Desc.Field name -> (
        match lookup_reg ~before name with
        | Some (slot, w) -> (E_fun (fun _ -> Array.unsafe_get regs slot), 0., ldexp 1. w -. 1.)
        | None ->
          (* Codec's eval fails with "unknown field" exactly when this
             expression is evaluated: same verdict, same moment *)
          (reject_exp, 0., 0.))
      | Desc.Byte_len name -> (
        match lookup_span ~before name with
        | Some (i, slot) -> (
          match width.(i) with
          | Some w when span_static i ->
            if w land 7 <> 0 then (reject_exp, 0., 0.)
            else (E_const (w lsr 3), float (w lsr 3), float (w lsr 3))
          | _ ->
            let len _ =
              let bl = Array.unsafe_get hslen slot in
              if bl land 7 <> 0 then raise Reject;
              bl lsr 3
            in
            (E_fun len, 0., ldexp 1. 52))
        | None -> (reject_exp, 0., 0.))
      | Desc.Msg_len -> (E_fun (fun mb -> mb lsr 3), 0., ldexp 1. 52)
      | Desc.Add (a, b) ->
        let fa, alo, ahi = cexpr ~before a in
        let fb, blo, bhi = cexpr ~before b in
        let lo = alo +. blo and hi = ahi +. bhi in
        ck lo hi;
        (binop ( + ) (fun x y -> E_const (x + y)) fa fb, lo, hi)
      | Desc.Sub (a, b) ->
        let fa, alo, ahi = cexpr ~before a in
        let fb, blo, bhi = cexpr ~before b in
        let lo = alo -. bhi and hi = ahi -. blo in
        ck lo hi;
        (binop ( - ) (fun x y -> E_const (x - y)) fa fb, lo, hi)
      | Desc.Mul (a, b) ->
        let fa, alo, ahi = cexpr ~before a in
        let fb, blo, bhi = cexpr ~before b in
        let p1 = alo *. blo and p2 = alo *. bhi and p3 = ahi *. blo
        and p4 = ahi *. bhi in
        let lo = Float.min (Float.min p1 p2) (Float.min p3 p4) in
        let hi = Float.max (Float.max p1 p2) (Float.max p3 p4) in
        ck lo hi;
        (binop ( * ) (fun x y -> E_const (x * y)) fa fb, lo, hi)
      | Desc.Div (a, b) ->
        let fa, alo, ahi = cexpr ~before a in
        let fb, _, _ = cexpr ~before b in
        let m = Float.max (Float.abs alo) (Float.abs ahi) in
        ck (-.m) m;
        let div x y = if y = 0 then raise Reject else x / y in
        let e =
          match (fa, fb) with
          | _, E_const 0 -> reject_exp
          | _ -> binop div (fun x y -> if y = 0 then reject_exp else E_const (x / y)) fa fb
        in
        (e, -.m, m)
    in
    (* where a checksum region's bounds come from: a constant offset from
       the window start, or a recorded span *)
    let span_start i slot =
      match place.(i) with Static o -> (o, -1) | Dynamic -> (0, slot)
    in
    let span_end i slot =
      match (place.(i), width.(i)) with
      | Static o, Some w -> (o + w, -1)
      | _ -> (0, slot)
    in
    (* deferred checks, in parse order, exactly as [Codec.decode] replays
       its deferred list; then the trailing-bits check *)
    let trailing : kernel =
     fun d ->
      let p = c.pos in
      let rem = c.lim - p in
      if rem > 0 && (rem >= 8 || read_narrow d p rem <> 0) then raise Reject
    in
    let deferred next i (op : op) : kernel =
      (* the field's raw value: its register, or a load at its constant
         offset *)
      let r = pend_of.(i) in
      let o = match place.(i) with Static o -> o | Dynamic -> 0 in
      match op.o_k with
      | K_computed k -> (
        let bits = k.bits and little = k.little in
        let raw d = if r >= 0 then Array.unsafe_get regs r else load d ((c.base lsl 3) + o) bits little in
        match cexpr ~before:nops k.expr with
        | E_const v, _, _ -> fun d -> if raw d <> v then raise Reject else next d
        | E_fun f, _, _ ->
          fun d -> if raw d <> f (c.lim - (c.base lsl 3)) then raise Reject else next d)
      | K_checksum k -> (
        let kbits = k.bits in
        let cell = pos_of.(i) in
        let internet = k.alg = Ck.Internet and alg = k.alg in
        (* [zoff]: the field's own bit offset, zeroed in the sum *)
        let agrees d roff rlen zoff actual =
          if roff land 7 <> 0 || rlen land 7 <> 0 then raise Reject;
          if internet then
            Ck.internet_zeroed ~off:(roff lsr 3) ~len:(rlen lsr 3) ~zero_bit_off:zoff
              ~zero_bit_len:kbits d
            = actual
          else
            Int64.equal
              (Ck.compute_zeroed alg ~off:(roff lsr 3) ~len:(rlen lsr 3)
                 ~zero_bit_off:zoff ~zero_bit_len:kbits d)
              (Int64.of_int actual)
        in
        let own () = if cell < 0 then (c.base lsl 3) + o else Array.unsafe_get hpos cell in
        let check d roff rend =
          let zoff = own () in
          let raw = if r >= 0 then Array.unsafe_get regs r else load d zoff kbits false in
          if rend < roff then raise Reject;
          if agrees d roff (rend - roff) zoff raw then next d else raise Reject
        in
        match k.region with
        | Desc.Region_message -> fun d -> check d (c.base lsl 3) c.lim
        | Desc.Region_rest -> fun d -> check d (own () + kbits) c.pos
        | Desc.Region_span (a, z) -> (
          match (lookup_span ~before:nops a, lookup_span ~before:nops z) with
          | Some (ia, sa), Some (iz, sz) ->
            (* each bound is a constant offset from the window start, or
               a recorded span *)
            let ka, sa = span_start ia sa and kz, sz = span_end iz sz in
            fun d ->
              let roff = if sa < 0 then (c.base lsl 3) + ka else Array.unsafe_get hsoff sa in
              let rend =
                if sz < 0 then (c.base lsl 3) + kz
                else Array.unsafe_get hsoff sz + Array.unsafe_get hslen sz
              in
              check d roff rend
          | _ -> reject))
      | _ -> next
    in
    let chain = ref trailing in
    for i = nops - 1 downto 0 do
      chain := deferred !chain i ops.(i)
    done;
    (* the field kernels, back to front *)
    (* the planted specialiser defect: the last multi-byte big-endian
       field whose load, one byte late, still lies inside the static
       prefix is read there *)
    let planted = ref plant_late_load in
    let record_span i (next : kernel) : kernel =
      let s = span_of.(i) in
      match place.(i) with
      | Static o when span_static i && s >= 0 && external_span s ->
        fun d ->
          Array.unsafe_set hsoff s ((c.base lsl 3) + o);
          next d
      | _ -> next
    in
    let field_kernel i (op : op) (next : kernel) : kernel =
      let s = if span_static i then -1 else span_of.(i) in
      (* a field's start: its constant offset, or the running position *)
      let st, so = match place.(i) with Static o -> (true, o) | Dynamic -> (false, 0) in
      let narrow ~r ~w ~little ~lo ~hi ~resid =
        match place.(i) with
        | Static o ->
          if r = sink && lo = 0 && hi = max_int && resid = [||] then next
          else begin
            let o =
              if !planted && w >= 16 && o land 7 = 0 && (not little) && o + 8 + w <= prefix
              then begin
                planted := false;
                o + 8
              end
              else o
            in
            static_scalar ~c ~regs ~r ~o ~w ~little ~lo ~hi ~resid next
          end
        | Dynamic ->
          let k = dynamic_scalar ~c ~regs ~r ~w ~little ~lo ~hi ~resid next in
          if s < 0 then k
          else
            fun d ->
              record hsoff hslen s c.pos (c.pos + w);
              k d
      in
      let or_sink r = if r < 0 then sink else r in
      let advance bits : kernel =
        match place.(i) with
        | Static _ -> next
        | Dynamic ->
          fun d ->
            let p = c.pos in
            if p + bits > c.lim then raise Reject;
            record hsoff hslen s p (p + bits);
            c.pos <- p + bits;
            next d
      in
      (* a variable-extent field from [start] to [stop]: the position
         moves on *)
      let land_at start stop = record hsoff hslen s start stop; c.pos <- stop in
      match op.o_k with
      | K_scalar sc ->
        narrow ~r:(or_sink reg_of.(i)) ~w:sc.bits ~little:sc.little ~lo:sc.lo ~hi:sc.hi
          ~resid:sc.resid
      | K_bool -> narrow ~r:(or_sink reg_of.(i)) ~w:1 ~little:false ~lo:0 ~hi:max_int ~resid:[||]
      | K_computed { bits; little; _ } ->
        (* the raw value only; the check is deferred *)
        if pend_of.(i) < 0 then advance bits
        else narrow ~r:pend_of.(i) ~w:bits ~little ~lo:0 ~hi:max_int ~resid:[||]
      | K_checksum { bits; _ } -> (
        let k =
          if pend_of.(i) < 0 then advance bits
          else narrow ~r:pend_of.(i) ~w:bits ~little:false ~lo:0 ~hi:max_int ~resid:[||]
        in
        match pos_of.(i) with
        | -1 -> k
        | cell ->
          fun d ->
            Array.unsafe_set hpos cell c.pos;
            k d)
      | K_scalar64 w ->
        fun d ->
          let start = if st then (c.base lsl 3) + so else c.pos in
          if (not st) && start + w.bits > c.lim then raise Reject;
          record hsoff hslen s start (start + w.bits);
          let v = of_wire ~bits:w.bits ~endian:w.endian (read_wide d start w.bits) in
          if not (Sizing.admits w.shape v) then raise Reject;
          if not st then c.pos <- start + w.bits;
          next d
      | K_bytes (L_fixed n) when n >= 0 && n <= Sys.max_string_length -> advance (n * 8)
      | K_padding bits when bits >= 0 -> advance bits
      | K_padding bits ->
        fun d ->
          let start = if st then (c.base lsl 3) + so else c.pos in
          if start + bits > c.lim then raise Reject;
          c.pos <- start + bits;
          next d
      | K_bytes (L_fixed _) -> reject
      | K_bytes (L_expr ex) ->
        let bytes_to start n d =
          if n < 0 || n > Sys.max_string_length then raise Reject;
          let stop = start + (n * 8) in
          if stop > c.lim then raise Reject;
          land_at start stop;
          next d
        in
        let ex, _, _ = cexpr ~before:i ex in
        let f = exp_fun ex in
        fun d ->
          let start = if st then (c.base lsl 3) + so else c.pos in
          bytes_to start (f (c.lim - (c.base lsl 3))) d
      | K_bytes L_remaining ->
        fun d ->
          let start = if st then (c.base lsl 3) + so else c.pos in
          if (c.lim - start) land 7 <> 0 then raise Reject;
          land_at start c.lim;
          next d
      | K_bytes (L_terminated term) ->
        fun d ->
          let start = if st then (c.base lsl 3) + so else c.pos in
          let q = ref start in
          let b = ref (term + 1) in
          while !b <> term do
            if !q + 8 > c.lim then raise Reject;
            b := read_narrow d !q 8;
            q := !q + 8
          done;
          land_at start !q;
          next d
      | K_array { length = (A_fixed _ | A_expr _) as length; elem; _ } -> (
        match element_layout elem with
        | None -> next
        | Some (stride, checked) ->
          let count =
            match length with
            | A_fixed n -> fun _ -> n
            | A_expr ex ->
              let ex, _, _ = cexpr ~before:i ex in
              exp_fun ex
            | A_bytes _ | A_remaining -> assert false
          in
          (* each element's checks, compiled once, read at the element's
             start in [c.pos] *)
          let elem =
            List.fold_right
              (fun (o, w, little, lo, hi, resid) (k : kernel) : kernel ->
                let residual = Array.length resid > 0 in
                fun d ->
                  let v = load d (c.pos + o) w little in
                  if v < lo || v > hi || (residual && not (Sizing.in_ranges resid v 0)) then
                    raise Reject;
                  k d)
              checked
              (fun _ -> ())
          in
          let checking = checked <> [] in
          (* inside the static prefix the running position is the
             prefix end, which the element walk must leave as it was *)
          let in_prefix = st && width.(i) <> None in
          fun d ->
            let start = if st then (c.base lsl 3) + so else c.pos in
            let n = count (c.lim - (c.base lsl 3)) in
            if n < 0 || n > Sys.max_string_length || n > (c.lim - start) / stride then
              raise Reject;
            let resume = c.pos in
            if checking then
              for k = 0 to n - 1 do
                c.pos <- start + (k * stride);
                elem d
              done;
            if in_prefix then c.pos <- resume else land_at start (start + (n * stride));
            next d)
      | K_array _ | K_record | K_variant | K_invalid -> next
    in
    for i = nops - 1 downto 0 do
      chain := record_span i (field_kernel i ops.(i) !chain)
    done;
    match !err with
    | Some msg -> Result.Error msg
    | None ->
      Ok
        {
          hrun = !chain;
          hcur = c;
          hprefix = prefix;
          hregs = regs;
          hsoff;
          hslen;
          hdemand = Array.of_list demand_slots;
          hsdemand = Array.of_list span_demand_slots;
          helig =
            List.filter_map
              (fun (op : op) -> if intish op then Some op.o_name else None)
              (Array.to_list ops);
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

  let registers h = h.hregs
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
  let parse_end_bits h = h.hcur.pos

  (* Raw scalar read used by the stack dispatcher to peek a variant tag
     before choosing a per-case plan; bounds must be pre-checked. *)
  let read_scalar (data : string) ~bit_off ~bits ~little = load data bit_off bits little

  (* Non-optional window variant: the fused per-packet path calls this so
     the call site allocates no [Some len].  The static prefix is checked
     once here; the kernels past it check their own bounds. *)
  let exec h ~off ~len (data : string) =
    if len * 8 < h.hprefix then raise Reject;
    let c = h.hcur in
    c.base <- off;
    c.lim <- (off + len) * 8;
    c.pos <- (off * 8) + h.hprefix;
    h.hrun data

  let run_window h ~off ~len (data : string) =
    if off < 0 || len < 0 || off + len > String.length data then
      invalid_arg "View.Hot.run: window out of bounds";
    match exec h ~off ~len data with () -> true | exception Reject -> false

  let run h ?(off = 0) ?len (data : string) =
    let len =
      match len with None -> String.length data - off | Some l -> l
    in
    run_window h ~off ~len data

  let length_bytes h = (h.hcur.lim lsr 3) - h.hcur.base
end
