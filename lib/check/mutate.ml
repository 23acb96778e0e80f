module Prng = Netdsl_util.Prng
module Checksum = Netdsl_util.Checksum
module Desc = Netdsl_format.Desc
module Sizing = Netdsl_format.Sizing
module Stack = Netdsl_format.Stack

type kind = Scalar | Const | Computed | Checksum

type slot = {
  s_name : string;
  s_bit_off : int;
  s_bits : int;
  s_endian : Desc.endian;
  s_kind : kind;
}

type plan = { p_fmt : Desc.t; p_slots : slot list; p_min_bytes : int }

(* Every scalar the layout places at a fixed offset; padding is no
   field. *)
let plan fmt =
  let slot (e : Sizing.entry) =
    match (e.shape, e.off) with
    | Some { kind = Padding; _ }, _ | None, _ | _, None -> None
    | Some { bits; endian; kind; _ }, Some off ->
      let kind =
        match kind with
        | Int | Flag -> Scalar
        | Const -> Const
        | Computed -> Computed
        | Checksum | Padding -> Checksum
      in
      Some { s_name = e.field.name; s_bit_off = off; s_bits = bits; s_endian = endian; s_kind = kind }
  in
  { p_fmt = fmt; p_slots = List.filter_map slot (Sizing.layout fmt); p_min_bytes = Sizing.min_bytes fmt }

let slots p = p.p_slots
let format p = p.p_fmt

type op =
  | Flip_bit of int
  | Set_byte of int * int
  | Truncate of int
  | Extend of string
  | Field_set of { name : string; bit_off : int; bits : int;
                   endian : Desc.endian; value : int64 }
  | Dup_span of { off : int; len : int; at : int }
  | Remove_span of { off : int; len : int }
  | Swap_spans of { off1 : int; off2 : int; len : int }
  | Zero_span of { off : int; len : int }

(* ------------------------------------------------------------------ *)
(* Application.  Every operator is total: out-of-range targets degenerate
   to the identity so a mutation list replays on any (shrunk) input. *)

let set_bit b i v =
  let byte = i / 8 and mask = 0x80 lsr (i mod 8) in
  let c = Char.code (Bytes.get b byte) in
  Bytes.set b byte (Char.chr (if v then c lor mask else c land lnot mask))

let get_bit s i =
  let byte = i / 8 and mask = 0x80 lsr (i mod 8) in
  Char.code (Bytes.get s byte) land mask <> 0

let write_bits b ~bit_off ~bits ~endian v =
  if endian = Desc.Little && bits mod 8 = 0 && bit_off mod 8 = 0 then begin
    (* whole-byte little-endian: least significant byte first on the wire *)
    let base = bit_off / 8 and n = bits / 8 in
    for i = 0 to n - 1 do
      let byte =
        Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)
      in
      Bytes.set b (base + i) (Char.chr byte)
    done
  end
  else
    (* MSB-first big-endian bit write, any width or alignment *)
    for i = 0 to bits - 1 do
      let bitv =
        Int64.logand (Int64.shift_right_logical v (bits - 1 - i)) 1L <> 0L
      in
      set_bit b (bit_off + i) bitv
    done

let apply_one op s =
  let len = String.length s in
  match op with
  | Flip_bit i ->
    if i < 0 || i >= 8 * len then s
    else begin
      let b = Bytes.of_string s in
      set_bit b i (not (get_bit b i));
      Bytes.to_string b
    end
  | Set_byte (i, v) ->
    if i < 0 || i >= len then s
    else begin
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (v land 0xFF));
      Bytes.to_string b
    end
  | Truncate n -> if n < 0 || n >= len then s else String.sub s 0 n
  | Extend tail -> s ^ tail
  | Field_set { bit_off; bits; endian; value; _ } ->
    if bit_off + bits > 8 * len then s
    else begin
      let b = Bytes.of_string s in
      write_bits b ~bit_off ~bits ~endian value;
      Bytes.to_string b
    end
  | Dup_span { off; len = n; at } ->
    if off < 0 || n <= 0 || off + n > len || at < 0 || at > len then s
    else String.sub s 0 at ^ String.sub s off n ^ String.sub s at (len - at)
  | Remove_span { off; len = n } ->
    if off < 0 || n <= 0 || off + n > len then s
    else String.sub s 0 off ^ String.sub s (off + n) (len - off - n)
  | Swap_spans { off1; off2; len = n } ->
    let lo = min off1 off2 and hi = max off1 off2 in
    if lo < 0 || n <= 0 || lo + n > hi || hi + n > len then s
    else begin
      let b = Bytes.of_string s in
      Bytes.blit_string s hi b lo n;
      Bytes.blit_string s lo b hi n;
      Bytes.to_string b
    end
  | Zero_span { off; len = n } ->
    if off < 0 || n <= 0 || off + n > len then s
    else begin
      let b = Bytes.of_string s in
      Bytes.fill b off n '\x00';
      Bytes.to_string b
    end

let apply ops s = List.fold_left (fun s op -> apply_one op s) s ops

(* ------------------------------------------------------------------ *)
(* Random generation.  All randomness is drawn here and frozen into the
   op, so repros replay without the generator. *)

let mask_for bits =
  if bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L

(* Adversarial values for a [bits]-wide field: zero, one, all-ones,
   high bit, off-by-one, random. *)
let hostile_value rng bits =
  let all = mask_for bits in
  match Prng.int rng 6 with
  | 0 -> 0L
  | 1 -> 1L
  | 2 -> all
  | 3 -> Int64.shift_left 1L (bits - 1)
  | 4 -> Int64.logand (Int64.sub all 1L) all
  | _ -> Int64.logand (Prng.next_int64 rng) all

let random_blind rng len =
  match Prng.int rng 8 with
  | 0 | 1 -> Flip_bit (Prng.int rng (8 * len))
  | 2 -> Set_byte (Prng.int rng len, Prng.byte rng)
  | 3 -> Truncate (Prng.int rng len)
  | 4 -> Extend (Prng.string rng (1 + Prng.int rng 16))
  | 5 ->
    let n = 1 + Prng.int rng (max 1 (len / 2)) in
    let off = Prng.int rng (len - n + 1) in
    Dup_span { off; len = n; at = Prng.int rng (len + 1) }
  | 6 ->
    let n = 1 + Prng.int rng len in
    Remove_span { off = Prng.int rng (len - n + 1); len = n }
  | _ ->
    let n = 1 + Prng.int rng (max 1 (len / 2)) in
    Zero_span { off = Prng.int rng (len - n + 1); len = n }

let random_targeted rng slot =
  Field_set
    {
      name = slot.s_name;
      bit_off = slot.s_bit_off;
      bits = slot.s_bits;
      endian = slot.s_endian;
      value = hostile_value rng slot.s_bits;
    }

let random p rng s =
  let len = String.length s in
  if len = 0 then [ Extend (Prng.string rng (1 + Prng.int rng 8)) ]
  else begin
    let slots = Array.of_list p.p_slots in
    let n_ops = 1 + Prng.int rng 3 in
    List.init n_ops (fun _ ->
        if Array.length slots > 0 && Prng.int rng 5 < 2 then
          (* 40%: aimed at a compiled slot — a length lie when the slot is
             Computed, checksum corruption when it is Checksum, a magic
             smash when Const, a constraint/enum probe when Scalar *)
          random_targeted rng (Prng.pick rng slots)
        else if Prng.int rng 8 = 0 && p.p_min_bytes > 0 && len >= p.p_min_bytes
        then
          (* boundary truncation: cut exactly at the static prefix edge or
             one byte either side of the minimum size *)
          Truncate (max 0 (p.p_min_bytes - 1 + Prng.int rng 3))
        else random_blind rng len)
  end

(* ------------------------------------------------------------------ *)
(* Cross-layer mutation.  A chained packet's interesting lies live at
   layer boundaries: an outer length that undercounts the inner header, a
   demux field routed at the wrong next format, an outer byte corrupted
   while the inner checksum stays valid.  The per-layer slot plans are the
   same compiled tables as [plan]; the caller supplies the seed packet's
   layer windows (from an accepting sequential decode) so every targeted
   op lands at its chained wire offset. *)

type chain_plan = {
  cp_layers : plan array;
  cp_selects : (string * int64 list) option array;
}

let chain_plan stack =
  let n = List.length (Stack.layer_names stack) in
  {
    cp_layers = Array.init n (fun i -> plan (Stack.layer_format stack i));
    cp_selects = Array.init n (fun i -> Stack.layer_select stack i);
  }

let find_slot p name = List.find_opt (fun s -> String.equal s.s_name name) p.p_slots

let shift_slot ~byte_off slot value =
  Field_set
    {
      name = slot.s_name;
      bit_off = slot.s_bit_off + (8 * byte_off);
      bits = slot.s_bits;
      endian = slot.s_endian;
      value;
    }

let random_chain cp ~windows rng s =
  let len = String.length s in
  let n = Array.length cp.cp_layers in
  if len = 0 || Array.length windows <> n then
    (* the seed never chain-decoded; aim at the outermost layer only *)
    random cp.cp_layers.(0) rng s
  else begin
    (* bytes of layer [i]'s own header: up to where the next layer starts *)
    let header_len i =
      let off, l = windows.(i) in
      if i + 1 < n then fst windows.(i + 1) - off else l
    in
    let carrier () = Prng.int rng (n - 1) in
    let gen_one () =
      match Prng.int rng 10 with
      | 0 | 1 | 2 -> (
        (* any compiled slot of any layer, at its chained offset *)
        let i = Prng.int rng n in
        let slots = Array.of_list cp.cp_layers.(i).p_slots in
        if Array.length slots = 0 then random_blind rng len
        else
          let slot = Prng.pick rng slots in
          shift_slot ~byte_off:(fst windows.(i)) slot
            (hostile_value rng slot.s_bits))
      | 3 | 4 -> (
        (* demux lie: route a carrier at the wrong next format *)
        let i = carrier () in
        match cp.cp_selects.(i) with
        | Some (field, vs) -> (
          match find_slot cp.cp_layers.(i) field with
          | Some slot ->
            let wrong =
              match Prng.int rng 3 with
              | 0 -> Int64.add (List.nth vs (Prng.int rng (List.length vs))) 1L
              | 1 -> 0L
              | _ -> hostile_value rng slot.s_bits
            in
            shift_slot ~byte_off:(fst windows.(i)) slot wrong
          | None -> random_blind rng len)
        | None -> random_blind rng len)
      | 5 | 6 -> (
        (* outer length lie: shorter than the inner layers need *)
        let i = carrier () in
        match List.filter (fun sl -> sl.s_kind = Computed) cp.cp_layers.(i).p_slots with
        | [] -> random_blind rng len
        | computed ->
          let slot = List.nth computed (Prng.int rng (List.length computed)) in
          let lie = Int64.of_int (Prng.int rng (header_len i + 4)) in
          shift_slot ~byte_off:(fst windows.(i)) slot lie)
      | 7 ->
        (* corrupt one outer header byte, inner layers untouched: every
           inner checksum stays valid under the outer corruption *)
        let i = carrier () in
        let off = fst windows.(i) and hl = max 1 (header_len i) in
        Set_byte (off + Prng.int rng hl, Prng.byte rng)
      | _ -> random_blind rng len
    in
    List.init (1 + Prng.int rng 3) (fun _ -> gen_one ())
  end

let op_to_string = function
  | Flip_bit i -> Printf.sprintf "flip_bit %d" i
  | Set_byte (i, v) -> Printf.sprintf "set_byte %d 0x%02x" i v
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Extend s -> Printf.sprintf "extend %s" (Netdsl_util.Hexdump.to_hex s)
  | Field_set { name; bit_off; bits; value; _ } ->
    Printf.sprintf "field_set %s@%d:%d=%Ld" name bit_off bits value
  | Dup_span { off; len; at } -> Printf.sprintf "dup_span %d+%d@%d" off len at
  | Remove_span { off; len } -> Printf.sprintf "remove_span %d+%d" off len
  | Swap_spans { off1; off2; len } ->
    Printf.sprintf "swap_spans %d<->%d+%d" off1 off2 len
  | Zero_span { off; len } -> Printf.sprintf "zero_span %d+%d" off len
