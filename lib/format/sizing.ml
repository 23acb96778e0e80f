type bounds = { min_bits : int; max_bits : int option }

let pp_bounds ppf b =
  match b.max_bits with
  | Some m when m = b.min_bits -> Format.fprintf ppf "exactly %d bits" b.min_bits
  | Some m -> Format.fprintf ppf "%d to %d bits" b.min_bits m
  | None -> Format.fprintf ppf "at least %d bits" b.min_bits

let exact n = { min_bits = n; max_bits = Some n }
let unbounded_from n = { min_bits = n; max_bits = None }

let add a b =
  {
    min_bits = a.min_bits + b.min_bits;
    max_bits =
      (match (a.max_bits, b.max_bits) with
      | Some x, Some y -> Some (x + y)
      | _, None | None, _ -> None);
  }

let scale n b =
  {
    min_bits = n * b.min_bits;
    max_bits = (match b.max_bits with Some m -> Some (n * m) | None -> None);
  }

let union a b =
  {
    min_bits = min a.min_bits b.min_bits;
    max_bits =
      (match (a.max_bits, b.max_bits) with
      | Some x, Some y -> Some (max x y)
      | _, None | None, _ -> None);
  }

let rec bounds (fmt : Desc.t) =
  List.fold_left (fun acc f -> add acc (field_bounds f)) (exact 0) fmt.fields

and field_bounds (f : Desc.field) =
  match f.ty with
  | Uint { bits; _ } | Const { bits; _ } | Enum { bits; _ }
  | Computed { bits; _ } | Padding { bits } ->
    exact bits
  | Bool_flag -> exact 1
  | Checksum { algorithm; _ } -> exact (Netdsl_util.Checksum.width_bits algorithm)
  | Bytes (Len_fixed n) -> exact (8 * n)
  | Bytes (Len_expr _ | Len_bytes _ | Len_remaining) -> unbounded_from 0
  | Bytes (Len_terminated _) -> unbounded_from 8 (* at least the terminator *)
  | Array { elem; length = Len_fixed n } -> scale n (bounds elem)
  | Array { length = Len_expr _ | Len_bytes _ | Len_remaining | Len_terminated _; _ } ->
    unbounded_from 0
  | Record sub -> bounds sub
  | Variant { cases; default; _ } -> (
    let case_bounds = List.map (fun (_, _, sub) -> bounds sub) cases in
    let all =
      match default with
      | None -> case_bounds
      | Some sub -> bounds sub :: case_bounds
    in
    match all with
    | [] -> exact 0
    | first :: rest -> List.fold_left union first rest)

let fixed_bits fmt =
  let b = bounds fmt in
  match b.max_bits with Some m when m = b.min_bits -> Some m | Some _ | None -> None

let fixed_bytes fmt =
  match fixed_bits fmt with
  | Some n when n land 7 = 0 -> Some (n / 8)
  | Some _ | None -> None

let min_bytes fmt = ((bounds fmt).min_bits + 7) / 8

let fixed_of b = match b.max_bits with Some m when m = b.min_bits -> Some m | _ -> None

(* ---- the static layout ---- *)

type kind = Int | Flag | Const | Computed | Checksum | Padding

type shape = {
  bits : int;
  endian : Desc.endian;
  kind : kind;
  admitted : (int64 * int64) list;
}

type entry = {
  field : Desc.field;
  shape : shape option;
  off : int option;
  width : int option;
  min_end : int;
}

type layout = entry list

(* Sorted, disjoint, non-adjacent intervals over signed [int64], the
   order [Codec]'s constraint checks compare in. *)
let normalise ivs =
  let rec merge = function
    | (a, b) :: (c, d) :: rest
      when Int64.equal b Int64.max_int || Int64.compare c (Int64.succ b) <= 0 ->
      merge ((a, if Int64.compare d b > 0 then d else b) :: rest)
    | iv :: rest -> iv :: merge rest
    | [] -> []
  in
  merge (List.sort compare (List.filter (fun (a, b) -> Int64.compare a b <= 0) ivs))

let inter xs ys =
  let imax a b = if Int64.compare a b >= 0 then a else b in
  let imin a b = if Int64.compare a b <= 0 then a else b in
  normalise
    (List.concat_map (fun (a, b) -> List.map (fun (c, d) -> (imax a c, imin b d)) ys) xs)

let points vs = normalise (List.map (fun v -> (v, v)) vs)

(* Every value a [bits]-wide read can produce, as [Codec] reads it: a
   64-bit field wraps to negative [int64]s. *)
let domain bits =
  if bits >= 64 then [ (Int64.min_int, Int64.max_int) ]
  else [ (0L, Int64.pred (Int64.shift_left 1L (max 0 bits))) ]

let constrained set (c : Desc.constr) =
  match c with
  | In_range (lo, hi) -> inter set [ (lo, hi) ]
  | One_of vs -> inter set (points vs)
  | Not_equal v ->
    inter set
      ((if Int64.equal v Int64.min_int then [] else [ (Int64.min_int, Int64.pred v) ])
      @ if Int64.equal v Int64.max_int then [] else [ (Int64.succ v, Int64.max_int) ])

(* The scalar shape of a field and the values [Codec.decode] accepts for
   it: constants and exhaustive enums restrict the domain, and the
   constraints of a [uint] or an [enum] narrow it (the codec checks no
   other field's constraints). *)
let shape_of (f : Desc.field) =
  let mk bits endian kind admitted = Some { bits; endian; kind; admitted } in
  let all bits = domain bits in
  match f.ty with
  | Uint { bits; endian } ->
    mk bits endian Int (List.fold_left constrained (all bits) f.constraints)
  | Enum { bits; endian; cases; exhaustive } ->
    let base = if exhaustive then inter (all bits) (points (List.map snd cases)) else all bits in
    mk bits endian Int (List.fold_left constrained base f.constraints)
  | Const { bits; endian; value } -> mk bits endian Const (inter (all bits) (points [ value ]))
  | Bool_flag -> mk 1 Desc.Big Flag (all 1)
  | Computed { bits; endian; _ } -> mk bits endian Computed (all bits)
  | Checksum { algorithm; _ } ->
    let bits = Netdsl_util.Checksum.width_bits algorithm in
    mk bits Desc.Big Checksum (all bits)
  | Padding { bits } -> mk bits Desc.Big Padding (all bits)
  | Bytes _ | Array _ | Record _ | Variant _ -> None

let layout (fmt : Desc.t) =
  let rec go off min_end = function
    | [] -> []
    | (f : Desc.field) :: rest ->
      let b = field_bounds f in
      (* a negative size is ill-formed: it places nothing after it *)
      let width = match fixed_of b with Some w when w >= 0 -> Some w | _ -> None in
      let min_end = min_end + b.min_bits in
      let next = match (off, width) with Some o, Some w -> Some (o + w) | _ -> None in
      { field = f; shape = shape_of f; off; width; min_end } :: go next min_end rest
  in
  go (Some 0) 0 fmt.fields

let find (l : layout) name = List.find_opt (fun e -> String.equal e.field.name name) l

let span (l : layout) name =
  match find l name with
  | None -> Result.Error (Printf.sprintf "no top-level field %S" name)
  | Some { off = Some o; width = Some w; _ } -> Ok (o, w)
  | Some { off = Some _; width = None; _ } ->
    Result.Error (Printf.sprintf "field %S has a variable size" name)
  | Some { off = None; _ } ->
    Result.Error (Printf.sprintf "field %S is not at a fixed offset" name)

let full (s : shape) = s.admitted = domain s.bits

let admits (s : shape) v =
  List.exists (fun (lo, hi) -> Int64.compare lo v <= 0 && Int64.compare v hi <= 0) s.admitted

let ranges (s : shape) =
  match s.admitted with
  | [] -> (1, 0, [||])
  | [ (lo, hi) ] -> (Int64.to_int lo, Int64.to_int hi, [||])
  | (lo, _) :: _ as ivs ->
    let pairs = List.concat_map (fun (l, h) -> [ Int64.to_int l; Int64.to_int h ]) ivs in
    (Int64.to_int lo, List.nth pairs (List.length pairs - 1), Array.of_list pairs)

let rec in_ranges a v i =
  i < Array.length a
  && ((Array.unsafe_get a i <= v && v <= Array.unsafe_get a (i + 1)) || in_ranges a v (i + 2))

(* ---- wire order ---- *)

let swap_bytes ~bits v =
  let r = ref 0 in
  for i = 0 to (bits lsr 3) - 1 do
    r := (!r lsl 8) lor ((v lsr (8 * i)) land 0xFF)
  done;
  !r

let swap_bytes64 ~bits v =
  let r = ref 0L in
  for i = 0 to (bits / 8) - 1 do
    r := Int64.logor (Int64.shift_left !r 8) (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)
  done;
  !r
