module P = Netdsl_util.Prng

type config = { max_var_bytes : int; max_array_elems : int; max_int_tries : int }

let default_config = { max_var_bytes = 64; max_array_elems = 8; max_int_tries = 100 }

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Generation-time environment: integer values chosen so far (flat scope
   chain, like the codec's), plus values pinned in advance so that variant
   tags match the case that will be generated. *)
type scope = {
  mutable vals : (string * int64) list;
  parent : scope option;
  mutable pinned : (string * int64) list;
  mutable computed : (string * Desc.expr) list;
}

let new_scope parent = { vals = []; parent; pinned = []; computed = [] }

let rec lookup scope name =
  match List.assoc_opt name scope.vals with
  | Some v -> Some v
  | None -> ( match scope.parent with None -> None | Some p -> lookup p name)

let rec lookup_computed scope name =
  match List.assoc_opt name scope.computed with
  | Some e -> Some e
  | None -> (
    match scope.parent with None -> None | Some p -> lookup_computed p name)

let rec eval scope (e : Desc.expr) =
  match e with
  | Const v -> v
  | Field name -> (
    match lookup scope name with
    | Some v -> v
    | None -> unsupported "length expression depends on derived field %S" name)
  | Byte_len name -> unsupported "length expression uses len(%s)" name
  | Msg_len -> unsupported "length expression uses len(message)"
  | Add (a, b) -> Int64.add (eval scope a) (eval scope b)
  | Sub (a, b) -> Int64.sub (eval scope a) (eval scope b)
  | Mul (a, b) -> Int64.mul (eval scope a) (eval scope b)
  | Div (a, b) ->
    let d = eval scope b in
    if Int64.equal d 0L then unsupported "length expression divides by zero"
    else Int64.div (eval scope a) d

let rand_bits rng bits =
  if bits >= 64 then P.next_int64 rng
  else Int64.logand (P.next_int64 rng) (Int64.sub (Int64.shift_left 1L bits) 1L)

let satisfies constraints v =
  List.for_all
    (fun (c : Desc.constr) ->
      match c with
      | In_range (lo, hi) -> Int64.compare lo v <= 0 && Int64.compare v hi <= 0
      | One_of vs -> List.exists (Int64.equal v) vs
      | Not_equal x -> not (Int64.equal v x))
    constraints

let gen_int config rng ~bits constraints =
  (* Prefer driving the generator from the constraints themselves. *)
  let direct =
    List.find_map
      (fun (c : Desc.constr) ->
        match c with
        | One_of vs -> Some (fun () -> P.pick_list rng vs)
        | In_range (lo, hi) ->
          Some
            (fun () ->
              let span = Int64.sub hi lo in
              if Int64.compare span 0L < 0 then unsupported "empty In_range constraint"
              else if Int64.compare span (Int64.of_int max_int) >= 0 then
                rand_bits rng bits
              else Int64.add lo (Int64.of_int (P.int rng (Int64.to_int span + 1))))
        | Not_equal _ -> None)
      constraints
  in
  let draw = match direct with Some f -> f | None -> fun () -> rand_bits rng bits in
  let rec attempt n =
    if n = 0 then unsupported "could not satisfy constraints in %d tries" config.max_int_tries
    else
      let v = draw () in
      if satisfies constraints v && (bits >= 64 || Int64.equal v (Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)))
      then v
      else attempt (n - 1)
  in
  attempt config.max_int_tries

(* Chooses variant cases ahead of the field walk so that tag fields can be
   pinned to matching values. *)
let pin_variant_tags rng scope (fmt : Desc.t) =
  List.filter_map
    (fun (f : Desc.field) ->
      match f.ty with
      | Variant { tag; cases; default = _ } when cases <> [] ->
        let case_name, tag_value, _ = P.pick_list rng cases in
        scope.pinned <- (tag, tag_value) :: scope.pinned;
        Some (f.name, case_name)
      | _ -> None)
    fmt.fields

let rec gen_format config rng scope (fmt : Desc.t) : Value.t =
  let chosen_cases = pin_variant_tags rng scope fmt in
  let fields =
    List.filter_map
      (fun (f : Desc.field) ->
        match gen_field config rng scope chosen_cases f with
        | None -> None
        | Some v -> Some (f.name, v))
      fmt.fields
  in
  Value.Record fields

and gen_field config rng scope chosen_cases (f : Desc.field) : Value.t option =
  let remember v = scope.vals <- (f.name, v) :: scope.vals in
  match f.ty with
  | Uint { bits; _ } ->
    let v =
      match List.assoc_opt f.name scope.pinned with
      | Some pin -> pin
      | None -> gen_int config rng ~bits f.constraints
    in
    remember v;
    Some (Value.Int v)
  | Bool_flag ->
    let v =
      match List.assoc_opt f.name scope.pinned with
      | Some pin -> not (Int64.equal pin 0L)
      | None -> P.bool rng
    in
    remember (if v then 1L else 0L);
    Some (Value.Bool v)
  | Const { value; _ } ->
    remember value;
    None (* the codec supplies constants *)
  | Enum { bits; cases; exhaustive; _ } ->
    let v =
      match List.assoc_opt f.name scope.pinned with
      | Some pin -> pin
      | None ->
        if cases <> [] then snd (P.pick_list rng cases)
        else if exhaustive then unsupported "exhaustive enum with no cases"
        else rand_bits rng bits
    in
    remember v;
    Some (Value.Int v)
  | Computed { expr; _ } ->
    scope.computed <- (f.name, expr) :: scope.computed;
    None (* derived by the codec *)
  | Checksum _ -> None (* derived by the codec *)
  | Bytes spec ->
    let n =
      match spec with
      | Len_fixed n -> n
      | Len_expr e | Len_bytes e -> (
        (* A length that names a computed field is generable when the
           dependency is the trivially invertible pattern of a plain length
           prefix: `len : computed = len(payload); payload : bytes[len]`.
           There any payload size is self-consistent, so pick one. *)
        let invertible =
          match e with
          | Desc.Field name -> (
            match lookup_computed scope name with
            | Some (Desc.Byte_len target) -> String.equal target f.name
            | Some _ | None -> false)
          | _ -> false
        in
        if invertible then P.int rng (config.max_var_bytes + 1)
        else
          let v = eval scope e in
          if Int64.compare v 0L < 0 || Int64.compare v 1_000_000L > 0 then
            unsupported "generated length %Ld out of range" v
          else Int64.to_int v)
      | Len_remaining -> P.int rng (config.max_var_bytes + 1)
      | Len_terminated _ -> P.int rng (config.max_var_bytes + 1)
    in
    let body =
      match spec with
      | Len_terminated t ->
        (* The value may not contain the terminator byte. *)
        String.init n (fun _ ->
            let b = P.int rng 255 in
            Char.chr (if b >= t then b + 1 else b))
      | Len_fixed _ | Len_expr _ | Len_bytes _ | Len_remaining -> P.string rng n
    in
    Some (Value.Bytes body)
  | Array { elem; length } ->
    let count =
      match length with
      | Len_fixed n -> Some n
      | Len_expr e -> (
        (* The array analogue of a plain length prefix:
           `count : computed = len(items) / k; items : elem[count]` with
           [elem] exactly [k] bytes.  Any element count is self-consistent,
           so pick one. *)
        let invertible =
          match e with
          | Desc.Field name -> (
            match (lookup_computed scope name, Sizing.fixed_bytes elem) with
            | Some (Desc.Div (Desc.Byte_len target, Desc.Const k)), Some n ->
              String.equal target f.name && Int64.equal k (Int64.of_int n)
            | _ -> false)
          | _ -> false
        in
        if invertible then Some (P.int rng (config.max_array_elems + 1))
        else
          let v = eval scope e in
          if Int64.compare v 0L < 0 || Int64.compare v 100_000L > 0 then
            unsupported "generated element count %Ld out of range" v
          else Some (Int64.to_int v))
      | Len_bytes _ -> None
      | Len_terminated _ -> unsupported "arrays cannot be terminator-delimited"
      | Len_remaining -> Some (P.int rng (config.max_array_elems + 1))
    in
    let count =
      match count with
      | Some n -> n
      | None ->
        (* Byte-delimited arrays need a length that the referenced field
           also agrees with; only generable when the bound is derived
           (computed) — which [eval] rejects — so refuse. *)
        unsupported "byte-delimited array length cannot be generated"
    in
    let elems =
      List.init count (fun _ -> gen_format config rng (new_scope (Some scope)) elem)
    in
    Some (Value.List elems)
  | Record sub -> Some (gen_format config rng (new_scope (Some scope)) sub)
  | Variant { cases; default; _ } -> (
    match List.assoc_opt f.name chosen_cases with
    | Some case_name -> (
      match List.find_opt (fun (n, _, _) -> String.equal n case_name) cases with
      | Some (_, _, sub) ->
        Some (Value.Variant (case_name, gen_format config rng (new_scope (Some scope)) sub))
      | None -> unsupported "internal: chosen case vanished")
    | None -> (
      match default with
      | Some sub ->
        Some (Value.Variant ("default", gen_format config rng (new_scope (Some scope)) sub))
      | None -> unsupported "variant with no cases"))
  | Padding _ -> None

let generate ?(config = default_config) rng fmt =
  gen_format config rng (new_scope None) fmt

let generate_opt ?config rng fmt =
  match generate ?config rng fmt with
  | v -> Some v
  | exception Unsupported _ -> None

let generate_bytes ?config rng fmt =
  let v = generate ?config rng fmt in
  match Codec.encode fmt v with
  | Ok s -> s
  | Error e -> unsupported "generated value failed to encode: %s" (Codec.error_to_string e)

let mutate rng ?(flips = 1) s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    for _ = 1 to flips do
      let bit = P.int rng (8 * Bytes.length b) in
      let idx = bit lsr 3 and mask = 1 lsl (7 - (bit land 7)) in
      Bytes.set b idx (Char.chr (Char.code (Bytes.get b idx) lxor mask))
    done;
    Bytes.to_string b
  end

let truncate_random rng s =
  if String.length s <= 1 then ""
  else String.sub s 0 (P.int_in rng 1 (String.length s - 1))
