type t =
  | Int of int64
  | Bool of bool
  | Bytes of string
  | List of t list
  | Record of (string * t) list
  | Variant of string * t

let int n = Int (Int64.of_int n)
let int64 v = Int v
let bool b = Bool b
let bytes s = Bytes s
let list vs = List vs
let record fields = Record fields
let variant name v = Variant (name, v)

let shape = function
  | Int _ -> "int"
  | Bool _ -> "bool"
  | Bytes _ -> "bytes"
  | List _ -> "list"
  | Record _ -> "record"
  | Variant _ -> "variant"

let wrong expected v =
  invalid_arg (Printf.sprintf "Value: expected %s, got %s" expected (shape v))

let to_int64 = function Int v -> v | v -> wrong "int" v
let to_int v = Int64.to_int (to_int64 v)
let to_bool = function Bool b -> b | v -> wrong "bool" v
let to_bytes = function Bytes s -> s | v -> wrong "bytes" v
let to_list = function List vs -> vs | v -> wrong "list" v
let to_record = function Record fs -> fs | v -> wrong "record" v

let find v name =
  match v with
  | Record fields -> List.assoc_opt name fields
  | Variant (_, Record fields) -> List.assoc_opt name fields
  | _ -> None

let find_int_flat v name =
  let scalar = function
    | Int x -> Some x
    | Bool b -> Some (if b then 1L else 0L)
    | Bytes _ | List _ | Record _ | Variant _ -> None
  in
  match v with
  | Record fields -> (
    match List.assoc_opt name fields with
    | Some x -> scalar x
    | None ->
      List.find_map
        (function
          | _, Variant (_, Record case) -> Option.bind (List.assoc_opt name case) scalar
          | _ -> None)
        fields)
  | _ -> None

let get v name =
  match find v name with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Value.get: no field %S" name)

let get_int v name = to_int (get v name)
let get_int64 v name = to_int64 (get v name)
let get_bool v name = to_bool (get v name)
let get_bytes v name = to_bytes (get v name)
let get_list v name = to_list (get v name)

let rec path v = function
  | [] -> Some v
  | name :: rest -> (
    match find v name with None -> None | Some v' -> path v' rest)

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> Int64.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Bytes x, Bytes y -> String.equal x y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Record xs, Record ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (nx, vx) (ny, vy) -> String.equal nx ny && equal vx vy)
         xs ys
  | Variant (nx, vx), Variant (ny, vy) -> String.equal nx ny && equal vx vy
  | (Int _ | Bool _ | Bytes _ | List _ | Record _ | Variant _), _ -> false

let rec compare a b =
  match (a, b) with
  | Int x, Int y -> Int64.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Bytes x, Bytes y -> String.compare x y
  | List xs, List ys -> List.compare compare xs ys
  | Record xs, Record ys ->
    List.compare
      (fun (nx, vx) (ny, vy) ->
        match String.compare nx ny with 0 -> compare vx vy | c -> c)
      xs ys
  | Variant (nx, vx), Variant (ny, vy) -> (
    match String.compare nx ny with 0 -> compare vx vy | c -> c)
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | Bytes _, _ -> -1
  | _, Bytes _ -> 1
  | List _, _ -> -1
  | _, List _ -> 1
  | Record _, _ -> -1
  | _, Record _ -> 1

let rec pp ppf = function
  | Int v -> Format.fprintf ppf "%Ld" v
  | Bool b -> Format.pp_print_bool ppf b
  | Bytes s ->
    if String.length s <= 16 then Format.fprintf ppf "0x%s" (Netdsl_util.Hexdump.to_hex s)
    else Format.fprintf ppf "<%d bytes>" (String.length s)
  | List vs ->
    Format.fprintf ppf "[@[<hov>%a@]]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
      vs
  | Record fields ->
    Format.fprintf ppf "{@[<hov>%a@]}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         (fun ppf (n, v) -> Format.fprintf ppf "%s = %a" n pp v))
      fields
  | Variant (name, v) -> Format.fprintf ppf "%s %a" name pp v

let to_string v = Format.asprintf "%a" pp v

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON numbers are only exact up to 2^53; wider values ride as strings. *)
let json_int v =
  if Int64.compare (Int64.abs v) 9007199254740992L <= 0 && Int64.compare v Int64.min_int <> 0
  then Int64.to_string v
  else Printf.sprintf "%S" (Int64.to_string v)

let rec to_json = function
  | Int v -> json_int v
  | Bool b -> string_of_bool b
  | Bytes s -> Printf.sprintf "\"hex:%s\"" (Netdsl_util.Hexdump.to_hex s)
  | List vs -> "[" ^ String.concat "," (List.map to_json vs) ^ "]"
  | Record fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (n, v) -> Printf.sprintf "\"%s\":%s" (json_escape n) (to_json v)) fields)
    ^ "}"
  | Variant (case, Record fields) ->
    "{"
    ^ String.concat ","
        (Printf.sprintf "\"case\":\"%s\"" (json_escape case)
        :: List.map (fun (n, v) -> Printf.sprintf "\"%s\":%s" (json_escape n) (to_json v)) fields)
    ^ "}"
  | Variant (case, v) ->
    Printf.sprintf "{\"case\":\"%s\",\"value\":%s}" (json_escape case) (to_json v)

let rec strip_derived (fmt : Desc.t) v =
  match v with
  | Record fields ->
    let keep (name, fv) =
      match Desc.find_field fmt name with
      | None -> Some (name, fv)
      | Some f -> (
        match f.ty with
        | Checksum _ | Computed _ | Const _ -> None
        | Record sub -> Some (name, strip_derived sub fv)
        | Array { elem; _ } -> (
          match fv with
          | List vs -> Some (name, List (List.map (strip_derived elem) vs))
          | _ -> Some (name, fv))
        | Variant { cases; default; _ } -> (
          match fv with
          | Variant (case, body) ->
            let sub =
              match List.find_opt (fun (n, _, _) -> String.equal n case) cases with
              | Some (_, _, sub) -> Some sub
              | None -> default
            in
            (match sub with
            | Some sub -> Some (name, Variant (case, strip_derived sub body))
            | None -> Some (name, fv))
          | _ -> Some (name, fv))
        | Uint _ | Bool_flag | Enum _ | Bytes _ | Padding _ -> Some (name, fv))
    in
    Record (List.filter_map keep fields)
  | Int _ | Bool _ | Bytes _ | List _ | Variant _ -> v
