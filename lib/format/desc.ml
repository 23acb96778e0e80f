type endian = Big | Little

type expr =
  | Const of int64
  | Field of string
  | Byte_len of string
  | Msg_len
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type len_spec =
  | Len_fixed of int
  | Len_expr of expr
  | Len_bytes of expr
  | Len_remaining
  | Len_terminated of int

type region =
  | Region_message
  | Region_span of string * string
  | Region_rest

type constr =
  | In_range of int64 * int64
  | One_of of int64 list
  | Not_equal of int64

type ty =
  | Uint of { bits : int; endian : endian }
  | Bool_flag
  | Const of { bits : int; endian : endian; value : int64 }
  | Enum of {
      bits : int;
      endian : endian;
      cases : (string * int64) list;
      exhaustive : bool;
    }
  | Computed of { bits : int; endian : endian; expr : expr }
  | Checksum of { algorithm : Netdsl_util.Checksum.algorithm; region : region }
  | Bytes of len_spec
  | Array of { elem : t; length : len_spec }
  | Record of t
  | Variant of {
      tag : string;
      cases : (string * int64 * t) list;
      default : t option;
    }
  | Padding of { bits : int }

and field = {
  name : string;
  ty : ty;
  doc : string option;
  constraints : constr list;
}

and t = { format_name : string; fields : t_fields }
and t_fields = field list

let format format_name fields = { format_name; fields }
let field ?doc ?(constraints = []) name ty = { name; ty; doc; constraints }

let uint bits = Uint { bits; endian = Big }
let uint_le bits = Uint { bits; endian = Little }
let u8 = uint 8
let u16 = uint 16
let u32 = uint 32
let u64 = uint 64
let flag = Bool_flag
let const bits value = Const { bits; endian = Big; value }

let enum ?(exhaustive = true) bits cases =
  Enum { bits; endian = Big; cases; exhaustive }

let computed bits expr = Computed { bits; endian = Big; expr }
let checksum ?(region = Region_message) algorithm = Checksum { algorithm; region }
let bytes_fixed n = Bytes (Len_fixed n)
let bytes_expr e = Bytes (Len_expr e)
let bytes_remaining = Bytes Len_remaining
let cstring = Bytes (Len_terminated 0)
let array_fixed elem n = Array { elem; length = Len_fixed n }
let array_expr elem e = Array { elem; length = Len_expr e }
let array_remaining elem = Array { elem; length = Len_remaining }
let record t = Record t
let padding bits = Padding { bits }

let find_field t name = List.find_opt (fun f -> String.equal f.name name) t.fields
let field_names t = List.map (fun f -> f.name) t.fields

let is_value_bearing = function Padding _ -> false | _ -> true

let rec fold_formats f acc t =
  let acc = f acc t in
  List.fold_left
    (fun acc fld ->
      match fld.ty with
      | Array { elem; _ } -> fold_formats f acc elem
      | Record sub -> fold_formats f acc sub
      | Variant { cases; default; _ } ->
        let acc =
          List.fold_left (fun acc (_, _, sub) -> fold_formats f acc sub) acc cases
        in
        (match default with None -> acc | Some sub -> fold_formats f acc sub)
      | Uint _ | Bool_flag | Const _ | Enum _ | Computed _ | Checksum _
      | Bytes _ | Padding _ ->
        acc)
    acc t.fields

(* One walk for both kinds of reference: names whose value an expression
   or a variant reads, and names whose encoded extent a [len(...)] or a
   checksum span reads. *)
let references t =
  let rec expr ((vals, spans) as acc) (e : expr) =
    match e with
    | Const _ | Msg_len -> acc
    | Field n -> (n :: vals, spans)
    | Byte_len n -> (vals, n :: spans)
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> expr (expr acc a) b
  in
  let len acc = function
    | Len_expr e | Len_bytes e -> expr acc e
    | Len_fixed _ | Len_remaining | Len_terminated _ -> acc
  in
  let field ((vals, spans) as acc) fld =
    match fld.ty with
    | Computed { expr = e; _ } -> expr acc e
    | Checksum { region = Region_span (a, b); _ } -> (vals, a :: b :: spans)
    | Bytes l -> len acc l
    | Array { length; _ } -> len acc length
    | Variant { tag; _ } -> (tag :: vals, spans)
    | Uint _ | Bool_flag | Const _ | Enum _ | Checksum _ | Record _ | Padding _ -> acc
  in
  let vals, spans =
    fold_formats (fun acc sub -> List.fold_left field acc sub.fields) ([], []) t
  in
  (List.sort_uniq compare vals, List.sort_uniq compare spans)

let rec pp_expr ppf (e : expr) =
  match e with
  | Const v -> Format.fprintf ppf "%Ld" v
  | Field n -> Format.pp_print_string ppf n
  | Byte_len n -> Format.fprintf ppf "len(%s)" n
  | Msg_len -> Format.pp_print_string ppf "len(message)"
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_expr a pp_expr b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_expr a pp_expr b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp_expr a pp_expr b

let pp_endian ppf = function
  | Big -> ()
  | Little -> Format.pp_print_string ppf " le"

let pp_len_spec ppf = function
  | Len_fixed n -> Format.fprintf ppf "%d" n
  | Len_expr e -> pp_expr ppf e
  | Len_bytes e -> Format.fprintf ppf "bytes %a" pp_expr e
  | Len_remaining -> Format.pp_print_string ppf "remaining"
  | Len_terminated t -> Format.fprintf ppf "terminated by 0x%02x" t

let pp_region ppf = function
  | Region_message -> Format.pp_print_string ppf "message"
  | Region_span (a, b) -> Format.fprintf ppf "%s .. %s" a b
  | Region_rest -> Format.pp_print_string ppf "rest"

let rec pp_ty ppf = function
  | Uint { bits; endian } -> Format.fprintf ppf "uint%d%a" bits pp_endian endian
  | Bool_flag -> Format.pp_print_string ppf "flag"
  | Const { bits; value; endian } ->
    Format.fprintf ppf "const uint%d%a = %Ld" bits pp_endian endian value
  | Enum { bits; cases; exhaustive; endian } ->
    Format.fprintf ppf "enum%d%a {%s%s}" bits pp_endian endian
      (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s = %Ld" n v) cases))
      (if exhaustive then "" else ", ...")
  | Computed { bits; expr; _ } -> Format.fprintf ppf "uint%d = %a" bits pp_expr expr
  | Checksum { algorithm; region } ->
    Format.fprintf ppf "checksum %s over %a"
      (Netdsl_util.Checksum.algorithm_to_string algorithm)
      pp_region region
  | Bytes spec -> Format.fprintf ppf "bytes[%a]" pp_len_spec spec
  | Array { elem; length } ->
    Format.fprintf ppf "%s[%a]" elem.format_name pp_len_spec length
  | Record sub -> Format.fprintf ppf "record %s" sub.format_name
  | Variant { tag; cases; default } ->
    Format.fprintf ppf "variant on %s {%s%s}" tag
      (String.concat ", "
         (List.map (fun (n, v, sub) -> Printf.sprintf "%s(%Ld): %s" n v sub.format_name) cases))
      (match default with None -> "" | Some sub -> Printf.sprintf ", default: %s" sub.format_name)
  | Padding { bits } -> Format.fprintf ppf "padding %d" bits

and pp_constr ppf = function
  | In_range (lo, hi) -> Format.fprintf ppf "in %Ld..%Ld" lo hi
  | One_of vs ->
    Format.fprintf ppf "one of {%s}" (String.concat ", " (List.map Int64.to_string vs))
  | Not_equal v -> Format.fprintf ppf "/= %Ld" v

and pp_field ppf f =
  Format.fprintf ppf "@[<h>%s : %a%a%a@]" f.name pp_ty f.ty
    (fun ppf cs ->
      List.iter (fun c -> Format.fprintf ppf " where %a" pp_constr c) cs)
    f.constraints
    (fun ppf -> function
      | None -> ()
      | Some d -> Format.fprintf ppf "  (* %s *)" d)
    f.doc

and pp ppf t =
  Format.fprintf ppf "@[<v 2>format %s {" t.format_name;
  List.iter (fun f -> Format.fprintf ppf "@,%a;" pp_field f) t.fields;
  Format.fprintf ppf "@]@,}"

let to_string t = Format.asprintf "%a" pp t
