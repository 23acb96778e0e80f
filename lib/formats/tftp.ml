open Netdsl_format

let format = Stacks_spec.format_tftp

type packet =
  | Rrq of { filename : string; mode : string }
  | Wrq of { filename : string; mode : string }
  | Data of { block : int; data : string }
  | Ack of { block : int }
  | Error of { code : int; message : string }

let equal_packet a b =
  match (a, b) with
  | Rrq x, Rrq y -> String.equal x.filename y.filename && String.equal x.mode y.mode
  | Wrq x, Wrq y -> String.equal x.filename y.filename && String.equal x.mode y.mode
  | Data x, Data y -> x.block = y.block && String.equal x.data y.data
  | Ack x, Ack y -> x.block = y.block
  | Error x, Error y -> x.code = y.code && String.equal x.message y.message
  | (Rrq _ | Wrq _ | Data _ | Ack _ | Error _), _ -> false

let pp_packet ppf = function
  | Rrq { filename; mode } -> Format.fprintf ppf "RRQ(%s, %s)" filename mode
  | Wrq { filename; mode } -> Format.fprintf ppf "WRQ(%s, %s)" filename mode
  | Data { block; data } -> Format.fprintf ppf "DATA(block %d, %d bytes)" block (String.length data)
  | Ack { block } -> Format.fprintf ppf "ACK(block %d)" block
  | Error { code; message } -> Format.fprintf ppf "ERROR(%d, %s)" code message

let to_value p =
  let v opcode case body =
    Value.record [ ("opcode", Value.int opcode); ("body", Value.variant case (Value.record body)) ]
  in
  match p with
  | Rrq { filename; mode } ->
    v 1 "rrq" [ ("filename", Value.bytes filename); ("mode", Value.bytes mode) ]
  | Wrq { filename; mode } ->
    v 2 "wrq" [ ("filename", Value.bytes filename); ("mode", Value.bytes mode) ]
  | Data { block; data } ->
    v 3 "data" [ ("block", Value.int block); ("data", Value.bytes data) ]
  | Ack { block } -> v 4 "ack" [ ("block", Value.int block) ]
  | Error { code; message } ->
    v 5 "error" [ ("code", Value.int code); ("message", Value.bytes message) ]

let to_bytes p = Codec.encode format (to_value p)

let to_bytes_exn p = Codec.encode_exn format (to_value p)

let of_bytes bytes =
  match Codec.decode format bytes with
  | Error e -> Result.Error (Codec.error_to_string e)
  | Ok v -> (
    match Value.get v "body" with
    | Value.Variant ("rrq", b) ->
      Ok (Rrq { filename = Value.get_bytes b "filename"; mode = Value.get_bytes b "mode" })
    | Value.Variant ("wrq", b) ->
      Ok (Wrq { filename = Value.get_bytes b "filename"; mode = Value.get_bytes b "mode" })
    | Value.Variant ("data", b) ->
      Ok (Data { block = Value.get_int b "block"; data = Value.get_bytes b "data" })
    | Value.Variant ("ack", b) -> Ok (Ack { block = Value.get_int b "block" })
    | Value.Variant ("error", b) ->
      Ok (Error { code = Value.get_int b "code"; message = Value.get_bytes b "message" })
    | _ -> Result.Error "impossible variant")
