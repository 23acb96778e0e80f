open Netdsl_format

let seq_modulus = 256

let format = Arq_spec.format_arq_packet

type packet =
  | Data of { seq : int; payload : string }
  | Ack of { seq : int }

let equal_packet a b =
  match (a, b) with
  | Data { seq = s1; payload = p1 }, Data { seq = s2; payload = p2 } ->
    s1 = s2 && String.equal p1 p2
  | Ack { seq = s1 }, Ack { seq = s2 } -> s1 = s2
  | (Data _ | Ack _), _ -> false

let pp_packet ppf = function
  | Data { seq; payload } -> Format.fprintf ppf "DATA(seq=%d, %d bytes)" seq (String.length payload)
  | Ack { seq } -> Format.fprintf ppf "ACK(seq=%d)" seq

let to_value = function
  | Data { seq; payload } ->
    Value.record
      [ ("seq", Value.int seq); ("kind", Value.int 0); ("payload", Value.bytes payload) ]
  | Ack { seq } ->
    Value.record
      [ ("seq", Value.int seq); ("kind", Value.int 1); ("payload", Value.bytes "") ]

let to_bytes p = Codec.encode_exn format (to_value p)

let of_bytes bytes =
  match Codec.decode format bytes with
  | Error e -> Error (Codec.error_to_string e)
  | Ok v -> (
    let seq = Value.get_int v "seq" in
    match Value.get_int v "kind" with
    | 0 -> Ok (Data { seq; payload = Value.get_bytes v "payload" })
    | 1 -> Ok (Ack { seq })
    | k -> Error (Printf.sprintf "impossible kind %d" k))
