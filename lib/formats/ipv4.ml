open Netdsl_format

let format = Stacks_spec.format_ipv4

let protocol_icmp = 1
let protocol_tcp = 6
let protocol_udp = 17

let make ?(tos = 0) ?(identification = 0) ?(flags = 2) ?(fragment_offset = 0)
    ?(ttl = 64) ?(options = "") ~protocol ~source ~destination ~payload () =
  Value.record
    [
      ("tos", Value.int tos);
      ("identification", Value.int identification);
      ("flags", Value.int flags);
      ("fragment_offset", Value.int fragment_offset);
      ("ttl", Value.int ttl);
      ("protocol", Value.int protocol);
      ("source", Value.int64 source);
      ("destination", Value.int64 destination);
      ("options", Value.bytes options);
      ("payload", Value.bytes payload);
    ]

let addr_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
    | Some a, Some b, Some c, Some d
      when List.for_all (fun x -> x >= 0 && x <= 255) [ a; b; c; d ] ->
      Int64.of_int ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)
    | _ -> invalid_arg (Printf.sprintf "Ipv4.addr_of_string: %S" s))
  | _ -> invalid_arg (Printf.sprintf "Ipv4.addr_of_string: %S" s)

let addr_to_string v =
  let v = Int64.to_int v in
  Printf.sprintf "%d.%d.%d.%d" ((v lsr 24) land 0xFF) ((v lsr 16) land 0xFF)
    ((v lsr 8) land 0xFF) (v land 0xFF)
