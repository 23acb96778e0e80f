open Netdsl_format

let type_echo_reply = 0
let type_echo_request = 8

let format = Stacks_spec.format_icmp

let echo ~case ~ty ~id ~seq ~data =
  Value.record
    [
      ("icmp_type", Value.int ty);
      ("code", Value.int 0);
      ( "body",
        Value.variant case
          (Value.record
             [ ("id", Value.int id); ("seq", Value.int seq); ("data", Value.bytes data) ]) );
    ]

let echo_request ~id ~seq ~data =
  echo ~case:"echo_request" ~ty:type_echo_request ~id ~seq ~data

let echo_reply ~id ~seq ~data =
  echo ~case:"echo_reply" ~ty:type_echo_reply ~id ~seq ~data
