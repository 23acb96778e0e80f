open Netdsl_format

let format = Stacks_spec.format_udp

let make ~src_port ~dst_port ~payload () =
  Value.record
    [
      ("src_port", Value.int src_port);
      ("dst_port", Value.int dst_port);
      ("checksum", Value.int 0);
      ("payload", Value.bytes payload);
    ]
