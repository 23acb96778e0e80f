open Netdsl_format

let oper_request = 1
let oper_reply = 2

let format = Stacks_spec.format_arp

let make ~oper ~sha ~spa ~tha ~tpa =
  Value.record
    [
      ("oper", Value.int oper);
      ("sha", Value.bytes sha);
      ("spa", Value.int64 spa);
      ("tha", Value.bytes tha);
      ("tpa", Value.int64 tpa);
    ]

let request ~sender_mac ~sender_ip ~target_ip =
  make ~oper:oper_request ~sha:sender_mac ~spa:sender_ip
    ~tha:(String.make 6 '\000') ~tpa:target_ip

let reply ~sender_mac ~sender_ip ~target_mac ~target_ip =
  make ~oper:oper_reply ~sha:sender_mac ~spa:sender_ip ~tha:target_mac
    ~tpa:target_ip
