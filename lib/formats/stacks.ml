(* The shipped parse graphs, generated from specs/stacks.ndsl. *)

let inet_tftp = Stacks_spec.stack_inet_tftp
let eth_arp = Stacks_spec.stack_eth_arp
let ipv4_icmp = Stacks_spec.stack_ipv4_icmp
let all = Stacks_spec.stacks
let find name = List.assoc_opt name all

(* Deterministic sample endpoints for corpus generation and tests. *)
let mac_a = Ethernet.mac_of_string "02:00:00:00:00:0a"
let mac_b = Ethernet.mac_of_string "02:00:00:00:00:0b"
let ip_a = Ipv4.addr_of_string "192.0.2.1"
let ip_b = Ipv4.addr_of_string "192.0.2.2"

let inet_tftp_values ?(src_port = 50000) pkt =
  [|
    Ethernet.make ~dst:mac_b ~src:mac_a ~ethertype:Ethernet.ethertype_ipv4
      ~payload:"";
    Ipv4.make ~protocol:Ipv4.protocol_udp ~source:ip_a ~destination:ip_b
      ~payload:"" ();
    Udp.make ~src_port ~dst_port:69 ~payload:"" ();
    Tftp.to_value pkt;
  |]

let eth_arp_values () =
  [|
    Ethernet.make ~dst:mac_b ~src:mac_a ~ethertype:Ethernet.ethertype_arp
      ~payload:"";
    Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b;
  |]

let ipv4_icmp_values ?(data = "abcdefgh") () =
  [|
    Ipv4.make ~protocol:Ipv4.protocol_icmp ~source:ip_a ~destination:ip_b
      ~payload:"" ();
    Icmp.echo_request ~id:0x1234 ~seq:1 ~data;
  |]
