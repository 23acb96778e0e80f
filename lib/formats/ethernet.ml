open Netdsl_format

let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806

let format = Stacks_spec.format_ethernet

let make ~dst ~src ~ethertype ~payload =
  Value.record
    [
      ("dst", Value.bytes dst);
      ("src", Value.bytes src);
      ("ethertype", Value.int ethertype);
      ("payload", Value.bytes payload);
    ]

let mac_of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then invalid_arg (Printf.sprintf "mac_of_string: %S" s);
  String.concat ""
    (List.map
       (fun p ->
         match int_of_string_opt ("0x" ^ p) with
         | Some v when v >= 0 && v <= 255 -> String.make 1 (Char.chr v)
         | _ -> invalid_arg (Printf.sprintf "mac_of_string: %S" s))
       parts)

let mac_to_string s =
  if String.length s <> 6 then invalid_arg "mac_to_string: need 6 bytes";
  String.concat ":"
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
