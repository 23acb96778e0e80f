module Prng = Netdsl_util.Prng
module Hexdump = Netdsl_util.Hexdump
module Desc = Netdsl_format.Desc
module Value = Netdsl_format.Value
module Codec = Netdsl_format.Codec
module Gen = Netdsl_format.Gen
module Sizing = Netdsl_format.Sizing
module Fm = Netdsl_formats
module Stack = Netdsl_format.Stack

type t = { c_fmt : Desc.t; c_seeds : string array }

let shipped =
  List.map
    (fun (fmt : Desc.t) -> (fmt.Desc.format_name, fmt))
    [ Fm.Arp.format; Fm.Arq.format; Fm.Dns.format; Fm.Ethernet.format;
      Fm.Icmp.format; Fm.Ipv4.format; Fm.Pcap.format; Fm.Tcp.format;
      Fm.Tftp.format; Fm.Tlv.format; Fm.Udp.format ]

let find_shipped name = List.assoc_opt name shipped

(* The two formats whose derived-field dependencies Gen cannot invert
   (header-length words feeding their own checksums).  These were
   previously duplicated in test_view.ml and test_emit.ml. *)

let gen_ipv4_value rng =
  let payload = String.make (Prng.int rng 400) 'p' in
  let options = String.make (4 * Prng.int rng 3) 'o' in
  Fm.Ipv4.make ~identification:(Prng.int rng 0x10000)
    ~ttl:(1 + Prng.int rng 255) ~options ~protocol:Fm.Ipv4.protocol_udp
    ~source:(Fm.Ipv4.addr_of_string "10.0.0.1")
    ~destination:(Fm.Ipv4.addr_of_string "10.0.0.2")
    ~payload ()

let gen_tcp_value rng =
  let payload = String.make (Prng.int rng 200) 'p' in
  let options = String.make (4 * Prng.int rng 3) '\x01' in
  Fm.Tcp.make ~syn:(Prng.bool rng) ~ack:(Prng.bool rng)
    ~window:(Prng.int rng 0x10000) ~options ~src_port:(Prng.int rng 0x10000)
    ~dst_port:(Prng.int rng 0x10000)
    ~seq_number:(Int64.of_int (Prng.int rng 1000000))
    ~payload ()

let handcrafted =
  [ (Fm.Ipv4.format.Desc.format_name, gen_ipv4_value);
    (Fm.Tcp.format.Desc.format_name, gen_tcp_value) ]

let generic_generable fmt =
  (* Probe with a private fixed-seed generator so the caller's stream is
     untouched and the answer is deterministic. *)
  match Gen.generate_opt (Prng.of_int 1) fmt with
  | Some _ -> true
  | None -> false

let value_generator fmt =
  match List.assoc_opt fmt.Desc.format_name handcrafted with
  | Some g -> Some g
  | None ->
    if generic_generable fmt then
      Some (fun rng ->
          match Gen.generate_opt rng fmt with
          | Some v -> v
          | None -> invalid_arg "Corpus.value_generator: generation failed")
    else None

let generator fmt =
  match value_generator fmt with
  | None -> None
  | Some g -> Some (fun rng -> Codec.encode_exn fmt (g rng))

let load_hex_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line ->
          let line = String.trim line in
          if String.length line = 0 || line.[0] = '#' then loop acc
          else loop (Hexdump.of_hex line :: acc)
      in
      loop [])

(* Reject-path seeds for formats with neither generator nor goldens: the
   oracle still has to agree on *why* these fail. *)
let fallback_seeds fmt =
  let n = max 1 (Sizing.min_bytes fmt) in
  [ String.make n '\x00'; String.make n '\xff';
    String.init (2 * n) (fun i -> Char.chr (i land 0xff)) ]

let make ?(golden = []) ?(count = 16) fmt rng =
  let generated =
    match generator fmt with
    | None -> []
    | Some g -> List.init count (fun _ -> g rng)
  in
  let seeds =
    match golden @ generated with [] -> fallback_seeds fmt | seeds -> seeds
  in
  { c_fmt = fmt; c_seeds = Array.of_list seeds }

let format c = c.c_fmt
let seeds c = c.c_seeds
let pick c rng = Prng.pick rng c.c_seeds

exception No_chain_gen

(* Generic chained values for a stack the catalogue does not know: one
   generated value per layer, each carrier's demux field pinned to its
   first accepted edge and its payload cleared for the encoder to
   splice. *)
let generic_stack_values stack rng =
  let n = List.length (Stack.layer_names stack) in
  Array.init n (fun i ->
      let fmt = Stack.layer_format stack i in
      let v =
        match value_generator fmt with
        | Some g -> g rng
        | None -> raise No_chain_gen
      in
      if i = n - 1 then v
      else
        let field, edge =
          match Stack.layer_select stack i with
          | Some (f, e :: _) -> (f, e)
          | _ -> raise No_chain_gen
        in
        let via = Stack.layer_via stack i in
        Value.record
          (List.map
             (fun (name, x) ->
               if String.equal name field then (name, Value.int64 edge)
               else if String.equal name via then (name, Value.bytes "")
               else (name, x))
             (Value.to_record v)))

let stack_generator stack =
  match Stack.compile stack with
  | Error _ -> None
  | Ok plan -> (
    let gen rng =
      match Stack.encode plan (generic_stack_values stack rng) with
      | Ok s -> Some s
      | Error _ -> None
    in
    match gen (Prng.of_int 1) with
    | exception No_chain_gen -> None
    | _ -> Some gen)

(* Chained golden seeds: recognised catalogue stacks get real layered
   packets built through their own fused encoder; anything else gets
   generically generated chains, so mutation starts from input that
   actually chain-decodes whenever the layers are generable at all. *)
let stack_seeds stack =
  match Stack.compile stack with
  | Error _ -> []
  | Ok plan ->
    let values =
      match Stack.name stack with
      | "inet_tftp" ->
        [ Fm.Stacks.inet_tftp_values (Fm.Tftp.Ack { block = 1 });
          Fm.Stacks.inet_tftp_values
            (Fm.Tftp.Data { block = 7; data = "payload-bytes" });
          Fm.Stacks.inet_tftp_values
            (Fm.Tftp.Rrq { filename = "boot.img"; mode = "octet" }) ]
      | "eth_arp" -> [ Fm.Stacks.eth_arp_values () ]
      | "ipv4_icmp" ->
        [ Fm.Stacks.ipv4_icmp_values ();
          Fm.Stacks.ipv4_icmp_values ~data:"abcdefgh" () ]
      | _ -> (
        let rng = Prng.of_int 20260806 in
        try List.init 4 (fun _ -> generic_stack_values stack rng)
        with No_chain_gen -> [])
    in
    List.filter_map
      (fun vs -> match Stack.encode plan vs with Ok s -> Some s | Error _ -> None)
      values
