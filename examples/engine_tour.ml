(* A tour of the packet-processing runtime (Netdsl.Engine): the same DSL
   format descriptions that drive the codec, the simulator and the
   verifier here drive a high-throughput engine — zero-copy validated
   decode, a batched pipeline with an attached protocol machine, automatic
   responses, per-stage counters, and multicore flow sharding.

   Three scenes:
     1. an ARQ receiver pipeline that acknowledges valid DATA packets and
        counts the corrupted ones it refused;
     2. a TFTP server loop on the variant-dispatched TFTP format, its
        events and replies declared by one flight spec;
     3. the same ARQ traffic sharded across worker domains by the
        DSL-declared "seq" field.

   Run with: dune exec examples/engine_tour.exe *)

open Netdsl

let rule title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* ------------------------------------------------------------------ *)
(* Scene 1: ARQ receive path.  A flight spec states what happens to a
   packet: the pipeline decodes it (checksum verified before any field
   is surfaced), steps the paper's receiver machine on each valid DATA
   packet, and answers with the matching ACK — the request's own bytes
   with [kind] rewritten in place and the checksum updated.  Corrupted
   packets never reach the machine. *)

let arq_traffic rng n =
  Array.init n (fun i ->
      let pkt =
        Formats.Arq.to_bytes
          (Formats.Arq.Data { seq = i mod 256; payload = "segment " ^ string_of_int i })
      in
      (* every 7th packet is damaged in flight *)
      if i mod 7 = 3 then Gen.mutate rng ~flips:2 pkt else pkt)

let scene_receiver () =
  rule "1. ARQ receiver pipeline: decode, step, acknowledge";
  let acks = ref 0 in
  let is_data = Engine.Flight.Cmp (Eq, Field "kind", Const 0L) in
  let flight =
    Engine.Flight.spec
      ~classify:[ { ev_when = is_data; ev_name = "ok" } ]
      ~respond:
        [ { re_when = is_data;
            re_set = [ { set_field = "kind"; set_to = Const 1L } ] } ]
      ()
  in
  let pipeline =
    Engine.Pipeline.create ~flight ~machine:(Arq_fsm.receiver ~seq_bits:8)
      ~on_response:(fun _ack -> incr acks)
      Formats.Arq.format
  in
  let rng = Prng.of_int 42 in
  let pkts = arq_traffic rng 2000 in
  Array.iter (fun pkt -> ignore (Engine.Pipeline.process pipeline pkt)) pkts;
  let stats = Engine.Pipeline.stats pipeline in
  let d = Engine.Stats.stage_index stats "decode" in
  Printf.printf "packets in          : %d\n" (Array.length pkts);
  Printf.printf "refused at decode   : %d (checksum/length/constraint)\n"
    (Engine.Stats.stage_rejects stats d);
  Printf.printf "acknowledgements out: %d\n" !acks

(* ------------------------------------------------------------------ *)
(* Scene 2: a TFTP server loop.  TFTP dispatches on an opcode variant;
   the spec's classify rules turn the opcode of a validated packet into
   machine events.  A respond rule answers with a patched copy of the
   request, and an ACK is no patch of a DATA — the opcode selects the
   body layout, so the engine refuses to rewrite it in place — so the
   rule echoes each validated DATA and the loop answers it with ACK n,
   the lock-step rule of RFC 1350. *)

(* The server side of RFC 1350 as a machine: idle until a read request,
   then acknowledging DATA blocks in lock-step. *)
let tftp_server_machine =
  Machine.machine ~name:"tftp_server"
    ~states:[ "idle"; "sending" ]
    ~events:[ "rrq"; "data" ]
    ~initial:"idle" ~accepting:[ "idle"; "sending" ]
    ~ignores:[ ("sending", "rrq") ]
    [ Machine.trans ~label:"RRQ" ~src:"idle" ~event:"rrq" ~dst:"sending" ();
      Machine.trans ~label:"DATA" ~src:"sending" ~event:"data" ~dst:"sending" () ]

let scene_tftp () =
  rule "2. TFTP server loop: variant dispatch, lock-step ACKs";
  let replies = ref [] in
  let opcode_is n = Engine.Flight.Cmp (Eq, Field "opcode", Const n) in
  let flight =
    Engine.Flight.spec
      ~classify:
        [ { ev_when = opcode_is 1L; ev_name = "rrq" };
          { ev_when = opcode_is 3L; ev_name = "data" } ]
      ~respond:[ { re_when = opcode_is 3L; re_set = [] } ]
      ()
  in
  let ack_of echo =
    match Formats.Tftp.of_bytes echo with
    | Ok (Formats.Tftp.Data { block; _ }) ->
      Formats.Tftp.to_bytes_exn (Formats.Tftp.Ack { block })
    | _ -> echo
  in
  let pipeline =
    Engine.Pipeline.create ~flight ~machine:tftp_server_machine
      ~on_response:(fun echo -> replies := ack_of echo :: !replies)
      Formats.Tftp.format
  in
  let transfer =
    Formats.Tftp.to_bytes_exn (Formats.Tftp.Rrq { filename = "notes.txt"; mode = "octet" })
    :: List.concat_map
         (fun block ->
           [ Formats.Tftp.to_bytes_exn
               (Formats.Tftp.Data { block; data = String.make (if block < 4 then 512 else 131) 'd' }) ])
         [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun pkt ->
      match Formats.Tftp.of_bytes pkt with
      | Ok p ->
        let outcome = Engine.Pipeline.process pipeline pkt in
        Printf.printf "%-28s %s\n"
          (Format.asprintf "%a" Formats.Tftp.pp_packet p)
          (match outcome with Engine.Pipeline.Accepted -> "accepted" | _ -> "refused")
      | Error _ -> ())
    transfer;
  List.iter
    (fun bytes ->
      match Formats.Tftp.of_bytes bytes with
      | Ok p -> Format.printf "  server replied: %a@." Formats.Tftp.pp_packet p
      | Error e -> Format.printf "  server replied with junk: %s@." e)
    (List.rev !replies)

(* ------------------------------------------------------------------ *)
(* Scene 3: flow sharding.  [Shard.feed] reads the declared key straight
   from the raw bytes (no decode) and hashes it to a worker domain; every
   packet of a flow lands on the same domain, so per-flow machines need
   no locks.  On a single-core container the domains interleave rather
   than parallelise — the structure is the point here; experiment E11
   measures the throughput. *)

let scene_shard () =
  rule "3. Multicore flow sharding by the DSL-declared \"seq\" field";
  let config = { Engine.Shard.workers = 2; pipeline = Engine.Pipeline.default_config } in
  (* two workers on purpose even on a one-core box: the sharding structure
     is the point of the scene, so opt out of the core clamp *)
  match
    Engine.Shard.create ~config ~allow_oversubscribe:true ~key:"seq"
      Formats.Arq.format
  with
  | Error e -> Printf.printf "shard setup refused: %s\n" e
  | Ok shard ->
    Engine.Shard.start shard;
    let rng = Prng.of_int 43 in
    let pkts = arq_traffic rng 4000 in
    Array.iter (fun pkt -> ignore (Engine.Shard.feed shard pkt)) pkts;
    Engine.Shard.drain shard;
    Array.iteri
      (fun i p ->
        let st = Engine.Pipeline.stats p in
        let d = Engine.Stats.stage_index st "decode" in
        Printf.printf "worker %d: %4d packets, %3d refused\n" i
          (Engine.Stats.stage_packets st d)
          (Engine.Stats.stage_rejects st d))
      (Engine.Shard.pipelines shard);
    print_string (Engine.Stats.to_text (Engine.Shard.stats shard))

let () =
  scene_receiver ();
  scene_tftp ();
  scene_shard ()
