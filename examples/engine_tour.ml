(* A tour of the packet-processing runtime (Netdsl.Engine): the same DSL
   format descriptions that drive the codec, the simulator and the
   verifier here drive a high-throughput engine — zero-copy validated
   decode, a batched pipeline with an attached protocol machine, automatic
   responses, per-stage counters, and the flow steering behind multicore
   serving.

   Three scenes:
     1. an ARQ receiver pipeline that acknowledges valid DATA packets and
        counts the corrupted ones it refused;
     2. a TFTP server loop on the variant-dispatched TFTP format, its
        events and replies declared by one flight spec;
     3. the kernel steering program compiled from the DSL-declared "seq"
        field, and the per-worker split it gives the same ARQ traffic.

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
(* Scene 3: flow steering.  Multicore serving is [netdsl serve --workers
   N]: N copies of the one serve loop, each on its own SO_REUSEPORT
   socket, with the kernel picking each datagram's worker by running a
   classic BPF program compiled from the DSL-declared key field.  Every
   packet of a flow lands on the same worker, so per-flow machines need
   no locks.  This scene prints that program and, on this one domain,
   the split [Bpf.steer] (the same rule, in OCaml) gives the ARQ
   traffic; experiment E18 checks a real 2-worker server against it. *)

let scene_steering () =
  rule "3. Flow steering by the DSL-declared \"seq\" field";
  match
    ( Bpf.steering Formats.Arq.format ~key:"seq" ~workers:2,
      View.key_extractor Formats.Arq.format "seq" )
  with
  | Error e, _ | _, Error e -> Printf.printf "steering refused: %s\n" e
  | Ok prog, Ok key ->
    print_string (Bpf.to_string prog);
    let rng = Prng.of_int 43 in
    let pkts = arq_traffic rng 4000 in
    let per_worker = Array.make 2 0 in
    Array.iter
      (fun pkt ->
        let _, bits, _ = View.key_layout key in
        let w = Bpf.steer ~workers:2 ~bits (View.extract_key_int key pkt) in
        per_worker.(w) <- per_worker.(w) + 1)
      pkts;
    Array.iteri
      (fun w n -> Printf.printf "worker %d: %4d packets\n" w n)
      per_worker

let () =
  scene_receiver ();
  scene_tftp ();
  scene_steering ()
