(* The benchmark's server process: binds a workload the way [netdsl serve]
   does (fused mode, --io auto, one worker) plus the workload's machine,
   on an ephemeral 127.0.0.1 UDP port,
   then serves until SIGTERM/SIGINT or for at most [Workload.server_max_s].

   stdout, one JSON object per line:
   - a "ready" line once bound, with the bound port and the set-up split
     (parse / compile / Server.create);
   - a "snap" line on every SIGUSR1 and one more on exit: the socket and
     engine counters read through Net.Server's public accessors.  The
     load generator signals at its phase boundaries, so counters can be
     attributed per phase.

   Usage: pb_server.exe --workload NAME [--defect] *)

module W = Workload
module Server = Netdsl.Net.Server
module Nstats = Netdsl.Net.Stats
module Estats = Netdsl.Engine.Stats

let snapshot srv k =
  let ls = Server.listener_stats srv in
  let net = Server.net_stats srv in
  let wakeups = match List.assoc_opt "event loop" ls with Some s -> s.Nstats.syscalls | None -> 0 in
  let e = Server.engine_stats srv in
  let stage name f = f e (Estats.stage_index e name) in
  let i = string_of_int in
  W.json_obj
    [ ("snap", i k);
      ("processed", i (Server.processed srv));
      ("rx_pkts", i net.Nstats.rx_pkts);
      ("tx_pkts", i net.Nstats.tx_pkts);
      ("syscalls", i net.Nstats.syscalls);
      ("wakeups", i wakeups);
      ("batched_rx", i net.Nstats.batched_rx);
      ("drops", i net.Nstats.drops);
      ("send_eagain", i net.Nstats.send_eagain);
      ("tx_errors", i net.Nstats.tx_errors);
      ("hwm_drain", i net.Nstats.hwm_drain);
      ("decode_pkts", i (stage "decode" Estats.stage_packets));
      ("decode_rej", i (stage "decode" Estats.stage_rejects));
      ("verify_rej", i (stage "verify" Estats.stage_rejects));
      ("step_pkts", i (stage "step" Estats.stage_packets));
      ("step_rej", i (stage "step" Estats.stage_rejects));
      ("encode_rej", i (stage "encode" Estats.stage_rejects));
      ("evicted", i (Estats.evicted_flows e));
      ("timers_expired", i (Estats.timers_expired e));
      ("timers_cascaded", i (Estats.timers_cascaded e)) ]

let () =
  let workload = ref "" and defect = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to serve");
      ("--defect", Arg.Set defect, " plant a wrong patch constant (self-test)") ]
    (fun a -> raise (Arg.Bad a))
    "pb_server.exe --workload NAME";
  let kind = W.kind_of_string !workload in
  let sv = W.load ~defect:!defect kind in
  let t0 = W.now_ns () in
  match
    Server.create ~config:sv.W.config ~mode:Netdsl.Engine.Pipeline.Fused ?stack:sv.W.stack
      ~machine:sv.W.machine ~io:Server.Auto ~io_batch:W.io_batch ~flight:sv.W.flight
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      sv.W.fmt
  with
  | Error e ->
    prerr_endline ("pb_server: " ^ e);
    exit 1
  | Ok srv ->
    let bind_s = W.secs_since t0 in
    print_endline
      (W.json_obj
         [ ("ready", "true");
           ("port", string_of_int (Option.value ~default:0 (Server.udp_port srv)));
           ("batched_io", string_of_bool (Server.batched_io srv));
           ("parse_s", W.json_num sv.W.parse_s);
           ("compile_s", W.json_num sv.W.compile_s);
           ("bind_s", W.json_num bind_s) ]);
    let snaps = ref 0 in
    let snap () =
      incr snaps;
      print_endline (snapshot srv !snaps)
    in
    Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> snap ()));
    (* the safety stop is an alarm, not [~duration]: a deadline check
       would add a clock read per loop pass that [netdsl serve] lacks *)
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Server.request_stop srv));
    ignore (Unix.alarm W.server_max_s);
    ignore (Server.run srv);
    Sys.set_signal Sys.sigusr1 Sys.Signal_ignore;
    snap ();
    Server.close srv
