(* The socket front end: loopback round trips through real UDP/TCP
   sockets, framing, backpressure counters, shutdown draining, and the
   socket leg of the differential oracle. *)

module Fm = Netdsl_formats
module Prng = Netdsl_util.Prng
module Pipeline = Netdsl_engine.Pipeline
module Flight = Netdsl_engine.Flight
module Slab = Netdsl_engine.Slab
module Corpus = Netdsl_check.Corpus
module Mutate = Netdsl_check.Mutate
module Server = Netdsl_net.Server
module Nstats = Netdsl_net.Stats
module Loopback = Netdsl_check.Loopback
module Bpf = Netdsl_format.Bpf
module Bpf_oracle = Netdsl_check.Bpf_oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let arq_data ~seq payload = Fm.Arq.to_bytes (Fm.Arq.Data { seq; payload })

(* Reply = the validated request, unchanged: valid for every format. *)
let echo_flight = Flight.spec ~respond:[ { Flight.re_when = All []; re_set = [] } ] ()

(* The ARQ responder: verify, classify to "ok", key flows
   by seq, answer data packets with an in-place kind:=ack patch. *)
let arq_flight =
  Flight.spec
    ~verify:(Flight.Cmp (Flight.Lt, Flight.Field "seq", Flight.Const 256L))
    ~classify:
      [ { Flight.ev_when = Flight.Cmp (Flight.Eq, Flight.Field "kind", Flight.Const 0L);
          ev_name = "ok" } ]
    ~flow_key:"seq"
    ~respond:
      [ { Flight.re_when = Flight.Cmp (Flight.Eq, Flight.Field "kind", Flight.Const 0L);
          re_set = [ { Flight.set_field = "kind"; set_to = Flight.Const 1L } ] } ]
    ()

let loopback port =
  Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port)

let udp_client () = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0

let send fd port pkt =
  ignore (Unix.sendto fd (Bytes.of_string pkt) 0 (String.length pkt) [] (loopback port))

let mmsg_available () =
  Netdsl_net.Mmsg.available () && Netdsl_net.Mmsg.Epoll.available ()

let recv_timeout ?(timeout = 5.0) fd =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> None
  | _ ->
    let buf = Bytes.create 65536 in
    let n, _ = Unix.recvfrom fd buf 0 (Bytes.length buf) [] in
    Some (Bytes.sub_string buf 0 n)

(* ------------------------------------------------------------------ *)
(* process_slab_batch: the borrowed-buffer entry point *)

(* The socket front end's entry point against the one-packet one: a
   caller-owned slab drained in runs of up to one batch must leave the
   same counters, flows and reply bytes as the same packets fed one by
   one. *)
let slab_batch_matches_process () =
  let machine = Netdsl_proto.Arq_fsm.receiver ~seq_bits:8 in
  let singles_replies = ref [] and slab_replies = ref [] in
  let singles =
    Pipeline.create ~flight:arq_flight ~machine
      ~on_response:(fun r -> singles_replies := r :: !singles_replies)
      Fm.Arq.format
  in
  let slabbed =
    Pipeline.create ~flight:arq_flight ~machine
      ~on_reply_slot:(fun _ buf len ->
        slab_replies := Bytes.sub_string buf 0 len :: !slab_replies)
      Fm.Arq.format
  in
  let slab = Slab.create ~capacity:128 () in
  let drain () =
    let n = Slab.pop_batch slab ~max:Pipeline.default_config.batch in
    Pipeline.process_slab_batch slabbed slab ~n;
    Slab.release slab
  in
  let rng = Prng.of_int 7 in
  let plan = Mutate.plan Fm.Arq.format in
  for i = 0 to 199 do
    let valid = arq_data ~seq:(i land 0xff) (String.make (i mod 32) 'x') in
    let pkt =
      if i mod 3 = 0 then Mutate.apply (Mutate.random plan rng valid) valid
      else valid
    in
    ignore (Pipeline.process singles pkt);
    check_int "slab slot free" 1 (Testutil.fill_slab slab [| pkt |]);
    (* uneven runs: a full batch, then stragglers *)
    if Slab.length slab = Pipeline.default_config.batch || i mod 37 = 0 then
      drain ()
  done;
  while Slab.length slab > 0 do
    drain ()
  done;
  Testutil.check_same_counters singles slabbed;
  Alcotest.(check (list string)) "same reply bytes" !singles_replies
    !slab_replies

(* ------------------------------------------------------------------ *)
(* UDP round trips *)

(* One request/reply round trip through a real socket for every shipped
   format that has a value generator and a compiled plan (a list of
   variable-size records has none) — the "answers real UDP datagrams for
   every shipped spec" acceptance criterion. *)
let udp_roundtrip_every_format () =
  let rng = Prng.of_int 42 in
  let config =
    { Pipeline.default_config with slot_bytes = 65536; ring_capacity = 64 }
  in
  let covered = ref 0 in
  List.iter
    (fun (name, fmt) ->
      match (Corpus.generator fmt, Flight.compile fmt echo_flight) with
      | None, _ | (exception Invalid_argument _) -> ()
      | Some gen, _ -> (
        match
          Server.create ~config ~signals:false
            ~flight:echo_flight
            ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
            fmt
        with
        | Error e -> Alcotest.failf "%s: server: %s" name e
        | Ok srv ->
          Fun.protect
            ~finally:(fun () -> Server.close srv)
            (fun () ->
              let port = Option.get (Server.udp_port srv) in
              let dom =
                Domain.spawn (fun () -> Server.run ~max_packets:1 srv)
              in
              let fd = udp_client () in
              Fun.protect
                ~finally:(fun () -> Unix.close fd)
                (fun () ->
                  let pkt = gen rng in
                  send fd port pkt;
                  (match recv_timeout fd with
                  | None -> Alcotest.failf "%s: no reply" name
                  | Some reply -> check_string (name ^ " echoed") pkt reply);
                  check_int (name ^ " processed") 1 (Domain.join dom);
                  incr covered))))
    Corpus.shipped;
  check_bool "covered most shipped formats" true (!covered >= 8)

let udp_truncated_rejected () =
  match
    Server.create ~signals:false ~flight:echo_flight
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        let port = Option.get (Server.udp_port srv) in
        let dom = Domain.spawn (fun () -> Server.run ~max_packets:2 srv) in
        let fd = udp_client () in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let valid = arq_data ~seq:3 "payload" in
            let truncated = String.sub valid 0 (String.length valid - 1) in
            (* only the checksum is wrong: no fixed-offset check sees it,
               so the kernel pre-filter passes it and the engine rejects *)
            let corrupt = Bytes.of_string valid in
            Bytes.set corrupt 4 (Char.chr (Char.code valid.[4] lxor 0xff));
            let corrupt = Bytes.to_string corrupt in
            check_bool "the filter passes the corrupt checksum" true
              (Netdsl_check.Bpf_oracle.passes
                 (Option.map Netdsl_check.Bpf_oracle.prepare (Server.filter srv))
                 corrupt);
            send fd port truncated;
            send fd port corrupt;
            send fd port valid;
            (* both rejects stay silent, the truncated one in the kernel
               (its length disagrees with its len field), the corrupt one
               in the engine; the next reply on the socket is the echo of
               the valid packet — order preserved across the rejections *)
            (match recv_timeout fd with
            | None -> Alcotest.fail "no reply to the valid packet"
            | Some reply -> check_string "valid echoed" valid reply);
            check_bool "no second reply" true (recv_timeout ~timeout:0.1 fd = None);
            check_int "corrupt and valid processed" 2 (Domain.join dom);
            let st = Server.net_stats srv in
            check_int "rx counted" 2 st.Nstats.rx_pkts;
            check_int "truncated dropped by the kernel" 1 st.Nstats.kernel_drops;
            check_int "one reply sent" 1 st.Nstats.tx_pkts))

(* Datagrams queued in the kernel when stop is requested are still
   answered: the graceful path sweeps the sockets once, drains the slab
   and flushes every reply before [run] returns. *)
let shutdown_drains_in_flight () =
  match
    Server.create ~signals:false ~flight:echo_flight
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        let port = Option.get (Server.udp_port srv) in
        let fd = udp_client () in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let n = 50 in
            for i = 0 to n - 1 do
              send fd port (arq_data ~seq:(i land 0xff) "inflight")
            done;
            (* loopback delivery is synchronous: all [n] sit in the
               server's kernel buffer before stop is requested *)
            Server.request_stop srv;
            check_int "drained on stop" n (Server.run srv);
            for i = 0 to n - 1 do
              match recv_timeout fd with
              | None -> Alcotest.failf "reply %d missing" i
              | Some _ -> ()
            done;
            (* run-twice: high-water marks are per-run observations *)
            check_bool "hwm recorded" true
              ((Server.net_stats srv).Nstats.hwm_drain > 0);
            Server.request_stop srv;
            check_int "idle second run" 0 (Server.run srv);
            check_int "hwm reset between runs" 0
              (Server.net_stats srv).Nstats.hwm_drain;
            check_int "cumulative rx survives the reset" n
              (Server.net_stats srv).Nstats.rx_pkts))

(* [~duration] bounds an idle run on the monotonic clock: no traffic
   arrives, so only the deadline can end it. *)
let duration_ends_idle_run () =
  match
    Server.create ~signals:false ~flight:echo_flight
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        let t0 = Netdsl_net.Mmsg.now_ns () in
        check_int "nothing processed" 0 (Server.run ~duration:0.2 srv);
        let s = float_of_int (Netdsl_net.Mmsg.now_ns () - t0) /. 1e9 in
        check_bool (Printf.sprintf "ran at least 0.2 s (%.3f s)" s) true (s >= 0.2);
        check_bool (Printf.sprintf "stopped well under 1 s (%.3f s)" s) true (s < 1.0))

(* ------------------------------------------------------------------ *)
(* TCP framing *)

let tcp_frame pkt =
  let n = String.length pkt in
  let b = Bytes.create (n + 2) in
  Bytes.set b 0 (Char.chr (n lsr 8));
  Bytes.set b 1 (Char.chr (n land 0xff));
  Bytes.blit_string pkt 0 b 2 n;
  Bytes.to_string b

let read_exactly fd n =
  let buf = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    match Unix.read fd buf !got (n - !got) with
    | 0 -> Alcotest.fail "connection closed mid-frame"
    | k -> got := !got + k
  done;
  Bytes.to_string buf

let tcp_roundtrip_framed () =
  match
    Server.create ~signals:false ~flight:echo_flight
      ~listeners:[ Server.Tcp { host = "127.0.0.1"; port = 0 } ]
      Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        let port =
          match Server.bound srv with
          | [ ("tcp", _, p) ] -> p
          | _ -> Alcotest.fail "expected one tcp listener"
        in
        let dom = Domain.spawn (fun () -> Server.run ~max_packets:2 srv) in
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd (loopback port);
            let a = arq_data ~seq:1 "first" in
            let b = arq_data ~seq:2 "second, longer" in
            (* both frames in one write: the reframer must cut them *)
            let two = tcp_frame a ^ tcp_frame b in
            ignore (Unix.write_substring fd two 0 (String.length two));
            let reply_of expect =
              let hdr = read_exactly fd 2 in
              let n = (Char.code hdr.[0] lsl 8) lor Char.code hdr.[1] in
              check_string "framed echo" expect (read_exactly fd n)
            in
            reply_of a;
            reply_of b;
            check_int "both processed" 2 (Domain.join dom);
            let st = Server.net_stats srv in
            check_int "conn accepted" 1 st.Nstats.conns_accepted;
            check_int "tx frames" 2 st.Nstats.tx_pkts))

(* One connection writes 100 framed requests at once into a server whose
   pass budget is 16 and whose run is 8: frames beyond a run wait in the
   connection's buffer (the listener stays hot) and are served in later
   runs — none is dropped, and the replies come back in request order. *)
let tcp_burst_served_in_order () =
  let config = { Pipeline.default_config with Pipeline.ring_capacity = 16 } in
  match
    Server.create ~config ~signals:false
      ~flight:echo_flight ~io_batch:8
      ~listeners:[ Server.Tcp { host = "127.0.0.1"; port = 0 } ]
      Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    let n = 100 in
    let port =
      match Server.bound srv with
      | [ ("tcp", _, p) ] -> p
      | _ -> Alcotest.fail "expected one tcp listener"
    in
    let dom = Domain.spawn (fun () -> Server.run ~max_packets:n srv) in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (* a lost frame would leave [run] waiting for its 100th packet *)
        Server.request_stop srv;
        ignore (Domain.join dom);
        Unix.close fd;
        Server.close srv)
      (fun () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        Unix.connect fd (loopback port);
        let reqs =
          List.init n (fun i ->
              arq_data ~seq:(i land 0xff) (Printf.sprintf "r%03d" i))
        in
        let burst = String.concat "" (List.map tcp_frame reqs) in
        ignore (Unix.write_substring fd burst 0 (String.length burst));
        List.iteri
          (fun i req ->
            match read_exactly fd 2 with
            | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
              Alcotest.failf "reply %d missing" i
            | hdr ->
              let len = (Char.code hdr.[0] lsl 8) lor Char.code hdr.[1] in
              check_string (Printf.sprintf "reply %d in order" i) req
                (read_exactly fd len))
          reqs;
        check_int "no frame dropped" 0 (Server.net_stats srv).Nstats.drops)

(* One request and its reply on a fresh UDP server cost a fixed syscall
   count per backend, the request queued before [run] so the wake is
   deterministic: one readiness wait, the receive that gets it, the
   send, and the receive that finds the socket dry. *)
let syscall_pin io () =
  if
    io = Server.Mmsg
    && not (Netdsl_net.Mmsg.available () && Netdsl_net.Mmsg.Epoll.available ())
  then ()
  else
    match
      Server.create ~signals:false ~flight:echo_flight ~io
        ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
        Fm.Arq.format
    with
    | Error e -> Alcotest.fail e
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Server.close srv)
        (fun () ->
          let fd = udp_client () in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let pkt = arq_data ~seq:3 "pin" in
              send fd (Option.get (Server.udp_port srv)) pkt;
              check_int "processed" 1 (Server.run ~max_packets:1 srv);
              (match recv_timeout fd with
              | None -> Alcotest.fail "no reply"
              | Some reply -> check_string "echoed" pkt reply);
              match Server.listener_stats srv with
              | [ (_, l); ("event loop", loop) ] ->
                check_int "one readiness wait" 1 loop.Nstats.syscalls;
                check_int "two receives, one send" 3 l.Nstats.syscalls
              | _ -> Alcotest.fail "expected a listener row and the loop row"))

(* ------------------------------------------------------------------ *)
(* create-time red paths *)

let create_red_paths () =
  let contains msg sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length msg
      && (String.equal (String.sub msg i n) sub || go (i + 1))
    in
    go 0
  in
  let fail_is expect = function
    | Error msg ->
      check_bool
        (Printf.sprintf "error %S mentions %S" msg expect)
        true (contains msg expect)
    | Ok srv ->
      Server.close srv;
      Alcotest.failf "expected an error mentioning %S" expect
  in
  let mk listeners =
    Server.create ~signals:false ~flight:echo_flight ~listeners Fm.Arq.format
  in
  fail_is "no listeners" (mk []);
  fail_is "invalid port" (mk [ Server.Udp { host = "127.0.0.1"; port = 70000 } ]);
  fail_is "invalid listen address" (mk [ Server.Udp { host = "not-an-ip"; port = 0 } ]);
  (* a TEST-NET address is guaranteed not to be local *)
  fail_is "address not available"
    (mk [ Server.Udp { host = "203.0.113.7"; port = 0 } ]);
  (* a port already held by a listening TCP socket *)
  match mk [ Server.Tcp { host = "127.0.0.1"; port = 0 } ] with
  | Error e -> Alcotest.fail e
  | Ok first ->
    Fun.protect
      ~finally:(fun () -> Server.close first)
      (fun () ->
        let port =
          match Server.bound first with
          | [ (_, _, p) ] -> p
          | _ -> Alcotest.fail "expected one listener"
        in
        fail_is "address already in use"
          (mk [ Server.Tcp { host = "127.0.0.1"; port } ]))

(* A UDP listener does not set SO_REUSEADDR: on Linux that would let
   any other socket setting it bind the port and take the listener's
   unicast traffic.  Such a socket must get EADDRINUSE on a single-worker
   listener and on a two-worker SO_REUSEPORT group alike, and the port of
   a closed server must bind again. *)
let udp_port_not_shareable () =
  let intruder port =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | () -> "bound"
        | exception Unix.Unix_error (e, _, _) -> Unix.error_message e)
  in
  let serve ~workers port =
    match
      Server.create ~signals:false ~flight:arq_flight ~workers
        ~allow_oversubscribe:true
        ~listeners:[ Server.Udp { host = "127.0.0.1"; port } ]
        Fm.Arq.format
    with
    | Ok srv -> srv
    | Error e -> Alcotest.failf "%d worker(s) on port %d: %s" workers port e
  in
  List.iter
    (fun workers ->
      let srv = serve ~workers 0 in
      let port = Option.get (Server.udp_port srv) in
      Fun.protect
        ~finally:(fun () -> Server.close srv)
        (fun () ->
          Alcotest.(check string)
            (Printf.sprintf "%d worker(s): a SO_REUSEADDR socket cannot bind" workers)
            (Unix.error_message Unix.EADDRINUSE) (intruder port));
      Server.close (serve ~workers port))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* sharded mode *)

(* What the kernel does with each payload sent to a sharded server, as
   the interpreter predicts it from the server's own programs: the
   steering program picks the worker socket, whose pre-filter then keeps
   or drops it.  Per worker: (received, kernel drops). *)
let predicted_by_worker srv pkts =
  let _, prog = Option.get (Server.steering srv) in
  let steer = Bpf_oracle.prepare prog in
  let filter = Option.map Bpf_oracle.prepare (Server.filter srv) in
  let rx = Array.make (Server.workers srv) 0 in
  let drops = Array.make (Server.workers srv) 0 in
  List.iter
    (fun p ->
      let w = Bpf_oracle.steer steer p in
      if Bpf_oracle.passes filter p then rx.(w) <- rx.(w) + 1
      else drops.(w) <- drops.(w) + 1)
    pkts;
  (rx, drops)

(* Each worker socket's counters, worker by worker. *)
let worker_rows srv =
  List.filter_map
    (fun (label, st) ->
      if String.starts_with ~prefix:"udp" label then Some st else None)
    (Server.listener_stats srv)

let check_rows_predicted srv pkts =
  let rx, drops = predicted_by_worker srv pkts in
  let rows = worker_rows srv in
  check_int "one socket row per worker" (Server.workers srv) (List.length rows);
  List.iteri
    (fun w st ->
      check_int (Printf.sprintf "worker %d rx = the interpreter's share" w)
        rx.(w) st.Nstats.rx_pkts;
      check_int (Printf.sprintf "worker %d kernel drops = predicted" w)
        drops.(w) st.Nstats.kernel_drops)
    rows;
  rows

(* Two workers on two SO_REUSEPORT sockets sharing one port: the kernel
   steering program hands each datagram to the worker that owns its seq
   flow, and that worker answers from its own socket.  Every flow must
   be answered (kind patched to ack), each worker socket must receive
   the share the interpreter predicts, and send as many replies. *)
let sharded_udp_roundtrip () =
  match
    Server.create ~signals:false ~flight:arq_flight
      ~workers:2 ~allow_oversubscribe:true
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        check_int "two workers" 2 (Server.workers srv);
        check_bool "steered on the spec's flow key" true
          (match Server.steering srv with Some ("seq", _) -> true | _ -> false);
        let port = Option.get (Server.udp_port srv) in
        let n = 64 in
        let dom = Domain.spawn (fun () -> Server.run ~max_packets:n srv) in
        let fd = udp_client () in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let sent = Hashtbl.create n in
            let pkts =
              List.init n (fun i ->
                  let i = i + 1 in
                  let pkt = arq_data ~seq:(i land 0xFF) (Printf.sprintf "m%02d" i) in
                  Hashtbl.replace sent (i land 0xFF) pkt;
                  send fd port pkt;
                  pkt)
            in
            (* run returns only after every worker has served its share
               and sent its replies *)
            check_int "all served" n (Domain.join dom);
            let got = ref 0 in
            let continue = ref true in
            while !continue do
              match recv_timeout ~timeout:1.0 fd with
              | None -> continue := false
              | Some reply ->
                incr got;
                let seq = Char.code reply.[0] in
                check_bool "reply to a sent flow" true (Hashtbl.mem sent seq);
                check_int "kind patched to ack" 1 (Char.code reply.[1]);
                check_int "reply keeps the length"
                  (String.length (Hashtbl.find sent seq))
                  (String.length reply)
            done;
            check_int "every packet answered" n !got;
            let es = Server.engine_stats srv in
            let module Estats = Netdsl_engine.Stats in
            check_int "every packet decoded" n
              (Estats.stage_packets es (Estats.stage_index es "decode"));
            let rows = check_rows_predicted srv pkts in
            List.iteri
              (fun w st ->
                check_bool (Printf.sprintf "worker %d served" w) true
                  (st.Nstats.rx_pkts > 0);
                check_int
                  (Printf.sprintf "worker %d answers from its own socket" w)
                  st.Nstats.rx_pkts st.Nstats.tx_pkts)
              rows))

(* The interpreter is the oracle for the steering program; here it meets
   the kernel on a three-socket group: every ARQ key, plus an empty
   datagram (no key: worker 0) and a one-byte one (a key, but too short
   for the format: its owner's pre-filter drops it). *)
let steering_kernel_agrees () =
  match
    Server.create ~signals:false ~flight:arq_flight ~workers:3
      ~allow_oversubscribe:true
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        let port = Option.get (Server.udp_port srv) in
        let fd = udp_client () in
        let short = [ ""; "\x07" ] in
        let keys = List.init 256 (fun seq -> arq_data ~seq "k") in
        List.iter (send fd port) (short @ keys);
        check_int "every keyed packet served" 256 (Server.run ~max_packets:256 srv);
        Unix.close fd;
        ignore (check_rows_predicted srv (short @ keys)))

(* Success or timeout (§3.4) on a sharded server: one DATA arms the
   sender's 150 ms timer on its owner, then nothing arrives.  Each
   worker's loop sleeps no longer than its own wheel's next deadline,
   so the two retransmits and the give-up fire while every socket is
   idle. *)
let sharded_idle_worker_fires_timers io () =
  if io = Server.Mmsg && not (mmsg_available ()) then ()
  else begin
    let spec = Testutil.spec_program "timeout.ndsl" in
    let fmt = Option.get (Netdsl_lang.Parser.find_format spec "swt_frame") in
    let machine = Option.get (Netdsl_lang.Parser.find_machine spec "swt_sender") in
    let kind_is n ev =
      { Flight.ev_when = Flight.Cmp (Flight.Eq, Flight.Field "kind", Flight.Const n);
        ev_name = ev }
    in
    let flight =
      Flight.spec ~classify:[ kind_is 0L "send"; kind_is 1L "ack" ] ~flow_key:"seq" ()
    in
    match
      Server.create ~signals:false ~io ~flight ~machine ~workers:2
        ~allow_oversubscribe:true
        ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
        fmt
    with
    | Error e -> Alcotest.fail e
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Server.close srv)
        (fun () ->
          let data =
            Netdsl_format.Codec.encode_exn fmt
              (Netdsl_format.Value.Record
                 [ ("seq", Netdsl_format.Value.Int 5L);
                   ("kind", Netdsl_format.Value.Int 0L);
                   ("payload", Netdsl_format.Value.Bytes "hello") ])
          in
          let fd = udp_client () in
          send fd (Option.get (Server.udp_port srv)) data;
          Unix.close fd;
          check_int "one packet served" 1 (Server.run ~duration:0.6 srv);
          check_int "two retransmits and the give-up fired while idle" 3
            (Netdsl_engine.Stats.timers_expired (Server.engine_stats srv)))
  end

let sharded_create_red_paths () =
  let contains msg sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length msg
      && (String.equal (String.sub msg i n) sub || go (i + 1))
    in
    go 0
  in
  let fail_is expect = function
    | Error msg ->
      check_bool
        (Printf.sprintf "error %S mentions %S" msg expect)
        true (contains msg expect)
    | Ok srv ->
      Server.close srv;
      Alcotest.failf "expected an error mentioning %S" expect
  in
  (* TCP cannot shard: replies would interleave on the stream *)
  fail_is "UDP"
    (Server.create ~signals:false ~flight:arq_flight ~workers:2
       ~allow_oversubscribe:true
       ~listeners:[ Server.Tcp { host = "127.0.0.1"; port = 0 } ]
       Fm.Arq.format);
  (* echo_flight declares no flow key and none is supplied *)
  fail_is "steering key"
    (Server.create ~signals:false ~flight:echo_flight ~workers:2
       ~allow_oversubscribe:true
       ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
       Fm.Arq.format);
  (* an explicit ~shard_key must exist in the format *)
  fail_is "bad steering key"
    (Server.create ~signals:false ~flight:echo_flight ~workers:2
       ~allow_oversubscribe:true ~shard_key:"nope"
       ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
       Fm.Arq.format)

(* More workers than cores: clamped to the cores unless the caller opts
   into oversubscription, and warned on the engine counters either way.
   Port 0 binds only [cores + 2] sockets; nothing runs. *)
let sharded_oversubscription_clamped () =
  let cores = Domain.recommended_domain_count () in
  let create allow_oversubscribe =
    match
      Server.create ~signals:false ~flight:arq_flight ~workers:(cores + 2)
        ~allow_oversubscribe
        ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
        Fm.Arq.format
    with
    | Error e -> Alcotest.failf "create: %s" e
    | Ok srv -> srv
  in
  let warned srv =
    Netdsl_engine.Stats.warnings (Server.engine_stats srv) <> []
  in
  (* default: clamp to the available cores and say so *)
  let srv = create false in
  Fun.protect ~finally:(fun () -> Server.close srv) (fun () ->
      check_int "clamped" cores (Server.workers srv);
      check_bool "warning lands in the engine stats" true (warned srv));
  (* explicit opt-in: keep the requested count, still warn *)
  let srv = create true in
  Fun.protect ~finally:(fun () -> Server.close srv) (fun () ->
      check_int "kept" (cores + 2) (Server.workers srv);
      check_bool "warned anyway" true (warned srv))

(* ------------------------------------------------------------------ *)
(* serving a layered chain *)

(* A chained TFTP request over real UDP: the server decodes the whole
   eth -> ipv4 -> udp -> tftp chain through the fused plan, verifies on
   an inner register, keys flows on the UDP layer and answers with the
   IPv4 TTL patched inside its recorded layer window — which drags the
   header checksum along incrementally (RFC 1624), so the reply is still
   a valid chain.  A packet whose outer demux lies never produces a
   datagram. *)
let stacked_serve_chained_tftp () =
  let module Stack = Netdsl_format.Stack in
  let stack = Fm.Stacks.inet_tftp in
  let req =
    match Corpus.stack_seeds stack with
    | r :: _ -> r
    | [] -> Alcotest.fail "no chained seeds for inet_tftp"
  in
  let plan = Result.get_ok (Stack.compile stack) in
  let seq = Stack.Seq.create plan in
  (match Stack.Seq.decode seq req with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "chained seed does not decode: %s"
      (Netdsl_format.Codec.error_to_string e));
  let broken_demux =
    (* ethertype (bytes 12-13 of the ethernet header) no longer selects
       the ipv4 edge: the chain rejects, the socket stays silent *)
    let b = Bytes.of_string req in
    Bytes.set b 13 '\x01';
    Bytes.to_string b
  in
  let flight =
    Flight.spec
      ~verify:(Flight.Cmp (Flight.Lt, Flight.Field "tftp.opcode", Flight.Const 6L))
      ~flow_key:"udp.src_port"
      ~respond:
        [ { Flight.re_when = All [];
            re_set = [ { Flight.set_field = "ipv4.ttl"; set_to = Flight.Const 7L } ] } ]
      ()
  in
  match
    Server.create ~signals:false ~stack ~flight
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      (Stack.layer_format stack 0)
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        let port = Option.get (Server.udp_port srv) in
        let dom = Domain.spawn (fun () -> Server.run ~max_packets:2 srv) in
        let fd = udp_client () in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            send fd port broken_demux;
            send fd port req;
            (match recv_timeout fd with
            | None -> Alcotest.fail "no reply to the chained request"
            | Some reply ->
              check_int "reply keeps the chained length" (String.length req)
                (String.length reply);
              (match Stack.Seq.decode seq reply with
              | Error e ->
                Alcotest.failf "reply does not chain-decode: %s"
                  (Netdsl_format.Codec.error_to_string e)
              | Ok () ->
                check_int "ttl patched inside the ipv4 window" 7
                  (Netdsl_format.Value.get_int (Stack.Seq.value seq 1) "ttl");
                let tftp_off = Stack.Seq.layer_off seq 3 in
                let tftp_len = Stack.Seq.layer_len seq 3 in
                check_string "tftp window untouched"
                  (String.sub req tftp_off tftp_len)
                  (String.sub reply tftp_off tftp_len)));
            check_bool "no reply to the broken chain" true
              (recv_timeout ~timeout:0.1 fd = None);
            check_int "both processed" 2 (Domain.join dom);
            let st = Server.net_stats srv in
            check_int "rx counted" 2 st.Nstats.rx_pkts;
            check_int "one reply sent" 1 st.Nstats.tx_pkts))

(* ------------------------------------------------------------------ *)
(* socket-side stats: the batching counters fold like the others *)

let stats_merge_folds_batch_counters () =
  let a = Nstats.create () and b = Nstats.create () in
  a.Nstats.rx_pkts <- 3;
  a.Nstats.tx_pkts <- 40;
  a.Nstats.tx_msgs <- 2;
  a.Nstats.syscalls <- 10;
  a.Nstats.batched_rx <- 100;
  a.Nstats.batched_tx <- 50;
  a.Nstats.hwm_pkts_per_syscall <- 8;
  b.Nstats.rx_pkts <- 4;
  b.Nstats.tx_pkts <- 6;
  b.Nstats.tx_msgs <- 6;
  b.Nstats.syscalls <- 5;
  b.Nstats.batched_rx <- 7;
  b.Nstats.batched_tx <- 3;
  b.Nstats.hwm_pkts_per_syscall <- 32;
  let m = Nstats.merge [ a; b ] in
  check_int "rx adds" 7 m.Nstats.rx_pkts;
  check_int "tx adds" 46 m.Nstats.tx_pkts;
  check_int "tx messages add" 8 m.Nstats.tx_msgs;
  check_int "syscalls add" 15 m.Nstats.syscalls;
  check_int "batched rx adds" 107 m.Nstats.batched_rx;
  check_int "batched tx adds" 53 m.Nstats.batched_tx;
  check_int "pkts/syscall hwm maxes" 32 m.Nstats.hwm_pkts_per_syscall;
  (* inputs untouched; the hwm is per-run, the counters are cumulative *)
  check_int "input untouched" 100 a.Nstats.batched_rx;
  Nstats.reset_highwater a;
  check_int "hwm resets" 0 a.Nstats.hwm_pkts_per_syscall;
  check_int "cumulative counters survive the reset" 10 a.Nstats.syscalls

(* ------------------------------------------------------------------ *)
(* the batched (recvmmsg/sendmmsg + epoll) receive loop *)

(* Forced-mmsg server, plain per-packet client: every data packet
   acked through the batched drain / staged-flush path, the batching
   counters actually ticking. *)
let mmsg_udp_roundtrip () =
  if not (mmsg_available ()) then ()
  else
    match
      Server.create ~signals:false ~flight:arq_flight
        ~io:Server.Mmsg ~io_batch:8
        ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
        Fm.Arq.format
    with
    | Error e -> Alcotest.fail e
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Server.close srv)
        (fun () ->
          check_bool "batched io resolved" true (Server.batched_io srv);
          let port = Option.get (Server.udp_port srv) in
          let n = 40 in
          let dom = Domain.spawn (fun () -> Server.run ~max_packets:n srv) in
          let fd = udp_client () in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              for i = 1 to n do
                send fd port (arq_data ~seq:(i land 0xFF) (Printf.sprintf "b%02d" i))
              done;
              check_int "all processed" n (Domain.join dom);
              let got = ref 0 in
              let continue = ref true in
              while !continue do
                match recv_timeout ~timeout:1.0 fd with
                | None -> continue := false
                | Some reply ->
                  incr got;
                  check_int "kind patched to ack" 1 (Char.code reply.[1])
              done;
              check_int "every packet answered" n !got;
              let st = Server.net_stats srv in
              check_int "rx counted" n st.Nstats.rx_pkts;
              check_int "tx counted" n st.Nstats.tx_pkts;
              check_int "all rx arrived batched" n st.Nstats.batched_rx;
              check_int "all tx left batched" n st.Nstats.batched_tx;
              check_bool "syscalls counted" true (st.Nstats.syscalls > 0);
              check_bool "a batch amortized" true
                (st.Nstats.hwm_pkts_per_syscall >= 1)))

(* The same graceful-shutdown guarantee as the legacy loop: datagrams
   already queued in the kernel when stop lands are drained, answered
   and flushed before [run] returns. *)
let mmsg_shutdown_drains_in_flight () =
  if not (mmsg_available ()) then ()
  else
    match
      Server.create ~signals:false ~flight:echo_flight
        ~io:Server.Mmsg ~io_batch:16
        ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
        Fm.Arq.format
    with
    | Error e -> Alcotest.fail e
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Server.close srv)
        (fun () ->
          let port = Option.get (Server.udp_port srv) in
          let fd = udp_client () in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let n = 50 in
              for i = 0 to n - 1 do
                send fd port (arq_data ~seq:(i land 0xff) "inflight")
              done;
              Server.request_stop srv;
              check_int "drained on stop" n (Server.run srv);
              for i = 0 to n - 1 do
                match recv_timeout fd with
                | None -> Alcotest.failf "reply %d missing" i
                | Some _ -> ()
              done;
              check_bool "multi-packet batches observed" true
                ((Server.net_stats srv).Nstats.hwm_pkts_per_syscall > 1)))

(* The batched path serves each receive run before the next read, so
   its ingest state is one I/O batch, not a [ring_capacity] slab of
   2 KB slots (which alone is 2 MB at the default config). *)
let mmsg_create_is_small () =
  if mmsg_available () then begin
    let before = Gc.allocated_bytes () in
    match
      Server.create ~signals:false ~flight:arq_flight
        ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
        ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
        Fm.Arq.format
    with
    | Error e -> Alcotest.fail e
    | Ok srv ->
      let kb = (Gc.allocated_bytes () -. before) /. 1024. in
      let batched = Server.batched_io srv in
      Server.close srv;
      check_bool "auto resolved to batched io" true batched;
      check_bool (Printf.sprintf "create allocated %.0f KB < 512 KB" kb) true
        (kb < 512.)
  end

(* One listener pass serves at most [ring_capacity] packets, then the
   loop moves on: a flooded listener must not starve a second listener
   or the stop flag.  The flood is queued before [run] starts, so the
   first pass over it already sees more than the budget. *)
let mmsg_flood_pass_bounded () =
  if mmsg_available () then
    let config = { Pipeline.default_config with Pipeline.ring_capacity = 64 } in
    match
      Server.create ~config ~signals:false
        ~flight:arq_flight ~io:Server.Mmsg
        ~listeners:
          [ Server.Udp { host = "127.0.0.1"; port = 0 };
            Server.Udp { host = "127.0.0.1"; port = 0 } ]
        Fm.Arq.format
    with
    | Error e -> Alcotest.fail e
    | Ok srv ->
      let pa, pb =
        match Server.bound srv with
        | [ (_, _, a); (_, _, b) ] -> (a, b)
        | _ -> Alcotest.fail "expected two listeners"
      in
      let flooding = Atomic.make true in
      let sent = Atomic.make 0 in
      let flooder =
        Domain.spawn (fun () ->
            let fd = udp_client () in
            let pkt = arq_data ~seq:1 "flood" in
            while Atomic.get flooding do
              (try send fd pa pkt with Unix.Unix_error _ -> ());
              Atomic.incr sent
            done;
            Unix.close fd)
      in
      let flood_running () =
        let n0 = Atomic.get sent and t0 = Unix.gettimeofday () in
        while Atomic.get sent = n0 && Unix.gettimeofday () -. t0 < 1.0 do
          Domain.cpu_relax ()
        done;
        Atomic.get sent > n0
      in
      let server = ref None in
      let fd = udp_client () in
      Fun.protect
        ~finally:(fun () ->
          (* a server stuck in one pass only returns once the flood ends *)
          Atomic.set flooding false;
          Domain.join flooder;
          Server.request_stop srv;
          Option.iter (fun d -> ignore (Domain.join d)) !server;
          Unix.close fd;
          Server.close srv)
        (fun () ->
          while Atomic.get sent < 2_000 do
            Domain.cpu_relax ()
          done;
          send fd pb (arq_data ~seq:7 "probe");
          server := Some (Domain.spawn (fun () -> Server.run srv));
          (match recv_timeout ~timeout:2.0 fd with
          | None -> Alcotest.fail "listener B starved by the flood on A"
          | Some reply ->
            check_int "B's request acked" 1 (Char.code reply.[1]));
          check_bool "flood still running" true (flood_running ());
          let t0 = Unix.gettimeofday () in
          Server.request_stop srv;
          let d = Option.get !server in
          server := None;
          ignore (Domain.join d);
          let took = Unix.gettimeofday () -. t0 in
          check_bool (Printf.sprintf "stop honoured in %.3f s" took) true
            (took < 1.0);
          let st = Server.net_stats srv in
          check_bool
            (Printf.sprintf "hwm_drain %d <= 64" st.Nstats.hwm_drain)
            true (st.Nstats.hwm_drain <= 64);
          check_int "no user-space drops" 0 st.Nstats.drops)

(* ---- UDP GSO: grouping staged replies into one message per run ---- *)

(* Echo of whatever arrives, the empty datagram included: every reply is
   its request byte for byte, so any loss, duplicate, merge or reorder
   on the grouped send path shows on the client. *)
let blob =
  Netdsl_format.Desc.(format "blob" [ field "data" (Bytes Len_remaining) ])

let blob_pkt i len = String.init len (fun j -> Char.chr ((i * 31 + j) land 0xff))

(* A batched echo server; the clients' datagrams are all queued in the
   kernel before [serve] runs it, so one drain and one staged flush see
   the whole burst and the grouping is deterministic. *)
let with_gso_server ?(refuse = false) f =
  match
    Server.create ~signals:false ~flight:echo_flight
      ~io:Server.Mmsg ~io_batch:64
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      blob
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        Server.For_testing.refuse_gso_groups srv refuse;
        let port = Option.get (Server.udp_port srv) in
        let serve () =
          Server.request_stop srv;
          ignore (Server.run srv);
          Server.net_stats srv
        in
        f port serve)

let with_clients n f =
  let fds = List.init n (fun _ -> udp_client ()) in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close fds)
    (fun () -> f fds)

(* Exactly [want], in order, then silence: nothing lost, nothing twice. *)
let expect_replies fd label want =
  List.iteri
    (fun j w ->
      match recv_timeout ~timeout:2.0 fd with
      | None -> Alcotest.failf "%s: reply %d missing" label j
      | Some got ->
        check_string (Printf.sprintf "%s: reply %d byte-exact" label j) w got)
    want;
  check_bool (label ^ ": no extra datagram") true
    (recv_timeout ~timeout:0.2 fd = None)

let expect_grouped st n =
  check_int "every reply sent" n st.Nstats.tx_pkts;
  check_int "no tx errors" 0 st.Nstats.tx_errors;
  if Netdsl_net.Mmsg.gso_available () then
    check_bool
      (Printf.sprintf "grouped: %d msgs for %d datagrams" st.Nstats.tx_msgs
         st.Nstats.tx_pkts)
      true
      (st.Nstats.tx_msgs < st.Nstats.tx_pkts)

let gso_same_size_burst () =
  if mmsg_available () then
    with_gso_server (fun port serve ->
        with_clients 1 (fun fds ->
            let fd = List.hd fds in
            let pkts = List.init 24 (fun i -> blob_pkt i 100) in
            List.iter (send fd port) pkts;
            let st = serve () in
            expect_replies fd "burst" pkts;
            expect_grouped st 24))

(* Address changes split runs: two peers in interleaved blocks of three
   each get exactly their own replies, in order. *)
let gso_two_peers_interleaved () =
  if mmsg_available () then
    with_gso_server (fun port serve ->
        with_clients 2 (fun fds ->
            let a = List.nth fds 0 and b = List.nth fds 1 in
            let sent_a = ref [] and sent_b = ref [] in
            for i = 0 to 23 do
              let fd, sent = if i / 3 mod 2 = 0 then (a, sent_a) else (b, sent_b) in
              let pkt = blob_pkt i 64 in
              send fd port pkt;
              sent := pkt :: !sent
            done;
            let st = serve () in
            expect_replies a "peer a" (List.rev !sent_a);
            expect_replies b "peer b" (List.rev !sent_b);
            expect_grouped st 24))

(* A longer reply after a shorter one starts a new run, a shorter one
   ends its run, empty and over-1472 B replies go out alone. *)
let mixed_lengths =
  [ 100; 100; 100; 200; 200; 50; 0; 100; 100; 1600; 100; 1472; 1472; 1473;
    30; 30; 0; 0; 7 ]

let gso_mixed_lengths () =
  if mmsg_available () then
    with_gso_server (fun port serve ->
        with_clients 1 (fun fds ->
            let fd = List.hd fds in
            let pkts = List.mapi blob_pkt mixed_lengths in
            List.iter (send fd port) pkts;
            let st = serve () in
            expect_replies fd "mixed" pkts;
            expect_grouped st (List.length pkts)))

(* The kernel refuses groups (a malformed UDP_SEGMENT cmsg draws a real
   EINVAL).  The first flush meets its first group after a single went
   out, so [sendmmsg] reports one message and drops the error; the
   resume sends the group first, is refused, and re-sends the rest one
   datagram per message: three send calls.  The refusal turns grouping
   off, so the same burst served again makes no failed attempt: one
   send call, two fewer.  Both times every reply arrives exactly once. *)
let gso_refusal_resends () =
  if mmsg_available () then
    with_gso_server ~refuse:true (fun port serve ->
        with_clients 1 (fun fds ->
            let fd = List.hd fds in
            let pkts = List.mapi blob_pkt ((7 :: mixed_lengths) @ [ 64; 64 ]) in
            let n = List.length pkts in
            let burst label (prev : Nstats.t) =
              List.iter (send fd port) pkts;
              let st = serve () in
              expect_replies fd label pkts;
              check_int (label ^ ": every reply sent") n
                (st.Nstats.tx_pkts - prev.Nstats.tx_pkts);
              check_int (label ^ ": one message per datagram") n
                (st.Nstats.tx_msgs - prev.Nstats.tx_msgs);
              check_int (label ^ ": no tx errors") 0 st.Nstats.tx_errors;
              check_int (label ^ ": nothing dropped") 0 st.Nstats.send_eagain;
              st
            in
            let first = burst "refused" (Nstats.create ()) in
            let second = burst "after refusal" first in
            let calls_saved =
              first.Nstats.syscalls
              - (second.Nstats.syscalls - first.Nstats.syscalls)
            in
            check_int "no failed attempt after the refusal"
              (if Netdsl_net.Mmsg.gso_available () then 2 else 0)
              calls_saved))

(* Forcing the legacy loop must behave exactly like the default used to:
   the fallback stays a first-class, tested path. *)
let legacy_forced_roundtrip () =
  match
    Server.create ~signals:false ~flight:echo_flight
      ~io:Server.Legacy
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        check_bool "legacy io resolved" true (not (Server.batched_io srv));
        let port = Option.get (Server.udp_port srv) in
        let dom = Domain.spawn (fun () -> Server.run ~max_packets:1 srv) in
        let fd = udp_client () in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let pkt = arq_data ~seq:9 "legacy" in
            send fd port pkt;
            (match recv_timeout fd with
            | None -> Alcotest.fail "no reply on the legacy path"
            | Some reply -> check_string "echoed" pkt reply);
            check_int "processed" 1 (Domain.join dom);
            check_int "no batched rx on legacy" 0
              (Server.net_stats srv).Nstats.batched_rx))

let mmsg_create_red_paths () =
  let contains msg sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length msg
      && (String.equal (String.sub msg i n) sub || go (i + 1))
    in
    go 0
  in
  let fail_is expect = function
    | Error msg ->
      check_bool
        (Printf.sprintf "error %S mentions %S" msg expect)
        true (contains msg expect)
    | Ok srv ->
      Server.close srv;
      Alcotest.failf "expected an error mentioning %S" expect
  in
  (* batched I/O is a UDP story: the TCP reframer needs recv/read *)
  fail_is "UDP"
    (Server.create ~signals:false ~flight:echo_flight ~io:Server.Mmsg
       ~listeners:[ Server.Tcp { host = "127.0.0.1"; port = 0 } ]
       Fm.Arq.format);
  fail_is "io-batch"
    (Server.create ~signals:false ~flight:echo_flight ~io_batch:0
       ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
       Fm.Arq.format);
  (* the kill switch makes the stubs report unavailable, so a forced
     Mmsg must refuse rather than silently serve legacy *)
  Unix.putenv "NETDSL_NO_MMSG" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "NETDSL_NO_MMSG" "")
    (fun () ->
      fail_is "unavailable"
        (Server.create ~signals:false ~flight:echo_flight ~io:Server.Mmsg
           ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
           Fm.Arq.format);
      (* Auto under the kill switch degrades quietly to legacy *)
      match
        Server.create ~signals:false ~flight:echo_flight
          ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
          Fm.Arq.format
      with
      | Error e -> Alcotest.fail e
      | Ok srv ->
        Fun.protect
          ~finally:(fun () -> Server.close srv)
          (fun () ->
            check_bool "auto degrades to legacy" true
              (not (Server.batched_io srv))))

(* ------------------------------------------------------------------ *)
(* oversized datagrams and the kernel pre-filter *)


let ethernet_frame payload =
  String.make 6 '\xaa' ^ String.make 6 '\xbb' ^ "\x08\x00" ^ payload

(* A datagram wider than a slot (2048 B) must not be served as its
   slot-sized prefix: it is dropped whole and counted, and the next
   datagram is served as usual — on both backends.  Ethernet's filter
   checks only the minimum length, so the 3000 B datagram reaches the
   server. *)
let oversized_datagram_dropped () =
  let run io =
    match
      Server.create ~signals:false ~flight:echo_flight ~io
        ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
        Fm.Ethernet.format
    with
    | Error e -> Alcotest.fail e
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Server.close srv)
        (fun () ->
          let port = Option.get (Server.udp_port srv) in
          let dom = Domain.spawn (fun () -> Server.run ~max_packets:1 srv) in
          let fd = udp_client () in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let big = ethernet_frame (String.make (3000 - 14) 'o') in
              let valid = ethernet_frame (String.make 46 'v') in
              send fd port big;
              send fd port valid;
              (match recv_timeout fd with
              | None -> Alcotest.fail "no reply to the valid frame"
              | Some reply -> check_string "only the valid frame echoed" valid reply);
              check_bool "nothing else" true (recv_timeout ~timeout:0.1 fd = None);
              check_int "one processed" 1 (Domain.join dom);
              let st = Server.net_stats srv in
              check_int "the oversized datagram is a drop" 1 st.Nstats.drops;
              check_int "rx counts the served one" 1 st.Nstats.rx_pkts;
              check_int "no kernel drop" 0 st.Nstats.kernel_drops))
  in
  run Server.Legacy;
  if mmsg_available () then run Server.Mmsg

(* What a socket carrying [prog] receives of each probe: its payload
   bytes, or [None] once the socket's drop counter moves. *)
let kernel_fate prog probes =
  let rx = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let tx = udp_client () in
  Fun.protect
    ~finally:(fun () -> Unix.close rx; Unix.close tx)
    (fun () ->
      Unix.bind rx (loopback 0);
      Unix.set_nonblock rx;
      check_bool "the kernel takes the program" true
        (Netdsl_net.Mmsg.attach_filter rx prog);
      let port =
        match Unix.getsockname rx with Unix.ADDR_INET (_, p) -> p | _ -> 0
      in
      let buf = Bytes.create 65536 in
      List.map
        (fun probe ->
          let drops0 = Netdsl_net.Mmsg.socket_drops rx in
          send tx port probe;
          let deadline = Unix.gettimeofday () +. 2.0 in
          let rec wait () =
            match Unix.recv rx buf 0 (Bytes.length buf) [] with
            | n -> Some (Bytes.sub_string buf 0 n)
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              if Netdsl_net.Mmsg.socket_drops rx > drops0 then None
              else if Unix.gettimeofday () > deadline then
                Alcotest.failf "probe %S: neither delivered nor dropped" probe
              else begin
                Unix.sleepf 0.001;
                wait ()
              end
          in
          wait ())
        probes)

(* The interpreter is the oracle for every filter claim; here it meets
   the kernel.  A fixed probe set through the compiled ARQ and Ethernet
   programs and the ARQ program's planted mutants (the trimming one
   included: the kernel keeps the header and delivers an empty payload)
   must fare on a real socket exactly as the interpreter predicts. *)
let filter_kernel_agrees () =
  let arq = Option.get (Bpf.compile Fm.Arq.format) in
  let eth = Option.get (Bpf.compile Fm.Ethernet.format) in
  let valid = arq_data ~seq:5 "hello" in
  let with_byte s i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  let arq_probes =
    [ valid; arq_data ~seq:0 ""; arq_data ~seq:9 (String.make 1400 'z');
      Fm.Arq.to_bytes (Fm.Arq.Ack { seq = 7 }); with_byte valid 1 '\002';
      with_byte valid 1 '\255'; String.sub valid 0 (String.length valid - 1);
      valid ^ "x"; String.sub valid 0 5; ""; "\xff"; with_byte valid 4 '\000' ]
  in
  let eth_probes =
    [ ""; String.make 13 'e'; ethernet_frame ""; ethernet_frame (String.make 46 'p') ]
  in
  let cases =
    ("arq", arq, arq_probes) :: ("ethernet", eth, eth_probes)
    :: List.map (fun (name, p) -> ("arq " ^ name, p, arq_probes)) (Bpf_oracle.mutants arq)
  in
  check_int "three mutants" 5 (List.length cases);
  List.iter
    (fun (name, prog, probes) ->
      List.iter2
        (fun probe got ->
          let want =
            match Bpf_oracle.run (Bpf_oracle.prepare prog) probe with
            | Bpf_oracle.Drop -> None
            | Bpf_oracle.Keep n -> Some (String.sub probe 0 n)
          in
          Alcotest.(check (option string))
            (Printf.sprintf "%s: probe %S" name probe) want got)
        probes (kernel_fate prog probes))
    cases

(* ------------------------------------------------------------------ *)
(* the socket oracle leg *)

(* A mutant-laced ARQ soak through a real socket pair, every reply
   diffed byte-for-byte against the in-memory reference executor: no
   disagreement, the kernel pre-filter drops exactly what the cBPF
   interpreter predicts, the server processes the rest, and every
   expected reply arrives. *)
let check_soak ?io ?io_batch ~count packets =
  match
    Loopback.soak
      ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8) ~flight:arq_flight ?io
      ?io_batch ~packets ~count Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    (match r.Loopback.first_disagreement with
    | None -> ()
    | Some d -> Alcotest.failf "disagreement: %s" d);
    check_int "0 disagreements" 0 r.Loopback.disagreements;
    check_bool "the filter drops some mutants" true (r.Loopback.filtered > 0);
    check_int "processed = sent - predicted filter drops"
      (count - r.Loopback.filtered) r.Loopback.server_processed;
    check_int "kernel drops = predicted filter drops" r.Loopback.filtered
      r.Loopback.net.Nstats.kernel_drops;
    check_int "every expected reply arrived" r.Loopback.expected_replies
      r.Loopback.replies;
    r

(* 1 in 4 packets a structure-aware mutant, 1 in 7 an ack, the rest
   data frames with [payload i]-byte payloads over 256 flows. *)
let soak_stream ~seed payload =
  let rng = Prng.of_int seed in
  let plan = Mutate.plan Fm.Arq.format in
  fun i ->
    let seq = i land 0xff in
    let valid =
      if i mod 7 = 0 then Fm.Arq.to_bytes (Fm.Arq.Ack { seq })
      else arq_data ~seq (String.make (payload i) 'p')
    in
    if i mod 4 = 3 then Mutate.apply (Mutate.random plan rng valid) valid else valid

let loopback_soak_agrees () =
  let r = check_soak ~count:5000 (soak_stream ~seed:2026 (fun i -> i mod 48)) in
  check_bool "some replies flowed" true (r.Loopback.expected_replies > 1000)

(* The hostile stream at seed 20260808 with payloads under 64 B, through
   the server's default receive loop (the legacy one when
   NETDSL_NO_MMSG=1) and through the batched loop at batch 32. *)
let hostile_soak ?io ?io_batch count () =
  if io <> Some Server.Mmsg || mmsg_available () then
    ignore
      (check_soak ?io ?io_batch ~count (soak_stream ~seed:20260808 (fun i -> i mod 64)))

(* The same differential soak with the server forced onto the batched
   drain/flush path: byte-for-byte agreement with the in-memory
   reference executor is the correctness gate for the mmsg rework.
   Payload lengths change every 8 packets: equal-size replies sit next
   to each other in a burst and group into GSO runs. *)
let loopback_soak_mmsg_agrees () =
  if mmsg_available () then begin
    let st =
      (check_soak ~io:Server.Mmsg ~io_batch:8 ~count:2000
         (soak_stream ~seed:1177 (fun i -> i / 8 mod 48)))
        .Loopback.net
    in
    if Netdsl_net.Mmsg.gso_available () then
      check_bool
        (Printf.sprintf "replies grouped: %d msgs for %d datagrams" st.Nstats.tx_msgs
           st.Nstats.tx_pkts)
        true
        (st.Nstats.tx_msgs < st.Nstats.tx_pkts)
  end

(* The soak against the single-worker oracle, sharded: a mutant-laced
   ARQ stream in bursts of 16 through [workers] SO_REUSEPORT workers.
   Replies from different workers interleave on the client socket, so
   they are compared flow by flow: each flow's replies must be
   byte-identical to [Oracle.Reply_ref]'s for the same packets, in the
   same order, with nothing extra.  The kernel is held to the
   interpreter socket by socket: each worker receives the share the
   steering program predicts, and its pre-filter drops what the filter
   program predicts. *)
let sharded_soak_one ~io ~workers =
  let count = 2000 in
  let rng = Prng.of_int (4242 + workers) in
  let plan = Mutate.plan Fm.Arq.format in
  let packets =
    List.init count (fun i ->
        let seq = i land 0xff in
        let valid =
          if i mod 7 = 0 then Fm.Arq.to_bytes (Fm.Arq.Ack { seq })
          else arq_data ~seq (String.make (i / 8 mod 48) 's')
        in
        if i mod 4 = 3 then Mutate.apply (Mutate.random plan rng valid) valid
        else valid)
  in
  let machine = Netdsl_proto.Arq_fsm.receiver ~seq_bits:8 in
  let reference =
    Netdsl_check.Oracle.Reply_ref.create ~machine ~flight:arq_flight Fm.Arq.format
  in
  match
    Server.create ~signals:false ~io ~machine ~flight:arq_flight ~workers
      ~allow_oversubscribe:true
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        check_int "workers" workers (Server.workers srv);
        let port = Option.get (Server.udp_port srv) in
        let dom = Domain.spawn (fun () -> Server.run srv) in
        let fd = udp_client () in
        let want = Hashtbl.create 256 and got = Hashtbl.create 256 in
        let push tbl r =
          let k = Char.code r.[0] in
          Hashtbl.replace tbl k (r :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
        in
        let expected = ref 0 and replies = ref 0 and silent = ref false in
        let rec bursts = function
          | [] -> ()
          | pkts ->
            let burst = List.filteri (fun i _ -> i < 16) pkts in
            let rest = List.filteri (fun i _ -> i >= 16) pkts in
            List.iter
              (fun p ->
                (match snd (Netdsl_check.Oracle.Reply_ref.expected reference p) with
                | Some r ->
                  incr expected;
                  push want r
                | None -> ());
                send fd port p)
              burst;
            while (not !silent) && !replies < !expected do
              match recv_timeout fd with
              | None -> silent := true
              | Some r ->
                incr replies;
                push got r
            done;
            bursts rest
        in
        bursts packets;
        (* a rejected packet stays silent: anything left is a stray *)
        let rec strays () =
          match recv_timeout ~timeout:0.2 fd with
          | None -> ()
          | Some r ->
            incr replies;
            push got r;
            strays ()
        in
        strays ();
        Unix.close fd;
        Server.request_stop srv;
        let processed = Domain.join dom in
        check_bool "no reply went missing" false !silent;
        check_int "every expected reply, nothing more" !expected !replies;
        check_bool "some replies flowed" true (!expected > 1000);
        Hashtbl.iter
          (fun k w ->
            Alcotest.(check (list string))
              (Printf.sprintf "flow %d: the oracle's replies, in order" k)
              (List.rev w)
              (List.rev (Option.value ~default:[] (Hashtbl.find_opt got k))))
          want;
        let rx, drops = predicted_by_worker srv packets in
        check_bool "the filter drops some mutants" true (Array.fold_left ( + ) 0 drops > 0);
        check_int "processed = sent - predicted filter drops"
          (count - Array.fold_left ( + ) 0 drops) processed;
        ignore (check_rows_predicted srv packets);
        Array.iteri
          (fun w n -> check_bool (Printf.sprintf "worker %d served" w) true (n > 0))
          rx)

let sharded_soak io () =
  if io = Server.Mmsg && not (mmsg_available ()) then ()
  else
    List.iter
      (fun workers ->
        if workers <= max 2 (Domain.recommended_domain_count ()) then
          sharded_soak_one ~io ~workers)
      [ 2; 3 ]

(* A client that gives up before the warmup count is reached: its stop
   lands while the warmup run is still waiting, and the measured run
   must end too rather than wait for packets that never come. *)
let loopback_client_gives_up_in_warmup () =
  (* nothing decodes as ARQ, so nothing is answered: the blast window
     fills after 8 packets and the client stalls out.  One byte is
     shorter than any ARQ packet, so the kernel pre-filter drops all 8
     and the server never sees one. *)
  match
    Loopback.blast ~flight:arq_flight ~window:8
      ~packets:(fun _ -> "\xff") ~count:1000 Fm.Arq.format
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_int "the client gave up after one window" 8 r.Loopback.sent;
    check_int "no replies" 0 r.Loopback.replies;
    check_int "the filter drops all 8" 8 r.Loopback.filtered;
    check_int "processed = sent - predicted filter drops" 0
      r.Loopback.server_processed;
    check_int "kernel drops = predicted filter drops" 8
      r.Loopback.net.Nstats.kernel_drops

(* The B/pkt meter counts the server domain's allocation only: a client
   that allocates on every packet (and so triggers collections the
   server domain takes part in) leaves a batched server's figure at
   0.00, while the legacy backend's own per-datagram sockaddr boxing
   still shows. *)
let loopback_meter_ignores_client () =
  let pkt = arq_data ~seq:3 "meter" in
  let packets _ =
    ignore (Sys.opaque_identity (Bytes.create 4096));
    Bytes.to_string (Bytes.of_string pkt)
  in
  let blast io =
    match
      Loopback.blast ~flight:arq_flight ~io ~packets
        ~count:20_000 Fm.Arq.format
    with
    | Error e -> Alcotest.fail e
    | Ok r ->
      check_int "every packet answered" r.Loopback.sent r.Loopback.replies;
      r.Loopback.alloc_bytes_per_pkt
  in
  if mmsg_available () then
    Alcotest.(check string) "batched server, allocating client: B/pkt" "0.00"
      (Printf.sprintf "%.2f" (blast Server.Mmsg));
  let legacy = blast Server.Legacy in
  check_bool
    (Printf.sprintf "legacy backend's own allocation still metered (%.1f B/pkt)" legacy)
    true (legacy > 1.)

(* The batched loops under a closed-loop blast of 20 000 ARQ data
   frames (64 B payloads, 256 outstanding): the server domain allocates
   at most 0.005 B/pkt, and a batch of 8 or 32 takes fewer than 0.5
   syscalls per packet. *)
let mmsg_blast_costs () =
  if mmsg_available () then begin
    let pre = Array.init 256 (fun seq -> arq_data ~seq (String.make 64 'x')) in
    List.iter
      (fun io_batch ->
        match
          Loopback.blast
            ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
            ~flight:arq_flight ~io:Server.Mmsg ~io_batch ~window:256
            ~packets:(fun i -> pre.(i land 0xFF))
            ~count:20_000 Fm.Arq.format
        with
        | Error e -> Alcotest.fail e
        | Ok r ->
          let st = r.Loopback.net in
          let spp =
            float_of_int st.Nstats.syscalls
            /. float_of_int (max 1 (st.Nstats.rx_pkts + st.Nstats.tx_pkts))
          in
          check_bool
            (Printf.sprintf "batch %d: %.4f B/pkt (at most 0.005)" io_batch
               r.Loopback.alloc_bytes_per_pkt)
            true
            (r.Loopback.alloc_bytes_per_pkt <= 0.005);
          check_bool
            (Printf.sprintf "batch %d: %.3f syscalls/pkt (under 0.5)" io_batch spp)
            true (spp < 0.5))
      [ 8; 32 ]
  end

(* The 4-layer chain behind a real socket: 20 000 TFTP DATA datagrams,
   each answered by patching ipv4.ttl in place, every one answered. *)
let stacked_blast_answers_all () =
  let stack = Fm.Stacks.inet_tftp in
  let flight =
    Flight.spec
      ~verify:(Flight.Cmp (Flight.Lt, Flight.Field "tftp.opcode", Flight.Const 6L))
      ~flow_key:"udp.src_port"
      ~respond:
        [ { Flight.re_when = Flight.All [];
            re_set = [ { Flight.set_field = "ipv4.ttl"; set_to = Flight.Const 7L } ] } ]
      ()
  in
  let req =
    match
      Netdsl_format.Stack.encode
        (Result.get_ok (Netdsl_format.Stack.compile stack))
        (Fm.Stacks.inet_tftp_values (Fm.Tftp.Data { block = 7; data = String.make 32 'd' }))
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match
    Loopback.blast ~stack ~flight ~packets:(fun _ -> req) ~count:20_000
      (Netdsl_format.Stack.layer_format stack 0)
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_int "every packet sent" 20_000 r.Loopback.sent;
    check_int "every packet answered" r.Loopback.sent r.Loopback.replies

let suite =
  [ ( "net.pipeline",
      [ Alcotest.test_case "process_slab_batch = process" `Quick
          slab_batch_matches_process ] );
    ( "net.server",
      [ Alcotest.test_case "udp round trip, every shipped format" `Quick
          udp_roundtrip_every_format;
        Alcotest.test_case "oversized datagram dropped, not served cut" `Quick
          oversized_datagram_dropped;
        Alcotest.test_case "kernel pre-filter: socket = interpreter" `Quick
          filter_kernel_agrees;
        Alcotest.test_case "truncated datagram rejected, order kept" `Quick
          udp_truncated_rejected;
        Alcotest.test_case "shutdown drains in-flight" `Quick
          shutdown_drains_in_flight;
        Alcotest.test_case "duration ends an idle run" `Quick
          duration_ends_idle_run;
        Alcotest.test_case "tcp framed round trip" `Quick tcp_roundtrip_framed;
        Alcotest.test_case "tcp burst beyond the run, in order" `Quick
          tcp_burst_served_in_order;
        Alcotest.test_case "syscall pin: legacy backend" `Quick
          (syscall_pin Server.Legacy);
        Alcotest.test_case "syscall pin: mmsg backend" `Quick
          (syscall_pin Server.Mmsg);
        Alcotest.test_case "chained tftp served through the fused stack" `Quick
          stacked_serve_chained_tftp;
        Alcotest.test_case "create red paths" `Quick create_red_paths;
        Alcotest.test_case "udp port not shareable via SO_REUSEADDR" `Quick
          udp_port_not_shareable;
        Alcotest.test_case "sharded udp round trip" `Quick
          sharded_udp_roundtrip;
        Alcotest.test_case "sharded create red paths" `Quick
          sharded_create_red_paths;
        Alcotest.test_case "oversubscription clamped+warned" `Quick
          sharded_oversubscription_clamped;
        Alcotest.test_case "kernel steering: socket = interpreter" `Quick
          steering_kernel_agrees;
        Alcotest.test_case "sharded idle workers fire timers: legacy" `Quick
          (sharded_idle_worker_fires_timers Server.Legacy);
        Alcotest.test_case "sharded idle workers fire timers: mmsg" `Quick
          (sharded_idle_worker_fires_timers Server.Mmsg) ] );
    ( "net.stats",
      [ Alcotest.test_case "merge folds the batching counters" `Quick
          stats_merge_folds_batch_counters ] );
    ( "net.mmsg",
      [ Alcotest.test_case "batched udp round trip" `Quick mmsg_udp_roundtrip;
        Alcotest.test_case "batched shutdown drains in-flight" `Quick
          mmsg_shutdown_drains_in_flight;
        Alcotest.test_case "batched create allocates one batch" `Quick
          mmsg_create_is_small;
        Alcotest.test_case "flooded listener cannot starve the loop" `Quick
          mmsg_flood_pass_bounded;
        Alcotest.test_case "gso: same-size burst groups, arrives exact" `Quick
          gso_same_size_burst;
        Alcotest.test_case "gso: two peers interleaved" `Quick
          gso_two_peers_interleaved;
        Alcotest.test_case "gso: mixed lengths arrive exact" `Quick
          gso_mixed_lengths;
        Alcotest.test_case "gso: kernel refusal resends singly" `Quick
          gso_refusal_resends;
        Alcotest.test_case "forced legacy round trip" `Quick
          legacy_forced_roundtrip;
        Alcotest.test_case "batched create red paths" `Quick
          mmsg_create_red_paths;
        Alcotest.test_case "blast: 0 B/pkt, < 0.5 syscalls/pkt (batch 8, 32)" `Quick
          mmsg_blast_costs ] );
    ( "net.loopback",
      [ Alcotest.test_case "5k-mutant socket soak agrees with memory" `Quick
          loopback_soak_agrees;
        Alcotest.test_case "2k-mutant soak through the batched path" `Quick
          loopback_soak_mmsg_agrees;
        Alcotest.test_case "30k hostile soak agrees with memory" `Quick
          (hostile_soak 30_000);
        Alcotest.test_case "30k hostile soak, batched path (batch 32)" `Quick
          (hostile_soak ~io:Server.Mmsg ~io_batch:32 30_000);
        Alcotest.test_case "200k hostile soak agrees with memory" `Slow
          (hostile_soak 200_000);
        Alcotest.test_case "200k hostile soak, batched path (batch 32)" `Slow
          (hostile_soak ~io:Server.Mmsg ~io_batch:32 200_000);
        Alcotest.test_case "stacked blast: every packet answered" `Quick
          stacked_blast_answers_all;
        Alcotest.test_case "sharded soak = single-worker oracle: legacy" `Quick
          (sharded_soak Server.Legacy);
        Alcotest.test_case "sharded soak = single-worker oracle: mmsg" `Quick
          (sharded_soak Server.Mmsg);
        Alcotest.test_case "client gives up during warmup" `Quick
          loopback_client_gives_up_in_warmup;
        Alcotest.test_case "allocating client leaves the server meter at 0" `Quick
          loopback_meter_ignores_client ] ) ]
