module Pipeline = Netdsl_engine.Pipeline
module Server = Netdsl_net.Server
module Stats = Netdsl_net.Stats
module Mmsg = Netdsl_net.Mmsg

type result_ = {
  sent : int;
  replies : int;
  expected_replies : int;
  disagreements : int;
  first_disagreement : string option;
  server_processed : int;
  filtered : int;
  alloc_bytes_per_pkt : float;
  elapsed_s : float;
  net : Stats.t;
}

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

(* Wait for the client socket to become readable; [false] on timeout. *)
let readable ?(timeout = 5.0) fd =
  match Unix.select [ fd ] [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | [], _, _ -> false
  | _ -> true

let recv_one fd buf =
  match Unix.recvfrom fd buf 0 (Bytes.length buf) [] with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None
  | n, _ -> Some (Bytes.sub_string buf 0 n)

let default_warmup ?warmup count =
  match warmup with
  | Some w -> max 1 (min w (count - 1))
  | None -> max 1 (min (count / 5) 2000)

let client_socket () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (try Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 20)
   with Unix.Unix_error _ -> ());
  fd

(* Spin up a server on an ephemeral loopback port plus the domain that
   runs it in two phases — a warmup run, then the measured run whose
   allocation is metered (that domain's own minor and direct major
   words, so the client's garbage never counts) — and run [body] as the
   client.  The restart between phases doubles as a run-twice exercise
   of the server loop. *)
let with_server ?machine ?config ?stack ?io ?io_batch ~flight ~warmup ~count fmt
    body =
  match
    Server.create ?config ?machine ?stack ?io ?io_batch ~signals:false
      ~flight
      ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
      fmt
  with
  | Error e -> Error (Printf.sprintf "loopback server: %s" e)
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Server.close srv)
      (fun () ->
        match Server.udp_port srv with
        | None -> Error "loopback server: no UDP port"
        | Some port ->
          let client_done = Atomic.make false in
          let dom =
            Domain.spawn (fun () ->
                let n1 = Server.run ~max_packets:warmup srv in
                (* A stop that landed before or during the warmup run
                   ended that run and was consumed by it: re-issue it,
                   or the measured run waits for packets that will
                   never come. *)
                if Atomic.get client_done then Server.request_stop srv;
                (* The meter counts this domain's own allocation: its
                   minor words by the unboxed [Gc.minor_words] (nothing
                   allocated by the bracket itself lands inside it), plus
                   its direct major allocations, [major - promoted] from
                   [Gc.counters].  [Gc.allocated_bytes] is not such a
                   meter: its minor share moves with garbage collections
                   the client domain triggers (a few hundred bytes a run
                   here, while the client allocated per packet).  The
                   [?max_packets] option cell is built before the
                   bracket. *)
                let mp = Some (count - n1) in
                let _, pro0, maj0 = Gc.counters () in
                let min0 = Gc.minor_words () in
                let n2 = Server.run ?max_packets:mp srv in
                let min1 = Gc.minor_words () in
                let _, pro1, maj1 = Gc.counters () in
                let words = min1 -. min0 +. (maj1 -. maj0) -. (pro1 -. pro0) in
                (n1 + n2, words *. float_of_int (Sys.word_size / 8), n2))
          in
          let sent, replies, expected, disagreements, first, filtered, elapsed =
            body port (Option.map Bpf_oracle.prepare (Server.filter srv))
          in
          (* The client is done: if the server is still waiting for
             packets that will never come (a client that gave up), stop
             it — the stop path still drains everything already sent.
             [client_done] goes first, so a stop the warmup run eats is
             seen after it returns. *)
          Atomic.set client_done true;
          Server.request_stop srv;
          let processed, alloc, measured = Domain.join dom in
          Ok
            { sent; replies; expected_replies = expected; disagreements;
              first_disagreement = first; server_processed = processed;
              filtered;
              alloc_bytes_per_pkt =
                (if measured > 0 then alloc /. float_of_int measured else 0.);
              elapsed_s = elapsed;
              net = Server.net_stats srv })

(* Packets [soak] sends back to back before collecting their replies: a
   batched server stages several replies per flush, so the diff covers
   grouped (GSO) sends too. *)
let soak_burst = 16

let soak ?machine ?config ?warmup ?io ?io_batch ~flight ~packets ~count fmt =
  if count < 2 then Error "loopback soak: count must be at least 2"
  else begin
    let warmup = default_warmup ?warmup count in
    (* The reference leg: same spec, the reference executor, in-memory. *)
    let reference = Oracle.Reply_ref.create ?config ?machine ~flight fmt in
    with_server ?config ?machine ?io ?io_batch ~flight ~warmup ~count fmt
      (fun port filter ->
        let addr =
          Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port)
        in
        let fd = client_socket () in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let rbuf = Bytes.create 65536 in
            let replies = ref 0 in
            let filtered = ref 0 in
            let expected_n = ref 0 in
            let disagreements = ref 0 in
            let first = ref None in
            let disagree fmt_ =
              Printf.ksprintf
                (fun msg ->
                  incr disagreements;
                  if !first = None then first := Some msg)
                fmt_
            in
            let expect = Array.make soak_burst None in
            let t0 = Unix.gettimeofday () in
            let i0 = ref 0 in
            while !i0 < count do
              (* Send a burst back to back, then collect its replies:
                 one socket pair delivers in order, so the [j]th answer
                 read belongs to the [j]th answered packet. *)
              let k = min soak_burst (count - !i0) in
              for j = 0 to k - 1 do
                let pkt = packets (!i0 + j) in
                if not (Bpf_oracle.passes filter pkt) then incr filtered;
                expect.(j) <- snd (Oracle.Reply_ref.expected reference pkt);
                ignore
                  (Unix.sendto fd (Bytes.of_string pkt) 0 (String.length pkt)
                     [] addr)
              done;
              for j = 0 to k - 1 do
                let i = !i0 + j in
                match expect.(j) with
                | None -> ()
                | Some want -> (
                  incr expected_n;
                  if not (readable fd) then
                    disagree "pkt %d: expected a reply, socket stayed silent" i
                  else
                    match recv_one fd rbuf with
                    | None ->
                      disagree "pkt %d: readable but no datagram (EAGAIN)" i
                    | Some got ->
                      incr replies;
                      if not (String.equal got want) then
                        disagree
                          "pkt %d: reply differs\n  socket: %s\n  memory: %s" i
                          (hex got) (hex want))
              done;
              i0 := !i0 + k
            done;
            (* A rejected packet must stay silent: anything still on the
               socket is a reply the reference never produced. *)
            while readable ~timeout:0.1 fd do
              match recv_one fd rbuf with
              | None -> ()
              | Some got ->
                incr replies;
                disagree "stray reply after run: %s" (hex got)
            done;
            let elapsed = Unix.gettimeofday () -. t0 in
            (count, !replies, !expected_n, !disagreements, !first, !filtered,
             elapsed)))
  end

let blast ?machine ?config ?warmup ?stack ?io ?io_batch ?(window = 64) ~flight
    ~packets ~count fmt =
  if count < 2 then Error "loopback blast: count must be at least 2"
  else begin
    let warmup = default_warmup ?warmup count in
    (* A forced-mmsg server gets an mmsg client: otherwise the
       per-packet sender is the bottleneck and the measurement says
       nothing about the server's batched path. *)
    let batched_client = io = Some Server.Mmsg in
    let client_batch =
      match io_batch with Some b when b > 0 -> b | _ -> 32
    in
    with_server ?config ?machine ?stack ?io ?io_batch ~flight ~warmup ~count fmt
      (fun port filter ->
        let addr =
          Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port)
        in
        let fd = client_socket () in
        Unix.set_nonblock fd;
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let sent = ref 0 in
            let replies = ref 0 in
            let filtered = ref 0 in
            let note_sent pkt =
              if not (Bpf_oracle.passes filter pkt) then incr filtered
            in
            let stalls = ref 0 in
            let drain_replies =
              if batched_client then begin
                (* Connected socket: sends use addr slot [-1], receives
                   need no source address.  Batches are regenerated from
                   [!sent] after a partial send, so nothing is queued on
                   the OCaml side. *)
                Unix.connect fd addr;
                let mm = Mmsg.create client_batch in
                let tx_bufs =
                  Array.init client_batch (fun _ -> Bytes.create 65536)
                in
                let tx_lens = Array.make client_batch 0 in
                let tx_pkts = Array.make client_batch "" in
                let tx_addr = Array.make client_batch (-1) in
                let rx_bufs =
                  Array.init client_batch (fun _ -> Bytes.create 65536)
                in
                let rx_lens = Array.make client_batch 0 in
                let drain_replies () =
                  let continue = ref true in
                  while !continue do
                    let r =
                      Mmsg.recv mm fd ~bufs:rx_bufs ~lens:rx_lens ~base:0
                        ~count:client_batch
                    in
                    if r > 0 then replies := !replies + r
                    else continue := false
                  done
                in
                let send_batch () =
                  let room =
                    min client_batch
                      (min (count - !sent) (window - (!sent - !replies)))
                  in
                  if room > 0 then begin
                    for i = 0 to room - 1 do
                      let pkt = packets (!sent + i) in
                      tx_pkts.(i) <- pkt;
                      let len = String.length pkt in
                      Bytes.blit_string pkt 0 tx_bufs.(i) 0 len;
                      tx_lens.(i) <- len
                    done;
                    let r =
                      Mmsg.send mm fd ~bufs:tx_bufs ~lens:tx_lens
                        ~addr_idx:tx_addr ~off:0 ~n:room
                    in
                    if r > 0 then begin
                      for i = 0 to r - 1 do
                        note_sent tx_pkts.(i)
                      done;
                      sent := !sent + r
                    end
                    else if r = Mmsg.eagain then
                      ignore (readable ~timeout:0.2 fd)
                  end
                in
                fun ~send ->
                  if send then send_batch ();
                  drain_replies ()
              end
              else begin
                let rbuf = Bytes.create 65536 in
                let drain_replies () =
                  let continue = ref true in
                  while !continue do
                    match recv_one fd rbuf with
                    | None -> continue := false
                    | Some _ -> incr replies
                  done
                in
                let send_one () =
                  let pkt = packets !sent in
                  match
                    Unix.sendto fd (Bytes.of_string pkt) 0 (String.length pkt)
                      [] addr
                  with
                  | _ ->
                    note_sent pkt;
                    incr sent
                  | exception
                      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    ->
                    ignore (readable ~timeout:0.2 fd)
                in
                fun ~send ->
                  if send then send_one ();
                  drain_replies ()
              end
            in
            let t0 = Unix.gettimeofday () in
            (* Window of outstanding packets; if the pipe goes dead
               (every reply dropped) give up rather than spin. *)
            while !sent < count && !stalls < 5 do
              if !sent - !replies >= window then begin
                let before = !replies in
                ignore (readable ~timeout:1.0 fd);
                drain_replies ~send:false;
                if !replies = before then incr stalls else stalls := 0
              end
              else drain_replies ~send:true
            done;
            (* tail: collect stragglers until the socket goes quiet *)
            let quiet = ref 0 in
            while !replies < !sent && !quiet < 3 do
              if readable ~timeout:0.5 fd then begin
                let before = !replies in
                drain_replies ~send:false;
                if !replies = before then incr quiet else quiet := 0
              end
              else incr quiet
            done;
            let elapsed = Unix.gettimeofday () -. t0 in
            (!sent, !replies, !sent - !filtered, 0, None, !filtered, elapsed)))
  end

(* ------------------------------------------------------------------ *)
(* Lossy virtual-time loopback                                         *)
(* ------------------------------------------------------------------ *)

module Lossy = struct
  module Sim_engine = Netdsl_sim.Engine
  module Channel = Netdsl_sim.Channel

  type t = {
    l_now : int ref;
    l_eng : Sim_engine.t;
    l_chan : Channel.t;
    l_pending : string Queue.t;
    l_pipes : Pipeline.t array;
    l_key : Netdsl_format.View.key_extractor;
  }

  let create ?(workers = 1) ?(tick_ms = 1)
      ?(channel = Channel.default_config) ?(seed = 0x1055L) ~machine ~flight
      fmt =
    if workers < 1 then
      invalid_arg "Loopback.Lossy.create: workers must be >= 1";
    let key =
      match Netdsl_engine.Flight.spec_flow_key flight with
      | None -> invalid_arg "Loopback.Lossy.create: the flight spec has no flow key"
      | Some k -> (
        match Netdsl_format.View.key_extractor fmt k with
        | Ok ke -> ke
        | Error e -> invalid_arg ("Loopback.Lossy.create: flow key: " ^ e))
    in
    let now = ref 0 in
    let eng = Sim_engine.create () in
    let pending = Queue.create () in
    let chan =
      Channel.create eng (Netdsl_util.Prng.create seed) channel
        ~deliver:(fun msg -> Queue.add msg pending)
    in
    let pipes =
      Array.init workers (fun _ ->
          Pipeline.create ~flight ~machine
            ~clock_ms:(fun () -> !now)
            ~tick_ms fmt)
    in
    {
      l_now = now;
      l_eng = eng;
      l_chan = chan;
      l_pending = pending;
      l_pipes = pipes;
      l_key = key;
    }

  let now t = !(t.l_now)
  let workers t = Array.length t.l_pipes
  (* the sharded server's partition: the kernel program computes it *)
  let owner t key =
    let _, bits, _ = Netdsl_format.View.key_layout t.l_key in
    t.l_pipes.(Netdsl_format.Bpf.steer ~workers:(Array.length t.l_pipes) ~bits key)

  let inject t pkt =
    Pipeline.process (owner t (Netdsl_format.View.extract_key_int t.l_key pkt)) pkt
  let send t pkt = Channel.send t.l_chan pkt

  (* Deliveries the channel released at (or before) the current tick,
     in release order. *)
  let flush t =
    while not (Queue.is_empty t.l_pending) do
      ignore (inject t (Queue.pop t.l_pending))
    done

  let run t ~until ~on_tick =
    while !(t.l_now) < until do
      t.l_now := !(t.l_now) + 1;
      ignore (Sim_engine.run ~until:(float_of_int !(t.l_now)) t.l_eng);
      flush t;
      Array.iter (fun p -> ignore (Pipeline.poll_timers p)) t.l_pipes;
      on_tick !(t.l_now)
    done

  let peek t key = Pipeline.peek_flow (owner t key) key
  let pipelines t = Array.copy t.l_pipes

  let stats t =
    Netdsl_engine.Stats.merge
      (Array.to_list (Array.map Pipeline.stats t.l_pipes))

  let channel_stats t = Channel.stats t.l_chan
end
