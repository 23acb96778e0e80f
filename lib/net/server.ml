module Pipeline = Netdsl_engine.Pipeline
module Flight = Netdsl_engine.Flight
module Slab = Netdsl_engine.Slab
module Bpf = Netdsl_format.Bpf

type endpoint =
  | Udp of { host : string; port : int }
  | Tcp of { host : string; port : int }

(* Socket I/O strategy.  [Auto] resolves at [create]: the batched
   recvmmsg/sendmmsg + persistent-epoll backend when the stubs answer on
   this kernel and every listener is UDP, the recvfrom/sendto + select
   backend otherwise.  Forcing [Mmsg] where the stubs are unavailable is
   a [create]-time error, never a silent downgrade. *)
type io = Auto | Legacy | Mmsg

type listener = {
  l_proto : [ `Udp | `Tcp ];
  l_fd : Unix.file_descr;
  l_host : string;
  l_port : int;
  l_stats : Stats.t;
  mutable l_conns : conn list;
  mutable l_ready : bool;  (* legacy: select saw the listening fd *)
}

and conn = {
  c_fd : Unix.file_descr;
  c_buf : Bytes.t;  (* reframing buffer: at least one max-size frame *)
  mutable c_len : int;
  mutable c_open : bool;
  mutable c_ready : bool;  (* select saw it readable; not yet read *)
  c_listener : listener;
}

(* Where the reply to a received packet goes. *)
type sink =
  | No_sink
  | To_udp of listener * Unix.sockaddr
  | To_conn of conn

(* Replies staged for one send: the engine's reply window is reused per
   packet, so each reply is blitted once into its own staging slot.
   [txa] maps a staged reply to the run slot of its request, under which
   the backend filed the reply's destination. *)
type staging = {
  txb : Bytes.t array;
  txl : int array;
  txa : int array;
  mutable txn : int;
  mutable tx_li : int;  (* listener of the run being served *)
}

(* The batch-I/O backend the one loop runs over, built by [mmsg_backend]
   or [legacy_backend] over the server slab's slots (the run slots).
   - [wait ~timeout_ms]: sleep until a listener is readable and mark it
     hot.
   - [recv li ~base ~count]: fill run slots [base, base+count) from
     listener [li], filing each slot's reply destination; returns the
     count, [Mmsg.eagain] when the listener is dry, or another code <= 0
     (EINTR, a bounced ICMP error) that ends the pass but keeps it hot.
   - [send li ~off ~n]: send staged replies [off, off+n) of the run read
     from [li]; returns how many left, or a negative code: [Mmsg.eagain],
     [short_write], or any other error.  A failed call costs the replies
     it carried: at most [tx_per_call].
   Each backend charges its kernel calls and batching counters to the
   listener; the loop counts packets, bytes and failures. *)
type backend = {
  wait : timeout_ms:int -> unit;
  recv : int -> base:int -> count:int -> int;
  send : int -> off:int -> n:int -> int;
  tx_per_call : int;
  release : unit -> unit;
}

let short_write = -4

(* One copy of the serve loop: its own socket per endpoint, backend,
   slab, reply staging and pipeline.  Sharded, each worker runs on its
   own domain and only ever touches its own record; the kernel picks the
   worker of each datagram. *)
type worker = {
  w_ls : listener array;
  w_io : backend;
  w_mmsg : Mmsg.t option;  (* the batched backend's kernel batch *)
  w_hot : bool array;
      (* listener may hold more data: set by [wait] or when a pass stops
         at its budget, cleared only when [recv] finds it dry *)
  w_pipe : Pipeline.t;
  w_tx : staging;
  w_slab : Slab.t;  (* one I/O batch of run slots *)
  w_batch : int;
  w_pass : int;  (* most packets one listener pass takes *)
  mutable w_processed : int;
  w_loop : Stats.t;  (* the event-loop row: select/epoll_wait syscalls *)
}

type t = {
  s_ws : worker array;
  s_stop : bool Atomic.t;
  s_served : int Atomic.t;  (* packets the current run served, all workers *)
  s_filter : Bpf.program option;  (* attached to every UDP listener *)
  s_steering : (string * Bpf.program) option;  (* key, reuseport program *)
  s_prev_signals : (int * Sys.signal_behavior) list;
  mutable s_closed : bool;
}

let err_text = function
  | Unix.EADDRINUSE -> "address already in use"
  | Unix.EADDRNOTAVAIL -> "address not available"
  | Unix.EACCES -> "permission denied"
  | e -> Unix.error_message e

let proto_name = function `Udp -> "udp" | `Tcp -> "tcp"

let note_failure st r c =
  if r = Mmsg.eagain then st.Stats.send_eagain <- st.Stats.send_eagain + c
  else if r = short_write then st.Stats.short_writes <- st.Stats.short_writes + c
  else st.Stats.tx_errors <- st.Stats.tx_errors + c

(* One datagram out, the legacy backend's UDP send.  Nonblocking — a full socket buffer costs the reply, never the
   engine. *)
let sendto st fd buf len addr =
  st.Stats.syscalls <- st.Stats.syscalls + 1;
  match Unix.sendto fd buf 0 len [] addr with
  | n when n = len ->
    st.Stats.tx_msgs <- st.Stats.tx_msgs + 1;
    1
  | _ -> short_write
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Mmsg.eagain
  | exception Unix.Unix_error (_, _, _) -> -3

(* ---- the batched backend: epoll + recvmmsg + sendmmsg ---------------- *)

(* Edge-triggered epoll over the listeners; [recvmmsg] scatters a run
   straight into the run slots, the kernel writing lengths into [lens]
   and source addresses into the C slots of the same indices, where they
   stay until the next [recvmmsg] — so a run's replies must be sent
   before the next read.  [sendmmsg] sends the staged replies, grouping
   same-peer, same-size runs into UDP GSO messages ({!Mmsg.send}).
   Nothing here allocates per packet. *)
let mmsg_backend ls hot ~bufs ~lens tx =
  let nl = Array.length ls in
  let ep = Mmsg.Epoll.create (max nl 1) in
  let batch =
    try Mmsg.create (Array.length bufs)
    with e ->
      Mmsg.Epoll.close ep;
      raise e
  in
  Array.iteri (fun i l -> Mmsg.Epoll.add ep l.l_fd i) ls;
  let tags = Array.make (max nl 1) (-1) in
  let wait ~timeout_ms =
    let r = Mmsg.Epoll.wait ep ~tags ~timeout_ms in
    for j = 0 to r - 1 do
      hot.(tags.(j)) <- true
    done
  in
  let recv li ~base ~count =
    let st = ls.(li).l_stats in
    st.Stats.syscalls <- st.Stats.syscalls + 1;
    let r = Mmsg.recv batch ls.(li).l_fd ~bufs ~lens ~base ~count in
    let over = Mmsg.last_recv_oversized batch in
    if over > 0 then st.Stats.drops <- st.Stats.drops + over;
    if r > 0 then begin
      st.Stats.batched_rx <- st.Stats.batched_rx + r;
      if r > st.Stats.hwm_pkts_per_syscall then
        st.Stats.hwm_pkts_per_syscall <- r
    end;
    r
  in
  let send li ~off ~n =
    let st = ls.(li).l_stats in
    let r =
      Mmsg.send batch ls.(li).l_fd ~bufs:tx.txb ~lens:tx.txl ~addr_idx:tx.txa
        ~off ~n
    in
    st.Stats.syscalls <- st.Stats.syscalls + Mmsg.last_send_calls batch;
    if r > 0 then begin
      st.Stats.batched_tx <- st.Stats.batched_tx + r;
      if r > st.Stats.hwm_pkts_per_syscall then
        st.Stats.hwm_pkts_per_syscall <- r;
      st.Stats.tx_msgs <- st.Stats.tx_msgs + Mmsg.last_send_msgs batch
    end;
    r
  in
  ( { wait;
      recv;
      send;
      tx_per_call = max_int;
      release = (fun () -> Mmsg.Epoll.close ep) },
    batch )

(* ---- the legacy backend: select + recvfrom/sendto, batch of one ------

   The differential reference, the NETDSL_NO_MMSG fallback, the non-Linux
   path, and the only home of TCP: a connection carries [u16 BE
   length]-prefixed frames, cut into run slots and answered with the same
   prefix. *)

type legacy = {
  lg_ls : listener array;
  lg_hot : bool array;
  lg_bufs : Bytes.t array;  (* one byte wider than [lg_max] *)
  lg_max : int;  (* largest datagram or frame served *)
  lg_lens : int array;
  lg_dests : sink array;  (* run slot -> reply destination *)
  lg_tx : staging;
  lg_frame : Bytes.t;  (* TCP reply: 2-byte length prefix + payload *)
  mutable lg_fds : Unix.file_descr list;
      (* cached select fd set; rebuilt only when the conn set changes *)
  mutable lg_dirty : bool;
}

let close_conn lg c =
  if c.c_open then begin
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    c.c_open <- false;
    let l = c.c_listener in
    l.l_conns <- List.filter (fun c' -> c' != c) l.l_conns;
    l.l_stats.Stats.conns_closed <- l.l_stats.Stats.conns_closed + 1;
    lg.lg_dirty <- true
  end

let legacy_wait lg ~timeout_ms =
  if lg.lg_dirty then begin
    lg.lg_fds <-
      Array.fold_right
        (fun l acc -> (l.l_fd :: List.map (fun c -> c.c_fd) l.l_conns) @ acc)
        lg.lg_ls [];
    lg.lg_dirty <- false
  end;
  match Unix.select lg.lg_fds [] [] (float_of_int timeout_ms /. 1000.) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
    List.iter
      (fun fd ->
        Array.iteri
          (fun li l ->
            if l.l_fd = fd then begin
              l.l_ready <- true;
              lg.lg_hot.(li) <- true
            end
            else
              List.iter
                (fun c ->
                  if c.c_fd = fd then begin
                    c.c_ready <- true;
                    lg.lg_hot.(li) <- true
                  end)
                l.l_conns)
          lg.lg_ls)
      ready

let legacy_recv_udp lg l ~base =
  let st = l.l_stats in
  let buf = lg.lg_bufs.(base) in
  st.Stats.syscalls <- st.Stats.syscalls + 1;
  match Unix.recvfrom l.l_fd buf 0 (Bytes.length buf) [] with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Mmsg.eagain
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  | exception Unix.Unix_error (_, _, _) ->
    (* e.g. ECONNREFUSED bounced back from an earlier send *)
    -3
  | n, _ when n > lg.lg_max ->
    (* it filled the one-byte-wider slot, so it may not have fit: an
       oversized datagram is dropped whole, never served as a prefix *)
    st.Stats.drops <- st.Stats.drops + 1;
    0
  | n, addr ->
    lg.lg_lens.(base) <- n;
    lg.lg_dests.(base) <- To_udp (l, addr);
    if st.Stats.hwm_pkts_per_syscall < 1 then st.Stats.hwm_pkts_per_syscall <- 1;
    1

let accept_conns lg l =
  let continue = ref true in
  while !continue do
    l.l_stats.Stats.syscalls <- l.l_stats.Stats.syscalls + 1;
    match Unix.accept ~cloexec:true l.l_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | fd, _addr ->
      Unix.set_nonblock fd;
      let c =
        { c_fd = fd;
          c_buf = Bytes.create (2 + lg.lg_max);
          c_len = 0; c_open = true; c_ready = false; c_listener = l }
      in
      l.l_conns <- c :: l.l_conns;
      l.l_stats.Stats.conns_accepted <- l.l_stats.Stats.conns_accepted + 1;
      lg.lg_dirty <- true
  done

(* Length of the complete frame at the front of the buffer, or -1.  An
   oversized frame is a protocol violation: count it and drop the
   connection (resynchronising a framed stream is not possible). *)
let complete_frame lg c =
  if (not c.c_open) || c.c_len < 2 then -1
  else
    let flen =
      (Char.code (Bytes.get c.c_buf 0) lsl 8) lor Char.code (Bytes.get c.c_buf 1)
    in
    if flen > lg.lg_max then begin
      c.c_listener.l_stats.Stats.drops <- c.c_listener.l_stats.Stats.drops + 1;
      close_conn lg c;
      -1
    end
    else if c.c_len < 2 + flen then -1
    else flen

let read_conn lg c =
  c.c_ready <- false;
  c.c_listener.l_stats.Stats.syscalls <- c.c_listener.l_stats.Stats.syscalls + 1;
  match Unix.read c.c_fd c.c_buf c.c_len (Bytes.length c.c_buf - c.c_len) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn lg c
  | 0 -> close_conn lg c
  | n -> c.c_len <- c.c_len + n

(* Accept what is pending, then cut complete frames into run slots,
   connection by connection.  A connection is read once per readiness
   report, and only when no complete frame is buffered, so a burst larger
   than the run waits in its buffer (the listener stays hot) instead of
   being dropped. *)
let legacy_recv_tcp lg l ~base ~count =
  if l.l_ready then begin
    l.l_ready <- false;
    accept_conns lg l
  end;
  let filled = ref 0 in
  List.iter
    (fun c ->
      if c.c_ready && complete_frame lg c < 0 && c.c_open then read_conn lg c;
      let flen = ref (complete_frame lg c) in
      while !filled < count && !flen >= 0 do
        let slot = base + !filled in
        Bytes.blit c.c_buf 2 lg.lg_bufs.(slot) 0 !flen;
        lg.lg_lens.(slot) <- !flen;
        lg.lg_dests.(slot) <- To_conn c;
        let rest = c.c_len - 2 - !flen in
        if rest > 0 then Bytes.blit c.c_buf (2 + !flen) c.c_buf 0 rest;
        c.c_len <- rest;
        incr filled;
        flen := complete_frame lg c
      done)
    l.l_conns;
  if !filled = 0 then Mmsg.eagain else !filled

let legacy_send lg ~off =
  let tx = lg.lg_tx in
  let buf = tx.txb.(off) and len = tx.txl.(off) in
  match lg.lg_dests.(tx.txa.(off)) with
  | To_udp (l, addr) -> sendto l.l_stats l.l_fd buf len addr
  | No_sink -> -3
  | To_conn c ->
    let st = c.c_listener.l_stats in
    if not c.c_open || len > 0xffff then -3
    else begin
      let frame =
        if len + 2 <= Bytes.length lg.lg_frame then lg.lg_frame
        else Bytes.create (len + 2)
      in
      Bytes.unsafe_set frame 0 (Char.unsafe_chr (len lsr 8));
      Bytes.unsafe_set frame 1 (Char.unsafe_chr (len land 0xff));
      Bytes.blit buf 0 frame 2 len;
      st.Stats.syscalls <- st.Stats.syscalls + 1;
      match Unix.write c.c_fd frame 0 (len + 2) with
      | n when n = len + 2 ->
        st.Stats.tx_msgs <- st.Stats.tx_msgs + 1;
        1
      | _ ->
        (* A partial frame poisons the stream; drop the connection
           rather than desynchronise the peer's framing. *)
        close_conn lg c;
        short_write
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Mmsg.eagain
      | exception Unix.Unix_error (_, _, _) ->
        close_conn lg c;
        -3
    end

let legacy_backend ls hot ~bufs ~lens tx =
  let max = Bytes.length bufs.(0) - 1 in
  let lg =
    { lg_ls = ls; lg_hot = hot; lg_bufs = bufs; lg_max = max; lg_lens = lens;
      lg_dests = Array.make (Array.length bufs) No_sink; lg_tx = tx;
      lg_frame = Bytes.create (2 + max);
      lg_fds = []; lg_dirty = true }
  in
  { wait = legacy_wait lg;
    recv =
      (fun li ~base ~count ->
        let l = ls.(li) in
        match l.l_proto with
        | `Udp -> legacy_recv_udp lg l ~base
        | `Tcp -> legacy_recv_tcp lg l ~base ~count);
    send = (fun _ ~off ~n:_ -> legacy_send lg ~off);
    tx_per_call = 1;
    release =
      (fun () -> Array.iter (fun l -> List.iter (close_conn lg) l.l_conns) ls) }

(* ---- the loop -------------------------------------------------------- *)

(* Send every staged reply: resume after a partial send; a failed call
   costs the replies it carried. *)
let flush io ls tx =
  let li = tx.tx_li in
  let st = ls.(li).l_stats in
  let total = tx.txn in
  let sent = ref 0 in
  while !sent < total do
    let n = total - !sent in
    let r = io.send li ~off:!sent ~n in
    if r > 0 then begin
      for i = !sent to !sent + r - 1 do
        st.Stats.tx_bytes <- st.Stats.tx_bytes + tx.txl.(i)
      done;
      st.Stats.tx_pkts <- st.Stats.tx_pkts + r;
      sent := !sent + r
    end
    else begin
      let c = Int.min n io.tx_per_call in
      note_failure st r c;
      sent := !sent + c
    end
  done;
  tx.txn <- 0

(* [on_reply_slot] while serving: [i] is the engine-window index of the
   packet being answered — the window IS the slab's popped run — so
   [Slab.batch_slot] names the run slot holding its destination.  Stage
   a copy (flushing first if staging is full; a reply wider than its
   staging slot grows it, once).  Timer-driven replies arrive with
   [i < 0]: no packet, no return address, so they are dropped. *)
let stage io ls tx slab i buf len =
  if i >= 0 then begin
    if tx.txn = Array.length tx.txb then flush io ls tx;
    let j = tx.txn in
    if len > Bytes.length tx.txb.(j) then tx.txb.(j) <- Bytes.create len;
    Bytes.blit buf 0 tx.txb.(j) 0 len;
    tx.txl.(j) <- len;
    tx.txa.(j) <- Slab.batch_slot slab i;
    tx.txn <- j + 1
  end

let note_rx st lens base r =
  for i = base to base + r - 1 do
    st.Stats.rx_bytes <- st.Stats.rx_bytes + lens.(i);
    if lens.(i) > st.Stats.hwm_datagram then st.Stats.hwm_datagram <- lens.(i)
  done;
  st.Stats.rx_pkts <- st.Stats.rx_pkts + r

(* One pass over listener [li], at most [w_pass] packets, so a flooded
   listener cannot starve timers, the stop flag or the other listeners:
   lease a slab run, [recv] into it, and run it to completion — engine,
   reply send, release — before the next read.  The send MUST precede
   [Slab.release]: a staged reply's destination is filed under its
   request's slot, which the next [recv] overwrites.  Only a dry [recv]
   clears the hot flag: a pass cut short by its budget or an error comes
   back after timers.  Returns the packets served. *)
let pass w li =
  let st = w.w_ls.(li).l_stats in
  let slab = w.w_slab in
  let lens = Slab.raw_lens slab in
  let drained = ref 0 in
  let continue = ref true in
  while !continue && !drained < w.w_pass do
    let k = Slab.lease_run slab ~max:(w.w_pass - !drained) in
    let base = Slab.producer_slot slab in
    let r = w.w_io.recv li ~base ~count:k in
    if r > 0 then begin
      note_rx st lens base r;
      drained := !drained + r;
      Slab.publish_run slab ~n:r;
      w.w_tx.tx_li <- li;
      while Slab.length slab > 0 do
        let n = Slab.pop_batch slab ~max:w.w_batch in
        Pipeline.process_slab_batch w.w_pipe slab ~n;
        flush w.w_io w.w_ls w.w_tx;
        Slab.release slab
      done;
      w.w_processed <- w.w_processed + r
    end
    else begin
      Slab.publish_run slab ~n:0;
      if r = Mmsg.eagain then w.w_hot.(li) <- false;
      continue := false
    end
  done;
  if !drained > st.Stats.hwm_drain then st.Stats.hwm_drain <- !drained;
  !drained

(* top-level, not closures in [run]: the run's entry cost lands inside
   the benches' per-run allocation bracket *)
let rec any_hot hot i = i < Array.length hot && (hot.(i) || any_hot hot (i + 1))

let timeout_ms w deadline =
  if any_hot w.w_hot 0 then 0
  else begin
    let cap =
      match deadline with
      | None -> 200
      | Some dl ->
        let tl = dl - Mmsg.now_ns () in
        if tl <= 0 then 0 else Int.min 200 ((tl + 999_999) / 1_000_000)
    in
    (* sleep no longer than the engine's next armed deadline: an idle
       socket must not delay a retransmission timer by the idle cap *)
    match Pipeline.next_timer_ms w.w_pipe with -1 -> cap | ms -> Int.min cap ms
  end

(* The serve loop of one worker.  The stop flag and the packet budget are
   the server's, shared by every worker: a budget counts the packets all
   of them served in this run, and a worker sees a stop or a spent
   budget at its next wake. *)
let serve t w ~budget ~deadline =
  Array.iter (fun l -> Stats.reset_highwater l.l_stats) w.w_ls;
  Stats.reset_highwater w.w_loop;
  let n_run = ref 0 in
  let fin = ref false in
  while not !fin do
    (* a stop request still gets one last nonblocking wait and a pass
       over every ready listener: datagrams the kernel already holds are
       answered *)
    let stopping = Atomic.get t.s_stop in
    if
      (not stopping)
      && (Atomic.get t.s_served >= budget
         || match deadline with
            | None -> false
            | Some dl -> Mmsg.now_ns () >= dl)
    then fin := true
    else begin
      let timeout_ms = if stopping then 0 else timeout_ms w deadline in
      w.w_loop.Stats.syscalls <- w.w_loop.Stats.syscalls + 1;
      w.w_io.wait ~timeout_ms;
      for li = 0 to Array.length w.w_ls - 1 do
        if w.w_hot.(li) then begin
          let n = pass w li in
          n_run := !n_run + n;
          ignore (Atomic.fetch_and_add t.s_served n)
        end
      done;
      ignore (Pipeline.poll_timers w.w_pipe);
      if stopping then fin := true
    end
  done;
  !n_run

(* One worker serves on the calling domain; more run one domain each,
   worker 0 on the caller's, which also takes the signals. *)
let run ?max_packets ?duration t =
  if t.s_closed then invalid_arg "Net.Server.run: server is closed";
  let budget = match max_packets with None -> max_int | Some m -> m in
  (* monotonic: a wall-clock step must not stretch or cut the run *)
  let deadline =
    match duration with
    | None -> None
    | Some d -> Some (Mmsg.now_ns () + int_of_float (d *. 1e9))
  in
  Atomic.set t.s_served 0;
  let n =
    match t.s_ws with
    | [| w |] -> serve t w ~budget ~deadline
    | ws ->
      let others =
        Array.map
          (fun w -> Domain.spawn (fun () -> serve t w ~budget ~deadline))
          (Array.sub ws 1 (Array.length ws - 1))
      in
      let n0 =
        try serve t ws.(0) ~budget ~deadline
        with e ->
          Atomic.set t.s_stop true;
          Array.iter (fun d -> try ignore (Domain.join d) with _ -> ()) others;
          raise e
      in
      Array.fold_left (fun acc d -> acc + Domain.join d) n0 others
  in
  (* a consumed stop request must not stick to the next run *)
  Atomic.set t.s_stop false;
  n

let request_stop t = Atomic.set t.s_stop true

(* ---- create ---------------------------------------------------------- *)

(* [group]: join an [SO_REUSEPORT] group on this port — a sharded
   worker's socket.  [steer]: the group's steering program, attached
   before the group's first bind so the kernel's default hash never picks
   a socket.  A single worker's listener founds no group, so no
   [SO_REUSEPORT] socket can join its port and take a share of its
   traffic. *)
let bind_listener ?(group = false) ?steer ep =
  let proto, host, port =
    match ep with
    | Udp { host; port } -> (`Udp, host, port)
    | Tcp { host; port } -> (`Tcp, host, port)
  in
  if port < 0 || port > 65535 then
    Error (Printf.sprintf "invalid port %d (expected 0..65535)" port)
  else
    match Unix.inet_addr_of_string host with
    | exception Failure _ ->
      Error (Printf.sprintf "invalid listen address %S" host)
    | addr -> (
      let kind = match proto with `Udp -> Unix.SOCK_DGRAM | `Tcp -> Unix.SOCK_STREAM in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET kind 0 in
      match
        Unix.set_nonblock fd;
        (* TCP only: on Linux [SO_REUSEADDR] lets any other UDP socket
           that sets it bind the same port and take its unicast
           traffic. *)
        if proto = `Tcp then Unix.setsockopt fd Unix.SO_REUSEADDR true;
        if group then Unix.setsockopt fd Unix.SO_REUSEPORT true;
        (* Widen the kernel buffers so the bounded-backpressure story is
           the kernel's, not a 208 KiB default's; best-effort. *)
        (try Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 20)
         with Unix.Unix_error _ -> ());
        (try Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 20)
         with Unix.Unix_error _ -> ());
        match steer with
        | Some prog when not (Mmsg.attach_steering fd prog) -> None
        | _ ->
          Unix.bind fd (Unix.ADDR_INET (addr, port));
          if proto = `Tcp then Unix.listen fd 64;
          Some
            (match Unix.getsockname fd with
            | Unix.ADDR_INET (_, p) -> p
            | _ -> port)
      with
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot bind %s %s:%d: %s" (proto_name proto) host
             port (err_text e))
      | None ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          "kernel steering unavailable: the kernel refused the SO_REUSEPORT \
           steering program"
      | Some bound_port ->
        Ok
          { l_proto = proto; l_fd = fd; l_host = host; l_port = bound_port;
            l_stats = Stats.create (); l_conns = []; l_ready = false })

let mmsg_available () = Mmsg.available () && Mmsg.Epoll.available ()

exception Bind_failed of string

(* Worker 0 binds the endpoints as given, each socket founding its
   endpoint's group with the steering program attached; every other
   worker then joins each group on the port worker 0 got (sharded mode
   is UDP only).  A group's sockets are indexed in join order, so the
   program's return value [w] is worker [w]'s socket.  [Error] carries
   what was bound, for the caller to close. *)
let bind_workers ~steer endpoints n =
  let bound = ref [] in
  let bind ?steer ep =
    match bind_listener ~group:(n > 1) ?steer ep with
    | Ok l ->
      bound := l :: !bound;
      l
    | Error msg -> raise (Bind_failed msg)
  in
  let join l = bind (Udp { host = l.l_host; port = l.l_port }) in
  match
    let first = Array.of_list (List.map (bind ?steer) endpoints) in
    Array.init n (fun w -> if w = 0 then first else Array.map join first)
  with
  | rows -> Ok rows
  | exception Bind_failed msg -> Error (!bound, msg)

(* The format's fixed-offset wire checks run in the kernel on every UDP
   listener, whichever backend reads it: a datagram they reject never
   wakes the loop.  The engine keeps every check, so a filter the kernel
   refuses costs speed, not correctness; the program is reported only
   when every UDP listener carries it. *)
let attach_filter ls fmt =
  match Bpf.compile fmt with
  | None -> None
  | Some prog ->
    let udp = List.filter (fun l -> l.l_proto = `Udp) ls in
    let attached = List.filter (fun l -> Mmsg.attach_filter l.l_fd prog) udp in
    if udp <> [] && List.length attached = List.length udp then Some prog else None

(* One worker over its row of sockets: slab, reply staging, backend and
   pipeline.  Both backends finish each run before the next read, so the
   slab holds one I/O batch.  Its slots are one byte wider than the
   largest packet served: a datagram that fills one may have been cut by
   the kernel, and is dropped whole (both backends). *)
let make_worker ~config ?stack ?machine ~tick_ms ~use_mmsg ~io_batch
    ~flight fmt ls =
  let hot = Array.make (Array.length ls) false in
  let slot_bytes = config.Pipeline.slot_bytes in
  let slab = Slab.create ~slot_bytes:(slot_bytes + 1) ~capacity:io_batch () in
  let bufs = Slab.raw_bufs slab and lens = Slab.raw_lens slab in
  let tx =
    { txb = Array.init io_batch (fun _ -> Bytes.create slot_bytes);
      txl = Array.make io_batch 0;
      txa = Array.make io_batch (-1);
      txn = 0;
      tx_li = 0 }
  in
  match
    if use_mmsg then
      let io, batch = mmsg_backend ls hot ~bufs ~lens tx in
      (io, Some batch)
    else (legacy_backend ls hot ~bufs ~lens tx, None)
  with
  | exception Failure msg -> Error msg
  | io, mm -> (
    match
      Pipeline.create ~config ?stack ~flight ?machine ~tick_ms
        ~clock_ms:Mmsg.now_ms ~now_ns:Mmsg.now_ns
        ~on_reply_slot:(stage io ls tx slab) fmt
    with
    | exception e ->
      io.release ();
      Error (Printexc.to_string e)
    | pipe ->
      Ok
        { w_ls = ls; w_io = io; w_mmsg = mm; w_hot = hot; w_pipe = pipe;
          w_tx = tx; w_slab = slab; w_batch = config.Pipeline.batch;
          w_pass = config.Pipeline.ring_capacity; w_processed = 0;
          w_loop = Stats.create () })

let create ?(config = Pipeline.default_config) ?mode:(_ : Pipeline.mode option)
    ?stack ?machine ?(tick_ms = 1) ?(signals = true) ?(workers = 1)
    ?(allow_oversubscribe = false) ?shard_key ?(io = Auto) ?(io_batch = 32)
    ~flight ~listeners fmt =
  let all_udp =
    List.for_all (function Udp _ -> true | Tcp _ -> false) listeners
  in
  let use_mmsg =
    match io with
    | Legacy -> Ok false
    (* the shape error first: it is deterministic for a given request,
       while availability depends on the host kernel (and the
       NETDSL_NO_MMSG mask), so a TCP+Mmsg request reads the same
       everywhere *)
    | Mmsg when not all_udp -> Error "batched I/O serves UDP listeners only"
    | Mmsg when not (mmsg_available ()) ->
      Error
        "batched I/O unavailable: the recvmmsg/epoll stubs report \
         unsupported on this kernel (or NETDSL_NO_MMSG is set); use --io \
         legacy"
    | Mmsg -> Ok true
    | Auto -> Ok (all_udp && mmsg_available ())
  in
  let n_workers, warning =
    if workers <= 1 then (workers, None)
    else Netdsl_engine.Stats.clamp_workers ~allow_oversubscribe workers
  in
  (* Steer on the flight spec's own flow key unless told otherwise:
     packets of a flow must land where that flow's machine instance
     lives, and the spec already names the field that defines a flow.
     The key is checked whenever sharding was asked for, even if the
     core count clamps it to one worker. *)
  let steering =
    if workers <= 1 then Ok None
    else if not all_udp then
      Error "sharded mode (workers > 1) serves UDP listeners only"
    else if stack <> None then Error "sharded mode does not support layered stacks"
    else
      match
        match shard_key with Some k -> Some k | None -> Flight.spec_flow_key flight
      with
      | None ->
        Error
          "sharded mode needs a steering key: the flight spec has no flow \
           key and no ~shard_key was given"
      | Some k -> (
        match Bpf.steering fmt ~key:k ~workers:(max 2 n_workers) with
        | Error e ->
          Error (Printf.sprintf "sharded mode: bad steering key %S: %s" k e)
        | Ok prog -> Ok (if n_workers > 1 then Some (k, prog) else None))
  in
  if listeners = [] then Error "no listeners given"
  else if workers <= 0 then Error "workers must be positive"
  else if io_batch <= 0 then Error "io-batch must be a positive batch size"
  else
    match (use_mmsg, steering) with
    | (Error _ as e), _ | _, (Error _ as e) -> e
    | Ok use_mmsg, Ok steering -> (
      let stop = Atomic.make false in
      (* Handlers go in before any socket exists: a signal that lands
         during bring-up or a long bind still produces a stats report
         instead of killing the process mid-setup. *)
      let prev_signals =
        if not signals then []
        else begin
          let h = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
          let prev_int = Sys.signal Sys.sigint h in
          let prev_term = Sys.signal Sys.sigterm h in
          [ (Sys.sigint, prev_int); (Sys.sigterm, prev_term) ]
        end
      in
      let fail ls msg =
        List.iter (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ()) ls;
        List.iter (fun (s, b) -> Sys.set_signal s b) prev_signals;
        Error msg
      in
      match bind_workers ~steer:(Option.map snd steering) listeners n_workers with
      | Error (bound, msg) -> fail bound msg
      | Ok rows -> (
        let all = List.concat_map Array.to_list (Array.to_list rows) in
        let rec build acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | ls :: rest -> (
            match
              make_worker ~config ?stack ?machine ~tick_ms ~use_mmsg
                ~io_batch ~flight fmt ls
            with
            | Ok w -> build (w :: acc) rest
            | Error msg ->
              List.iter (fun w -> w.w_io.release ()) acc;
              Error msg)
        in
        match build [] (Array.to_list rows) with
        | Error msg -> fail all msg
        | Ok ws ->
          Option.iter
            (fun msg ->
              Array.iter
                (fun w -> Netdsl_engine.Stats.note_warning (Pipeline.stats w.w_pipe) msg)
                ws)
            warning;
          Ok
            { s_ws = ws; s_stop = stop; s_served = Atomic.make 0;
              s_filter = attach_filter all fmt; s_steering = steering;
              s_prev_signals = prev_signals; s_closed = false }))

(* ---- accessors ------------------------------------------------------- *)

let bound t =
  Array.to_list
    (Array.map
       (fun l -> (proto_name l.l_proto, l.l_host, l.l_port))
       t.s_ws.(0).w_ls)

let udp_port t =
  Array.find_map
    (fun l -> if l.l_proto = `Udp then Some l.l_port else None)
    t.s_ws.(0).w_ls

let listener_stats t =
  (* the kernel's drop counter is read here, when stats are read, never
     per packet; a closed socket's number may name another socket *)
  if not t.s_closed then
    Array.iter
      (fun w ->
        Array.iter
          (fun l ->
            if l.l_proto = `Udp then
              let d = Mmsg.socket_drops l.l_fd in
              if d >= 0 then l.l_stats.Stats.kernel_drops <- d)
          w.w_ls)
      t.s_ws;
  let label i s =
    if Array.length t.s_ws = 1 then s else Printf.sprintf "%s (worker %d)" s i
  in
  let rows f = List.concat (Array.to_list (Array.mapi f t.s_ws)) in
  (* the readiness syscalls (select / epoll_wait) belong to a worker's
     loop, not to any one listener *)
  rows (fun i w ->
      Array.to_list
        (Array.map
           (fun l ->
             ( label i
                 (Printf.sprintf "%s %s:%d" (proto_name l.l_proto) l.l_host
                    l.l_port),
               l.l_stats ))
           w.w_ls))
  @ rows (fun i w -> [ (label i "event loop", w.w_loop) ])

let net_stats t = Stats.merge (List.map snd (listener_stats t))

let batched_io t = t.s_ws.(0).w_mmsg <> None

let filter t = t.s_filter

let steering t = t.s_steering

let engine_stats t =
  match t.s_ws with
  | [| w |] -> Pipeline.stats w.w_pipe
  | ws ->
    Netdsl_engine.Stats.merge
      (Array.to_list (Array.map (fun w -> Pipeline.stats w.w_pipe) ws))

let processed t = Array.fold_left (fun acc w -> acc + w.w_processed) 0 t.s_ws

let workers t = Array.length t.s_ws

module For_testing = struct
  let refuse_gso_groups t on =
    Array.iter
      (fun w -> Option.iter (fun b -> Mmsg.For_testing.refuse_groups b on) w.w_mmsg)
      t.s_ws
end

let close t =
  if not t.s_closed then begin
    t.s_closed <- true;
    Array.iter
      (fun w ->
        w.w_io.release ();
        Array.iter (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ()) w.w_ls)
      t.s_ws;
    List.iter (fun (s, b) -> Sys.set_signal s b) t.s_prev_signals
  end
