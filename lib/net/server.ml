module Pipeline = Netdsl_engine.Pipeline
module Flight = Netdsl_engine.Flight
module Slab = Netdsl_engine.Slab
module Spsc = Netdsl_engine.Spsc
module Shard = Netdsl_engine.Shard
module Estats = Netdsl_engine.Stats
module View = Netdsl_format.View

type endpoint =
  | Udp of { host : string; port : int }
  | Tcp of { host : string; port : int }

(* Socket I/O strategy.  [Auto] resolves at [create]: the batched
   recvmmsg/sendmmsg + persistent-epoll path when the stubs answer on
   this kernel and every listener is UDP, the recvfrom/sendto + select
   loop otherwise.  Forcing [Mmsg] where the stubs are unavailable is a
   [create]-time error, never a silent downgrade. *)
type io = Auto | Legacy | Mmsg

type listener = {
  l_proto : [ `Udp | `Tcp ];
  l_fd : Unix.file_descr;
  l_host : string;
  l_port : int;
  l_stats : Stats.t;
  mutable l_conns : conn list;
}

and conn = {
  c_fd : Unix.file_descr;
  c_buf : Bytes.t;  (* reframing buffer: at least one max-size frame *)
  mutable c_len : int;
  mutable c_open : bool;
  c_listener : listener;
}

(* Where the reply to the packet currently inside the engine goes.  One
   sink is enqueued per published slab slot, in publish order, so the
   FIFO stays parallel to the slab's own ring. *)
type sink =
  | No_sink
  | To_udp of listener * Unix.sockaddr
  | To_conn of conn

(* One sharded worker: its own pipeline, its own SPSC ring, a sink array
   parallel to the ring's slots (the ingest thread stores the packet's
   reply sink at [pos land mask] before publishing [pos]), and its own tx
   counters — worker domains never write a listener's [Stats.t]. *)
type worker = {
  w_id : int;
  w_pipe : Pipeline.t;
  w_ring : Spsc.t;
  w_sinks : sink array;
  w_cur : sink ref;
  w_stats : Stats.t;
  w_processed : int Atomic.t;
}

(* The batched (mmsg) single-worker path's working state, all sized to
   one I/O batch: each receive run is served before the next read, so
   the slab never holds more than one run.  One {!Mmsg.t} over the slab
   slots (rx source addresses are filed by slab slot and must survive
   until the slot's reply is flushed), the persistent epoll instance,
   per-listener hot flags for the edge-triggered drain discipline, and
   the reply staging arrays one [sendmmsg] flushes per engine batch.
   Everything here is preallocated: the rx and tx loops allocate nothing
   per packet. *)
type mmsg_io = {
  mm_batch : Mmsg.t;
  mm_ep : Mmsg.Epoll.ep;
  mm_tags : int array;  (* epoll-ready listener indices *)
  mm_hot : bool array;
      (* listener may hold more data: set on an epoll edge or when a
         pass stopped at its budget, cleared only by EAGAIN *)
  mm_pass : int;  (* most packets one listener pass serves *)
  mutable mm_rx_listener : int;  (* listener of the run being served *)
  mm_ls : listener array;
  mm_txb : Bytes.t array;  (* reply staging: the engine's reply window
                              is reused per packet, so each reply is
                              blitted once into its own staging slot *)
  mm_txl : int array;
  mm_txa : int array;  (* staging entry -> slab slot holding the dest *)
  mutable mm_txn : int;  (* staged replies not yet flushed *)
}

(* The batched sharded steering stage: recvmmsg into a scratch batch
   (the destination ring is unknown before the bytes are read), then
   key-read + route + one blit per packet, exactly like the legacy
   steering loop but [io_batch] datagrams per syscall. *)
type mmsg_sh = {
  ms_batch : Mmsg.t;
  ms_bufs : Bytes.t array;
  ms_lens : int array;
  ms_ep : Mmsg.Epoll.ep;
  ms_tags : int array;
  ms_hot : bool array;
  ms_ls : listener array;
}

(* Sharded mode ([workers > 1], UDP only): the readiness loop becomes a
   pure steering stage — recv into scratch, read the flow key
   (fixed-offset, no decode), [Shard.Steer.route], blit once into the
   destination worker's ring — and the worker domains run the
   pipelines. *)
type sharded = {
  sh_steer : Shard.Steer.t;
  sh_key : View.key_extractor;
  sh_key_min : int;  (* fewest datagram bytes that carry the key *)
  sh_workers : worker array;
  sh_rings : Spsc.t array;
  sh_batch : int;
  sh_mm : mmsg_sh option;
  mutable sh_published : int;  (* packets blitted into rings, ever *)
  mutable sh_domains : unit Domain.t array;
}

type t = {
  s_pipe : Pipeline.t;
  s_slab : Slab.t;
  s_batch : int;
  s_io_batch : int;
  s_listeners : listener list;
  s_sinks : sink array;
  mutable s_head : int;
  s_cur : sink ref;
  s_stop : bool Atomic.t;
  mutable s_processed : int;
  s_scratch : Bytes.t;  (* overflow reads land here and are dropped *)
  s_txbuf : Bytes.t;  (* TCP reply: 2-byte length prefix + payload *)
  s_loop : Stats.t;  (* the event-loop row: select/epoll_wait syscalls *)
  s_mm : mmsg_io option;  (* Some = single-worker batched path *)
  mutable s_fds : Unix.file_descr list;
      (* cached select fd set; rebuilt only when the conn set changes *)
  mutable s_fds_dirty : bool;
  s_prev_signals : (int * Sys.signal_behavior) list;
  s_shard : sharded option;
  mutable s_closed : bool;
}

let err_text = function
  | Unix.EADDRINUSE -> "address already in use"
  | Unix.EADDRNOTAVAIL -> "address not available"
  | Unix.EACCES -> "permission denied"
  | e -> Unix.error_message e

let proto_name = function `Udp -> "udp" | `Tcp -> "tcp"

(* ---- reply path ------------------------------------------------------ *)

(* Called from inside [Pipeline.process_buffer] via [on_reply]: the
   engine lends us its reply window, we push it onto the wire for the
   sink of the packet being processed.  Nonblocking throughout — a full
   socket buffer costs the reply, never the engine. *)
let send_reply cur txbuf buf len =
  match !cur with
  | No_sink -> ()
  | To_udp (l, addr) -> (
    let st = l.l_stats in
    st.Stats.syscalls <- st.Stats.syscalls + 1;
    match Unix.sendto l.l_fd buf 0 len [] addr with
    | n when n = len ->
      st.Stats.tx_pkts <- st.Stats.tx_pkts + 1;
      st.Stats.tx_msgs <- st.Stats.tx_msgs + 1;
      st.Stats.tx_bytes <- st.Stats.tx_bytes + n
    | _ -> st.Stats.short_writes <- st.Stats.short_writes + 1
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      st.Stats.send_eagain <- st.Stats.send_eagain + 1
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      st.Stats.tx_errors <- st.Stats.tx_errors + 1
    | exception Unix.Unix_error (_, _, _) ->
      st.Stats.tx_errors <- st.Stats.tx_errors + 1)
  | To_conn c ->
    let st = c.c_listener.l_stats in
    if not c.c_open || len > 0xffff then
      st.Stats.tx_errors <- st.Stats.tx_errors + 1
    else begin
      Bytes.unsafe_set txbuf 0 (Char.unsafe_chr (len lsr 8));
      Bytes.unsafe_set txbuf 1 (Char.unsafe_chr (len land 0xff));
      Bytes.blit buf 0 txbuf 2 len;
      let total = len + 2 in
      st.Stats.syscalls <- st.Stats.syscalls + 1;
      match Unix.write c.c_fd txbuf 0 total with
      | n when n = total ->
        st.Stats.tx_pkts <- st.Stats.tx_pkts + 1;
        st.Stats.tx_msgs <- st.Stats.tx_msgs + 1;
        st.Stats.tx_bytes <- st.Stats.tx_bytes + len
      | _ ->
        (* A partial frame poisons the stream; drop the connection
           rather than desynchronise the peer's framing. *)
        st.Stats.short_writes <- st.Stats.short_writes + 1;
        (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
        c.c_open <- false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        st.Stats.send_eagain <- st.Stats.send_eagain + 1
      | exception Unix.Unix_error (_, _, _) ->
        st.Stats.tx_errors <- st.Stats.tx_errors + 1;
        (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
        c.c_open <- false
    end

(* The sharded reply path: UDP only (sharded mode refuses TCP listeners),
   charging the worker's own counters — the listener's [Stats.t] stays
   single-writer (the ingest thread). *)
let send_reply_sharded st cur buf len =
  match !cur with
  | To_udp (l, addr) -> (
    st.Stats.syscalls <- st.Stats.syscalls + 1;
    match Unix.sendto l.l_fd buf 0 len [] addr with
    | n when n = len ->
      st.Stats.tx_pkts <- st.Stats.tx_pkts + 1;
      st.Stats.tx_msgs <- st.Stats.tx_msgs + 1;
      st.Stats.tx_bytes <- st.Stats.tx_bytes + n
    | _ -> st.Stats.short_writes <- st.Stats.short_writes + 1
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      st.Stats.send_eagain <- st.Stats.send_eagain + 1
    | exception Unix.Unix_error (_, _, _) ->
      st.Stats.tx_errors <- st.Stats.tx_errors + 1)
  | No_sink | To_conn _ -> ()

(* ---- batched reply path (single-worker mmsg mode) --------------------

   The engine lends its one reusable reply window per packet, so a
   deferred flush must own the bytes: each reply is blitted into a
   preallocated staging slot (one copy — far cheaper than the syscall
   the batch saves) and the whole batch leaves in one [sendmmsg] before
   the slab run is released, while the rx source addresses filed under
   the slab slots are still live.  Partial sends resume from the first
   unsent entry; EAGAIN drops the remainder (never blocks the engine),
   exactly the legacy per-packet policy. *)

let flush_tx mm =
  if mm.mm_txn > 0 then begin
    let l = mm.mm_ls.(mm.mm_rx_listener) in
    let st = l.l_stats in
    let total = mm.mm_txn in
    let sent = ref 0 in
    let continue = ref true in
    while !continue && !sent < total do
      let r =
        Mmsg.send mm.mm_batch l.l_fd ~bufs:mm.mm_txb ~lens:mm.mm_txl
          ~addr_idx:mm.mm_txa ~off:!sent ~n:(total - !sent)
      in
      st.Stats.syscalls <-
        st.Stats.syscalls + Mmsg.last_send_calls mm.mm_batch;
      if r > 0 then begin
        st.Stats.batched_tx <- st.Stats.batched_tx + r;
        if r > st.Stats.hwm_pkts_per_syscall then
          st.Stats.hwm_pkts_per_syscall <- r;
        for i = !sent to !sent + r - 1 do
          st.Stats.tx_bytes <- st.Stats.tx_bytes + mm.mm_txl.(i)
        done;
        st.Stats.tx_pkts <- st.Stats.tx_pkts + r;
        st.Stats.tx_msgs <-
          st.Stats.tx_msgs + Mmsg.last_send_msgs mm.mm_batch;
        sent := !sent + r
      end
      else if r = Mmsg.eagain then begin
        st.Stats.send_eagain <- st.Stats.send_eagain + (total - !sent);
        continue := false
      end
      else begin
        st.Stats.tx_errors <- st.Stats.tx_errors + (total - !sent);
        continue := false
      end
    done;
    mm.mm_txn <- 0
  end

(* [on_reply_slot] in mmsg mode: [i] is the engine-window index of the
   packet being answered, which (the window IS the slab's popped batch,
   see [drain_udp_mmsg]) maps through [Slab.batch_slot] to the slab
   slot whose C sockaddr holds the return address; the run came from
   [mm_rx_listener]'s socket.  Stage, flushing first when the staging
   ring is full.  A reply wider than a staging slot cannot ride the
   batch; it goes out alone through the legacy sendto (cold path — the
   engine's replies are request-sized).  Timer-driven replies arrive
   with [i < 0] — no return address — and are dropped, as on the
   legacy path ([s_cur = No_sink]). *)
let stage_reply slab mm i buf len =
  if i >= 0 then begin
    let s = Slab.batch_slot slab i in
    if len > Bytes.length mm.mm_txb.(0) then begin
      let l = mm.mm_ls.(mm.mm_rx_listener) in
      let st = l.l_stats in
      st.Stats.syscalls <- st.Stats.syscalls + 1;
      match Unix.sendto l.l_fd buf 0 len [] (Mmsg.addr mm.mm_batch s) with
      | n when n = len ->
        st.Stats.tx_pkts <- st.Stats.tx_pkts + 1;
        st.Stats.tx_msgs <- st.Stats.tx_msgs + 1;
        st.Stats.tx_bytes <- st.Stats.tx_bytes + n
      | _ -> st.Stats.short_writes <- st.Stats.short_writes + 1
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        st.Stats.send_eagain <- st.Stats.send_eagain + 1
      | exception Unix.Unix_error (_, _, _) ->
        st.Stats.tx_errors <- st.Stats.tx_errors + 1
    end
    else begin
      if mm.mm_txn = Array.length mm.mm_txb then flush_tx mm;
      let j = mm.mm_txn in
      Bytes.blit buf 0 mm.mm_txb.(j) 0 len;
      mm.mm_txl.(j) <- len;
      mm.mm_txa.(j) <- s;
      mm.mm_txn <- j + 1
    end
  end

(* One sharded worker domain: claim a batch, honour migration fences, set
   the per-packet sink from the parallel array, run each packet to
   completion (reply sent from inside the call), release.  Identical
   discipline to [Shard]'s worker loop, plus sink bookkeeping. *)
let shard_worker sh w =
  let ring = w.w_ring in
  let mask = Array.length w.w_sinks - 1 in
  let batch = sh.sh_batch in
  let rec loop idle =
    match Spsc.poll ring ~max:batch with
    | -1 -> ()
    | 0 ->
      Shard.Steer.mark_hungry sh.sh_steer w.w_id;
      (* No packets: this is the only moment expiry can drive the worker's
         machines — the batch path polls inside [run_window]. *)
      ignore (Pipeline.poll_timers w.w_pipe);
      Spsc.backoff idle;
      loop (idle + 1)
    | n ->
      Shard.Steer.fence_wait sh.sh_steer sh.sh_rings ~me:w.w_id ~ring ~n;
      let base = Spsc.consumer_pos ring in
      for i = 0 to n - 1 do
        w.w_cur := w.w_sinks.((base + i) land mask);
        ignore
          (Pipeline.process_buffer w.w_pipe (Spsc.buf ring i)
             ~len:(Spsc.len ring i))
      done;
      w.w_cur := No_sink;
      ignore (Atomic.fetch_and_add w.w_processed n);
      Spsc.release ring;
      loop 0
  in
  loop 0

(* ---- create ---------------------------------------------------------- *)

let bind_listener ep =
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
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (* Widen the kernel buffers so the bounded-backpressure story is
           the kernel's, not a 208 KiB default's; best-effort. *)
        (try Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 20)
         with Unix.Unix_error _ -> ());
        (try Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 20)
         with Unix.Unix_error _ -> ());
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        if proto = `Tcp then Unix.listen fd 64;
        (match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port)
      with
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot bind %s %s:%d: %s" (proto_name proto) host
             port (err_text e))
      | bound_port ->
        Ok
          { l_proto = proto; l_fd = fd; l_host = host; l_port = bound_port;
            l_stats = Stats.create (); l_conns = [] })

let mmsg_available () = Mmsg.available () && Mmsg.Epoll.available ()

let create ?(config = Pipeline.default_config) ?(mode = Pipeline.Staged)
    ?stack ?machine ?(tick_ms = 1) ?(signals = true) ?(workers = 1)
    ?(allow_oversubscribe = false) ?(stealing = false) ?shard_key
    ?(io = Auto) ?(io_batch = 32) ~flight ~listeners fmt =
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
  if listeners = [] then Error "no listeners given"
  else if workers <= 0 then Error "workers must be positive"
  else if io_batch <= 0 then Error "io-batch must be a positive batch size"
  else begin
    match use_mmsg with
    | Error _ as e -> e
    | Ok use_mmsg ->
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
    let restore_signals () =
      List.iter (fun (s, b) -> Sys.set_signal s b) prev_signals
    in
    let rec bind_all acc = function
      | [] -> Ok (List.rev acc)
      | ep :: rest -> (
        match bind_listener ep with
        | Ok l -> bind_all (l :: acc) rest
        | Error _ as e ->
          List.iter
            (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ())
            acc;
          e)
    in
    match bind_all [] listeners with
    | Error msg ->
      restore_signals ();
      Error msg
    | Ok ls ->
      let fail msg =
        List.iter
          (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ())
          ls;
        restore_signals ();
        Error msg
      in
      if workers = 1 then (
        let cur = ref No_sink in
        let txbuf = Bytes.create (config.Pipeline.slot_bytes + 2) in
        let mm_result =
          if not use_mmsg then Ok None
          else
            match
              let nl = List.length ls in
              let ep = Mmsg.Epoll.create (max nl 1) in
              List.iteri (fun i l -> Mmsg.Epoll.add ep l.l_fd i) ls;
              { mm_batch = Mmsg.create io_batch;
                mm_ep = ep;
                mm_tags = Array.make (max nl 1) (-1);
                mm_hot = Array.make nl false;
                mm_pass = config.Pipeline.ring_capacity;
                mm_rx_listener = 0;
                mm_ls = Array.of_list ls;
                mm_txb =
                  Array.init io_batch (fun _ ->
                      Bytes.create config.Pipeline.slot_bytes);
                mm_txl = Array.make io_batch 0;
                mm_txa = Array.make io_batch (-1);
                mm_txn = 0 }
            with
            | exception Failure msg -> Error msg
            | mm -> Ok (Some mm)
        in
        match mm_result with
        | Error msg -> fail msg
        | Ok mm -> (
          (* the slab exists before the pipeline: the batched reply
             callback closes over it to map window indices to slots.
             The batched path serves each receive run before the next
             read, so its slab holds one I/O batch; the legacy loop
             drains every ready socket first and needs the full ring. *)
          let cap =
            if mm = None then config.Pipeline.ring_capacity else io_batch
          in
          let slab =
            Slab.create ~slot_bytes:config.Pipeline.slot_bytes ~capacity:cap ()
          in
          let on_reply, on_reply_slot =
            match mm with
            | Some m -> (None, Some (fun i buf len -> stage_reply slab m i buf len))
            | None -> (Some (fun buf len -> send_reply cur txbuf buf len), None)
          in
          match
            Pipeline.create ~config ~mode ?stack ~flight ?machine ~tick_ms
              ~clock_ms:Mmsg.now_ms ~now_ns:Mmsg.now_ns ?on_reply
              ?on_reply_slot fmt
          with
          | exception e ->
            (match mm with
            | Some m -> Mmsg.Epoll.close m.mm_ep
            | None -> ());
            fail (Printexc.to_string e)
          | pipe ->
            Ok
              { s_pipe = pipe;
                s_slab = slab;
                s_batch = config.Pipeline.batch;
                s_io_batch = io_batch;
                s_listeners = ls;
                s_sinks = Array.make cap No_sink;
                s_head = 0;
                s_cur = cur;
                s_stop = stop;
                s_processed = 0;
                s_scratch = Bytes.create config.Pipeline.slot_bytes;
                s_txbuf = txbuf;
                s_loop = Stats.create ();
                s_mm = mm;
                s_fds = [];
                s_fds_dirty = true;
                s_prev_signals = prev_signals;
                s_shard = None;
                s_closed = false }))
      else if List.exists (fun l -> l.l_proto = `Tcp) ls then
        fail "sharded mode (workers > 1) serves UDP listeners only"
      else if stack <> None then
        fail "sharded mode does not support layered stacks"
      else begin
        (* Steer on the flight spec's own flow key unless told otherwise:
           packets of a flow must land where that flow's machine instance
           lives, and the spec already names the field that defines a
           flow. *)
        let keyname =
          match shard_key with
          | Some k -> Ok k
          | None -> (
            match Flight.spec_flow_key flight with
            | Some k -> Ok k
            | None ->
              Error
                "sharded mode needs a steering key: the flight spec has \
                 no flow key and no ~shard_key was given")
        in
        match keyname with
        | Error e -> fail e
        | Ok keyname -> (
          match View.key_extractor fmt keyname with
          | Error e ->
            fail
              (Printf.sprintf "sharded mode: bad steering key %S: %s" keyname
                 e)
          | Ok ke -> (
            (* Same clamp discipline as [Shard.create]: domains beyond the
               core count time-share and measure the scheduler. *)
            let cores = Domain.recommended_domain_count () in
            let n_workers, warn =
              if workers <= cores then (workers, None)
              else if allow_oversubscribe then
                ( workers,
                  Some
                    (Printf.sprintf
                       "serve: %d workers oversubscribe %d available core(s)"
                       workers cores) )
              else
                ( cores,
                  Some
                    (Printf.sprintf
                       "serve: requested %d workers, clamped to %d \
                        available core(s)"
                       workers cores) )
            in
            let steer =
              Shard.Steer.create ~stealing
                ~steal_threshold:config.Pipeline.batch ~workers:n_workers ()
            in
            match
              Array.init n_workers (fun i ->
                  let cur = ref No_sink in
                  let wst = Stats.create () in
                  let pipe =
                    Pipeline.create ~config ~mode ~flight ?machine ~tick_ms
                      ~clock_ms:Mmsg.now_ms ~now_ns:Mmsg.now_ns
                      ~on_reply:(fun buf len ->
                        send_reply_sharded wst cur buf len)
                      fmt
                  in
                  let ring =
                    Spsc.create ~slot_bytes:config.Pipeline.slot_bytes
                      ~capacity:config.Pipeline.ring_capacity ()
                  in
                  { w_id = i;
                    w_pipe = pipe;
                    w_ring = ring;
                    w_sinks = Array.make (Spsc.capacity ring) No_sink;
                    w_cur = cur;
                    w_stats = wst;
                    w_processed = Atomic.make 0 })
            with
            | exception e -> fail (Printexc.to_string e)
            | ws -> (
              (match warn with
              | None -> ()
              | Some w ->
                Array.iter
                  (fun wk -> Estats.note_warning (Pipeline.stats wk.w_pipe) w)
                  ws);
              let ms_result =
                if not use_mmsg then Ok None
                else
                  match
                    let nl = List.length ls in
                    let ep = Mmsg.Epoll.create (max nl 1) in
                    List.iteri (fun i l -> Mmsg.Epoll.add ep l.l_fd i) ls;
                    { ms_batch = Mmsg.create io_batch;
                      ms_bufs =
                        Array.init io_batch (fun _ ->
                            Bytes.create config.Pipeline.slot_bytes);
                      ms_lens = Array.make io_batch 0;
                      ms_ep = ep;
                      ms_tags = Array.make (max nl 1) (-1);
                      ms_hot = Array.make nl false;
                      ms_ls = Array.of_list ls }
                  with
                  | exception Failure msg -> Error msg
                  | ms -> Ok (Some ms)
              in
              match ms_result with
              | Error msg -> fail msg
              | Ok ms ->
                let sh =
                  { sh_steer = steer;
                    sh_key = ke;
                    sh_key_min = View.key_min_bytes ke;
                    sh_workers = ws;
                    sh_rings = Array.map (fun w -> w.w_ring) ws;
                    sh_batch = config.Pipeline.batch;
                    sh_mm = ms;
                    sh_published = 0;
                    sh_domains = [||] }
                in
                sh.sh_domains <-
                  Array.map
                    (fun w -> Domain.spawn (fun () -> shard_worker sh w))
                    ws;
                Ok
                  { s_pipe = ws.(0).w_pipe;
                    s_slab =
                      (* unused in sharded mode; minimal so it costs one
                         slot, not a full ring *)
                      Slab.create ~slot_bytes:config.Pipeline.slot_bytes
                        ~capacity:1 ();
                    s_batch = config.Pipeline.batch;
                    s_io_batch = io_batch;
                    s_listeners = ls;
                    s_sinks = [||];
                    s_head = 0;
                    s_cur = ws.(0).w_cur;
                    s_stop = stop;
                    s_processed = 0;
                    s_scratch = Bytes.create config.Pipeline.slot_bytes;
                    s_txbuf = Bytes.create 2;
                    s_loop = Stats.create ();
                    s_mm = None;
                    s_fds = [];
                    s_fds_dirty = true;
                    s_prev_signals = prev_signals;
                    s_shard = Some sh;
                    s_closed = false })))
      end
  end

(* ---- ingest ---------------------------------------------------------- *)

let free_slots t = Slab.capacity t.s_slab - Slab.length t.s_slab

(* The sink FIFO mirrors the slab ring: one entry per published slot, in
   publish order.  [s_head] is the consumer cursor; the producer cursor
   is [s_head + Slab.length] (mod capacity) because occupancy is exactly
   the slab's. *)
let push_sink t sink =
  let cap = Array.length t.s_sinks in
  let tail = (t.s_head + Slab.length t.s_slab - 1 + cap) mod cap in
  t.s_sinks.(tail) <- sink

let pop_sink t =
  let s = t.s_sinks.(t.s_head) in
  t.s_sinks.(t.s_head) <- No_sink;
  t.s_head <- (t.s_head + 1) mod Array.length t.s_sinks;
  s

(* Drain one readable UDP socket: datagrams go straight into leased slab
   slots until the socket runs dry or the slab fills.  On a full slab the
   next datagram is read into scratch and dropped — counted, bounded,
   never blocking the engine. *)
let drain_udp t l =
  let st = l.l_stats in
  let continue = ref true in
  let drained = ref 0 in
  while !continue do
    if free_slots t = 0 then begin
      st.Stats.syscalls <- st.Stats.syscalls + 1;
      match
        Unix.recvfrom l.l_fd t.s_scratch 0 (Bytes.length t.s_scratch) []
      with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> continue := false
      | _ ->
        st.Stats.drops <- st.Stats.drops + 1;
        (* yield to the engine: one drop per full-slab wake *)
        continue := false
    end
    else
      match Slab.lease t.s_slab with
      | None -> continue := false
      | Some buf -> (
        st.Stats.syscalls <- st.Stats.syscalls + 1;
        match Unix.recvfrom l.l_fd buf 0 (Bytes.length buf) [] with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          Slab.abandon t.s_slab;
          continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> Slab.abandon t.s_slab
        | exception Unix.Unix_error (_, _, _) ->
          (* e.g. ECONNREFUSED bounced back from an earlier send *)
          Slab.abandon t.s_slab
        | n, addr ->
          Slab.publish t.s_slab n;
          push_sink t (To_udp (l, addr));
          st.Stats.rx_pkts <- st.Stats.rx_pkts + 1;
          st.Stats.rx_bytes <- st.Stats.rx_bytes + n;
          if n > st.Stats.hwm_datagram then st.Stats.hwm_datagram <- n;
          if st.Stats.hwm_pkts_per_syscall < 1 then
            st.Stats.hwm_pkts_per_syscall <- 1;
          incr drained)
  done;
  if !drained > st.Stats.hwm_drain then st.Stats.hwm_drain <- !drained

(* Batched UDP pass: lease a contiguous slab run, let one [recvmmsg]
   scatter datagrams straight into the slots (lengths land in the
   slab's own length array, source addresses in the C slots of the same
   indices), publish the filled prefix, and serve it to completion —
   engine, then one reply flush, then release — before the next read.
   The flush MUST precede [Slab.release]: a staged reply's destination
   lives in the C sockaddr slot of its rx slot, which the next
   [recvmmsg] overwrites.  The slab is empty between runs, so nothing
   is ever dropped here: the kernel socket buffer is the queue.  A pass
   serves at most [mm_pass] packets, so a flooded listener cannot
   starve timers, the stop flag or the other listeners.  Edge-triggered
   discipline: only EAGAIN clears the listener's hot flag — a pass cut
   short by its budget keeps it set, and the event loop comes straight
   back.  Returns the packets served. *)
let drain_udp_mmsg t mm li =
  let l = mm.mm_ls.(li) in
  let st = l.l_stats in
  let slab = t.s_slab in
  let bufs = Slab.raw_bufs slab in
  let lens = Slab.raw_lens slab in
  mm.mm_rx_listener <- li;
  let continue = ref true in
  let drained = ref 0 in
  while !continue && !drained < mm.mm_pass do
    let room = min t.s_io_batch (mm.mm_pass - !drained) in
    let k = Slab.lease_run slab ~max:room in
    let base = Slab.producer_slot slab in
    st.Stats.syscalls <- st.Stats.syscalls + 1;
    let r = Mmsg.recv mm.mm_batch l.l_fd ~bufs ~lens ~base ~count:k in
    if r > 0 then begin
      st.Stats.batched_rx <- st.Stats.batched_rx + r;
      if r > st.Stats.hwm_pkts_per_syscall then
        st.Stats.hwm_pkts_per_syscall <- r;
      for i = base to base + r - 1 do
        st.Stats.rx_bytes <- st.Stats.rx_bytes + lens.(i);
        if lens.(i) > st.Stats.hwm_datagram then
          st.Stats.hwm_datagram <- lens.(i)
      done;
      st.Stats.rx_pkts <- st.Stats.rx_pkts + r;
      drained := !drained + r;
      Slab.publish_run slab ~n:r;
      while Slab.length slab > 0 do
        let n = Slab.pop_batch slab ~max:t.s_batch in
        Pipeline.process_slab_batch t.s_pipe slab ~n;
        flush_tx mm;
        Slab.release slab
      done
    end
    else begin
      Slab.publish_run slab ~n:0;
      if r = Mmsg.eagain then mm.mm_hot.(li) <- false;
      (* EINTR (0) or a queued socket error like an ECONNREFUSED bounce
         (-3, consumed by the failed call): stop this pass but stay
         hot — the loop retries after polling timers, so progress is
         guaranteed *)
      continue := false
    end
  done;
  if !drained > st.Stats.hwm_drain then st.Stats.hwm_drain <- !drained;
  t.s_processed <- t.s_processed + !drained;
  !drained

(* Sharded ingest: the steering stage.  Datagrams land in the scratch
   buffer (the destination ring is unknown before the packet is read),
   the flow key is read at its fixed offset — no decode — and the packet
   is blitted once into the owner worker's ring, its reply sink stored in
   the parallel slot {e before} the publish.  A full ring costs the
   packet (counted as a drop) rather than blocking the listener: the
   select loop must keep serving the other workers' flows. *)
let drain_udp_sharded t sh l =
  let st = l.l_stats in
  let scratch = t.s_scratch in
  let continue = ref true in
  let drained = ref 0 in
  while !continue do
    st.Stats.syscalls <- st.Stats.syscalls + 1;
    match Unix.recvfrom l.l_fd scratch 0 (Bytes.length scratch) [] with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | n, addr ->
      st.Stats.rx_pkts <- st.Stats.rx_pkts + 1;
      st.Stats.rx_bytes <- st.Stats.rx_bytes + n;
      if n > st.Stats.hwm_datagram then st.Stats.hwm_datagram <- n;
      if st.Stats.hwm_pkts_per_syscall < 1 then
        st.Stats.hwm_pkts_per_syscall <- 1;
      (* scratch is longer than the datagram: bound the key read by the
         receive length, not the buffer length *)
      let key =
        if n < sh.sh_key_min then View.no_key
        else View.extract_key_int sh.sh_key (Bytes.unsafe_to_string scratch)
      in
      let w = sh.sh_workers.(Shard.Steer.route sh.sh_steer ~key) in
      let ring = w.w_ring in
      if not (Spsc.has_space ring) then st.Stats.drops <- st.Stats.drops + 1
      else begin
        w.w_sinks.(Spsc.producer_pos ring land (Array.length w.w_sinks - 1)) <-
          To_udp (l, addr);
        Bytes.blit scratch 0 (Spsc.slot ring) 0 n;
        Spsc.publish ring ~tag:(Shard.Steer.last_bucket sh.sh_steer) n;
        sh.sh_published <- sh.sh_published + 1;
        incr drained
      end;
      Shard.Steer.maybe_rebalance sh.sh_steer sh.sh_rings
  done;
  if !drained > st.Stats.hwm_drain then st.Stats.hwm_drain <- !drained

(* Batched steering: one [recvmmsg] fills the scratch batch, then each
   datagram is keyed, routed, and blitted into its worker's ring as in
   the legacy loop.  The per-packet sink still allocates (the worker
   needs a [Unix.sockaddr] for its [sendto]) — parity with legacy
   sharded; what the batch buys is the syscall amortization on rx. *)
let drain_udp_sharded_mmsg sh ms li =
  let l = ms.ms_ls.(li) in
  let st = l.l_stats in
  let cap = Array.length ms.ms_bufs in
  let continue = ref true in
  let drained = ref 0 in
  while !continue do
    st.Stats.syscalls <- st.Stats.syscalls + 1;
    let r =
      Mmsg.recv ms.ms_batch l.l_fd ~bufs:ms.ms_bufs ~lens:ms.ms_lens ~base:0
        ~count:cap
    in
    if r > 0 then begin
      st.Stats.batched_rx <- st.Stats.batched_rx + r;
      if r > st.Stats.hwm_pkts_per_syscall then
        st.Stats.hwm_pkts_per_syscall <- r;
      for i = 0 to r - 1 do
        let n = ms.ms_lens.(i) in
        let pkt = ms.ms_bufs.(i) in
        st.Stats.rx_pkts <- st.Stats.rx_pkts + 1;
        st.Stats.rx_bytes <- st.Stats.rx_bytes + n;
        if n > st.Stats.hwm_datagram then st.Stats.hwm_datagram <- n;
        let key =
          if n < sh.sh_key_min then View.no_key
          else View.extract_key_int sh.sh_key (Bytes.unsafe_to_string pkt)
        in
        let w = sh.sh_workers.(Shard.Steer.route sh.sh_steer ~key) in
        let ring = w.w_ring in
        if not (Spsc.has_space ring) then
          st.Stats.drops <- st.Stats.drops + 1
        else begin
          w.w_sinks.(Spsc.producer_pos ring land (Array.length w.w_sinks - 1)) <-
            To_udp (l, Mmsg.addr ms.ms_batch i);
          Bytes.blit pkt 0 (Spsc.slot ring) 0 n;
          Spsc.publish ring ~tag:(Shard.Steer.last_bucket sh.sh_steer) n;
          sh.sh_published <- sh.sh_published + 1;
          incr drained
        end
      done;
      Shard.Steer.maybe_rebalance sh.sh_steer sh.sh_rings
    end
    else begin
      if r = Mmsg.eagain then ms.ms_hot.(li) <- false;
      continue := false
    end
  done;
  if !drained > st.Stats.hwm_drain then st.Stats.hwm_drain <- !drained

let close_conn t c =
  if c.c_open then begin
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    c.c_open <- false;
    c.c_listener.l_conns <- List.filter (fun c' -> c' != c) c.c_listener.l_conns;
    c.c_listener.l_stats.Stats.conns_closed <-
      c.c_listener.l_stats.Stats.conns_closed + 1;
    t.s_fds_dirty <- true
  end

let accept_conns t l =
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
          c_buf = Bytes.create (2 + Slab.slot_bytes t.s_slab);
          c_len = 0; c_open = true; c_listener = l }
      in
      l.l_conns <- c :: l.l_conns;
      l.l_stats.Stats.conns_accepted <- l.l_stats.Stats.conns_accepted + 1;
      t.s_fds_dirty <- true
  done

(* Cut complete [u16 BE length]-prefixed frames out of a connection's
   buffer and blit them into the slab.  An oversized frame is a protocol
   violation: count it and drop the connection (resynchronising a framed
   stream is not possible). *)
let extract_frames t c =
  let st = c.c_listener.l_stats in
  let continue = ref true in
  let drained = ref 0 in
  while !continue && c.c_open && c.c_len >= 2 do
    let flen =
      (Char.code (Bytes.get c.c_buf 0) lsl 8)
      lor Char.code (Bytes.get c.c_buf 1)
    in
    if flen > Slab.slot_bytes t.s_slab then begin
      st.Stats.drops <- st.Stats.drops + 1;
      close_conn t c
    end
    else if c.c_len < 2 + flen then continue := false
    else begin
      (if free_slots t = 0 then st.Stats.drops <- st.Stats.drops + 1
       else begin
         (* [push] blits immediately, so aliasing the buffer we are
            about to shift is fine; it cannot block (a free slot was
            just checked and we are the only producer). *)
         ignore
           (Slab.push t.s_slab ~off:2 ~len:flen
              (Bytes.unsafe_to_string c.c_buf));
         push_sink t (To_conn c);
         st.Stats.rx_pkts <- st.Stats.rx_pkts + 1;
         st.Stats.rx_bytes <- st.Stats.rx_bytes + flen;
         if flen > st.Stats.hwm_datagram then st.Stats.hwm_datagram <- flen;
         incr drained
       end);
      let rest = c.c_len - 2 - flen in
      if rest > 0 then Bytes.blit c.c_buf (2 + flen) c.c_buf 0 rest;
      c.c_len <- rest
    end
  done;
  if !drained > st.Stats.hwm_drain then st.Stats.hwm_drain <- !drained

let drain_conn t c =
  c.c_listener.l_stats.Stats.syscalls <-
    c.c_listener.l_stats.Stats.syscalls + 1;
  match Unix.read c.c_fd c.c_buf c.c_len (Bytes.length c.c_buf - c.c_len) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c
  | 0 -> close_conn t c
  | n ->
    c.c_len <- c.c_len + n;
    extract_frames t c

(* ---- the loop -------------------------------------------------------- *)

(* Process every published slot, strictly in publish order, each packet
   run to completion (its reply is sent from inside the call) before the
   next is touched. *)
let drain_slab t =
  let n_done = ref 0 in
  while Slab.length t.s_slab > 0 do
    let n = Slab.pop_batch t.s_slab ~max:t.s_batch in
    for i = 0 to n - 1 do
      t.s_cur := pop_sink t;
      ignore
        (Pipeline.process_buffer t.s_pipe (Slab.buf t.s_slab i)
           ~len:(Slab.len t.s_slab i));
      incr n_done
    done;
    t.s_cur := No_sink;
    Slab.release t.s_slab
  done;
  t.s_processed <- t.s_processed + !n_done;
  !n_done

let sweep_sockets t =
  List.iter
    (fun l ->
      match l.l_proto with
      | `Udp -> drain_udp t l
      | `Tcp ->
        accept_conns t l;
        List.iter (fun c -> drain_conn t c) l.l_conns)
    t.s_listeners

(* The select fd set, rebuilt only when a connection is accepted or
   closed — the legacy loop's one per-iteration allocation, hoisted. *)
let current_fds t =
  if t.s_fds_dirty then begin
    t.s_fds <-
      List.concat_map
        (fun l -> l.l_fd :: List.map (fun c -> c.c_fd) l.l_conns)
        t.s_listeners;
    t.s_fds_dirty <- false
  end;
  t.s_fds

(* Allocation-free ready-fd dispatch (no intermediate lists/options). *)
let rec drain_ready_conn t fd = function
  | [] -> false
  | c :: rest ->
    if c.c_fd = fd then begin
      drain_conn t c;
      true
    end
    else drain_ready_conn t fd rest

let rec drain_ready t fd = function
  | [] -> ()
  | l :: rest ->
    if l.l_fd = fd then
      match l.l_proto with
      | `Udp -> drain_udp t l
      | `Tcp -> accept_conns t l
    else if drain_ready_conn t fd l.l_conns then ()
    else drain_ready t fd rest

let shard_processed sh =
  Array.fold_left
    (fun acc w -> acc + Atomic.get w.w_processed)
    0 sh.sh_workers

(* Sharded serve loop: select over the UDP listeners, steer everything
   readable, and on exit wait (bounded backoff) until the workers have
   caught up with everything published this run — replies leave from the
   worker domains, so "served" means the rings are drained, not merely
   read off the wire. *)
let run_sharded ?max_packets ?duration t sh =
  List.iter (fun l -> Stats.reset_highwater l.l_stats) t.s_listeners;
  Stats.reset_highwater t.s_loop;
  let started = Unix.gettimeofday () in
  let published0 = sh.sh_published in
  let over_budget () =
    match max_packets with
    | None -> false
    | Some m -> sh.sh_published - published0 >= m
  in
  let time_left () =
    match duration with
    | None -> infinity
    | Some d -> d -. (Unix.gettimeofday () -. started)
  in
  (match sh.sh_mm with
  | Some ms ->
    (* batched steering: persistent epoll + recvmmsg scratch batches.
       Entering hot forces one unconditional drain pass — data buffered
       across runs never re-edges, so it must not be waited for. *)
    let nl = Array.length ms.ms_hot in
    Array.fill ms.ms_hot 0 nl true;
    let rec any_hot i = i < nl && (ms.ms_hot.(i) || any_hot (i + 1)) in
    let rec loop () =
      if Atomic.get t.s_stop then begin
        Array.fill ms.ms_hot 0 nl true;
        for li = 0 to nl - 1 do
          drain_udp_sharded_mmsg sh ms li
        done
      end
      else if over_budget () || time_left () <= 0. then ()
      else begin
        let timeout_ms =
          if any_hot 0 then 0
          else
            let tl = time_left () in
            if tl = infinity then 200
            else max 0 (min 200 (int_of_float (Float.ceil (tl *. 1000.))))
        in
        t.s_loop.Stats.syscalls <- t.s_loop.Stats.syscalls + 1;
        let r = Mmsg.Epoll.wait ms.ms_ep ~tags:ms.ms_tags ~timeout_ms in
        if r > 0 then
          for j = 0 to r - 1 do
            ms.ms_hot.(ms.ms_tags.(j)) <- true
          done;
        for li = 0 to nl - 1 do
          if ms.ms_hot.(li) then drain_udp_sharded_mmsg sh ms li
        done;
        loop ()
      end
    in
    loop ()
  | None ->
    let fds = List.map (fun l -> l.l_fd) t.s_listeners in
    let sweep () =
      List.iter (fun l -> drain_udp_sharded t sh l) t.s_listeners
    in
    let rec steer_ready fd = function
      | [] -> ()
      | l :: rest ->
        if l.l_fd = fd then drain_udp_sharded t sh l else steer_ready fd rest
    in
    let rec loop () =
      if Atomic.get t.s_stop then
        (* graceful stop: steer what the kernel already holds, then fall
           through to the drain wait below *)
        sweep ()
      else if over_budget () || time_left () <= 0. then ()
      else begin
        let timeout = Float.min 0.2 (Float.max 0. (time_left ())) in
        t.s_loop.Stats.syscalls <- t.s_loop.Stats.syscalls + 1;
        (match Unix.select fds [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
          List.iter (fun fd -> steer_ready fd t.s_listeners) ready);
        loop ()
      end
    in
    loop ());
  let k = ref 0 in
  while shard_processed sh < sh.sh_published do
    Spsc.backoff !k;
    incr k
  done;
  Atomic.set t.s_stop false;
  sh.sh_published - published0

let run_single ?max_packets ?duration t =
  List.iter (fun l -> Stats.reset_highwater l.l_stats) t.s_listeners;
  Stats.reset_highwater t.s_loop;
  let started = Unix.gettimeofday () in
  let n_run = ref 0 in
  let over_budget () =
    match max_packets with None -> false | Some m -> !n_run >= m
  in
  let time_left () =
    match duration with
    | None -> infinity
    | Some d -> d -. (Unix.gettimeofday () -. started)
  in
  let rec loop () =
    if Atomic.get t.s_stop then begin
      (* Graceful stop: answer what the kernel already holds, then
         drain the slab to empty — no in-flight batch is abandoned. *)
      sweep_sockets t;
      n_run := !n_run + drain_slab t
    end
    else if over_budget () || time_left () <= 0. then
      n_run := !n_run + drain_slab t
    else begin
      let fds = current_fds t in
      let timeout = Float.min 0.2 (Float.max 0. (time_left ())) in
      (* Sleep no longer than the engine's next armed deadline: an idle
         socket must not delay a retransmission timer by the idle cap. *)
      let timeout =
        match Pipeline.next_timer_s t.s_pipe with
        | Some d -> Float.min timeout d
        | None -> timeout
      in
      t.s_loop.Stats.syscalls <- t.s_loop.Stats.syscalls + 1;
      (match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        List.iter (fun fd -> drain_ready t fd t.s_listeners) ready);
      n_run := !n_run + drain_slab t;
      (* The batch path polls inside the engine; an empty drain (select
         woke for the deadline, not a packet) still advances the wheel. *)
      ignore (Pipeline.poll_timers t.s_pipe);
      loop ()
    end
  in
  loop ();
  (* a consumed stop request must not stick to the next run *)
  Atomic.set t.s_stop false;
  !n_run

(* The batched single-worker loop: persistent epoll readiness, hot-flag
   edge discipline, recvmmsg drains, and batch-flushed replies.  The
   steady-state iteration allocates nothing: integer timeout math, the
   preallocated tag/hot arrays, and the slab's own slots are the whole
   working set (the timer deadline query may box a float, but only when
   the machine actually arms timeouts). *)
(* top-level (not a closure in [run_mmsg]): the run's entry cost lands
   inside the bench's per-run allocation bracket *)
let rec any_hot mm nl i = i < nl && (mm.mm_hot.(i) || any_hot mm nl (i + 1))

let run_mmsg ?max_packets ?duration t mm =
  List.iter (fun l -> Stats.reset_highwater l.l_stats) t.s_listeners;
  Stats.reset_highwater t.s_loop;
  let nl = Array.length mm.mm_hot in
  (* hot on entry: datagrams buffered before this run never re-edge *)
  Array.fill mm.mm_hot 0 nl true;
  let budget = match max_packets with None -> max_int | Some m -> m in
  let deadline =
    match duration with
    | None -> None
    | Some d -> Some (Unix.gettimeofday () +. d)
  in
  let n_run = ref 0 in
  let stop_now = ref false in
  while not !stop_now do
    if Atomic.get t.s_stop then begin
      Array.fill mm.mm_hot 0 nl true;
      for li = 0 to nl - 1 do
        n_run := !n_run + drain_udp_mmsg t mm li
      done;
      stop_now := true
    end
    else if
      !n_run >= budget
      ||
      match deadline with
      | None -> false
      | Some dl -> Unix.gettimeofday () >= dl
    then stop_now := true
    else begin
      let timeout_ms =
        if any_hot mm nl 0 then 0
        else begin
          let cap = 200 in
          let cap =
            match deadline with
            | None -> cap
            | Some dl ->
              let tl = dl -. Unix.gettimeofday () in
              if tl <= 0. then 0
              else min cap (int_of_float (Float.ceil (tl *. 1000.)))
          in
          match Pipeline.next_timer_ms t.s_pipe with
          | -1 -> cap
          | ms -> min cap ms
        end
      in
      t.s_loop.Stats.syscalls <- t.s_loop.Stats.syscalls + 1;
      let r = Mmsg.Epoll.wait mm.mm_ep ~tags:mm.mm_tags ~timeout_ms in
      if r > 0 then
        for j = 0 to r - 1 do
          mm.mm_hot.(mm.mm_tags.(j)) <- true
        done;
      for li = 0 to nl - 1 do
        if mm.mm_hot.(li) then n_run := !n_run + drain_udp_mmsg t mm li
      done;
      ignore (Pipeline.poll_timers t.s_pipe)
    end
  done;
  Atomic.set t.s_stop false;
  !n_run

let run ?max_packets ?duration t =
  if t.s_closed then invalid_arg "Net.Server.run: server is closed";
  match (t.s_shard, t.s_mm) with
  | Some sh, _ -> run_sharded ?max_packets ?duration t sh
  | None, Some mm -> run_mmsg ?max_packets ?duration t mm
  | None, None -> run_single ?max_packets ?duration t

let request_stop t = Atomic.set t.s_stop true

(* ---- accessors ------------------------------------------------------- *)

let bound t =
  List.map
    (fun l -> (proto_name l.l_proto, l.l_host, l.l_port))
    t.s_listeners

let udp_port t =
  List.find_map
    (fun l -> if l.l_proto = `Udp then Some l.l_port else None)
    t.s_listeners

let listener_stats t =
  let ls =
    List.map
      (fun l ->
        ( Printf.sprintf "%s %s:%d" (proto_name l.l_proto) l.l_host l.l_port,
          l.l_stats ))
      t.s_listeners
  in
  let ls =
    match t.s_shard with
    | None -> ls
    | Some sh ->
      (* worker tx counters are their own rows: replies leave from worker
         domains and never touch a listener's (single-writer) stats *)
      ls
      @ (Array.to_list sh.sh_workers
        |> List.map (fun w ->
               (Printf.sprintf "worker %d (tx)" w.w_id, w.w_stats)))
  in
  (* the readiness syscalls (select / epoll_wait) belong to the loop,
     not to any one listener *)
  ls @ [ ("event loop", t.s_loop) ]

let net_stats t =
  let ls = List.map (fun l -> l.l_stats) t.s_listeners in
  let ws =
    match t.s_shard with
    | None -> []
    | Some sh ->
      Array.to_list (Array.map (fun w -> w.w_stats) sh.sh_workers)
  in
  Stats.merge (ls @ ws @ [ t.s_loop ])

let batched_io t =
  t.s_mm <> None
  || match t.s_shard with Some sh -> sh.sh_mm <> None | None -> false

let engine_stats t =
  match t.s_shard with
  | None -> Pipeline.stats t.s_pipe
  | Some sh ->
    let merged = Estats.create Pipeline.stage_names in
    Array.iter
      (fun w -> Estats.merge_into ~into:merged (Pipeline.stats w.w_pipe))
      sh.sh_workers;
    let u = Shard.Steer.unkeyed sh.sh_steer in
    if u > 0 then Estats.note_unkeyed ~n:u merged;
    merged

let processed t =
  match t.s_shard with
  | None -> t.s_processed
  | Some sh -> shard_processed sh

let workers t =
  match t.s_shard with None -> 1 | Some sh -> Array.length sh.sh_workers

let steals t =
  match t.s_shard with
  | None -> 0
  | Some sh -> Shard.Steer.steals sh.sh_steer

module For_testing = struct
  let refuse_gso_groups t on =
    match t.s_mm with
    | Some mm -> Mmsg.For_testing.refuse_groups mm.mm_batch on
    | None -> ()
end

let close t =
  if not t.s_closed then begin
    t.s_closed <- true;
    (match t.s_mm with
    | Some mm -> Mmsg.Epoll.close mm.mm_ep
    | None -> ());
    (match t.s_shard with
    | None -> ()
    | Some sh ->
      (match sh.sh_mm with
      | Some ms -> Mmsg.Epoll.close ms.ms_ep
      | None -> ());
      Array.iter Spsc.close sh.sh_rings;
      Array.iter Domain.join sh.sh_domains;
      sh.sh_domains <- [||]);
    List.iter
      (fun l ->
        List.iter (fun c -> close_conn t c) l.l_conns;
        try Unix.close l.l_fd with Unix.Unix_error _ -> ())
      t.s_listeners;
    List.iter (fun (s, b) -> Sys.set_signal s b) t.s_prev_signals
  end
