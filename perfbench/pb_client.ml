(* The benchmark's client side: one single-threaded load generator with one
   UDP socket, and the in-process layer replay.

   pb_client.exe load   --workload W --seed S --server PATH --port P --pid PID --seconds S --rate R
     warmup, closed-loop and open-loop phases against the server process,
     every reply checked against the stream's expectations; between
     rounds, spawn-to-first-correct-reply of fresh server processes.
   pb_client.exe replay --workload W --seed S --rx-batch B [--spans-out PATH]
     the same stream through each layer's public entry points in one
     process, arriving B packets per server wake on average: the real
     fused window (Pipeline.process_slab_batch) untraced, then the window
     decomposed into its layers, untraced and traced (one span per layer
     call), spans written out at the end.

   Each mode prints one JSON object on its last stdout line.  The run's
   shape (window, phase lengths, trials) is fixed in Workload. *)

module W = Workload
module Mmsg = Netdsl.Net.Mmsg
module Epoll = Netdsl.Net.Mmsg.Epoll
module Slab = Netdsl.Engine.Slab
module Wheel = Netdsl.Engine.Wheel
module Flight = Netdsl.Engine.Flight
module Pipeline = Netdsl.Engine.Pipeline
module Step = Netdsl.Step

let now_ns = W.now_ns
let stream_mask = W.stream_len - 1

(* ---- /proc readers ----------------------------------------------------- *)

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_line ic)

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

(* On-CPU nanoseconds of every thread of [pid] (schedstat's first field):
   user + system time without the 10 ms tick quantisation of
   /proc/<pid>/stat. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> -1
  | tids ->
    Array.fold_left
      (fun acc tid ->
        match read_first_line (Printf.sprintf "%s/%s/schedstat" dir tid) with
        | Some l -> ( match words l with ns :: _ -> acc + int_of_string ns | [] -> acc)
        | None -> acc)
      0 tids

(* utime + stime from /proc/<pid>/stat, in nanoseconds (USER_HZ = 100). *)
let cpu_tick_ns pid =
  match read_first_line (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> -1
  | Some l -> (
    (* fields after the parenthesised command name *)
    let rest = String.sub l (String.rindex l ')' + 2) (String.length l - String.rindex l ')' - 2) in
    match Array.of_list (words rest) with
    | f when Array.length f > 12 -> (int_of_string f.(11) + int_of_string f.(12)) * 10_000_000
    | _ -> -1)

(* (steal, total) jiffies of the host, from the aggregate cpu line. *)
let host_steal () =
  match read_first_line "/proc/stat" with
  | Some l -> (
    match words l with
    | "cpu" :: fields ->
      let f = List.map int_of_string fields in
      let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) f) in
      ((match List.nth_opt f 7 with Some s -> s | None -> 0), total)
    | _ -> (0, 0))
  | None -> (0, 0)

(* Datagrams the kernel dropped at the UDP sockets bound to [ports]
   (receive buffer full), from /proc/net/udp's per-socket drops column. *)
let kernel_drops ports =
  match open_in "/proc/net/udp" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        ignore (In_channel.input_line ic);
        let rec go acc =
          match In_channel.input_line ic with
          | None -> acc
          | Some l -> (
            match words l with
            | _ :: local :: rest when rest <> [] -> (
              match String.split_on_char ':' local with
              | [ _; port ] when List.mem (int_of_string ("0x" ^ port)) ports ->
                go (acc + int_of_string (List.nth rest (List.length rest - 1)))
              | _ -> go acc)
            | _ -> go acc)
        in
        go 0)

let local_port fd = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0

let steal_pct (s0, t0) (s1, t1) =
  if t1 > t0 then 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.

(* A fixed piece of CPU and memory work (a pseudo-random walk over 4 MB),
   timed in nanoseconds.  Host steal does not show a host that runs this
   vCPU slower (a busy sibling thread, a lower clock); this does, so a
   run on a slowed host shows as one, not as a slower program. *)
let ref_walk = Array.make (1 lsl 19) 0

let host_ref_ns () =
  let t0 = now_ns () in
  let i = ref 0 in
  for _ = 1 to 1_000_000 do
    ref_walk.(!i) <- ref_walk.(!i) + 1;
    i := ((!i * 1103515245) + 12345) land ((1 lsl 19) - 1)
  done;
  now_ns () - t0

(* ---- the client socket ----------------------------------------------- *)

type io = {
  fd : Unix.file_descr;
  mm : Mmsg.t;
  txb : Bytes.t array;
  txl : int array;
  txa : int array;
  rxb : Bytes.t array;
  rxl : int array;
}

let client_io port =
  let fd = W.udp_socket () in
  Unix.connect fd (Unix.ADDR_INET (W.loopback, port));
  let b = W.io_batch in
  { fd; mm = Mmsg.create b;
    txb = Array.init b (fun _ -> Bytes.create 2048); txl = Array.make b 0;
    txa = Array.make b (-1);
    rxb = Array.init b (fun _ -> Bytes.create 2048); rxl = Array.make b 0 }

(* Send stream requests [next .. next+k-1] in one sendmmsg; returns how
   many the kernel took (each registered with the matcher). *)
let send io m (st : W.stream) ~next ~k =
  for j = 0 to k - 1 do
    let p = st.W.pkts.((next + j) land stream_mask) in
    Bytes.blit_string p 0 io.txb.(j) 0 (String.length p);
    io.txl.(j) <- String.length p
  done;
  let r = Mmsg.send io.mm io.fd ~bufs:io.txb ~lens:io.txl ~addr_idx:io.txa ~off:0 ~n:k in
  let r = if r > 0 then r else 0 in
  for j = 0 to r - 1 do
    W.sent m (next + j)
  done;
  r

(* Drain one recvmmsg batch through the matcher; [on_reply i t] for each
   reply that completes request [i] (received at [t]).  Returns the
   number of datagrams read. *)
let recv io m on_reply =
  let r = Mmsg.recv io.mm io.fd ~bufs:io.rxb ~lens:io.rxl ~base:0 ~count:W.io_batch in
  if r > 0 then begin
    let t = now_ns () in
    for j = 0 to r - 1 do
      let i = W.reply m io.rxb.(j) io.rxl.(j) in
      if i >= 0 then on_reply i t
    done;
    r
  end
  else 0

let no_reply (_ : int) (_ : int) = ()

(* Read replies until nothing is outstanding, or nothing arrived for
   [quiet_ns]; what is still outstanding then is missing. *)
let drain io m ~quiet_ns on_reply =
  let last = ref (now_ns ()) in
  while W.outstanding m > 0 && now_ns () - !last < quiet_ns do
    if recv io m on_reply > 0 then last := now_ns ()
  done;
  W.abandon m

let stall_ns = 1_000_000_000

(* Closed loop: at most [window] answered requests outstanding, sends in
   batches.  Returns the next stream index and whether the server
   stalled (no reply for [stall_ns] with requests outstanding). *)
let closed_loop io m st ~next ~window ~until ~sub_ns ~rates =
  let next = ref next in
  let t_sub = ref (now_ns ()) and c_sub = ref m.W.correct in
  let last = ref (now_ns ()) in
  let stalled = ref false in
  let running = ref true in
  while !running do
    let room = window - W.outstanding m in
    if room > 0 then next := !next + send io m st ~next:!next ~k:(min W.io_batch room);
    let t = if recv io m no_reply > 0 then (last := now_ns (); !last) else now_ns () in
    if W.outstanding m > 0 && t - !last > stall_ns then begin
      stalled := true;
      running := false
    end;
    if t - !t_sub >= sub_ns then begin
      rates := (float_of_int (m.W.correct - !c_sub) /. (float_of_int (t - !t_sub) /. 1e9)) :: !rates;
      t_sub := t;
      c_sub := m.W.correct
    end;
    if t >= until then running := false
  done;
  (* end on a whole DATA/ACK pair so no flow waits out a phase gap *)
  while (not !stalled) && !next land 1 = 1 do
    next := !next + send io m st ~next:!next ~k:1
  done;
  (!next, !stalled)

(* Samples of one run's open-loop rounds, in preallocated arrays. *)
type samples = { a : int array; mutable n : int }

let samples cap = { a = Array.make cap 0; n = 0 }

let add sm v =
  if sm.n < Array.length sm.a then begin
    sm.a.(sm.n) <- v;
    sm.n <- sm.n + 1
  end

(* Open loop, [total] requests one [period] apart: request j is due at
   t0 + j * period and is sent as soon as the loop sees it due (late ones
   leave together in one batch); its round trip is timed from its due
   time.  Returns the next stream index and whether the server stalled. *)
let open_loop io m st ~next ~period ~total ~rtt ~late =
  let t0 = now_ns () + 1_000_000 in
  let i0 = next in
  let on_reply i t = if i >= i0 then add rtt (t - (t0 + ((i - i0) * period))) in
  let k = ref 0 in
  let last = ref (now_ns ()) in
  let stalled = ref false in
  while (not !stalled) && !k < total do
    let t = now_ns () in
    let due = min (total - !k) (min W.io_batch (((t - t0) / period) + 1 - !k)) in
    if t >= t0 && due > 0 then begin
      let r = send io m st ~next:(i0 + !k) ~k:due in
      let ts = now_ns () in
      for j = !k to !k + r - 1 do
        add late (ts - (t0 + (j * period)))
      done;
      k := !k + r
    end;
    if recv io m on_reply > 0 then last := now_ns ()
    else if W.outstanding m > 0 && t - !last > stall_ns then stalled := true
  done;
  if not !stalled then drain io m ~quiet_ns:300_000_000 on_reply;
  (i0 + !k, !stalled)

let pct a q =
  let n = Array.length a in
  if n = 0 then 0. else float_of_int a.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* ---- modes -------------------------------------------------------------- *)

(* One set-up trial: spawn a fresh server, read its ready line (bound port
   and its own parse / compile / bind split), probe it with the stream's
   first answered request until the expected reply comes back, then stop
   it.  Some (spawn-to-first-correct-reply ns, ready line), or None when
   the server never answered correctly. *)
type prober = { server : string; kind : W.kind; req : Bytes.t; want : string; buf : Bytes.t; pfd : Unix.file_descr }

let prober kind ~server (st : W.stream) =
  let rec first i = if st.W.answered.(i) then i else first (i + 1) in
  let i = first 0 in
  { server; kind; req = Bytes.of_string st.W.pkts.(i); want = st.W.replies.(i);
    buf = Bytes.create 2048; pfd = W.udp_socket () }

let setup_trial p =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid =
    Unix.create_process p.server [| p.server; "--workload"; W.name p.kind |] Unix.stdin out_w
      Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let result =
    match In_channel.input_line ic with
    | None -> None
    | Some ready ->
      let port = Scanf.sscanf ready "{\"ready\": true, \"port\": %d" Fun.id in
      let addr = Unix.ADDR_INET (W.loopback, port) in
      let rec probe k =
        if k = 0 then None
        else begin
          ignore (Unix.sendto p.pfd p.req 0 (Bytes.length p.req) [] addr);
          match Unix.select [ p.pfd ] [] [] 0.001 with
          | [], _, _ -> probe (k - 1)
          | _ -> (
            match Unix.recv p.pfd p.buf 0 (Bytes.length p.buf) [] with
            | n when n = String.length p.want && W.equal_from p.buf p.want 0 n ->
              Some (now_ns () - t0, ready)
            | _ -> probe (k - 1)
            | exception Unix.Unix_error _ -> probe (k - 1))
        end
      in
      probe 5000
  in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  close_in ic;
  result

let signal_server pid =
  (try Unix.kill pid Sys.sigusr1 with Unix.Unix_error _ -> ());
  Unix.sleepf 0.03

(* Steal and total host jiffies, accumulated over one kind of phase. *)
type steal = { mutable st_steal : int; mutable st_total : int }

let timed_steal acc f =
  let s0, t0 = host_steal () in
  let r = f () in
  let s1, t1 = host_steal () in
  acc.st_steal <- acc.st_steal + (s1 - s0);
  acc.st_total <- acc.st_total + (t1 - t0);
  r

(* Warmup, then [W.rounds] alternations of a closed-loop and an open-loop
   phase over [seconds], so both kinds of measurement sample the whole run
   rather than one stretch of it.  The server is signalled (SIGUSR1, a
   counter snapshot) after the warmup and after every phase.  Set-up
   trials of fresh server processes run between rounds, so set-up time
   too is sampled over the whole run. *)
let load kind ~seed ~server ~port ~pid ~seconds ~rate =
  let window = W.window and rounds = W.rounds in
  let closed_s = seconds *. W.closed_share in
  let open_s = seconds -. closed_s in
  let sv = W.load kind in
  let st = W.stream sv kind ~seed in
  let io = client_io port in
  let m = W.matcher st in
  let ports = [ port; local_port io.fd ] in
  let drops0 = kernel_drops ports in
  let secs s = now_ns () + int_of_float (s *. 1e9) in
  let quiet_ns = 300_000_000 in
  let p = prober kind ~server st in
  (* the first starts run with cold caches; users who restart a server
     start it warm *)
  for _ = 1 to 5 do
    ignore (setup_trial p)
  done;
  let trials = ref [] and host_ref = samples W.rounds in
  (* warmup: caches, flow table, slab and kernel paths settle *)
  let next, stalled =
    closed_loop io m st ~next:0 ~window ~until:(secs W.warm_s) ~sub_ns:max_int ~rates:(ref [])
  in
  if not stalled then drain io m ~quiet_ns no_reply;
  signal_server pid;
  let period = 1_000_000_000 / rate in
  let per_round = 2 * int_of_float (float_of_int rate *. open_s /. float_of_int rounds /. 2.) in
  let rtt = samples (rounds * per_round) and late = samples (rounds * per_round) in
  let rates = ref [] in
  let c_steal = { st_steal = 0; st_total = 0 } and o_steal = { st_steal = 0; st_total = 0 } in
  let o_sent = ref 0 and cpu = ref 0 and ticks = ref 0 in
  let next = ref next and stalled = ref stalled and round = ref 0 in
  while (not !stalled) && !round < rounds do
    incr round;
    let n, s =
      timed_steal c_steal (fun () ->
          closed_loop io m st ~next:!next ~window ~until:(secs (closed_s /. float_of_int rounds))
            ~sub_ns:(int_of_float (W.sub_s *. 1e9)) ~rates)
    in
    next := n;
    stalled := s;
    if not s then begin
      drain io m ~quiet_ns no_reply;
      signal_server pid;
      let cpu0 = cpu_ns pid and tick0 = cpu_tick_ns pid in
      let n, s =
        timed_steal o_steal (fun () ->
            open_loop io m st ~next:!next ~period ~total:per_round ~rtt ~late)
      in
      cpu := !cpu + (cpu_ns pid - cpu0);
      ticks := !ticks + (cpu_tick_ns pid - tick0);
      o_sent := !o_sent + (n - !next);
      next := n;
      stalled := s;
      signal_server pid;
      for _ = 1 to W.setup_per_round do
        trials := setup_trial p :: !trials
      done;
      add host_ref (host_ref_ns ())
    end
  done;
  (* strays: anything arriving now answers nothing that was sent *)
  let t_end = secs 0.1 in
  while now_ns () < t_end do
    ignore (recv io m no_reply)
  done;
  W.abandon m;
  let drops = kernel_drops ports - drops0 in
  let sorted sm =
    let a = Array.sub sm.a 0 sm.n in
    Array.sort compare a;
    a
  in
  let rtt = sorted rtt and late = sorted late and host_ref = sorted host_ref in
  let per_pkt d = if !o_sent > 0 then float_of_int d /. float_of_int !o_sent else -1. in
  let steal_pct acc = steal_pct (0, 0) (acc.st_steal, acc.st_total) in
  let f = W.json_num and i = string_of_int in
  let ok = List.filter_map Fun.id (List.rev !trials) in
  print_endline
    (W.json_obj
       [ ("attempted", i !next);
         ("setup_trials", i (List.length !trials));
         ("setup_s", W.json_floats (List.map (fun (ns, _) -> float_of_int ns /. 1e9) ok));
         ("ready", "[" ^ String.concat ", " (List.map snd ok) ^ "]");
         ("missing", i m.W.missing);
         ("wrong", i m.W.wrong);
         ("kernel_drops", i drops);
         ("stalled", string_of_bool !stalled);
         ("rounds", i !round);
         ("closed_rates", W.json_floats (List.rev !rates));
         ("closed_steal_pct", f (steal_pct c_steal));
         ("open_sent", i !o_sent);
         ("open_rtt_samples", i (Array.length rtt));
         ("rtt_p50_us", f (pct rtt 0.5 /. 1e3));
         ("rtt_p99_us", f (pct rtt 0.99 /. 1e3));
         ("late_p99_us", f (pct late 0.99 /. 1e3));
         ("late_max_us", f (pct late 1.0 /. 1e3));
         ("open_steal_pct", f (steal_pct o_steal));
         ("host_ref_us", f (pct host_ref 0.5 /. 1e3));
         ("server_cpu_ns_per_pkt", f (per_pkt !cpu));
         ("server_tick_ns_per_pkt", f (per_pkt !ticks)) ])

(* ---- replay: the layers one by one, in one process -------------------- *)

(* Span recorder: parallel int arrays, written out at the end.  The clock
   is read last on entry and first on exit, so a span's own bookkeeping
   lands mostly in its parent's self time. *)
module Trace = struct
  type t = {
    nm : int array;
    t0 : int array;
    t1 : int array;
    par : int array;
    rid : int array;
    mutable n : int;
    mutable cur : int;
    mutable req : int;
  }

  (* capacity 0 records nothing: the untraced passes *)
  let create cap =
    { nm = Array.make cap 0; t0 = Array.make cap 0; t1 = Array.make cap 0;
      par = Array.make cap 0; rid = Array.make cap 0; n = 0; cur = -1; req = 0 }

  let enter t name =
    if t.n < Array.length t.nm then begin
      let i = t.n in
      t.nm.(i) <- name;
      t.par.(i) <- t.cur;
      t.rid.(i) <- t.req;
      t.cur <- i;
      t.n <- i + 1;
      t.t0.(i) <- now_ns ();
      i
    end
    else -1

  let leave t i =
    if i >= 0 then begin
      t.t1.(i) <- now_ns ();
      t.cur <- t.par.(i)
    end
end

let names = [| "net.wait"; "net.rx"; "net.tx"; "slab"; "engine"; "parse"; "match"; "step"; "timers"; "deparse" |]
let sp_wait = 0
let sp_rx = 1
let sp_tx = 2
let sp_slab = 3
let sp_engine = 4
let sp_parse = 5
let sp_match = 6
let sp_step = 7
let sp_timers = 8
let sp_deparse = 9

(* The server side of the replay: the batched loop's calls in the
   server's order (Epoll.wait; lease_run / recvmmsg / publish_run until
   EAGAIN; per engine window pop_batch, the window, sendmmsg flush,
   release), over the server's own buffers and batch sizes. *)
type rsrv = {
  sfd : Unix.file_descr;
  smm : Mmsg.t;
  ep : Epoll.ep;
  tags : int array;
  slab : Slab.t;
  batch : int;
  txb : Bytes.t array;
  txl : int array;
  txa : int array;
  mutable txn : int;
  mutable rx_calls : int;
  mutable rx_pkts : int;
  mutable tx_ns : int;  (** time in [flush], traced or not *)
  mutable tr : Trace.t;
}

let flush s =
  if s.txn > 0 then begin
    let t0 = now_ns () in
    let sp = Trace.enter s.tr sp_tx in
    let sent = ref 0 in
    while !sent < s.txn do
      let r = Mmsg.send s.smm s.sfd ~bufs:s.txb ~lens:s.txl ~addr_idx:s.txa ~off:!sent ~n:(s.txn - !sent) in
      if r > 0 then sent := !sent + r else sent := s.txn
    done;
    s.txn <- 0;
    Trace.leave s.tr sp;
    s.tx_ns <- s.tx_ns + (now_ns () - t0)
  end

(* A free staging slot, flushing first when the window is full. *)
let tx_slot s =
  if s.txn = Array.length s.txb then flush s;
  s.txn

let serve_once s window =
  let tr = s.tr in
  tr.Trace.req <- tr.Trace.req + 1;
  let sp = Trace.enter tr sp_wait in
  ignore (Epoll.wait s.ep ~tags:s.tags ~timeout_ms:0);
  Trace.leave tr sp;
  let continue = ref true in
  while !continue do
    let sp = Trace.enter tr sp_slab in
    let k = Slab.lease_run s.slab ~max:W.io_batch in
    let base = Slab.producer_slot s.slab in
    Trace.leave tr sp;
    if k = 0 then continue := false
    else begin
      let sp = Trace.enter tr sp_rx in
      let r = Mmsg.recv s.smm s.sfd ~bufs:(Slab.raw_bufs s.slab) ~lens:(Slab.raw_lens s.slab) ~base ~count:k in
      Trace.leave tr sp;
      s.rx_calls <- s.rx_calls + 1;
      let sp = Trace.enter tr sp_slab in
      Slab.publish_run s.slab ~n:(max r 0);
      Trace.leave tr sp;
      if r > 0 then s.rx_pkts <- s.rx_pkts + r else continue := false
    end
  done;
  while Slab.length s.slab > 0 do
    let sp = Trace.enter tr sp_slab in
    let n = Slab.pop_batch s.slab ~max:s.batch in
    Trace.leave tr sp;
    window n;
    flush s;
    let sp = Trace.enter tr sp_slab in
    Slab.release s.slab;
    Trace.leave tr sp
  done

(* The fused window decomposed into its layers' public entry points —
   Flight.run_window (parse); Flight.verify_ok / event / flow_key
   (match); Step.fire_id (step); Wheel.arm_hint / cancel / advance behind
   Step's timer cache (timers); Flight.apply into the tx staging slot
   (deparse) — in Pipeline's fused order and with its reply semantics.
   Flows live in a flat array indexed by key, not in Pipeline's hashed
   LRU table: the program's flow lookup, mint and eviction have no public
   entry point, so their cost is not in any layer here and lands in the
   ledger's unattributed remainder. *)
type decomposed = {
  fl : Flight.t;
  plan : Step.plan;
  insts : Step.instance array;  (** by flow key; [dflt] outside 0..65535 *)
  minted : bool array;
  dflt : Step.instance;
  wheel : Wheel.t;
  timed : bool;
  mutable timer_ops : int;
  mutable arms : int;
}

let decomposed (sv : W.served) =
  let plan = Step.compile sv.W.machine in
  let fl =
    match sv.W.stack with
    | None -> Flight.compile ~plan sv.W.fmt sv.W.flight
    | Some stack -> W.ok "flight" (Flight.compile_stack ~plan stack sv.W.flight)
  in
  let dflt = Step.instance plan in
  { fl; plan; insts = Array.make 65536 dflt; minted = Array.make 65536 false; dflt;
    wheel = Wheel.create ~now:(Mmsg.now_ms ()) (); timed = Step.has_timers plan;
    timer_ops = 0; arms = 0 }

let instance d k =
  if k < 0 || k > 65535 then d.dflt
  else begin
    if not d.minted.(k) then begin
      d.insts.(k) <- Step.instance d.plan;
      d.minted.(k) <- true
    end;
    d.insts.(k)
  end

let decomposed_window d s n =
  let tr = s.tr in
  let fl = d.fl in
  let sp_e = Trace.enter tr sp_engine in
  for i = 0 to n - 1 do
    let buf = Slab.buf s.slab i and len = Slab.len s.slab i in
    let sp = Trace.enter tr sp_parse in
    let parsed = Flight.run_window fl ~off:0 ~len (Bytes.unsafe_to_string buf) in
    Trace.leave tr sp;
    if parsed then begin
      let sp = Trace.enter tr sp_match in
      let verified = Flight.verify_ok fl in
      let ev = if verified then Flight.event fl else -1 in
      let key = if ev >= 0 then Flight.flow_key fl else Flight.no_key in
      Trace.leave tr sp;
      let live =
        verified
        && (ev < 0
           ||
           let inst = instance d key in
           let sp = Trace.enter tr sp_step in
           let v = Step.fire_id inst ev in
           Trace.leave tr sp;
           match v with
           | Step.Fired ->
             (if d.timed then
                let tw = Step.timer_word d.plan (Step.last_transition inst) in
                if tw <> Step.timer_none then begin
                  let sp = Trace.enter tr sp_timers in
                  if tw > 0 then begin
                    let wn = Wheel.now d.wheel in
                    (* as Pipeline: a re-arm identical at this tick skips the wheel *)
                    if not (Step.timer_unchanged inst ~word:tw ~wnow:wn) then begin
                      Step.note_timer_armed inst
                        ~hint:
                          (Wheel.arm_hint d.wheel ~hint:(Step.timer_hint inst) ~key
                             ~after:(Step.timer_after_ms tw) ~ev:(Step.timer_event tw))
                        ~word:tw ~wnow:wn;
                      d.arms <- d.arms + 1
                    end
                  end
                  else begin
                    ignore (Wheel.cancel d.wheel key);
                    Step.clear_timer_armed inst
                  end;
                  d.timer_ops <- d.timer_ops + 1;
                  Trace.leave tr sp
                end);
             true
           | Step.Unknown_event | Step.Unhandled | Step.Nondeterministic -> false)
      in
      if live then begin
        let sp = Trace.enter tr sp_deparse in
        let idx = Flight.response fl in
        if idx >= 0 then begin
          let j = tx_slot s in
          Bytes.blit buf 0 s.txb.(j) 0 len;
          if Flight.apply fl idx s.txb.(j) ~len then begin
            s.txl.(j) <- len;
            s.txa.(j) <- Slab.batch_slot s.slab i;
            s.txn <- j + 1
          end
        end;
        Trace.leave tr sp
      end
    end
  done;
  if d.timed then begin
    let sp = Trace.enter tr sp_timers in
    ignore
      (Wheel.advance d.wheel ~now:(Mmsg.now_ms ()) (fun ~key ~ev ->
           let inst = instance d key in
           Step.clear_timer_armed inst;
           ignore (Step.fire_id inst ev)));
    d.timer_ops <- d.timer_ops + 1;
    Trace.leave tr sp
  end;
  Trace.leave tr sp_e

(* Self time per span name: duration minus what its children cover. *)
let self_times (tr : Trace.t) =
  let child = Array.make tr.Trace.n 0 in
  for i = 0 to tr.Trace.n - 1 do
    let p = tr.Trace.par.(i) in
    if p >= 0 then child.(p) <- child.(p) + (tr.Trace.t1.(i) - tr.Trace.t0.(i))
  done;
  let self = Array.make (Array.length names) 0 in
  for i = 0 to tr.Trace.n - 1 do
    let k = tr.Trace.nm.(i) in
    self.(k) <- self.(k) + (tr.Trace.t1.(i) - tr.Trace.t0.(i)) - child.(i)
  done;
  self

let write_spans (tr : Trace.t) path =
  let oc = open_out path in
  output_string oc "req\tname\tparent\tstart_ns\tend_ns\n";
  let base = if tr.Trace.n > 0 then tr.Trace.t0.(0) else 0 in
  for i = 0 to tr.Trace.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" tr.Trace.rid.(i) names.(tr.Trace.nm.(i))
      tr.Trace.par.(i) (tr.Trace.t0.(i) - base) (tr.Trace.t1.(i) - base)
  done;
  close_out oc

(* What one empty span costs the recorder, ns. *)
let span_cost () =
  let n = 200_000 in
  let tr = Trace.create n in
  let t0 = now_ns () in
  for _ = 1 to n do
    Trace.leave tr (Trace.enter tr 0)
  done;
  float_of_int (now_ns () - t0) /. float_of_int n


let replay kind ~seed ~rx_batch ~spans_out =
  let sv = W.load kind in
  let st = W.stream sv kind ~seed in
  let cfg = sv.W.config in
  let sfd = W.udp_socket () in
  Unix.bind sfd (Unix.ADDR_INET (W.loopback, 0));
  let port = match Unix.getsockname sfd with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let ep = Epoll.create 1 in
  Epoll.add ep sfd 0;
  let s =
    { sfd; smm = Mmsg.create cfg.Pipeline.ring_capacity; ep; tags = [| -1 |];
      slab = Slab.create ~slot_bytes:cfg.Pipeline.slot_bytes ~capacity:cfg.Pipeline.ring_capacity ();
      batch = cfg.Pipeline.batch;
      txb = Array.init W.io_batch (fun _ -> Bytes.create cfg.Pipeline.slot_bytes);
      txl = Array.make W.io_batch 0; txa = Array.make W.io_batch (-1); txn = 0;
      rx_calls = 0; rx_pkts = 0; tx_ns = 0; tr = Trace.create 0 }
  in
  let pipe =
    Pipeline.create ~config:cfg ~mode:Pipeline.Fused ?stack:sv.W.stack ~flight:sv.W.flight
      ~machine:sv.W.machine ~clock_ms:Mmsg.now_ms ~now_ns:Mmsg.now_ns
      ~on_reply_slot:(fun i buf len ->
        if i >= 0 then begin
          let j = tx_slot s in
          Bytes.blit buf 0 s.txb.(j) 0 len;
          s.txl.(j) <- len;
          s.txa.(j) <- Slab.batch_slot s.slab i;
          s.txn <- j + 1
        end)
      sv.W.fmt
  in
  (* Time one engine window, untraced.  A full staging window flushes from
     inside the engine call, as in the server; that sendmmsg is net.tx,
     not engine. *)
  let timed ns words window n =
    let w0 = Gc.minor_words () in
    let tx0 = s.tx_ns in
    let t0 = now_ns () in
    window n;
    ns := !ns + (now_ns () - t0) - (s.tx_ns - tx0);
    words := !words +. (Gc.minor_words () -. w0)
  in
  let real_window n = Pipeline.process_slab_batch pipe s.slab ~n in
  let d = decomposed sv in
  let io = client_io port in
  let m = W.matcher st in
  let next = ref 0 in
  (* Requests arrive in bursts averaging [rx_batch] packets (the serving
     run's open-loop packets per server wake), each burst served by one
     [serve_once], as one wake of the server's loop. *)
  let bursts = ref 0 in
  let burst () =
    let k = float_of_int !bursts in
    incr bursts;
    let b = int_of_float ((k +. 1.) *. rx_batch) - int_of_float (k *. rx_batch) in
    max 1 (min W.io_batch b)
  in
  let pass window_fn count =
    let stop = !next + count in
    while !next < stop do
      next := !next + send io m st ~next:!next ~k:(min (burst ()) (stop - !next));
      serve_once s window_fn;
      while recv io m no_reply > 0 do () done
    done;
    drain io m ~quiet_ns:300_000_000 no_reply
  in
  let n = W.stream_len in
  let untraced = W.replay_cycles * n in
  (* the real fused window: warm, then untraced *)
  pass real_window n;
  s.rx_calls <- 0;
  s.rx_pkts <- 0;
  let eng_ns = ref 0 and eng_words = ref 0. in
  pass (timed eng_ns eng_words real_window) untraced;
  let flows_live = Pipeline.flow_count pipe in
  let pkts_per_rx_call = float_of_int s.rx_pkts /. float_of_int (max 1 s.rx_calls) in
  (* the decomposed window: warm, untraced, then traced *)
  pass (decomposed_window d s) n;
  let dec_ns = ref 0 in
  pass (timed dec_ns (ref 0.) (decomposed_window d s)) untraced;
  d.timer_ops <- 0;
  d.arms <- 0;
  let traced = n / 2 in
  s.tr <- Trace.create (24 * traced);
  pass (decomposed_window d s) traced;
  let tr = s.tr in
  if tr.Trace.n = Array.length tr.Trace.nm then failwith "span buffer full: spans were lost";
  let self = self_times tr in
  let per_pkt k = float_of_int self.(k) /. float_of_int traced in
  (match spans_out with Some p -> write_spans tr p | None -> ());
  let per_untraced ns = float_of_int ns /. float_of_int untraced in
  let f = W.json_num in
  print_endline
    (W.json_obj
       [ ("attempted", string_of_int !next);
         ("failed", string_of_int (W.failed m));
         ("spans", string_of_int tr.Trace.n);
         ("span_ns", f (span_cost ()));
         ("spans_per_pkt", f (float_of_int tr.Trace.n /. float_of_int traced));
         ("net_rx_ns", f (per_pkt sp_wait +. per_pkt sp_rx));
         ("net_tx_ns", f (per_pkt sp_tx));
         ("net_pkts_per_rx_call", f pkts_per_rx_call);
         ("slab_ns", f (per_pkt sp_slab));
         ("parse_ns", f (per_pkt sp_parse));
         ("match_ns", f (per_pkt sp_match));
         ("step_ns", f (per_pkt sp_step));
         ("timers_ns", f (per_pkt sp_timers));
         ("timers_ns_per_op", f (if d.timer_ops > 0 then float_of_int self.(sp_timers) /. float_of_int d.timer_ops else 0.));
         ("timers_armed_per_pkt", f (float_of_int d.arms /. float_of_int traced));
         ("deparse_ns", f (per_pkt sp_deparse));
         ("engine_self_ns", f (per_pkt sp_engine));
         ("engine_traced_ns",
          f (List.fold_left (fun a k -> a +. per_pkt k) 0.
               [ sp_engine; sp_parse; sp_match; sp_step; sp_timers; sp_deparse ]));
         ("engine_decomposed_ns", f (per_untraced !dec_ns));
         ("engine_ns", f (per_untraced !eng_ns));
         ("engine_alloc_b", f (!eng_words *. float_of_int (Sys.word_size / 8) /. float_of_int untraced));
         ("flows_live", string_of_int flows_live) ])

(* ---- command line ------------------------------------------------------- *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and port = ref 0 and pid = ref 0 in
  let seconds = ref 0. and rate = ref 0 and rx_batch = ref 1. in
  let spans_out = ref "" and server = ref "" in
  Arg.parse_argv ~current:(ref 1) Sys.argv
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--server", Arg.Set_string server, "PATH pb_server executable, for set-up trials (load)");
      ("--port", Arg.Set_int port, "N server port (load)");
      ("--pid", Arg.Set_int pid, "N server pid (load)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (load)");
      ("--rate", Arg.Set_int rate, "N open-loop requests per second (load)");
      ("--rx-batch", Arg.Set_float rx_batch, "B packets per server wake (replay)");
      ("--spans-out", Arg.Set_string spans_out, "PATH where the replay writes its spans") ]
    (fun a -> raise (Arg.Bad a))
    "pb_client.exe (load|replay) --workload NAME --seed N ...";
  let kind = W.kind_of_string !workload in
  match mode with
  | "load" when !seconds > 0. && !rate > 0 && !server <> "" ->
    load kind ~seed:!seed ~server:!server ~port:!port ~pid:!pid ~seconds:!seconds ~rate:!rate
  | "load" ->
    prerr_endline "pb_client: load needs --server, --seconds and --rate";
    exit 2
  | "replay" ->
    replay kind ~seed:!seed ~rx_batch:!rx_batch
      ~spans_out:(if !spans_out = "" then None else Some !spans_out)
  | m ->
    Printf.eprintf "pb_client: unknown mode %S (load or replay)\n" m;
    exit 2
