(* The three serve-path workloads, shared by the server program
   (pb_server) and the load generator / layer replay (pb_client).

   A workload is: what the server binds (format or layered stack, the
   protocol machine, the flight spec, the engine config) and the seeded
   packet stream the client sends.  Each stream is a fixed cycle of
   [stream_len] packets with its expected replies precomputed by an
   in-memory reference of the same spec; the client replays the cycle as
   often as a run needs, so a stream's expectations must not depend on
   which cycle a packet is in — [stream] checks that over two cycles. *)

module Desc = Netdsl.Desc
module Stack = Netdsl.Stack
module Step = Netdsl.Step
module Machine = Netdsl.Machine
module Flight = Netdsl.Engine.Flight
module Pipeline = Netdsl.Engine.Pipeline
module Parser = Netdsl.Lang.Parser
module Formats = Netdsl.Formats
module Prng = Netdsl.Prng
module Mmsg = Netdsl.Net.Mmsg

let now_ns = Mmsg.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

type kind = Arq_min | Tftp_flows | Arq_hostile

let kinds = [ ("arq-min", Arq_min); ("tftp-flows", Tftp_flows); ("arq-hostile", Arq_hostile) ]

let name k = fst (List.find (fun (_, k') -> k' = k) kinds)

let kind_of_string s =
  match List.assoc_opt s kinds with
  | Some k -> k
  | None ->
    Printf.eprintf "unknown workload %S (have: %s)\n" s
      (String.concat ", " (List.map fst kinds));
    exit 2

(* ---- run shape ---------------------------------------------------------
   The same for every workload; only the open-loop rate differs, and
   run.py passes it from workloads.json. *)

(* One server worker, batched I/O as [netdsl serve --io auto] picks it. *)
let io_batch = 32

(* Closed loop: requests outstanding at once. *)
let window = 256

(* A serving run: [warm_s] unmeasured, then [rounds] alternations of a
   closed-loop and an open-loop phase, the closed phases taking
   [closed_share] of the measured seconds.  Closed-loop goodput is
   sampled over [sub_s] stretches. *)
let warm_s = 1.5
let rounds = 10
let closed_share = 2. /. 3.
let sub_s = 0.25

(* Server starts timed for setup_s after each round: 30 in a run. *)
let setup_per_round = 3

(* Length of each untimed-then-timed replay pass, in stream cycles. *)
let replay_cycles = 2

(* A server process serves at most this long, whatever its client does. *)
let server_max_s = 170

(* tftp-flows keys flows on a 16-bit port but holds fewer live flows, so
   cold ports mint and evict. *)
let tftp_max_flows = 4096

type served = {
  fmt : Desc.t;  (** outermost format (the pipeline's [fmt]) *)
  stack : Stack.t option;
  machine : Machine.t;
  flight : Flight.spec;
  config : Pipeline.config;
  parse_s : float;  (** [Lang.Parser.parse_string] of the spec files *)
  compile_s : float;  (** stack, machine and flight compiles *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse path =
  match Parser.parse_string (read_file path) with
  | Ok p -> p
  | Error e -> failwith (Format.asprintf "%s: %a" path Parser.pp_error e)

let some what = function Some x -> x | None -> failwith ("missing " ^ what)
let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* e20's ARQ responder: verify, classify DATA as the receiver's [ok],
   flows keyed on [seq], answer DATA with [kind] patched to ACK.  The
   planted defect patches the wrong constant. *)
let arq_flight ~defect =
  Flight.(
    spec
      ~verify:(Cmp (Lt, Field "seq", Const 256L))
      ~classify:[ { ev_when = Cmp (Eq, Field "kind", Const 0L); ev_name = "ok" } ]
      ~flow_key:"seq"
      ~respond:
        [ { re_when = Cmp (Eq, Field "kind", Const 0L);
            re_set =
              [ { set_field = "kind"; set_to = Const (if defect then 0L else 1L) } ] } ]
      ())

(* TFTP over eth/ipv4/udp: DATA fires [send] (arms the 150 ms timer), ACK
   fires [ack] (cancels it); every accepted step is answered with ports
   and addresses swapped, the IPv4 checksum repaired in place. *)
let tftp_flight ~defect =
  Flight.(
    spec
      ~verify:(Cmp (Le, Field "tftp.opcode", Const 5L))
      ~classify:
        [ { ev_when = Cmp (Eq, Field "tftp.opcode", Const 3L); ev_name = "send" };
          { ev_when = Cmp (Eq, Field "tftp.opcode", Const 4L); ev_name = "ack" } ]
      ~flow_key:"udp.src_port"
      ~respond:
        [ { re_when = All [];
            re_set =
              [ { set_field = "udp.dst_port"; set_to = Field "udp.src_port" };
                { set_field = "udp.src_port";
                  set_to = Const (if defect then 70L else 69L) };
                { set_field = "ipv4.source"; set_to = Field "ipv4.destination" };
                { set_field = "ipv4.destination"; set_to = Field "ipv4.source" } ] } ]
      ())

let load ?(defect = false) kind =
  let t0 = now_ns () in
  match kind with
  | Arq_min | Arq_hostile ->
    let fmt = some "format arq_packet" (Parser.find_format (parse "specs/arq.ndsl") "arq_packet") in
    let parse_s = secs_since t0 in
    let t1 = now_ns () in
    let machine = Netdsl.Arq_fsm.receiver ~seq_bits:8 in
    let flight = arq_flight ~defect in
    ignore (Flight.compile ~plan:(Step.compile machine) fmt flight);
    { fmt; stack = None; machine; flight; config = Pipeline.default_config;
      parse_s; compile_s = secs_since t1 }
  | Tftp_flows ->
    let stack = some "stack inet_tftp" (Parser.find_stack (parse "specs/stacks.ndsl") "inet_tftp") in
    let machine =
      some "machine swt_sender" (Parser.find_machine (parse "specs/timeout.ndsl") "swt_sender")
    in
    let parse_s = secs_since t0 in
    let t1 = now_ns () in
    let flight = tftp_flight ~defect in
    ignore (ok "stack" (Stack.compile stack));
    ignore (ok "flight" (Flight.compile_stack ~plan:(Step.compile machine) stack flight));
    { fmt = Stack.layer_format stack 0; stack = Some stack; machine; flight;
      config = { Pipeline.default_config with max_flows = tftp_max_flows };
      parse_s; compile_s = secs_since t1 }

(* ---- packet streams -------------------------------------------------- *)

let stream_len = 65536

let arq_data ~seq payload = Formats.Arq.to_bytes (Formats.Arq.Data { seq; payload })

let gen_arq_min rng = Array.init stream_len (fun _ -> arq_data ~seq:(Prng.int rng 256) "")

(* e20's soak shape: one packet in 7 an ACK (accepted, never answered),
   DATA payloads over 0-63 B, and one packet in 4 a structure-aware
   mutant of its valid self. *)
let gen_arq_hostile rng =
  let module Mutate = Netdsl.Check.Mutate in
  let mplan = Mutate.plan Formats.Arq.format in
  Array.init stream_len (fun i ->
      let seq = Prng.int rng 256 in
      let valid =
        if i mod 7 = 0 then Formats.Arq.to_bytes (Formats.Arq.Ack { seq })
        else arq_data ~seq (String.make (Prng.int rng 64) 'p')
      in
      if i mod 4 = 3 then Mutate.apply (Mutate.random mplan rng valid) valid else valid)

(* DATA then its ACK, back to back, per flow; the flow's port is drawn
   with a cubic skew over the 16-bit space, so a few thousand hot ports
   stay resident and the cold tail mints and evicts. *)
let gen_tftp rng =
  let plan = ok "stack" (Stack.compile Formats.Stacks.inet_tftp) in
  let chain ~src_port pkt =
    ok "encode" (Stack.encode plan (Formats.Stacks.inet_tftp_values ~src_port pkt))
  in
  let data = String.make 32 'd' in
  let pkts = Array.make stream_len "" in
  for j = 0 to (stream_len / 2) - 1 do
    let u = Prng.float rng 1.0 in
    let src_port = min 65535 (int_of_float (65536. *. u *. u *. u)) in
    let block = j land 0xFFFF in
    pkts.(2 * j) <- chain ~src_port (Formats.Tftp.Data { block; data });
    pkts.((2 * j) + 1) <- chain ~src_port (Formats.Tftp.Ack { block })
  done;
  pkts

(* The in-memory reference: for ARQ the staged derivation of the same
   spec (Check.Oracle.Reply_ref); for the stack, which has no staged
   derivation, a fused pipeline on a frozen clock (no timer can expire —
   on the wire a DATA's ACK follows it by microseconds, far inside the
   150 ms deadline). *)
let reference sv =
  match sv.stack with
  | None ->
    let r =
      Netdsl.Check.Oracle.Reply_ref.create ~config:sv.config ~machine:sv.machine
        ~flight:sv.flight sv.fmt
    in
    fun pkt -> snd (Netdsl.Check.Oracle.Reply_ref.expected r pkt)
  | Some stack ->
    let last = ref None in
    let p =
      Pipeline.create ~config:sv.config ~mode:Pipeline.Fused ~stack ~flight:sv.flight
        ~machine:sv.machine ~clock_ms:(fun () -> 0)
        ~on_response:(fun s -> last := Some s)
        sv.fmt
    in
    fun pkt ->
      last := None;
      ignore (Pipeline.process p pkt);
      !last

type stream = {
  pkts : string array;
  replies : string array;  (** expected reply; meaningful where [answered] *)
  answered : bool array;
}

let stream sv kind ~seed =
  let rng = Prng.of_int seed in
  let pkts =
    match kind with
    | Arq_min -> gen_arq_min rng
    | Arq_hostile -> gen_arq_hostile rng
    | Tftp_flows -> gen_tftp rng
  in
  let expect = reference sv in
  let first = Array.map expect pkts in
  let second = Array.map expect pkts in
  Array.iteri
    (fun i r ->
      if r <> second.(i) then
        failwith (Printf.sprintf "stream is not cycle-stable at packet %d" i))
    first;
  { pkts;
    replies = Array.map (Option.value ~default:"") first;
    answered = Array.map Option.is_some first }

(* ---- in-order reply matching -----------------------------------------

   One server, one socket, loopback: replies come back in request order.
   The matcher keeps the absolute indices of sent requests that expect a
   reply.  A reply equal to the head's expectation completes it; one
   equal to a later outstanding expectation completes that and counts
   everything it skipped as missing (the search spans the whole queue, so
   a burst of lost requests costs one scan); one equal to none is wrong
   (a stray or a corrupted reply) and completes nothing. *)

type matcher = {
  st : stream;
  q : int array;  (** ring of outstanding request indices *)
  mutable head : int;
  mutable len : int;
  mutable correct : int;
  mutable missing : int;
  mutable wrong : int;
}

let matcher st = { st; q = Array.make (1 lsl 20) 0; head = 0; len = 0; correct = 0; missing = 0; wrong = 0 }

let outstanding m = m.len
let failed m = m.missing + m.wrong

let sent m i =
  if m.st.answered.(i land (stream_len - 1)) then begin
    if m.len = Array.length m.q then failwith "matcher queue overflow";
    m.q.((m.head + m.len) land (Array.length m.q - 1)) <- i;
    m.len <- m.len + 1
  end

(* Top-level recursion, not local closures: the client's per-reply path
   must not allocate. *)
let rec equal_from buf s i len =
  i = len || (Bytes.unsafe_get buf i = String.unsafe_get s i && equal_from buf s (i + 1) len)

let rec find_reply m buf len d =
  if d >= m.len then -1
  else
    let i = m.q.((m.head + d) land (Array.length m.q - 1)) in
    let s = m.st.replies.(i land (stream_len - 1)) in
    if String.length s = len && equal_from buf s 0 len then d else find_reply m buf len (d + 1)

(* The request index a reply completes, or -1 for a wrong reply. *)
let reply m buf len =
  let mask = Array.length m.q - 1 in
  match find_reply m buf len 0 with
  | -1 ->
    m.wrong <- m.wrong + 1;
    -1
  | d ->
    let i = m.q.((m.head + d) land mask) in
    m.missing <- m.missing + d;
    m.correct <- m.correct + 1;
    m.head <- (m.head + d + 1) land mask;
    m.len <- m.len - d - 1;
    i

(* Give up on everything still outstanding. *)
let abandon m =
  m.missing <- m.missing + m.len;
  m.head <- 0;
  m.len <- 0

(* ---- sockets ----------------------------------------------------------- *)

let loopback = Unix.inet_addr_of_string "127.0.0.1"

let udp_socket () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock fd;
  (try Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 22) with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 22) with Unix.Unix_error _ -> ());
  fd

(* ---- JSON output ------------------------------------------------------- *)

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let json_floats fs = "[" ^ String.concat ", " (List.map json_num fs) ^ "]"
