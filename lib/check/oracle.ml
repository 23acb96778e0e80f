module Desc = Netdsl_format.Desc
module Value = Netdsl_format.Value
module Codec = Netdsl_format.Codec
module Stack = Netdsl_format.Stack
module Pipeline = Netdsl_engine.Pipeline
module Flight = Netdsl_engine.Flight
module Stats = Netdsl_engine.Stats

type bug =
  | No_bug
  | Invert_flight_accept
  | Invert_chain_accept
  | Shift_filter_loads
  | Drop_expiry
  | Late_static_load
  | Evict_mru
  | Late_tick
  | Unrefused_patch

type disagreement = { d_check : string; d_detail : string }

let disagreement_to_string d = Printf.sprintf "%s: %s" d.d_check d.d_detail

type t = {
  o_fmt : Desc.t;
  o_bug : bug;
  (* check 2: the reference executor and a whole pipeline over one spec
     with an always-true verify predicate armed, so the verify row's
     packet count shows which packets reached that stage; the pipeline
     demands every field its plan extracts.  [Error reason] when the
     format has no compiled plan. *)
  o_pipes : (Reference.t * Pipeline.t, string) result;
  (* check 3a: the format's one-layer stack plan — what [Flight.compile]
     runs — demanding every field it can extract, diffed register by
     register against the codec's value: bare field name, register *)
  o_hot : (Stack.plan * (string * Stack.reg) array) option;
  (* check 4: the kernel pre-filter, run by the cBPF interpreter *)
  o_filter : Bpf_oracle.t option;
  mutable o_checked : int;
  mutable o_accepted : int;
  mutable o_filtered : int;
}

(* The format's kernel pre-filter, or the planted one that reads every
   field one byte late. *)
let filter_of bug fmt =
  Option.map Bpf_oracle.prepare
    (match (bug, Netdsl_format.Bpf.compile fmt) with
    | Shift_filter_loads, Some p -> Bpf_oracle.shift_loads p
    | _, p -> p)

(* The engine-side defect a bug plants, if any. *)
let plant_of = function
  | Late_static_load -> Some Flight.Late_static_load
  | Evict_mru -> Some Flight.Evict_mru
  | Late_tick -> Some Flight.Late_tick
  | Unrefused_patch -> Some Flight.Unrefused_patch
  | No_bug | Invert_flight_accept | Invert_chain_accept | Shift_filter_loads | Drop_expiry ->
    None

(* The names a stack plan resolves in one layer: its top-level fields and
   the fields of its top-level variant's cases — the flat namespace a
   variant layer compiles to. *)
let flat_names (fmt : Desc.t) =
  let names (sub : Desc.t) = List.map (fun (f : Desc.field) -> f.name) sub.fields in
  List.sort_uniq compare
    (List.concat_map
       (fun (f : Desc.field) ->
         match f.ty with
         | Desc.Variant { cases; default; _ } ->
           f.name
           :: List.concat_map names
                (List.map (fun (_, _, sub) -> sub) cases @ Option.to_list default)
         | _ -> [ f.name ])
       fmt.Desc.fields)

(* The stack compiled demanding every field any layer's plan can extract,
   qualified; a candidate the chain compiler refuses is probed alone and
   dropped rather than failing the oracle.  [Error] only if the stack
   itself does not compile. *)
let compile_demanding_all ?plant_late_load stack =
  let all =
    List.concat
      (List.mapi
         (fun i lname ->
           List.map (fun f -> lname ^ "." ^ f) (flat_names (Stack.layer_format stack i)))
         (Stack.layer_names stack))
  in
  let demand =
    match Stack.compile ~demand:all stack with
    | Ok _ -> all
    | Error _ -> List.filter (fun q -> Result.is_ok (Stack.compile ~demand:[ q ] stack)) all
  in
  Result.map (fun plan -> (plan, demand)) (Stack.compile ~demand ?plant_late_load stack)

(* The format's one-layer stack, as [Flight.compile] builds it, and its
   registers by bare field name. *)
let hot_plan ~plant_late_load (fmt : Desc.t) =
  match Stack.v ~name:fmt.format_name [ Stack.layer fmt ] with
  | Error _ -> None
  | Ok stack -> (
    match compile_demanding_all ~plant_late_load stack with
    | Error _ -> None
    | Ok (plan, demand) ->
      let regs =
        List.map
          (fun q ->
            let _, field = Result.get_ok (Stack.locate plan q) in
            (field, Result.get_ok (Stack.reg plan q)))
          demand
      in
      Some (plan, Array.of_list regs))

let create ?(bug = No_bug) fmt =
  let plant = plant_of bug in
  let hot = hot_plan ~plant_late_load:(plant = Some Flight.Late_static_load) fmt in
  (* the fused pipeline demands every field the compiled plan extracts *)
  let demand = match hot with Some (_, regs) -> List.map fst (Array.to_list regs) | None -> [] in
  let pipes =
    match
      let flight = Flight.spec ~demand ~verify:(Flight.All []) () in
      (Pipeline.create ~flight ?plant fmt, Reference.create ~flight fmt)
    with
    | pipe, reference -> Ok (reference, pipe)
    | exception Invalid_argument reason -> Error reason
  in
  {
    o_fmt = fmt;
    o_bug = bug;
    o_filter = filter_of bug fmt;
    o_pipes = pipes;
    o_hot = hot;
    o_checked = 0;
    o_accepted = 0;
    o_filtered = 0;
  }

let format t = t.o_fmt
let checked t = t.o_checked
let accepted t = t.o_accepted
let filtered t = t.o_filtered
let skipped t = match t.o_pipes with Ok _ -> None | Error reason -> Some reason

let fail check fmt_ = Printf.ksprintf (fun s -> Error { d_check = check; d_detail = s }) fmt_

let err = Codec.error_to_string

let tag = function
  | Pipeline.Accepted -> "accepted"
  | Pipeline.Rejected_decode _ -> "rejected at decode"
  | Pipeline.Rejected_verify -> "rejected at verify"
  | Pipeline.Rejected_step -> "rejected at step"
  | Pipeline.Rejected_encode -> "rejected at encode"

(* Check 2: the pipeline against the reference executor.  [codec_ok] is
   the codec's verdict.  Both must agree with it and with each other, the
   pipeline must pass every accepted packet — and no rejected mutant —
   through its verify stage, and its decode and verify counters must
   equal the reference's. *)
let check_pipeline t pkt ~codec_ok =
  match t.o_pipes with
  | Error _ -> Ok ()
  | Ok (reference, pipe) -> (
    let stats = Pipeline.stats pipe in
    let verified_before = Stats.stage_packets stats 1 in
    let ro = Reference.process reference pkt in
    let po = Pipeline.process pipe pkt in
    let saw_verify = Stats.stage_packets stats 1 > verified_before in
    match (ro, po, codec_ok) with
    | (Pipeline.Accepted, _, false | Pipeline.Rejected_decode _, _, true)
    | ((Pipeline.Rejected_verify | Rejected_step | Rejected_encode), _, _) ->
      fail "pipeline" "reference %s a packet the codec %s" (tag ro)
        (if codec_ok then "accepts" else "rejects")
    | _, Pipeline.Accepted, false ->
      fail "fused" "fused pipeline accepted a packet the codec rejects"
    | _, Pipeline.Rejected_decode e, true ->
      fail "fused" "fused pipeline rejected a packet the codec accepts: %s" (err e)
    | _, (Pipeline.Rejected_verify | Rejected_step | Rejected_encode), _ ->
      fail "fused" "fused pipeline %s with an always-true predicate" (tag po)
    | _, Pipeline.Accepted, true when not saw_verify ->
      fail "pipeline" "accepted packet never reached the verify stage"
    | _, Pipeline.Rejected_decode _, false when saw_verify ->
      fail "pipeline" "rejected mutant leaked past decode into the verify stage"
    | _ ->
      let d = Reference.stage reference "decode" and v = Reference.stage reference "verify" in
      let got_dp = Stats.stage_packets stats 0
      and got_dr = Stats.stage_rejects stats 0
      and got_vp = Stats.stage_packets stats 1 in
      if got_dp <> d.packets || got_dr <> d.rejects || got_vp <> v.packets then
        fail "stats"
          "stage counters drifted: decode %d/%d rejects %d/%d verify %d/%d \
           (pipeline/reference)"
          got_dp d.packets got_dr d.rejects got_vp v.packets
      else Ok ())

(* Check 3a: the format's compiled plan against the codec verdict, and —
   on acceptance — every demanded register against the codec's value for
   the same field, [-1] for a case field the packet does not carry.
   [codec] is the codec's decode of [pkt].  The planted fusion defect
   inverts the plan's verdict on accepted input, as if a fused bounds
   check were flipped. *)
let check_hot t pkt ~codec =
  match t.o_hot with
  | None -> Ok ()
  | Some (plan, regs) -> (
    let ok = Stack.run plan pkt in
    let ok = match (t.o_bug, ok) with Invert_flight_accept, true -> false | _ -> ok in
    match (ok, codec) with
    | true, Error e ->
      fail "flight" "fused decoder accepts a packet the codec rejects: %s" (err e)
    | false, Ok _ -> fail "flight" "fused decoder rejects a packet the codec accepts"
    | false, Error _ -> Ok ()
    | true, Ok cv ->
      let rec go i =
        if i >= Array.length regs then Ok ()
        else begin
          let field, reg = regs.(i) in
          let fv = Int64.of_int (Stack.reg_get plan reg) in
          let cv = Option.value (Value.find_int_flat cv field) ~default:(-1L) in
          if Int64.equal fv cv then go (i + 1)
          else fail "flight" "register %S diverged: fused %Ld, codec %Ld" field fv cv
        end
      in
      go 0)

let check_flight t pkt ~codec =
  match check_hot t pkt ~codec with
  | Error _ as e -> e
  | Ok () -> check_pipeline t pkt ~codec_ok:(Result.is_ok codec)

let check_inner t pkt =
  let codec = Codec.decode t.o_fmt pkt in
  match codec with
  | Error _ ->
    if not (Bpf_oracle.passes t.o_filter pkt) then t.o_filtered <- t.o_filtered + 1;
    check_flight t pkt ~codec
  | Ok _ -> (
    if not (Bpf_oracle.passes t.o_filter pkt) then
      fail "filter" "the decoders accept, the kernel pre-filter does not deliver it whole"
    else
      match check_flight t pkt ~codec with
      | Error _ as e -> e
      | Ok () ->
        t.o_accepted <- t.o_accepted + 1;
        Ok ())

let check t pkt =
  t.o_checked <- t.o_checked + 1;
  (* An exception escaping any fast path is itself a disagreement: the
     interpreted codec never throws on malformed input. *)
  match check_inner t pkt with
  | exception e -> fail "crash" "exception escaped a fast path: %s" (Printexc.to_string e)
  | r -> r

(* ---- the in-memory reply reference for the socket oracle leg ----

   [Loopback] reads replies off a real UDP socket and diffs them byte for
   byte against this: the same flight spec driven through the reference
   executor, whose [on_response] captures each reply as a fresh string —
   so the socket run differences the wire path and the engine at once. *)
module Reply_ref = struct
  type nonrec t = { r_ref : Reference.t; r_last : string option ref }

  let create ?config ?machine ?stack ?clock_ms ~flight fmt =
    let r_last = ref None in
    let r_ref =
      Reference.create ?config ?stack ?machine ?clock_ms
        ~on_response:(fun s -> r_last := Some s)
        ~flight fmt
    in
    { r_ref; r_last }

  let expected t pkt =
    t.r_last := None;
    let outcome = Reference.process t.r_ref pkt in
    (outcome, !(t.r_last))
end

(* ---- the stacked-reply oracle leg ----

   A stacked pipeline — compiled decode kernels, compiled patch kernels,
   its flow table and wheel — against the reference executor over the
   same stack, spec and machine: the verdict, every reply byte and the
   flow and timer counts must agree after every packet.  Both read one
   virtual clock that advances a millisecond per checked packet, so flow
   state and timers advance in lock-step. *)
module Stack_reply = struct
  type nonrec t = {
    s_fused : Pipeline.t;
    s_last : string option ref;
    s_ref : Reply_ref.t;
    s_clock : int ref;
    mutable s_checked : int;
    mutable s_answered : int;
  }

  (* Every field of every layer a stacked patch can set, qualified, with
     its width and whether it must keep its own value (an exhaustive
     enum or a constrained field); [covered] selects those under an
     enclosing payload checksum instead, which only a single layer's
     patcher accepts. *)
  let patch_fields ~covered stack =
    List.concat
      (List.mapi
         (fun i lname ->
           let fmt = Stack.layer_format stack i in
           List.filter_map
             (fun (f : Desc.field) ->
               let q = lname ^ "." ^ f.name in
               let resolved =
                 if covered then
                   Result.is_error (Stack.patcher stack i f.name)
                   && Result.is_ok (Netdsl_format.Emit.patcher fmt f.name)
                 else Result.is_ok (Stack.patcher stack i f.name)
               in
               match
                 (resolved, Netdsl_format.Sizing.fixed_field_span fmt f.name,
                  Stack.compile ~demand:[ q ] stack)
               with
               | true, Ok (_, bits), Ok _ ->
                 let own =
                   f.constraints <> []
                   || match f.ty with Desc.Enum { exhaustive; _ } -> exhaustive | _ -> false
                 in
                 Some (q, bits, own)
               | _ -> None)
             fmt.Desc.fields)
         (Stack.layer_names stack))

  (* One respond rule: each field takes the value of the next field of its
     width (a rotation), so replies move real bytes and repair real
     checksums; an own-valued field keeps its value. *)
  let rotation fields =
    let action (q, bits, own) =
      let peers = List.filter (fun (_, b, o) -> b = bits && not o) fields in
      let next =
        if own then q
        else
          let rec after = function
            | (p, _, _) :: ((n, _, _) :: _) when String.equal p q -> n
            | _ :: tl -> after tl
            | [] -> ( match peers with (n, _, _) :: _ -> n | [] -> q)
          in
          after peers
      in
      { Flight.set_field = q; set_to = Flight.Field next }
    in
    { Flight.re_when = Flight.All []; re_set = List.map action fields }

  let patch_spec stack =
    match patch_fields ~covered:false stack with
    | [] -> Flight.spec ()
    | fields -> Flight.spec ~respond:[ rotation fields ] ()

  let covered_spec stack =
    match patch_fields ~covered:true stack with
    | [] -> None
    | fields -> Some (Flight.spec ~respond:[ rotation fields ] ())

  (* The flow leg's machine: a flow takes three packets, then refuses
     more until its 3 ms timer returns it to idle. *)
  let flow_machine =
    let module M = Netdsl_fsm.Machine in
    let bump = [ M.Assign ("n", M.Add (M.Reg "n", M.Int 1)) ] in
    let arm = M.Arm_timer { after_ms = 3; fire = "tick" } in
    M.machine ~name:"oracle_flow" ~states:[ "idle"; "busy" ] ~events:[ "pkt"; "tick" ]
      ~registers:[ M.reg "n" ~domain:4 ] ~initial:"idle"
      ~ignores:[ ("idle", "tick") ]
      [ M.trans ~label:"FIRST" ~src:"idle" ~event:"pkt" ~dst:"busy" ~actions:bump ~timer:arm ();
        M.trans ~label:"AGAIN" ~src:"busy" ~event:"pkt" ~dst:"busy"
          ~guard:(M.Lt (M.Reg "n", M.Int 3)) ~actions:bump ~timer:arm ();
        M.trans ~label:"REST" ~src:"busy" ~event:"tick" ~dst:"idle" () ]

  (* The flow leg's spec: every packet is one [pkt] event of the flow its
     innermost patchable field keys, through a two-flow table, answered
     with the rotation. *)
  let flow_spec stack =
    match List.rev (patch_fields ~covered:false stack) with
    | [] -> None
    | ((key, _, _) :: _) as rev ->
      Some
        (Flight.spec
           ~classify:[ { Flight.ev_when = Flight.All []; ev_name = "pkt" } ]
           ~flow_key:key ~respond:[ rotation (List.rev rev) ] ())

  let create ?(bug = No_bug) ?config ?machine ?flight stack =
    let flight = match flight with Some f -> f | None -> patch_spec stack in
    let fmt = Stack.layer_format stack 0 in
    let s_clock = ref 0 in
    let clock_ms () = !s_clock in
    match
      let s_last = ref None in
      let s_fused =
        Pipeline.create ?config ~stack ~flight ?machine ~clock_ms
          ~on_response:(fun r -> s_last := Some r) ?plant:(plant_of bug) fmt
      in
      let s_ref = Reply_ref.create ?config ?machine ~stack ~clock_ms ~flight fmt in
      { s_fused; s_last; s_ref; s_clock; s_checked = 0; s_answered = 0 }
    with
    | t -> Ok t
    | exception Invalid_argument e -> Error e

  let checked t = t.s_checked
  let answered t = t.s_answered

  let hex = Netdsl_util.Hexdump.to_hex
  let show = function None -> "no reply" | Some r -> hex r

  let check_inner t pkt =
    incr t.s_clock;
    t.s_last := None;
    let fo = Pipeline.process t.s_fused pkt in
    let fr = !(t.s_last) in
    let ro, rr = Reply_ref.expected t.s_ref pkt in
    let stats = Pipeline.stats t.s_fused and r = t.s_ref.Reply_ref.r_ref in
    let counts =
      [ ("evicted flows", Stats.evicted_flows stats, Reference.evicted r);
        ("expired timers", Stats.timers_expired stats, Reference.expired r);
        ("live flows", Pipeline.flow_count t.s_fused, Reference.flow_count r);
        ("live timers", Pipeline.timers_live t.s_fused, Reference.timers_live r) ]
    in
    if not (String.equal (tag fo) (tag ro)) then
      fail "reply" "fused stack %s, reference %s" (tag fo) (tag ro)
    else if not (Option.equal String.equal fr rr) then
      fail "reply" "replies differ\n  fused:     %s\n  reference: %s" (show fr) (show rr)
    else
      match List.find_opt (fun (_, f, r) -> f <> r) counts with
      | Some (what, f, r) -> fail "reply" "%s: fused %d, reference %d" what f r
      | None ->
        if fr <> None then t.s_answered <- t.s_answered + 1;
        Ok ()

  let check t pkt =
    t.s_checked <- t.s_checked + 1;
    match check_inner t pkt with
    | exception e ->
      fail "crash" "exception escaped the stacked reply leg: %s" (Printexc.to_string e)
    | r -> r
end

(* ---- the chained-decode oracle leg ----

   One fused [Stack.plan] against the sequential per-layer reference
   ([Stack.Seq]): verdict, every demanded register, and every layer
   window must agree on every mutant.  Cross-layer length lies need no
   special casing — an outer length lie moves the inner window and both
   implementations must move it identically. *)
module Chain = struct
  type nonrec t = {
    c_bug : bug;
    c_plan : Stack.plan;
    c_seq : Stack.Seq.t;
    c_regs : (int * string * Stack.reg) array;
        (* layer index, bare field name, fused register *)
    c_layers : int;
    c_filter : Bpf_oracle.t option;  (* layer 0's *)
    c_reply : Stack_reply.t option;  (* under [Stack_reply.patch_spec] *)
    c_legs : Stack_reply.t list;
        (* the flow leg, and the covered-patch leg on a stack that has
           fields under a payload checksum *)
    mutable c_checked : int;
    mutable c_accepted : int;
  }

  let create ?(bug = No_bug) stack =
    match
      compile_demanding_all ~plant_late_load:(plant_of bug = Some Flight.Late_static_load) stack
    with
    | Error _ as e -> e
    | Ok (plan, all) ->
      let regs =
        List.filter_map
          (fun qualified ->
            match Stack.reg plan qualified with
            | Error _ -> None
            | Ok reg ->
              let layer, field = Result.get_ok (Stack.locate plan qualified) in
              Some (layer, field, reg))
          all
      in
      Ok
        {
          c_bug = bug;
          c_plan = plan;
          c_seq = Stack.Seq.create plan;
          c_regs = Array.of_list regs;
          c_layers = Stack.layer_count plan;
          c_filter = filter_of bug (Stack.layer_format stack 0);
          c_reply = Result.to_option (Stack_reply.create ~bug stack);
          c_legs =
            List.filter_map
              (fun (config, machine, flight) ->
                Option.bind flight (fun flight ->
                    Result.to_option (Stack_reply.create ~bug ?config ?machine ~flight stack)))
              [ ( Some { Pipeline.default_config with max_flows = 2 },
                  Some Stack_reply.flow_machine,
                  Stack_reply.flow_spec stack );
                (None, None, Stack_reply.covered_spec stack) ];
          c_checked = 0;
          c_accepted = 0;
        }

  let checked t = t.c_checked
  let accepted t = t.c_accepted

  let answered t =
    match t.c_reply with None -> 0 | Some r -> Stack_reply.answered r

  let check_reply t pkt =
    List.fold_left
      (fun acc r -> match acc with Ok () -> Stack_reply.check r pkt | e -> e)
      (Ok ())
      (Option.to_list t.c_reply @ t.c_legs)

  let check_inner t pkt =
    let fused = Stack.run t.c_plan pkt in
    (* the planted defect: the fused chain's accept verdict inverted, as
       if a chained bounds check were flipped *)
    let fused =
      match (t.c_bug, fused) with Invert_chain_accept, true -> false | _, v -> v
    in
    match (fused, Stack.Seq.decode t.c_seq pkt) with
    | true, Error e ->
      fail "chain" "fused chain accepts a packet the sequential decode rejects: %s"
        (err e)
    | false, Ok () ->
      fail "chain" "fused chain rejects a packet the sequential decode accepts"
    | false, Error _ -> check_reply t pkt
    | true, Ok () when not (Bpf_oracle.passes t.c_filter pkt) ->
      fail "filter" "the chain accepts, layer 0's kernel pre-filter does not deliver it whole"
    | true, Ok () ->
      let rec windows i =
        if i >= t.c_layers then Ok ()
        else begin
          let fo = Stack.layer_off t.c_plan i
          and fl = Stack.layer_len t.c_plan i
          and so = Stack.Seq.layer_off t.c_seq i
          and sl = Stack.Seq.layer_len t.c_seq i in
          if fo <> so || fl <> sl then
            fail "chain"
              "layer %d window diverged: fused [%d, +%d), sequential [%d, +%d)" i
              fo fl so sl
          else windows (i + 1)
        end
      in
      let rec registers i =
        if i >= Array.length t.c_regs then Ok ()
        else begin
          let layer, field, reg = t.c_regs.(i) in
          let fv = Int64.of_int (Stack.reg_get t.c_plan reg) in
          let sv =
            Option.value ~default:(-1L)
              (Value.find_int_flat (Stack.Seq.value t.c_seq layer) field)
          in
          if Int64.equal fv sv then registers (i + 1)
          else
            fail "chain" "register %d.%s diverged: fused %Ld, sequential %Ld"
              layer field fv sv
        end
      in
      (match windows 0 with
      | Error _ as e -> e
      | Ok () -> (
        match registers 0 with
        | Error _ as e -> e
        | Ok () ->
          t.c_accepted <- t.c_accepted + 1;
          check_reply t pkt))

  let check t pkt =
    t.c_checked <- t.c_checked + 1;
    match check_inner t pkt with
    | exception e ->
      fail "crash" "exception escaped the fused chain: %s" (Printexc.to_string e)
    | r -> r

  (* Layer windows of an accepting seed, for aimed cross-layer mutation. *)
  let seed_windows t pkt =
    match Stack.Seq.decode t.c_seq pkt with
    | Error _ -> [||]
    | Ok () ->
      Array.init t.c_layers (fun i ->
          (Stack.Seq.layer_off t.c_seq i, Stack.Seq.layer_len t.c_seq i))
end

(* ---- the timer oracle leg ----

   One machine with [timeout] clauses, one timeout-laced stimulus trace,
   two executions of the same compiled [Step] plan:

   - live: an [Engine.Wheel] in integer virtual time — the exact
     arm/cancel discipline the pipeline's step stage applies (the fired
     transition's packed timer word drives the wheel, expirations fire
     back through [fire_id], and an expiry's own transition may re-arm);
   - reference: the discrete-event simulator — external events scheduled
     on a [Sim.Engine] heap, the flow's single timer a [Sim.Timer]
     (start replaces, stop cancels), the ladder's deterministic
     same-time order (schedule order) arbitrating ties.

   Both sides log every verdict with its virtual time, new state and
   register file; the logs — and the final configurations — must be
   identical.  The one deliberate alignment: the wheel is advanced only
   to [at - 1] before a stimulus at [at], so an expiry due exactly at a
   stimulus time fires after the stimulus — which is the simulator's
   order too (the stimulus was scheduled first).

   The planted defect [Drop_expiry] makes the live wheel silently lose
   every second armed timer, the failure mode a broken cascade or a
   clobbered freelist would produce: nothing crashes, a deadline just
   never fires.  The log comparison must catch it. *)
module Timers = struct
  module Step = Netdsl_fsm.Step
  module Wheel = Netdsl_engine.Wheel
  module Sim = Netdsl_sim

  type nonrec t = {
    tm_bug : bug;
    tm_plan : Step.plan;
    mutable tm_checked : int;
  }

  let create ?(bug = No_bug) machine =
    { tm_bug = bug; tm_plan = Step.compile machine; tm_checked = 0 }

  let checked t = t.tm_checked

  (* One log line per delivered event: time, verdict, configuration. *)
  let entry plan inst time ev = function
    | Step.Fired ->
      let buf = Buffer.create 48 in
      Buffer.add_string buf
        (Printf.sprintf "t=%d %s -> %s" time (Step.event_name plan ev)
           (Step.state_name_of inst));
      for r = 0 to Step.n_registers plan - 1 do
        Buffer.add_string buf
          (Printf.sprintf " %s=%d" (Step.register_name plan r)
             (Step.register inst r))
      done;
      Buffer.contents buf
    | v -> Printf.sprintf "t=%d %s %s" time (Step.event_name plan ev)
             (match v with
             | Step.Fired -> assert false
             | Step.Unknown_event -> "unknown"
             | Step.Unhandled -> "unhandled"
             | Step.Nondeterministic -> "nondeterministic")

  let run_live t trace ~horizon =
    let plan = t.tm_plan in
    let inst = Step.instance plan in
    let w = Wheel.create () in
    let log = ref [] in
    let arms = ref 0 in
    let fire time ev =
      let v = Step.fire_id inst ev in
      log := entry plan inst time ev v :: !log;
      if v = Step.Fired then begin
        let tw = Step.timer_word plan (Step.last_transition inst) in
        if tw > 0 then begin
          incr arms;
          (* the planted wheel defect: every second arm is lost *)
          if not (t.tm_bug = Drop_expiry && !arms land 1 = 0) then
            (* the deadline is relative to the event's own time: a
               stimulus at [at] fires while the wheel still sits at
               [at - 1] (the tie rule), so fold the lag into [after];
               expiry callbacks run with the wheel at their tick and
               the correction is zero *)
            Wheel.arm w ~key:0
              ~after:(time - Wheel.now w + Step.timer_after_ms tw)
              ~ev:(Step.timer_event tw)
        end
        else if tw = Step.timer_cancel then ignore (Wheel.cancel w 0)
      end
    in
    let fire_cb ~key:_ ~ev = fire (Wheel.now w) ev in
    List.iter
      (fun (at, ev) ->
        if at > 0 then ignore (Wheel.advance w ~now:(at - 1) fire_cb);
        fire at ev)
      trace;
    ignore (Wheel.advance w ~now:horizon fire_cb);
    (inst, List.rev !log)

  let run_ref t trace ~horizon =
    let plan = t.tm_plan in
    let inst = Step.instance plan in
    let eng = Sim.Engine.create () in
    let log = ref [] in
    let pending_ev = ref (-1) in
    let tmr = ref None in
    let rec fire ev =
      let time = int_of_float (Sim.Engine.now eng) in
      let v = Step.fire_id inst ev in
      log := entry plan inst time ev v :: !log;
      if v = Step.Fired then begin
        let tw = Step.timer_word plan (Step.last_transition inst) in
        if tw > 0 then begin
          pending_ev := Step.timer_event tw;
          timer_start (float_of_int (Step.timer_after_ms tw))
        end
        else if tw = Step.timer_cancel then Sim.Timer.stop (timer ())
      end
    and timer () =
      match !tmr with
      | Some tm -> tm
      | None ->
        let tm = Sim.Timer.create eng ~on_expiry:(fun () -> fire !pending_ev) in
        tmr := Some tm;
        tm
    and timer_start after = Sim.Timer.start (timer ()) ~after in
    List.iter
      (fun (at, ev) ->
        ignore
          (Sim.Engine.schedule_at eng ~time:(float_of_int at) (fun () ->
               fire ev)))
      trace;
    ignore (Sim.Engine.run ~until:(float_of_int horizon) eng);
    (inst, List.rev !log)

  let final plan inst =
    let buf = Buffer.create 32 in
    Buffer.add_string buf (Step.state_name_of inst);
    for r = 0 to Step.n_registers plan - 1 do
      Buffer.add_string buf
        (Printf.sprintf " %s=%d" (Step.register_name plan r)
           (Step.register inst r))
    done;
    Buffer.contents buf

  let check_inner t ?(horizon_ms = 4096) trace =
    let trace =
      List.stable_sort (fun (a, _) (b, _) -> compare a b) trace
      |> List.map (fun (at, name) ->
             if at < 0 then invalid_arg "Oracle.Timers.check: negative time";
             let ev = Step.event_id t.tm_plan name in
             if ev < 0 then
               invalid_arg
                 (Printf.sprintf "Oracle.Timers.check: unknown event %S" name);
             (at, ev))
    in
    let horizon =
      List.fold_left (fun acc (at, _) -> max acc at) 0 trace + horizon_ms
    in
    let inst_live, log_live = run_live t trace ~horizon in
    let inst_ref, log_ref = run_ref t trace ~horizon in
    let rec diff i a b =
      match (a, b) with
      | [], [] ->
        let fl = final t.tm_plan inst_live and fr = final t.tm_plan inst_ref in
        if String.equal fl fr then Ok ()
        else
          fail "timers" "final configurations diverged\nwheel: %s\nsim:   %s" fl
            fr
      | x :: a', y :: b' when String.equal x y -> diff (i + 1) a' b'
      | a, b ->
        let head = function [] -> "<nothing>" | x :: _ -> x in
        fail "timers"
          "step-with-wheel and simulator diverged at event #%d\nwheel: %s\nsim:   %s"
          i (head a) (head b)
    in
    diff 0 log_live log_ref

  let check ?horizon_ms t trace =
    t.tm_checked <- t.tm_checked + 1;
    match check_inner t ?horizon_ms trace with
    | exception (Invalid_argument _ as e) -> raise e
    | exception e ->
      fail "crash" "exception escaped the timer leg: %s" (Printexc.to_string e)
    | r -> r
end
