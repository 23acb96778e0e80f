(** The netdsl umbrella: one module exposing the whole toolchain.

    The paper's position is that packet syntax, protocol behaviour,
    verification and execution should live in {e one} framework; this
    module is that single surface.  Examples and applications normally
    need nothing but [open Netdsl] (or qualified [Netdsl.Codec.decode]).

    {2 Map}

    - packet descriptions: {!Desc}, {!Value}, {!Codec} (the reference
      decoder and the one whole-message encoder), {!Emit} (in-place
      field patches with incremental checksums), {!Wf}, {!Sizing},
      {!Diagram}, {!Gen}, {!Stack} (layered parse graphs compiled to one
      fused decode plan), {!Bpf} (fixed-offset wire checks compiled to a
      kernel socket filter)
    - behaviour: {!Machine}, {!Analysis}, {!Compose}, {!Model_check},
      {!Testgen}, {!Interp}, {!Step} (compiled execution plans), {!Dot}
    - correct-by-construction layer (the paper's §3.4 with OCaml types):
      {!Checked}, {!Send_machine}, {!Recv_machine}
    - packet-processing runtime: {!Engine} (compiled {!View} decode,
      batched pipeline, flow table and timer wheel, per-stage counters)
    - socket front end: {!Net} (UDP/TCP listeners draining straight into
      the engine's slab, per-listener wire counters; multicore as
      [SO_REUSEPORT] workers the kernel steers by flow key)
    - fuzzing + differential testing: {!Check} (structure-aware wire
      mutation, the reference executor [Check.Reference] that restates
      the engine's semantics without its code, an oracle diffing the
      compiled plans, Pipelines and kernel pre-filter against Codec and
      that reference, Step-vs-Interp trace lock-step, a loopback soak
      harness, shrinking, committable repro reports)
    - simulation substrate: {!Sim_engine}, {!Channel}, {!Timer}, {!Trace},
      {!Stats}
    - executable protocols: {!Stop_and_wait}, {!Go_back_n},
      {!Selective_repeat}, {!Harness}, {!Rto}, {!Abp}, {!Arq_fsm},
      {!Machines} (their first-class guarded-FSM control planes)
    - adaptation and uncertainty: {!Fuzzy}, {!Rate_control},
      {!Loss_classifier}, {!Trust}
    - ready-made formats: {!Formats} (IPv4, UDP, TCP, ICMP, Ethernet, ARP,
      DNS, TLV and the paper's ARQ packet)
    - the textual DSL: {!Lang} (lexer, parser/elaborator, code generator)
    - plumbing: {!Prng}, {!Bitio}, {!Checksum}, {!Hexdump} *)

(* Plumbing *)
module Prng = Netdsl_util.Prng
module Bitio = Netdsl_util.Bitio
module Checksum = Netdsl_util.Checksum
module Hexdump = Netdsl_util.Hexdump

(* Packet-format DSL *)
module Desc = Netdsl_format.Desc
module Value = Netdsl_format.Value
module Codec = Netdsl_format.Codec
module View = Netdsl_format.View
module Emit = Netdsl_format.Emit
module Wf = Netdsl_format.Wf
module Sizing = Netdsl_format.Sizing
module Diagram = Netdsl_format.Diagram
module Gen = Netdsl_format.Gen
module Framer = Netdsl_format.Framer
module Abnf = Netdsl_format.Abnf
module Stack = Netdsl_format.Stack
module Bpf = Netdsl_format.Bpf

(* State-machine DSL *)
module Machine = Netdsl_fsm.Machine
module Analysis = Netdsl_fsm.Analysis
module Compose = Netdsl_fsm.Compose
module Model_check = Netdsl_fsm.Model_check
module Testgen = Netdsl_fsm.Testgen
module Interp = Netdsl_fsm.Interp
module Step = Netdsl_fsm.Step
module Dot = Netdsl_fsm.Dot
module Equiv = Netdsl_fsm.Equiv

(* Typed (correct-by-construction) layer *)
module Checked = Netdsl_typed.Checked
module Send_machine = Netdsl_typed.Send_machine
module Recv_machine = Netdsl_typed.Recv_machine

(* Packet-processing runtime *)
module Engine = Netdsl_engine

(* Socket front end: real traffic through the engine *)
module Net = Netdsl_net

(* Fuzzing + differential testing harness *)
module Check = Netdsl_check

(* Simulation substrate *)
module Sim_engine = Netdsl_sim.Engine
module Channel = Netdsl_sim.Channel
module Timer = Netdsl_sim.Timer
module Trace = Netdsl_sim.Trace
module Stats = Netdsl_sim.Stats
module Network = Netdsl_sim.Network
module Ladder = Netdsl_sim.Ladder

(* Protocols *)
module Rto = Netdsl_proto.Rto
module Seqspace = Netdsl_proto.Seqspace
module Stop_and_wait = Netdsl_proto.Stop_and_wait
module Go_back_n = Netdsl_proto.Go_back_n
module Selective_repeat = Netdsl_proto.Selective_repeat
module Harness = Netdsl_proto.Harness
module Abp = Netdsl_proto.Abp
module Relay = Netdsl_proto.Relay
module Arq_fsm = Netdsl_proto.Arq_fsm
module Machines = Netdsl_proto.Machines

(* Adaptation *)
module Fuzzy = Netdsl_adapt.Fuzzy
module Rate_control = Netdsl_adapt.Rate_control
module Loss_classifier = Netdsl_adapt.Loss_classifier
module Trust = Netdsl_adapt.Trust

(* Formats and the textual language *)
module Formats = Netdsl_formats
module Lang = Netdsl_lang
