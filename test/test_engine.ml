(* The packet-processing engine: the slab batch window, per-stage stats,
   the batched pipeline over compiled plans, and per-worker pipelines
   under the kernel's flow-key steering. *)

open Netdsl_engine
module Fm = Netdsl_formats
module Prng = Netdsl_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Keymap *)

(* Keys whose Fibonacci products are 0, 1, 2, ...: [i * C^-1], with the
   inverse of the map's (odd) multiplier mod 2^63 by Newton's iteration.
   Every one homes in bucket 0, whatever the map's size. *)
let colliding_keys n =
  let c = 0x2545F4914F6CDD1D in
  let inv = ref c in
  for _ = 1 to 6 do
    inv := !inv * (2 - (c * !inv))
  done;
  Array.init n (fun i -> i * !inv)

let keymap_matches_model () =
  (* PRNG-driven add/remove against Hashtbl.  The colliding keys share
     one home bucket, so probe chains are long and wrap the bucket array;
     every key is looked up after every operation, so a backward shift
     that strands an entry behind a hole shows up at once *)
  let m = Keymap.create 8 in
  let model = Hashtbl.create 64 in
  let domain = Array.append [| min_int; max_int; -1 |] (colliding_keys 61) in
  let rng = Prng.of_int 7 in
  for _ = 1 to 4000 do
    let k = domain.(Prng.int rng (Array.length domain)) in
    (match Hashtbl.find_opt model k with
    | Some v ->
      check_int "remove returns the bound value" v (Keymap.remove m k);
      Hashtbl.remove model k
    | None ->
      check_int "remove of an unbound key" (-1) (Keymap.remove m k);
      let v = Prng.int rng 1000 in
      Keymap.add m k v;
      Hashtbl.replace model k v);
    check_int "length" (Hashtbl.length model) (Keymap.length m);
    Array.iter
      (fun k ->
        check_int "find"
          (Option.value (Hashtbl.find_opt model k) ~default:(-1))
          (Keymap.find m k))
      domain
  done

(* Hash flooding: keys chosen to agree in their low bits (multiples of
   2^13, more than the 4096-bucket map's index width) must still spread,
   because a key's home comes from the high bits of its product. *)
let keymap_flood_spreads () =
  let m = Keymap.create 8 in
  for i = 1 to 3000 do
    Keymap.add m (i lsl 13) i
  done;
  let d = Keymap.For_testing.max_displacement m in
  check_bool (Printf.sprintf "max displacement %d <= 16" d) true (d <= 16);
  for i = 1 to 3000 do
    check_int "found" i (Keymap.find m (i lsl 13))
  done

let keymap_churn_allocates_nothing () =
  (* deletes leave no tombstones, so churn at a steady population never
     rehashes *)
  let m = Keymap.create 1024 in
  for k = 0 to 599 do
    Keymap.add m k k
  done;
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  for k = 600 to 100_599 do
    ignore (Keymap.remove m (k - 600));
    Keymap.add m k k
  done;
  let bytes = Gc.allocated_bytes () -. a0 in
  check_bool (Printf.sprintf "100k delete+insert allocate %.0f B" bytes) true
    (bytes < 1024.);
  for k = 100_000 to 100_599 do
    check_int "survivor found" k (Keymap.find m k)
  done;
  check_int "old key gone" (-1) (Keymap.find m 99_999)

(* ------------------------------------------------------------------ *)
(* Slab *)

let slab_contents s n = List.init n (fun i -> Bytes.sub_string (Slab.buf s i) 0 (Slab.len s i))

let fill_slab = Testutil.fill_slab

let slab_fifo_wraparound () =
  (* PRNG-driven fill/pop against a queue model, forcing the ring to wrap
     many times over a small capacity. *)
  let s = Slab.create ~slot_bytes:32 ~capacity:4 () in
  let rng = Prng.of_int 42 in
  let model = Queue.create () in
  let fed = ref 0 in
  for _ = 1 to 300 do
    let free = Slab.capacity s - Slab.length s in
    let pushes = Prng.int rng (free + 1) in
    let pkts =
      Array.init pushes (fun _ ->
          incr fed;
          let pkt = Printf.sprintf "pkt-%d-%s" !fed (String.make (Prng.int rng 16) 'x') in
          Queue.push pkt model;
          pkt)
    in
    check_int "all published" pushes (fill_slab s pkts);
    if Slab.length s > 0 then begin
      let n = Slab.pop_batch s ~max:(1 + Prng.int rng 4) in
      List.iter
        (fun got ->
          let want = Queue.pop model in
          Alcotest.(check string) "fifo across wrap" want got)
        (slab_contents s n);
      Slab.release s
    end
  done

let slab_batch_across_seam () =
  (* A run of published slots that crosses the wrap seam must pop as one
     whole, ordered batch. *)
  let s = Slab.create ~slot_bytes:8 ~capacity:4 () in
  ignore (fill_slab s [| "a"; "b" |]);
  let n = Slab.pop_batch s ~max:4 in
  check_int "warmup drained" 2 n;
  Slab.release s;
  (* tail is now at slot 2: 4 packets occupy slots 2,3,0,1 (two leases,
     since a lease never wraps) *)
  check_int "all published" 4 (fill_slab s [| "c"; "d"; "e"; "f" |]);
  check_int "full" 4 (Slab.length s);
  let n = Slab.pop_batch s ~max:8 in
  check_int "whole run" 4 n;
  check_bool "ordered across seam" true
    (slab_contents s n = [ "c"; "d"; "e"; "f" ]);
  Slab.release s

let slab_empty_pops_zero () =
  (* nothing published: pop_batch returns at once with 0, and there is
     no batch to release; a leased but unpublished run is not poppable *)
  let s = Slab.create ~slot_bytes:8 ~capacity:4 () in
  check_int "empty pops 0" 0 (Slab.pop_batch s ~max:4);
  (try
     Slab.release s;
     Alcotest.fail "release after an empty pop allowed"
   with Invalid_argument _ -> ());
  check_int "leased" 4 (Slab.lease_run s ~max:4);
  check_int "a lease is not published" 0 (Slab.pop_batch s ~max:4);
  Slab.publish_run s ~n:0;
  (* and the slab keeps working afterwards *)
  ignore (fill_slab s [| "x" |]);
  let n = Slab.pop_batch s ~max:4 in
  check_bool "then pops what was published" true (slab_contents s n = [ "x" ]);
  Slab.release s;
  check_int "drained pops 0 again" 0 (Slab.pop_batch s ~max:4)

let slab_lease_discipline () =
  let s = Slab.create ~slot_bytes:16 ~capacity:2 () in
  (* bad counts are caller bugs *)
  (try
     ignore (Slab.lease_run s ~max:0);
     Alcotest.fail "lease_run ~max:0 allowed"
   with Invalid_argument _ -> ());
  (try
     ignore (Slab.pop_batch s ~max:0);
     Alcotest.fail "pop_batch ~max:0 allowed"
   with Invalid_argument _ -> ());
  (try
     Slab.publish_run s ~n:0;
     Alcotest.fail "publish without a lease allowed"
   with Invalid_argument _ -> ());
  ignore (fill_slab s [| "hello" |]);
  check_int "only the published slot" 1 (Slab.length s);
  let n = Slab.pop_batch s ~max:4 in
  check_bool "filled slot readable" true (slab_contents s n = [ "hello" ]);
  (try
     ignore (Slab.buf s 1);
     Alcotest.fail "slot outside the batch readable"
   with Invalid_argument _ -> ());
  (* consumer-side discipline: no second batch before release, no release
     without a batch *)
  (try
     ignore (Slab.pop_batch s ~max:1);
     Alcotest.fail "pop_batch with batch outstanding allowed"
   with Invalid_argument _ -> ());
  Slab.release s;
  (try
     Slab.release s;
     Alcotest.fail "double release allowed"
   with Invalid_argument _ -> ());
  (* oversized packets are a caller bug, not silent truncation *)
  (try
     ignore (fill_slab s [| String.make 17 'q' |]);
     Alcotest.fail "oversize packet published"
   with Invalid_argument _ -> ());
  check_int "nothing published by the refused packet" 0 (Slab.length s)

(* The contiguous-run lease behind the recvmmsg drain: lease a run,
   fill slots in place (lengths through [raw_lens], as the C stub
   does), publish the filled prefix. *)
let slab_lease_run () =
  let s = Slab.create ~slot_bytes:16 ~capacity:4 () in
  let k = Slab.lease_run s ~max:3 in
  check_int "run of 3" 3 k;
  let base = Slab.producer_slot s in
  check_int "run starts at the ring head" 0 base;
  let bufs = Slab.raw_bufs s and lens = Slab.raw_lens s in
  Bytes.blit_string "aa" 0 bufs.(base) 0 2;
  lens.(base) <- 2;
  Bytes.blit_string "bbb" 0 bufs.(base + 1) 0 3;
  lens.(base + 1) <- 3;
  (* the run is one lease: a second lease must refuse *)
  (try
     ignore (Slab.lease_run s ~max:1);
     Alcotest.fail "lease over an outstanding run allowed"
   with Invalid_argument _ -> ());
  (* a short syscall publishes only the filled prefix *)
  Slab.publish_run s ~n:2;
  check_int "published prefix only" 2 (Slab.length s);
  let n = Slab.pop_batch s ~max:4 in
  check_bool "filled in place" true (slab_contents s n = [ "aa"; "bbb" ]);
  (* batch_slot maps a consumer batch index to its absolute slot (the
     sidecar-state key: source addresses are filed by slot) *)
  check_int "batch_slot 0" 0 (Slab.batch_slot s 0);
  check_int "batch_slot 1" 1 (Slab.batch_slot s 1);
  Slab.release s;
  (* the run never wraps the ring seam: tail is at 2 of 4, so a max-4
     ask clips to the 2 seam slots even though 4 are free *)
  let k = Slab.lease_run s ~max:4 in
  check_int "clipped at the seam" 2 k;
  check_int "producer slot after the seam clip" 2 (Slab.producer_slot s);
  (* publishing beyond the run refuses — and drops the lease, so the
     ring stays usable after the caller bug *)
  (try
     Slab.publish_run s ~n:3;
     Alcotest.fail "publishing beyond the run allowed"
   with Invalid_argument _ -> ());
  (* publishing 0 abandons the run *)
  let k = Slab.lease_run s ~max:4 in
  check_int "re-leased after the refused publish" 2 k;
  Slab.publish_run s ~n:0;
  check_int "nothing published" 0 (Slab.length s);
  (* an oversize kernel length is a stub bug, not silent corruption *)
  let k = Slab.lease_run s ~max:1 in
  check_int "one slot" 1 k;
  lens.(Slab.producer_slot s) <- 99;
  (try
     Slab.publish_run s ~n:1;
     Alcotest.fail "oversize slot length allowed"
   with Invalid_argument _ -> ());
  (* the failed publish dropped the lease: nothing landed, ring usable *)
  check_int "nothing published by the refused run" 0 (Slab.length s);
  (* fill the ring through run leases; a full ring leases nothing *)
  let fill () =
    let k = Slab.lease_run s ~max:4 in
    for i = 0 to k - 1 do
      lens.(Slab.producer_slot s + i) <- 1
    done;
    Slab.publish_run s ~n:k;
    k
  in
  check_int "seam half" 2 (fill ());
  check_int "second half" 2 (fill ());
  check_int "full ring leases nothing" 0 (Slab.lease_run s ~max:4)

let slab_full_refuses_until_release () =
  (* the one-owner form of backpressure: a full ring takes nothing more,
     the filler learns where it stopped, and a released batch makes room
     for exactly what it freed, order kept *)
  let s = Slab.create ~slot_bytes:8 ~capacity:4 () in
  let pkts = [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  check_int "stops at the first packet that does not fit" 4 (fill_slab s pkts);
  check_int "full" 4 (Slab.length s);
  check_int "full ring leases nothing" 0 (Slab.lease_run s ~max:1);
  let n = Slab.pop_batch s ~max:2 in
  check_bool "oldest first" true (slab_contents s n = [ "a"; "b" ]);
  check_int "a popped batch still holds its slots" 0 (Slab.lease_run s ~max:1);
  Slab.release s;
  check_int "resumes where it stopped" 6 (fill_slab ~from:4 s pkts);
  check_int "full again" 4 (Slab.length s);
  let n = Slab.pop_batch s ~max:8 in
  check_bool "the rest, in order" true (slab_contents s n = [ "c"; "d"; "e"; "f" ]);
  Slab.release s

let slab_positions_cycle () =
  (* fill and drain two packets per round over three slots: the rounds
     walk the ring, filling across the seam in two leases yet popping
     each round whole, every slot is reused evenly, and [batch_slot] is
     always the packet's position modulo the capacity *)
  let s = Slab.create ~slot_bytes:8 ~capacity:3 () in
  let seen = Array.make 3 0 in
  for round = 0 to 29 do
    let pkts = [| Printf.sprintf "r%d" round; Printf.sprintf "s%d" round |] in
    check_int "both published" 2 (fill_slab s pkts);
    let n = Slab.pop_batch s ~max:2 in
    check_int "the round pops whole" 2 n;
    check_bool "in order" true (slab_contents s n = Array.to_list pkts);
    for i = 0 to n - 1 do
      let slot = Slab.batch_slot s i in
      check_int "position modulo capacity" (((2 * round) + i) mod 3) slot;
      seen.(slot) <- seen.(slot) + 1
    done;
    Slab.release s;
    check_int "drained" 0 (Slab.length s)
  done;
  check_bool "every slot reused evenly" true (Array.for_all (fun c -> c = 20) seen)

let slab_pop_max_splits () =
  (* a serve pass pops [batch] slots at a time: a smaller max takes a
     prefix, and the remainder pops next *)
  let s = Slab.create ~slot_bytes:8 ~capacity:8 () in
  check_int "published" 5 (fill_slab s [| "a"; "b"; "c"; "d"; "e" |]);
  let take max want =
    let n = Slab.pop_batch s ~max in
    check_bool (Printf.sprintf "pop ~max:%d" max) true (slab_contents s n = want);
    Slab.release s
  in
  take 2 [ "a"; "b" ];
  check_int "remainder in flight" 3 (Slab.length s);
  take 2 [ "c"; "d" ];
  take 8 [ "e" ];
  check_int "empty" 0 (Slab.pop_batch s ~max:8)

let slab_create_refuses_bad_sizes () =
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s allowed" what
  in
  refused "capacity 0" (fun () -> Slab.create ~capacity:0 ());
  refused "negative capacity" (fun () -> Slab.create ~capacity:(-1) ());
  refused "slot_bytes 0" (fun () -> Slab.create ~slot_bytes:0 ~capacity:4 ());
  let s = Slab.create ~slot_bytes:1 ~capacity:1 () in
  check_int "capacity" 1 (Slab.capacity s);
  check_int "slot bytes" 1 (Slab.slot_bytes s);
  check_int "one-byte slot holds a byte" 1 (fill_slab s [| "z" |])

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats_counters () =
  let s = Stats.create [ "a"; "b" ] in
  let ia = Stats.stage_index s "a" and ib = Stats.stage_index s "b" in
  Stats.record s ia ~bytes:100 ~ns:500;
  Stats.record s ia ~bytes:50 ~ns:1500;
  Stats.reject s ib ~bytes:10;
  check_int "a packets" 2 (Stats.stage_packets s ia);
  check_int "a bytes" 150 (Stats.stage_bytes s ia);
  check_int "b rejects" 1 (Stats.stage_rejects s ib);
  check_int "a mean" 1000 (Stats.stage_mean_ns s ia);
  (* [packets] counts every packet seen at a stage; rejects are a subset *)
  let p, b, rj = Stats.totals s in
  check_int "total packets" 3 p;
  check_int "total bytes" 160 b;
  check_int "total rejects" 1 rj

let stats_merge () =
  let a = Stats.create [ "x" ] and b = Stats.create [ "x" ] in
  Stats.record a 0 ~bytes:10 ~ns:100;
  Stats.record b 0 ~bytes:20 ~ns:300;
  Stats.merge_into ~into:a b;
  check_int "merged packets" 2 (Stats.stage_packets a 0);
  check_int "merged bytes" 30 (Stats.stage_bytes a 0);
  check_int "merged mean" 200 (Stats.stage_mean_ns a 0)

let stats_batch () =
  let s = Stats.create [ "x" ] in
  Stats.record_batch s 0 ~packets:10 ~bytes:1000 ~rejects:2 ~elapsed_ns:5000;
  check_int "batch packets" 10 (Stats.stage_packets s 0);
  check_int "batch rejects" 2 (Stats.stage_rejects s 0);
  (* to_text must render without raising *)
  check_bool "text" true (String.length (Stats.to_text s) > 0)

let stats_warnings () =
  let a = Stats.create [ "x" ] and b = Stats.create [ "x" ] in
  Stats.note_warning a "w1";
  Stats.note_warning a "w1" (* duplicates collapse *);
  Stats.note_warning b "w2";
  Stats.merge_into ~into:a b;
  check_bool "union survives merge" true (Stats.warnings a = [ "w1"; "w2" ]);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "rendered" true (contains (Stats.to_text a) "w1");
  let m = Stats.merge [ a; b ] in
  check_bool "merge list" true (Stats.warnings m = [ "w1"; "w2" ])

let stats_clamp_workers () =
  let cores = Domain.recommended_domain_count () in
  let clamp = Stats.clamp_workers in
  check_bool "one worker never warns" true
    (clamp ~allow_oversubscribe:false 1 = (1, None));
  check_bool "a worker per core never warns" true
    (clamp ~allow_oversubscribe:false cores = (cores, None));
  (match clamp ~allow_oversubscribe:false (cores + 2) with
  | n, Some _ -> check_int "clamped to the cores" cores n
  | _, None -> Alcotest.fail "clamp without a warning");
  match clamp ~allow_oversubscribe:true (cores + 2) with
  | n, Some w ->
    check_int "opt-in keeps the count" (cores + 2) n;
    check_bool "the warning names the count" true
      (Testutil.contains w (string_of_int (cores + 2)))
  | _, None -> Alcotest.fail "oversubscription without a warning"

let stats_merge_sums_evictions () =
  (* a multi-worker server's totals: evictions sum like the stage
     counters, and the aggregate is fresh, leaving every worker's own
     counters as they were *)
  let a = Stats.create [ "x" ] and b = Stats.create [ "x" ] in
  Stats.record a 0 ~bytes:10 ~ns:100;
  Stats.note_evicted_flow a;
  Stats.note_evicted_flow b;
  Stats.note_evicted_flow b;
  let m = Stats.merge [ a; b ] in
  check_int "evicted" 3 (Stats.evicted_flows m);
  check_int "packets" 1 (Stats.stage_packets m 0);
  Stats.note_evicted_flow m;
  check_int "first input untouched" 1 (Stats.evicted_flows a);
  check_int "second input untouched" 2 (Stats.evicted_flows b)

let stats_copy_is_a_snapshot () =
  let a = Stats.create [ "x"; "y" ] in
  Stats.record a 0 ~bytes:10 ~ns:100;
  Stats.note_evicted_flow a;
  let c = Stats.copy a in
  Stats.record a 0 ~bytes:10 ~ns:100;
  Stats.reject a 1 ~bytes:5;
  Stats.note_evicted_flow a;
  check_bool "same stages" true (Stats.stage_names c = [ "x"; "y" ]);
  check_int "copy keeps its packets" 1 (Stats.stage_packets c 0);
  check_int "copy keeps its rejects" 0 (Stats.stage_rejects c 1);
  check_int "copy keeps its evictions" 1 (Stats.evicted_flows c);
  check_int "original moved on" 2 (Stats.stage_packets a 0)

let stats_merge_refusals () =
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s allowed" what
  in
  refused "merge of no counters" (fun () -> Stats.merge []);
  refused "different stage counts" (fun () ->
      Stats.merge_into ~into:(Stats.create [ "x" ]) (Stats.create [ "x"; "y" ]));
  refused "different stage names" (fun () ->
      Stats.merge_into ~into:(Stats.create [ "x" ]) (Stats.create [ "y" ]))

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let arq_data ~seq payload = Fm.Arq.to_bytes (Fm.Arq.Data { seq; payload })

let kind_is n = Flight.Cmp (Flight.Eq, Flight.Field "kind", Flight.Const n)

(* A classify rule sending every packet to event [name]. *)
let always name = { Flight.ev_when = Flight.All []; ev_name = name }

(* The in-place ACK: a data packet answered with its own bytes, kind
   rewritten to ack (checksum updated incrementally). *)
let ack_data =
  { Flight.re_when = kind_is 0L;
    re_set = [ { Flight.set_field = "kind"; set_to = Flight.Const 1L } ] }

(* The ARQ responder as a flight spec: classify data packets to the "ok"
   event, key flows by seq, answer data with an in-place kind:=ack patch. *)
let arq_flight =
  Flight.spec
    ~verify:(Flight.Cmp (Flight.Lt, Flight.Field "seq", Flight.Const 256L))
    ~classify:[ { Flight.ev_when = kind_is 0L; ev_name = "ok" } ]
    ~flow_key:"seq" ~respond:[ ack_data ] ()

let outcome_tag = Testutil.outcome_tag

let pipeline_accepts_and_rejects () =
  let p = Pipeline.create Fm.Arq.format in
  let good = arq_data ~seq:1 "hello" in
  check_bool "accept" true (Pipeline.process p good = Pipeline.Accepted);
  let corrupt = Bytes.of_string good in
  Bytes.set corrupt 4 (Char.chr (Char.code (Bytes.get corrupt 4) lxor 0xFF));
  (match Pipeline.process p (Bytes.to_string corrupt) with
  | Pipeline.Rejected_decode _ -> ()
  | _ -> Alcotest.fail "corrupt packet not rejected at decode");
  let s = Pipeline.stats p in
  let d = Stats.stage_index s "decode" in
  check_int "decode packets" 2 (Stats.stage_packets s d);
  check_int "decode rejects" 1 (Stats.stage_rejects s d)

let pipeline_verify_stage () =
  let tw =
    Testutil.twin
      ~flight:
        (Flight.spec
           ~verify:(Flight.Cmp (Flight.Ne, Flight.Field "seq", Flight.Const 13L))
           ())
      Fm.Arq.format
  in
  check_bool "passes" true (Testutil.process tw (arq_data ~seq:1 "x") = Accepted);
  check_bool "vetoed" true (Testutil.process tw (arq_data ~seq:13 "x") = Rejected_verify);
  let s = Pipeline.stats tw.pipe in
  check_int "verify rejects" 1 (Stats.stage_rejects s (Stats.stage_index s "verify"));
  Testutil.finish tw

let pipeline_machine_flows () =
  (* The ARQ receiver machine accepts any data packet ("ok" event); with a
     flow key each seq value gets its own machine instance. *)
  let machine = Netdsl_proto.Arq_fsm.receiver ~seq_bits:8 in
  let tw =
    Testutil.twin
      ~flight:(Flight.spec ~classify:[ always "ok" ] ~flow_key:"seq" ())
      ~machine Fm.Arq.format
  in
  for seq = 0 to 4 do
    check_bool "stepped" true (Testutil.process tw (arq_data ~seq "d") = Accepted)
  done;
  check_int "one machine per flow" 5 (Pipeline.flow_count tw.pipe);
  (* a batch over 64 flows: every packet counted at decode, none rejected *)
  let batch = Array.init 64 (fun seq -> arq_data ~seq (String.make 256 'x')) in
  Testutil.process_batch tw batch 64;
  let st = Pipeline.stats tw.pipe in
  check_int "decode counts every packet" 69 (Stats.stage_packets st 0);
  let _, _, rejects = Stats.totals st in
  check_int "no stage rejects" 0 rejects;
  Testutil.finish tw

let pipeline_batch_matches_singles () =
  let rng = Prng.of_int 5 in
  let n = 200 in
  let pkts =
    Array.init n (fun i ->
        let good = arq_data ~seq:(i land 0xFF) "payload" in
        if i mod 3 = 0 then Netdsl_format.Gen.mutate rng ~flips:4 good else good)
  in
  let p1 = Pipeline.create Fm.Arq.format in
  Array.iter (fun pkt -> ignore (Pipeline.process p1 pkt)) pkts;
  let p2 =
    Pipeline.create
      ~config:{ Pipeline.default_config with batch = 64; ring_capacity = 64 }
      Fm.Arq.format
  in
  let i = ref 0 in
  while !i < n do
    let take = min 64 (n - !i) in
    Pipeline.process_batch p2 (Array.sub pkts !i take) take;
    i := !i + take
  done;
  let s1 = Pipeline.stats p1 and s2 = Pipeline.stats p2 in
  List.iteri
    (fun idx name ->
      check_int (name ^ " packets equal") (Stats.stage_packets s1 idx)
        (Stats.stage_packets s2 idx);
      check_int (name ^ " rejects equal") (Stats.stage_rejects s1 idx)
        (Stats.stage_rejects s2 idx))
    Pipeline.stage_names

(* Feed [pkts] to [p] through a test-owned slab, as a serve loop does:
   fill the slab until it is full, drain it in whole-batch slot runs
   through [process_slab_batch], repeat. *)
let run_through_slab p slab pkts =
  let next = ref 0 in
  while !next < Array.length pkts do
    next := Testutil.fill_slab ~from:!next slab pkts;
    while Slab.length slab > 0 do
      let n = Slab.pop_batch slab ~max:Pipeline.default_config.batch in
      Pipeline.process_slab_batch p slab ~n;
      Slab.release slab
    done
  done

let pipeline_slab_driven () =
  (* a slab smaller than the traffic: it fills and drains several times *)
  let p = Pipeline.create Fm.Arq.format in
  let slab = Slab.create ~capacity:128 () in
  run_through_slab p slab
    (Array.init 500 (fun i -> arq_data ~seq:((i + 1) land 0xFF) "zz"));
  let s = Pipeline.stats p in
  check_int "all decoded" 500 (Stats.stage_packets s (Stats.stage_index s "decode"))

let pipeline_responder () =
  (* The whole ARQ responder spec over one batch: every data packet is
     answered with the matching Ack, filed against its window index; acks
     in the batch go unanswered. *)
  let pkts =
    Array.init 12 (fun i ->
        if i mod 4 = 3 then Fm.Arq.to_bytes (Fm.Arq.Ack { seq = i })
        else arq_data ~seq:i "pp")
  in
  let acks = ref [] in
  let tw =
    Testutil.twin ~flight:arq_flight
      ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
      ~on_reply_slot:(fun i buf len -> acks := (i, Bytes.sub_string buf 0 len) :: !acks)
      Fm.Arq.format
  in
  Testutil.process_batch tw pkts (Array.length pkts);
  let acks = List.rev !acks in
  check_int "one ack per data packet" 9 (List.length acks);
  List.iter
    (fun (i, reply) ->
      check_bool "answers a data packet" true (i >= 0 && i mod 4 <> 3);
      match Fm.Arq.of_bytes reply with
      | Ok (Fm.Arq.Ack { seq }) -> check_int "ack seq" i seq
      | Ok _ -> Alcotest.fail "expected an ack"
      | Error e -> Alcotest.failf "ack does not decode: %s" e)
    acks;
  Testutil.finish tw

let pipeline_patch_responder () =
  (* The in-place responder: answer each data packet by flipping its kind
     field to Ack and truncating nothing — the reply must decode as the
     request with only kind changed. *)
  (let acks = ref [] in
   let tw =
     Testutil.twin
       ~flight:(Flight.spec ~classify:[ always "ok" ] ~respond:[ ack_data ] ())
       ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
       ~on_response:(fun s -> acks := s :: !acks)
       Fm.Arq.format
   in
      check_bool "data accepted" true
        (Testutil.process tw (arq_data ~seq:7 "pp") = Accepted);
      check_bool "ack passes through unanswered" true
        (Testutil.process tw (Fm.Arq.to_bytes (Fm.Arq.Ack { seq = 3 })) = Accepted);
      check_int "one ack" 1 (List.length !acks);
      (let module V = Netdsl_format.Value in
       match Netdsl_format.Codec.decode Fm.Arq.format (List.hd !acks) with
       | Ok reply ->
         check_int "reply kind" 1 (V.get_int reply "kind");
         check_int "reply seq" 7 (V.get_int reply "seq");
         Alcotest.(check string) "payload kept" "pp" (V.get_bytes reply "payload")
       | Error e ->
         Alcotest.failf "patched reply does not decode: %s"
           (Netdsl_format.Codec.error_to_string e));
      Testutil.finish tw);
  (* an unpatchable field is a clean encode-stage reject, not a crash *)
  let chk_zero =
    { Flight.re_when = Flight.All [];
      re_set = [ { Flight.set_field = "chk"; set_to = Flight.Const 0L } ] }
  in
  let tw =
    Testutil.twin
      ~flight:(Flight.spec ~classify:[ always "ok" ] ~respond:[ chk_zero ] ())
      ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
      Fm.Arq.format
  in
  check_bool "derived field rejected at encode" true
    (Testutil.process tw (arq_data ~seq:1 "x") = Rejected_encode);
  Testutil.finish tw

let pipeline_flow_eviction () =
  (* max_flows bounds the table and eviction is oldest-idle: with room for
     3 flows, touching flow 0 must protect it from the next eviction. *)
  let machine = Netdsl_proto.Arq_fsm.receiver ~seq_bits:8 in
  let tw =
    Testutil.twin
      ~config:{ Pipeline.default_config with max_flows = 3 }
      ~flight:(Flight.spec ~classify:[ always "ok" ] ~flow_key:"seq" ())
      ~machine Fm.Arq.format
  in
  let p = tw.pipe in
      let step seq =
        check_bool "stepped" true (Testutil.process tw (arq_data ~seq "d") = Accepted)
      in
      step 0; step 1; step 2;
      check_int "table full" 3 (Pipeline.flow_count p);
      check_int "nothing evicted yet" 0 (Stats.evicted_flows (Pipeline.stats p));
      step 0; (* touch: flow 0 becomes most recent, flow 1 the oldest idle *)
      step 3; (* must evict flow 1, not flow 0 *)
      check_int "still bounded" 3 (Pipeline.flow_count p);
      check_int "one eviction" 1 (Stats.evicted_flows (Pipeline.stats p));
      step 0; (* if LRU ignored the touch, flow 0 would be gone and this would
                 mint a new instance, evicting again *)
      check_int "touched flow survived" 1 (Stats.evicted_flows (Pipeline.stats p));
      Testutil.finish tw

let pipeline_eviction_churn () =
  (* Adversarial churn over a max_flows-sized table: 64 flows hammered
     through an 8-slot table, interleaved with malformed packets.  A
     reference LRU model predicts, for every accepted packet, the exact
     per-flow counter the machine instance must hold — so any of the three
     failure modes (eviction count drifting, a mutant touching the table,
     an evicted flow resuming from stale state instead of a fresh
     instance) shows up as a concrete mismatch. *)
  let module M = Netdsl_fsm.Machine in
  let module Step = Netdsl_fsm.Step in
  let max_flows = 8 and n_flows = 64 in
  let machine =
    M.machine ~name:"flow_counter" ~states:[ "s" ] ~events:[ "ok" ]
      ~registers:[ M.reg "n" ~init:0 ~domain:65536 ]
      ~initial:"s"
      [ M.trans ~label:"COUNT"
          ~actions:[ M.Assign ("n", M.Add (M.Reg "n", M.Int 1)) ]
          ~src:"s" ~event:"ok" ~dst:"s" () ]
  in
  let tw =
    Testutil.twin
      ~config:{ Pipeline.default_config with max_flows }
      ~flight:(Flight.spec ~classify:[ always "ok" ] ~flow_key:"seq" ())
      ~machine Fm.Arq.format
  in
  let p = tw.pipe in
      (* reference model: seq -> count, plus MRU-first recency order *)
      let counts = Hashtbl.create 16 in
      let order = ref [] in
      let evictions = ref 0 in
      let model_touch seq =
        match Hashtbl.find_opt counts seq with
        | Some c ->
          Hashtbl.replace counts seq (c + 1);
          order := seq :: List.filter (fun s -> s <> seq) !order;
          c + 1
        | None ->
          if Hashtbl.length counts = max_flows then begin
            match List.rev !order with
            | lru :: _ ->
              Hashtbl.remove counts lru;
              order := List.filter (fun s -> s <> lru) !order;
              incr evictions
            | [] -> assert false
          end;
          Hashtbl.replace counts seq 1;
          order := seq :: !order;
          1
      in
      let rng = Prng.of_int 20260806 in
      for i = 1 to 2000 do
        if Prng.int rng 4 = 0 then begin
          (* malformed packets must bounce at decode without touching flows *)
          match Testutil.process tw "\xff" with
          | Rejected_decode _ -> ()
          | _ -> Alcotest.fail "garbage survived decode"
        end
        else begin
          let seq =
            match Prng.int rng 3 with
            | 0 -> i mod n_flows (* sweep: steady eviction pressure *)
            | 1 -> Prng.int rng n_flows (* random revisits *)
            | _ -> Prng.int rng max_flows (* hot set that should stay resident *)
          in
          let expected = model_touch seq in
          check_bool "accepted" true
            (Testutil.process tw (arq_data ~seq "d") = Accepted);
          match Pipeline.peek_flow p seq with
          | None -> Alcotest.failf "flow %d not live after an accepted packet" seq
          | Some inst ->
            let got_n = Step.register_by_name inst "n" in
            if got_n <> expected then
              Alcotest.failf
                "flow %d: instance register %d, model %d — stale or lost \
                 state after %d evictions"
                seq got_n expected !evictions
        end
      done;
      check_int "table stayed bounded" max_flows (Pipeline.flow_count p);
      check_int "evictions match the model" !evictions
        (Stats.evicted_flows (Pipeline.stats p));
      check_int "live flows match the model" (Hashtbl.length counts)
        (Pipeline.flow_count p);
      Testutil.finish tw

let pipeline_classify_id_fast_path () =
  (* The id classifier: no matching rule = pass-through, a matching rule
     fires its interned event, and the opt-in hook sees the reconstructed
     transition. *)
  let machine = Netdsl_proto.Arq_fsm.receiver ~seq_bits:8 in
  (let labels = ref [] in
   let tw =
     Testutil.twin
       ~flight:
         (Flight.spec
            ~classify:[ { Flight.ev_when = kind_is 0L; ev_name = "ok" } ]
            ~flow_key:"seq" ())
       ~machine
       ~on_transition:(fun tr -> labels := tr.Netdsl_fsm.Machine.t_label :: !labels)
       Fm.Arq.format
   in
   check_bool "data fires" true (Testutil.process tw (arq_data ~seq:1 "x") = Accepted);
   check_bool "ack passes through" true
     (Testutil.process tw (Fm.Arq.to_bytes (Fm.Arq.Ack { seq = 1 })) = Accepted);
   check_int "one flow (ack passed through)" 1 (Pipeline.flow_count tw.pipe);
   check_bool "hook saw RECV" true (!labels = [ "RECV" ]);
   Testutil.finish tw);
  (* an event the machine does not know is refused at the step stage *)
  let tw =
    Testutil.twin ~flight:(Flight.spec ~classify:[ always "no_such_event" ] ()) ~machine
      Fm.Arq.format
  in
  check_bool "unknown event rejected" true
    (Testutil.process tw (arq_data ~seq:1 "x") = Rejected_step);
  Testutil.finish tw

(* ------------------------------------------------------------------ *)
(* Flight / fused mode *)

(* The lock-step property: one flight spec, the pipeline and the
   reference executor, identical mixed traffic — per-packet outcomes,
   reply bytes and every stage counter must agree exactly.  The ARQ mixed
   stream: a quarter acks, a quarter structure-aware mutants (mostly
   rejects, some accepts), the rest data frames with payloads under
   [max_payload] bytes, over the 256 sequence numbers as flows. *)
let arq_lockstep ?config ~seed ~max_payload n =
  let machine = Netdsl_proto.Arq_fsm.receiver ~seq_bits:8 in
  let tw = Testutil.twin ?config ~flight:arq_flight ~machine Fm.Arq.format in
  let rng = Prng.of_int seed in
  for i = 1 to n do
    let pkt =
      match Prng.int rng 4 with
      | 0 -> Fm.Arq.to_bytes (Fm.Arq.Ack { seq = i land 0xFF })
      | 1 -> Netdsl_format.Gen.mutate rng ~flips:2 (arq_data ~seq:(i land 0xFF) "mm")
      | _ -> arq_data ~seq:(i land 0xFF) (String.make (Prng.int rng max_payload) 'p')
    in
    ignore (Testutil.process tw pkt)
  done;
  check_bool "some replies" true (!(tw.Testutil.fused_replies) <> []);
  Testutil.finish tw;
  Stats.evicted_flows (Pipeline.stats tw.Testutil.pipe)

(* The stream at seed 20260806 with payloads under 64 B: 5 000 packets
   here, 50 000 in the [`Slow] case.  256 flows never fill the default table, so the stream also runs
   through a 64-flow table, where most data frames evict. *)
let e15_lockstep n =
  ignore (arq_lockstep ~seed:20260806 ~max_payload:64 n);
  let evicted =
    arq_lockstep
      ~config:{ Pipeline.default_config with max_flows = 64 }
      ~seed:20260806 ~max_payload:64 n
  in
  check_bool (Printf.sprintf "the 64-flow table evicts (%d)" evicted) true
    (evicted > n / 10)

let fused_matches_reference () =
  ignore (arq_lockstep ~seed:77 ~max_payload:20 1000);
  e15_lockstep 5_000

let fused_verify_and_passthrough () =
  (* Fused semantics corners: the verify cond vetoes, acks pass through
     the classifier without a response, and both land in the counters. *)
  let spec =
    Flight.spec
      ~verify:(Flight.Cmp (Flight.Ne, Flight.Field "seq", Flight.Const 13L))
      ~classify:
        [ { Flight.ev_when =
              Flight.Cmp (Flight.Eq, Flight.Field "kind", Flight.Const 0L);
            ev_name = "ok" } ]
      ~flow_key:"seq"
      ~respond:
        [ { Flight.re_when =
              Flight.Cmp (Flight.Eq, Flight.Field "kind", Flight.Const 0L);
            re_set = [ { Flight.set_field = "kind"; set_to = Flight.Const 1L } ] } ]
      ()
  in
  let replies = ref 0 in
  let p =
    Pipeline.create ~flight:spec
      ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
      ~on_response:(fun _ -> incr replies)
      Fm.Arq.format
  in
  check_bool "vetoed before any step" true
    (Pipeline.process p (arq_data ~seq:13 "x") = Pipeline.Rejected_verify);
  check_int "no flow minted for vetoed packet" 0 (Pipeline.flow_count p);
  check_int "no reply for vetoed packet" 0 !replies;
  check_bool "ack passes through" true
    (Pipeline.process p (Fm.Arq.to_bytes (Fm.Arq.Ack { seq = 2 })) = Accepted);
  check_int "pass-through does not respond" 0 !replies;
  check_bool "data responds" true
    (Pipeline.process p (arq_data ~seq:1 "x") = Accepted);
  check_int "one reply" 1 !replies

let fused_rejected_decode_error () =
  (* The compiled plan collapses decode errors to a verdict; [process] must
     still recover a faithful error for the one-packet API. *)
  let p = Pipeline.create ~flight:(Flight.spec ()) Fm.Arq.format in
  match Pipeline.process p "\xff" with
  | Pipeline.Rejected_decode _ -> ()
  | o -> Alcotest.failf "expected decode reject, got %s" (outcome_tag o)

(* ICMP's variant body compiles through the one-layer stack's variant
   flattening.  A responder stamping each echo request's code (checksum
   repaired incrementally) behind a verify predicate, fed valid packets
   and structure-aware mutants, must agree with the reference executor.
   (The variant tag icmp_type itself is not patchable: the body's case is
   derived from it.) *)
let icmp_echo_matches_reference () =
  let echo_flight =
    Flight.spec
      ~verify:(Flight.Cmp (Flight.Eq, Flight.Field "code", Flight.Const 0L))
      ~respond:
        [ { Flight.re_when =
              Flight.Cmp (Flight.Eq, Flight.Field "icmp_type", Flight.Const 8L);
            re_set = [ { Flight.set_field = "code"; set_to = Flight.Const 1L } ] } ]
      ()
  in
  let encode v = Netdsl_format.Codec.encode_exn Fm.Icmp.format v in
  let rng = Prng.of_int 23 in
  let mplan = Netdsl_check.Mutate.plan Fm.Icmp.format in
  let pkts =
    List.init 600 (fun i ->
        let id = Prng.int rng 0x10000 and data = String.make (Prng.int rng 24) 'e' in
        let request = encode (Fm.Icmp.echo_request ~id ~seq:i ~data) in
        match i mod 5 with
        | 0 -> encode (Fm.Icmp.echo_reply ~id ~seq:i ~data)
        | 1 | 2 ->
          Netdsl_check.Mutate.apply
            (Netdsl_check.Mutate.random mplan rng request)
            request
        | _ -> request)
  in
  let answered = ref 0 in
  (let replies = ref [] in
   let tw =
     Testutil.twin ~flight:echo_flight ~on_response:(fun s -> replies := s :: !replies)
       Fm.Icmp.format
   in
      List.iter (fun pkt -> ignore (Testutil.process tw pkt)) pkts;
      let s = Pipeline.stats tw.pipe in
      check_bool "some mutants rejected at decode" true
        (Stats.stage_rejects s (Stats.stage_index s "decode") > 0);
      List.iter
        (fun reply ->
          match Netdsl_format.Codec.decode Fm.Icmp.format reply with
          | Ok v ->
            check_int "reply is an echo request" 8
              (Netdsl_format.Value.get_int v "icmp_type");
            check_int "reply code stamped" 1 (Netdsl_format.Value.get_int v "code")
          | Error e ->
            Alcotest.failf "patched reply does not decode: %s"
              (Netdsl_format.Codec.error_to_string e))
        !replies;
      answered := List.length !replies;
      Testutil.finish tw);
  check_bool "echo requests answered" true (!answered >= 200)

(* Run [pkts] through the pipeline and the reference executor: per-packet
   outcomes, counters, flows and replies must agree, and the traffic must
   exercise both verdicts. *)
let lock_step ?machine ~flight fmt pkts =
  let tw = Testutil.twin ~flight ?machine fmt in
  let outcomes = List.map (fun pkt -> outcome_tag (Testutil.process tw pkt)) pkts in
  Testutil.finish tw;
  check_bool "some packets accepted" true (List.mem "accepted" outcomes);
  check_bool "some packets rejected at decode" true (List.mem "rejected_decode" outcomes)

(* Structure-aware mutants of [seeds], and every seed cut short. *)
let mutants fmt rng seeds =
  let plan = Netdsl_check.Mutate.plan fmt in
  List.concat_map
    (fun pkt ->
      List.init 8 (fun _ ->
          Netdsl_check.Mutate.apply (Netdsl_check.Mutate.random plan rng pkt) pkt)
      @ List.init (String.length pkt) (fun n -> String.sub pkt 0 n))
    seeds

(* DNS's header has three reserved z bits, which the codec encodes as
   zero.  A responder stamping each query's id must answer a query
   received with them set exactly as the reference's decode → set →
   encode does: with them cleared. *)
let dns_padding_matches_reference () =
  let flight =
    Flight.spec
      ~respond:
        [ { Flight.re_when = Flight.All [];
            re_set = [ { Flight.set_field = "id"; set_to = Flight.Const 7L } ] } ]
      ()
  in
  let replies = ref [] in
  let tw =
    Testutil.twin ~flight ~on_response:(fun s -> replies := s :: !replies) Fm.Dns.format
  in
  let query =
    Netdsl_format.Codec.encode_exn Fm.Dns.format (Fm.Dns.query_header ~id:0x1234 ~qdcount:1)
  in
  let with_z = Bytes.of_string query in
  Bytes.set_uint8 with_z 3 (Bytes.get_uint8 with_z 3 lor 0x70);
  List.iter
    (fun pkt -> check_bool "accepted" true (Testutil.process tw pkt = Pipeline.Accepted))
    [ query; Bytes.to_string with_z ];
  Testutil.finish tw;
  List.iter (fun reply -> check_int "reply z bits clear" 0 (Char.code reply.[3] land 0x70)) !replies

(* The shipped TFTP spec: a five-way variant, so every case is its own
   flattened plan.  The flow key [block] lives in two cases only; on the
   others the packet keys to the shared default instance. *)
let tftp_spec_matches_reference () =
  let prog = Testutil.spec_program "tftp.ndsl" in
  let fmt = Option.get (Netdsl_lang.Parser.find_format prog "tftp") in
  let machine =
    Option.get
      (Netdsl_lang.Parser.find_machine
         (Netdsl_lang.Parser.parse_string_exn
            "machine peer { states { idle init accepting; } events { data, ack } \
             on data: idle -> idle; on ack: idle -> idle; }")
         "peer")
  in
  let opcode op = Flight.Cmp (Flight.Eq, Flight.Field "opcode", Flight.Const op) in
  let flight =
    Flight.spec
      ~verify:(Flight.Cmp (Flight.Ne, Flight.Field "opcode", Flight.Const 5L))
      ~classify:
        [ { Flight.ev_when = opcode 3L; ev_name = "data" };
          { Flight.ev_when = opcode 4L; ev_name = "ack" } ]
      ~flow_key:"block" ()
  in
  let seeds =
    List.map Fm.Tftp.to_bytes_exn
      [ Fm.Tftp.Rrq { filename = "boot.img"; mode = "octet" };
        Fm.Tftp.Wrq { filename = "log"; mode = "netascii" };
        Fm.Tftp.Data { block = 7; data = "payload" };
        Fm.Tftp.Data { block = 9; data = "" };
        Fm.Tftp.Ack { block = 7 };
        Fm.Tftp.Error { code = 1; message = "not found" } ]
  in
  lock_step ~machine ~flight fmt (seeds @ mutants fmt (Prng.of_int 31) seeds)

(* [sensor_report]'s counted array of 3-byte readings runs on the
   compiled plan.  Besides the mutator's own, count lies with the CRC
   repaired (so only the count can reject) and readings cut mid-element. *)
let sensor_report_matches_reference () =
  let prog = Testutil.spec_program "sensor.ndsl" in
  let fmt = Option.get (Netdsl_lang.Parser.find_format prog "sensor_report") in
  let machine = Option.get (Netdsl_lang.Parser.find_machine prog "sensor_node") in
  let count = Flight.Field "count" in
  let flight =
    Flight.spec
      ~verify:(Flight.Cmp (Flight.Le, Flight.Field "battery", Flight.Const 90L))
      ~classify:
        [ { Flight.ev_when = Flight.Cmp (Flight.Eq, count, Flight.Const 0L); ev_name = "wake" };
          { Flight.ev_when = Flight.Cmp (Flight.Gt, count, Flight.Const 0L); ev_name = "sampled" } ]
      ~flow_key:"node" ()
  in
  let module V = Netdsl_format.Value in
  let report ~node ~battery n =
    Netdsl_format.Codec.encode_exn fmt
      (V.record
         [ ("magic", V.int 0x5EA1); ("node", V.int node); ("battery", V.int battery);
           ( "readings",
             V.list
               (List.init n (fun i ->
                    V.record [ ("channel", V.int (1 + (i mod 3))); ("value", V.int (i * 77)) ])) ) ])
  in
  (* rewrite the count byte (offset 5), then repair the trailing CRC-32 *)
  let with_count pkt c =
    let b = Bytes.of_string pkt in
    Bytes.set b 5 (Char.chr (c land 0xFF));
    let body = Bytes.length b - 4 in
    Bytes.set_int32_be b body
      (Int64.to_int32 (Netdsl_util.Checksum.crc32 ~len:body (Bytes.to_string b)));
    Bytes.to_string b
  in
  let cut_mid_element pkt =
    (* drop one byte of the last reading, keep the CRC-32 at the end *)
    let n = String.length pkt in
    String.sub pkt 0 (n - 5) ^ String.sub pkt (n - 4) 4
  in
  let seeds =
    List.map
      (fun (node, battery, n) -> report ~node ~battery n)
      [ (1, 50, 0); (2, 99, 1); (3, 20, 4); (1, 80, 9); (4, 95, 2) ]
  in
  let lies =
    List.concat_map
      (fun pkt ->
        let c = Char.code pkt.[5] in
        [ with_count pkt (c + 1); with_count pkt (c - 1); with_count pkt 255;
          with_count pkt c ]
        @ if c > 0 then [ cut_mid_element pkt ] else [])
      seeds
  in
  lock_step ~machine ~flight fmt (seeds @ lies @ mutants fmt (Prng.of_int 37) seeds)

(* A list of variable-size records has no compiled plan: building a
   pipeline refuses, naming the field, and the format oracle skips its
   pipeline legs saying why. *)
let variable_records_refused () =
  List.iter
    (fun (fmt, field) ->
      let named msg =
        check_bool (Printf.sprintf "%S names %s" msg field) true
          (Testutil.contains msg (Printf.sprintf "%S" field))
      in
      (match Pipeline.create fmt with
      | _ -> Alcotest.failf "%s: pipeline built" fmt.Netdsl_format.Desc.format_name
      | exception Invalid_argument msg -> named msg);
      match Netdsl_check.Oracle.skipped (Netdsl_check.Oracle.create fmt) with
      | None -> Alcotest.failf "%s: oracle ran its pipeline legs" fmt.Netdsl_format.Desc.format_name
      | Some msg -> named msg)
    [ (Fm.Tlv.format, "entries"); (Fm.Pcap.format, "records") ]

let reply_buf_high_water_reset () =
  (* Regression: one oversized reply used to pin a big buffer forever.
     Now the buffer shrinks back once the batch's high-water mark drops. *)
  let tw =
    Testutil.twin
      ~flight:(Flight.spec ~classify:[ always "ok" ] ~respond:[ ack_data ] ())
      ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
      Fm.Arq.format
  in
  let p = tw.pipe in
  let process pkt = Testutil.process tw pkt in
      let base = Pipeline.reply_capacity p in
      check_bool "small reply fits the base buffer" true
        (process (arq_data ~seq:1 "x") = Accepted
        && Pipeline.reply_capacity p = base);
      (* one jumbo request grows the buffer for its batch... *)
      let jumbo = arq_data ~seq:2 (String.make 4000 'J') in
      check_bool "jumbo accepted" true (process jumbo = Accepted);
      check_bool "buffer grew" true (Pipeline.reply_capacity p >= 4000);
      (* ...and the next small batch lets it shrink back to the base size *)
      check_bool "small again" true
        (process (arq_data ~seq:3 "x") = Accepted);
      check_int "high-water reset" base (Pipeline.reply_capacity p);
      (* steady traffic near the buffer size must not churn it *)
      let mid = arq_data ~seq:4 (String.make (base * 2) 'M') in
      check_bool "mid accepted" true (process mid = Accepted);
      let grown = Pipeline.reply_capacity p in
      check_bool "mid again" true (process mid = Accepted);
      check_int "no churn while the high-water holds" grown
        (Pipeline.reply_capacity p);
      Testutil.finish tw

let pipeline_slab_driven_matches_reference () =
  (* A test-owned slab drained through [process_slab_batch]: every packet
     fed must be decoded, replies must flow, and the replies and counters
     must be the reference executor's for the same packets. *)
  let replies = ref [] in
  let machine = Netdsl_proto.Arq_fsm.receiver ~seq_bits:8 in
  let p =
    Pipeline.create ~flight:arq_flight ~machine
      ~on_reply_slot:(fun _ buf len -> replies := Bytes.sub_string buf 0 len :: !replies)
      Fm.Arq.format
  in
  let ref_replies = ref [] in
  let r =
    Testutil.Reference.create ~flight:arq_flight ~machine
      ~on_response:(fun s -> ref_replies := s :: !ref_replies)
      Fm.Arq.format
  in
  let slab = Slab.create ~capacity:128 () in
  let batch = Array.init 50 (fun i -> arq_data ~seq:(i land 0xFF) "zz") in
  let pkts =
    Array.concat
      (List.init 6 (fun _ -> batch)
      @ [ Array.init 200 (fun i -> arq_data ~seq:((i + 1) land 0xFF) "y") ])
  in
  run_through_slab p slab pkts;
  Array.iter (fun pkt -> ignore (Testutil.Reference.process r pkt)) pkts;
  let s = Pipeline.stats p in
  check_int "all decoded" 500 (Stats.stage_packets s (Stats.stage_index s "decode"));
  check_int "all answered" 500 (List.length !replies);
  Testutil.check_counters_match_reference p r;
  Alcotest.(check (list string)) "replies = reference" !ref_replies !replies

(* ------------------------------------------------------------------ *)
(* Stack pipelines: layered chains through the fused engine *)

module FF = Netdsl_format

let inet_tftp_plan =
  lazy
    (match FF.Stack.compile Fm.Stacks.inet_tftp with
    | Ok p -> p
    | Error e -> failwith e)

let tftp_chain ?src_port pkt =
  match
    FF.Stack.encode (Lazy.force inet_tftp_plan)
      (Fm.Stacks.inet_tftp_values ?src_port pkt)
  with
  | Ok s -> s
  | Error e -> failwith e

(* The TFTP responder over the 4-layer chain as a stacked flight: answer
   an ACK with the same datagram, UDP ports and IPv4 addresses swapped
   (the IPv4 checksum is repaired incrementally), keyed by client port.
   Operand registers read the *request's* run, so the two swap patches
   cannot see each other. *)
let stack_flight =
  Flight.spec
    ~verify:(Flight.Cmp (Flight.Le, Flight.Field "tftp.opcode", Flight.Const 5L))
    ~flow_key:"udp.src_port"
    ~respond:
      [ { Flight.re_when =
            Flight.Cmp (Flight.Eq, Flight.Field "tftp.opcode", Flight.Const 4L);
          re_set =
            [ { Flight.set_field = "udp.dst_port";
                set_to = Flight.Field "udp.src_port" };
              { Flight.set_field = "udp.src_port"; set_to = Flight.Const 69L };
              { Flight.set_field = "ipv4.source";
                set_to = Flight.Field "ipv4.destination" };
              { Flight.set_field = "ipv4.destination";
                set_to = Flight.Field "ipv4.source" } ] } ]
    ()

let stack_pipeline_serves_chain () =
  let replies = ref [] in
  let p =
    Pipeline.create ~stack:Fm.Stacks.inet_tftp
      ~flight:stack_flight
      ~on_response:(fun s -> replies := s :: !replies)
      Fm.Ethernet.format
  in
  let ack = tftp_chain ~src_port:50000 (Fm.Tftp.Ack { block = 7 }) in
  check_bool "ack accepted" true (Pipeline.process p ack = Pipeline.Accepted);
  (* a read request is accepted but matches no respond rule *)
  let rrq = tftp_chain (Fm.Tftp.Rrq { filename = "f"; mode = "octet" }) in
  check_bool "rrq passes through" true
    (Pipeline.process p rrq = Pipeline.Accepted);
  match !replies with
  | [ reply ] ->
    check_int "same length" (String.length ack) (String.length reply);
    (* fixed layout: eth 14 B, ipv4 20 B (no options) — addresses at
       26/30, UDP ports at 34/36, IPv4 checksum at 24 *)
    let u16 s i = (Char.code s.[i] lsl 8) lor Char.code s.[i + 1] in
    check_int "reply source port is 69" 69 (u16 reply 34);
    check_int "reply destination is the client port" 50000 (u16 reply 36);
    check_bool "addresses swapped" true
      (String.sub reply 26 4 = String.sub ack 30 4
      && String.sub reply 30 4 = String.sub ack 26 4);
    check_int "ipv4 checksum repaired" 0
      (Netdsl_util.Checksum.internet_checksum ~off:14 ~len:20 reply);
    String.iteri
      (fun i c ->
        (* every byte outside the four patched fields and the repaired
           checksum must be the request's *)
        let patched = i >= 24 && i < 38 in
        if (not patched) && c <> ack.[i] then
          Alcotest.failf "reply byte %d changed unexpectedly" i)
      reply
  | l -> Alcotest.failf "expected one reply, got %d" (List.length l)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let stack_pipeline_red_paths () =
  let ack = Bytes.of_string (tftp_chain (Fm.Tftp.Ack { block = 1 })) in
  (* ethertype := ARP — the chain's first demux edge must refuse, and the
     error detail (recovered on the pipeline, the reference's own decode)
     must name the failing layer *)
  Bytes.set ack 12 '\x08';
  Bytes.set ack 13 '\x06';
  let named o =
    match o with
    | Pipeline.Rejected_decode (FF.Codec.Eval_error { path; reason }) ->
      check_bool
        (Printf.sprintf "the path names the layer (%s)" reason)
        true (path = [ "ethernet" ])
    | o -> Alcotest.failf "expected layered decode reject, got %s" (outcome_tag o)
  in
  (* the default spec: decode and validate the chain, nothing more *)
  named
    (Pipeline.process
       (Pipeline.create ~stack:Fm.Stacks.inet_tftp Fm.Ethernet.format)
       (Bytes.to_string ack));
  named
    (Testutil.Reference.process
       (Testutil.Reference.create ~stack:Fm.Stacks.inet_tftp ~flight:(Flight.spec ())
          Fm.Ethernet.format)
       (Bytes.to_string ack))

(* The register-side convention for a field the accepted packet does not
   carry (the chain register reads -1): on a read request, which has no
   [tftp.block], a verify comparison on it is false, a flow key on it
   selects the shared default instance, and a patch sourced from it is
   refused at the encode stage. *)
let stack_absent_field_convention () =
  let block = Flight.Field "tftp.block" in
  let ack = tftp_chain ~src_port:50000 (Fm.Tftp.Ack { block = 7 }) in
  let rrq = tftp_chain (Fm.Tftp.Rrq { filename = "f"; mode = "octet" }) in
  let stacked ?machine ?on_response flight =
    let p =
      Pipeline.create ~stack:Fm.Stacks.inet_tftp ~flight
        ?machine ?on_response Fm.Ethernet.format
    in
    p
  in
  (* verify: [block <= 65535] holds for every carried value *)
  let p =
    stacked (Flight.spec ~verify:(Flight.Cmp (Flight.Le, block, Flight.Const 65535L)) ())
  in
  check_bool "present field verifies" true (Pipeline.process p ack = Accepted);
  check_bool "absent field compares false" true
    (Pipeline.process p rrq = Rejected_verify);
  let p = stacked (Flight.spec ~verify:(Flight.Cmp (Flight.Eq, block, block)) ()) in
  check_bool "field-to-field comparison on an absent field is false" true
    (Pipeline.process p rrq = Rejected_verify);
  (* flow key: the absent key is the default instance, not a flow keyed -1 *)
  let module M = Netdsl_fsm.Machine in
  let counter =
    M.machine ~name:"counter" ~states:[ "s" ] ~events:[ "ok" ]
      ~registers:[ M.reg "n" ~init:0 ~domain:65536 ]
      ~initial:"s"
      [ M.trans ~label:"COUNT"
          ~actions:[ M.Assign ("n", M.Add (M.Reg "n", M.Int 1)) ]
          ~src:"s" ~event:"ok" ~dst:"s" () ]
  in
  let p =
    stacked ~machine:counter
      (Flight.spec ~classify:[ always "ok" ] ~flow_key:"tftp.block" ())
  in
  check_bool "ack stepped" true (Pipeline.process p ack = Accepted);
  check_bool "rrq stepped" true (Pipeline.process p rrq = Accepted);
  check_int "only the ack minted a flow" 1 (Pipeline.flow_count p);
  check_bool "ack keyed by its block" true (Pipeline.peek_flow p 7 <> None);
  check_bool "no flow keyed -1" true (Pipeline.peek_flow p (-1) = None);
  (* respond: a patch sourced from the absent field is refused *)
  let replies = ref [] in
  let p =
    stacked ~on_response:(fun s -> replies := s :: !replies)
      (Flight.spec
         ~respond:
           [ { Flight.re_when = Flight.All [];
               re_set = [ { Flight.set_field = "udp.src_port"; set_to = block } ] } ]
         ())
  in
  check_bool "ack answered" true (Pipeline.process p ack = Accepted);
  check_bool "absent source rejected at encode" true
    (Pipeline.process p rrq = Rejected_encode);
  match !replies with
  | [ reply ] ->
    check_int "reply source port is the block" 7
      ((Char.code reply.[34] lsl 8) lor Char.code reply.[35])
  | l -> Alcotest.failf "expected one reply, got %d" (List.length l)

let stack_pipeline_zero_alloc () =
  let replies = ref 0 in
  let p =
    Pipeline.create ~stack:Fm.Stacks.inet_tftp
      ~flight:stack_flight
      ~on_reply_slot:(fun _ _ _ -> incr replies)
      Fm.Ethernet.format
  in
  let ack = tftp_chain (Fm.Tftp.Ack { block = 3 }) in
  for _ = 1 to 100 do
    (* warm-up: sizes the reply buffer *)
    ignore (Pipeline.process p ack)
  done;
  let n = 10_000 in
  let before = Gc.allocated_bytes () in
  for _ = 1 to n do
    ignore (Pipeline.process p ack)
  done;
  let per_pkt = (Gc.allocated_bytes () -. before) /. float_of_int n in
  check_bool
    (Printf.sprintf "steady state allocates nothing (%.3f B/pkt)" per_pkt)
    true (per_pkt < 1.0);
  check_int "every ack answered" (100 + n) !replies;
  (* the batch-fed layered responder: every DATA frame answered by
     patching ipv4.ttl inside its window, the covering checksum repaired
     incrementally; 40 000 packets, at most 0.5 B/pkt *)
  let flight =
    Flight.spec
      ~verify:(Flight.Cmp (Flight.Lt, Flight.Field "tftp.opcode", Flight.Const 6L))
      ~flow_key:"udp.src_port"
      ~respond:
        [ { Flight.re_when = Flight.All [];
            re_set = [ { Flight.set_field = "ipv4.ttl"; set_to = Flight.Const 7L } ] } ]
      ()
  in
  let replies = ref 0 in
  let p =
    Pipeline.create ~stack:Fm.Stacks.inet_tftp ~flight
      ~on_reply_slot:(fun _ _ _ -> incr replies)
      Fm.Ethernet.format
  in
  let batch = Pipeline.default_config.batch in
  let window =
    Array.make batch (tftp_chain (Fm.Tftp.Data { block = 7; data = String.make 32 'd' }))
  in
  for _ = 0 to 4 do
    Pipeline.process_batch p window batch
  done;
  Gc.full_major ();
  let batches = 40_000 / batch in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to batches do
    Pipeline.process_batch p window batch
  done;
  let per_pkt = (Gc.allocated_bytes () -. a0) /. float_of_int (batches * batch) in
  check_bool
    (Printf.sprintf "ttl-patch responder allocates nothing (%.3f B/pkt)" per_pkt)
    true (per_pkt <= 0.5);
  check_int "every data frame answered" ((batches + 5) * batch) !replies

(* The serve benchmark's tftp-flows engine: swt_sender, whose DATA
   ([send]) arms a 150 ms retransmission timer and whose ACK cancels it,
   keyed on the UDP source port, every accepted packet answered. *)
let swt_sender =
  lazy
    (Option.get
       (Netdsl_lang.Parser.find_machine (Testutil.spec_program "timeout.ndsl") "swt_sender"))

let swt_flight =
  let opcode_is n =
    Flight.Cmp (Flight.Eq, Flight.Field "tftp.opcode", Flight.Const n)
  in
  Flight.spec
    ~verify:(Flight.Cmp (Flight.Le, Flight.Field "tftp.opcode", Flight.Const 5L))
    ~classify:
      [ { Flight.ev_when = opcode_is 3L; ev_name = "send" };
        { Flight.ev_when = opcode_is 4L; ev_name = "ack" } ]
    ~flow_key:"udp.src_port"
    ~respond:
      [ { Flight.re_when = Flight.All [];
          re_set =
            [ { Flight.set_field = "udp.dst_port";
                set_to = Flight.Field "udp.src_port" };
              { Flight.set_field = "udp.src_port";
                set_to = Flight.Const 69L } ] } ]
    ()

let swt_pipeline ?on_reply_slot ~max_flows ~now () =
  Pipeline.create
    ~config:{ Pipeline.default_config with max_flows }
    ~stack:Fm.Stacks.inet_tftp ~flight:swt_flight
    ~machine:(Lazy.force swt_sender)
    ~clock_ms:(fun () -> !now)
    ?on_reply_slot Fm.Ethernet.format

(* DATA frames are longer than ACKs, as in the serve benchmark: the reply
   buffer must not regrow and shrink as the two alternate *)
let swt_data ~src_port block =
  tftp_chain ~src_port (Fm.Tftp.Data { block; data = String.make 32 'd' })

let timed_churn_zero_alloc () =
  (* DATA/ACK pairs over 1040 ports through a 64-flow table: every DATA
     arms a timer, every ACK cancels one, and a cold port evicts the
     oldest-idle flow.  Gc.allocated_bytes also counts arrays allocated
     straight into the major heap (a rehash), which minor words miss. *)
  let now = ref 0 in
  let replies = ref 0 in
  let p =
    swt_pipeline ~on_reply_slot:(fun _ _ _ -> incr replies) ~max_flows:64 ~now ()
  in
  let rng = Prng.of_int 16 in
  let pairs = 4096 in
  let stream = Array.make (2 * pairs) "" in
  for j = 0 to pairs - 1 do
    let src_port =
      if Prng.int rng 4 = 0 then 2000 + Prng.int rng 16
      else 10000 + Prng.int rng 1024
    in
    let block = j land 0xFFFF in
    stream.(2 * j) <- swt_data ~src_port block;
    stream.((2 * j) + 1) <- tftp_chain ~src_port (Fm.Tftp.Ack { block })
  done;
  let win = Array.make 64 "" in
  (* one virtual millisecond per window, so every window advances the
     wheel *)
  let run ~window ~packets =
    let i = ref 0 in
    while !i < packets do
      Array.blit stream (!i mod Array.length stream) win 0 window;
      Pipeline.process_batch p win window;
      incr now;
      i := !i + window
    done
  in
  List.iter
    (fun window ->
      run ~window ~packets:(Array.length stream);
      let ev0 = Stats.evicted_flows (Pipeline.stats p) in
      let r0 = !replies in
      let n = 2 * Array.length stream in
      Gc.full_major ();
      let a0 = Gc.allocated_bytes () in
      run ~window ~packets:n;
      let per_pkt = (Gc.allocated_bytes () -. a0) /. float_of_int n in
      let evicted = Stats.evicted_flows (Pipeline.stats p) - ev0 in
      check_bool
        (Printf.sprintf "%d-packet windows evict (%d evictions)" window evicted)
        true (evicted > n / 8);
      check_int "every packet answered" n (!replies - r0);
      check_bool
        (Printf.sprintf "%d-packet windows allocate nothing (%.3f B/pkt)" window
           per_pkt)
        true (per_pkt < 1.0))
    [ 1; 64 ]

let recycled_slot_starts_fresh () =
  (* One flow slot: B is minted into the slot (and instance) A held.  A's
     last arm and B's first happen at the same wheel tick with the same
     timer word — exactly what the instance's armed-timer cache treats as
     "already armed" — so a cache surviving the recycle would leave B with
     no wheel entry. *)
  let now = ref 0 in
  let p = swt_pipeline ~max_flows:1 ~now () in
  let a = 1111 and b = 2222 in
  let step pkt =
    check_bool "accepted" true (Pipeline.process p pkt = Accepted)
  in
  let attempts k =
    match Pipeline.peek_flow p k with
    | Some inst -> Netdsl_fsm.Step.register_by_name inst "attempts"
    | None -> -1
  in
  step (swt_data ~src_port:a 1);
  now := 150;
  check_int "A retransmits, re-arming at tick 150" 1 (Pipeline.poll_timers p);
  check_int "A is off its initial registers" 1 (attempts a);
  step (swt_data ~src_port:b 1);
  check_int "A evicted" 1 (Stats.evicted_flows (Pipeline.stats p));
  check_bool "A gone" true (Pipeline.peek_flow p a = None);
  check_int "B starts from the initial registers" 0 (attempts b);
  check_int "B's arm reached the wheel" 1 (Pipeline.timers_live p);
  now := 300;
  check_int "only B's timer fires" 1 (Pipeline.poll_timers p);
  check_int "B retransmitted" 1 (attempts b);
  let s = Pipeline.stats p in
  check_int "no expiry refused (A's never fired)" 0
    (Stats.stage_rejects s (Stats.stage_index s "step"))

let create_allocates_no_ingest_slab () =
  (* a pipeline borrows its packets: create must not allocate
     ring_capacity * slot_bytes (2 MB at the defaults) of slab.  Averaged
     over several creates, after a full collection: the allocation counter
     can credit earlier major-heap work to a short window. *)
  let n = 16 in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to n do
    ignore
      (Sys.opaque_identity
         (Pipeline.create ~flight:arq_flight
            ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
            Fm.Arq.format))
  done;
  let kb = (Gc.allocated_bytes () -. a0) /. 1024. /. float_of_int n in
  check_bool (Printf.sprintf "create allocates %.0f KB" kb) true (kb < 256.)

(* ------------------------------------------------------------------ *)
(* Steer *)

let steer_distribution () =
  (* The 32-bit Fibonacci hash must spread both sequential and strided
     keys: either pattern should load every worker with a reasonable
     share (a plain mod would collapse strided keys onto one worker). *)
  let workers = 4 in
  let spread label keys =
    let counts = Array.make workers 0 in
    List.iter
      (fun k ->
        let w = Netdsl_format.Bpf.steer ~workers ~bits:32 k in
        counts.(w) <- counts.(w) + 1)
      keys;
    let total = List.length keys in
    Array.iteri
      (fun w c ->
        check_bool
          (Printf.sprintf "%s: worker %d got %d/%d" label w c total)
          true
          (c * 100 / total >= 10))
      counts
  in
  spread "sequential" (List.init 10_000 (fun i -> i));
  spread "strided 4096" (List.init 10_000 (fun i -> i * 4096));
  spread "strided 65536" (List.init 10_000 (fun i -> i * 65536));
  (* unkeyed packets pin to worker 0 *)
  check_int "no_key to worker 0" 0
    (Netdsl_format.Bpf.steer ~workers ~bits:32 Netdsl_format.View.no_key)

(* ------------------------------------------------------------------ *)
(* Key extractor fast path *)

let key_int_agrees_with_key_option () =
  let module V = Netdsl_format.View in
  let ke =
    match V.key_extractor Fm.Arq.format "seq" with
    | Ok ke -> ke
    | Error e -> Alcotest.failf "key_extractor: %s" e
  in
  let rng = Prng.of_int 5 in
  (* real packets, random garbage, and every truncation length *)
  let inputs =
    List.init 64 (fun i -> arq_data ~seq:(i * 4 land 0xFF) "pp")
    @ List.init 64 (fun _ ->
          String.init (Prng.int rng 12) (fun _ -> Char.chr (Prng.int rng 256)))
    @ (let full = arq_data ~seq:200 "x" in
       List.init (String.length full) (fun l -> String.sub full 0 l))
  in
  List.iter
    (fun pkt ->
      let opt = V.extract_key ke pkt in
      let fast = V.extract_key_int ke pkt in
      (match opt with
      | None -> check_bool "no_key on short" true (fast = V.no_key)
      | Some v -> check_int "same key" v fast);
      (* the min-bytes bound is exactly the no_key frontier *)
      check_bool "key_min_bytes frontier" true
        ((String.length pkt >= V.key_min_bytes ke) = (fast <> V.no_key)))
    inputs

(* ------------------------------------------------------------------ *)
(* Steered workers *)

(* What a [serve --workers N] group does across its SO_REUSEPORT sockets,
   on one domain: each packet goes to the pipeline that [Bpf.steer] picks
   for its flow key, and each pipeline holds only its own flows. *)
let key_of fmt field =
  match Netdsl_format.View.key_extractor fmt field with
  | Ok ke -> ke
  | Error e -> Alcotest.failf "key_extractor %s: %s" field e

let worker_of ke ~workers pkt =
  let _, bits, _ = Netdsl_format.View.key_layout ke in
  Netdsl_format.Bpf.steer ~workers ~bits (Netdsl_format.View.extract_key_int ke pkt)

let steer_into ke pipelines pkt =
  let w = worker_of ke ~workers:(Array.length pipelines) pkt in
  ignore (Pipeline.process pipelines.(w) pkt);
  w

let decoded p =
  let s = Pipeline.stats p in
  Stats.stage_packets s (Stats.stage_index s "decode")

let merged_stats pipelines =
  Stats.merge (Array.to_list (Array.map Pipeline.stats pipelines))

let steered_cover_all_packets () =
  let ke = key_of Fm.Arq.format "seq" in
  let ps = Array.init 2 (fun _ -> Pipeline.create Fm.Arq.format) in
  let n = 2000 in
  for i = 1 to n do
    ignore (steer_into ke ps (arq_data ~seq:(i land 0xFF) "payload"))
  done;
  check_int "a packet too short for the key goes to worker 0" 0
    (steer_into ke ps "");
  let s = merged_stats ps in
  let d = Stats.stage_index s "decode" in
  check_int "every packet decoded" (n + 1) (Stats.stage_packets s d);
  check_int "short packet rejected" 1 (Stats.stage_rejects s d);
  (* 256 flows over 2 workers: both busy *)
  Array.iter (fun p -> check_bool "worker busy" true (decoded p > 0)) ps;
  check_int "workers sum to total" (n + 1)
    (Array.fold_left (fun acc p -> acc + decoded p) 0 ps)

let steered_fused_responders () =
  let ke = key_of Fm.Arq.format "seq" in
  let replies = Array.make 2 0 in
  let ps =
    Array.init 2 (fun w ->
        Pipeline.create ~flight:arq_flight
          ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
          ~on_response:(fun _ -> replies.(w) <- replies.(w) + 1)
          Fm.Arq.format)
  in
  let n = 1000 in
  for i = 1 to n do
    ignore (steer_into ke ps (arq_data ~seq:(i land 0xFF) "payload"))
  done;
  let s = merged_stats ps in
  check_int "every packet decoded" n
    (Stats.stage_packets s (Stats.stage_index s "decode"));
  check_int "every packet answered" n
    (Stats.stage_packets s (Stats.stage_index s "encode"));
  check_int "no rejects" 0
    (let _, _, r = Stats.totals s in
     r);
  Array.iteri
    (fun w p -> check_int "a worker answers what it decoded" (decoded p) replies.(w))
    ps

(* Per-flow reply log: the reply's own seq field keys the table, and
   per-flow append order is the engine's per-flow processing order. *)
let reply_log ke =
  let tbl : (int, string list) Hashtbl.t = Hashtbl.create 64 in
  let on_response r =
    let key = Netdsl_format.View.extract_key_int ke r in
    let prev = try Hashtbl.find tbl key with Not_found -> [] in
    Hashtbl.replace tbl key (r :: prev)
  in
  (tbl, on_response)

let steered_matches_single () =
  (* The same packets, in the same order, through two steered workers
     and through one pipeline: every flow lives on exactly one worker and
     gets the same reply sequence either way. *)
  let ke = key_of Fm.Arq.format "seq" in
  let machine = Netdsl_proto.Arq_fsm.receiver ~seq_bits:8 in
  let flows = 64 in
  let counters = Array.make flows 0 in
  let rng = Prng.of_int 7 in
  let fed =
    Array.init 2000 (fun _ ->
        let f = Prng.int rng flows in
        counters.(f) <- counters.(f) + 1;
        arq_data ~seq:f (Printf.sprintf "c%04d" counters.(f)))
  in
  let steered_tbl, steered_response = reply_log ke in
  let ps =
    Array.init 2 (fun _ ->
        Pipeline.create ~flight:arq_flight ~machine
          ~on_response:steered_response Fm.Arq.format)
  in
  Array.iter (fun pkt -> ignore (steer_into ke ps pkt)) fed;
  check_int "one instance per flow" flows
    (Array.fold_left (fun acc p -> acc + Pipeline.flow_count p) 0 ps);
  let ref_tbl, ref_response = reply_log ke in
  let p =
    Pipeline.create ~flight:arq_flight ~machine
      ~on_response:ref_response Fm.Arq.format
  in
  Array.iter (fun pkt -> ignore (Pipeline.process p pkt)) fed;
  let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare in
  check_bool "same flow set" true (keys ref_tbl = keys steered_tbl);
  Hashtbl.iter
    (fun k want ->
      let have = try Hashtbl.find steered_tbl k with Not_found -> [] in
      check_bool
        (Printf.sprintf "flow %d reply sequence (%d vs %d replies)" k
           (List.length want) (List.length have))
        true (want = have))
    ref_tbl

(* Success or timeout (section 3.4) holds on every worker of a group: one
   DATA arms the sender's 150 ms timer on the worker that owns its flow,
   then no traffic at all — that worker's idle timer polls drive two
   retransmits and the give-up; the other worker holds no timer. *)
let steered_idle_worker_fires_timers () =
  let spec = Testutil.spec_program "timeout.ndsl" in
  let fmt = Option.get (Netdsl_lang.Parser.find_format spec "swt_frame") in
  let kind_is n ev =
    { Flight.ev_when = Flight.Cmp (Flight.Eq, Flight.Field "kind", Flight.Const n);
      ev_name = ev }
  in
  let flight =
    Flight.spec ~classify:[ kind_is 0L "send"; kind_is 1L "ack" ] ~flow_key:"seq" ()
  in
  let now = ref 0 in
  let ps =
    Array.init 2 (fun _ ->
        Pipeline.create ~flight
          ~machine:(Lazy.force swt_sender)
          ~clock_ms:(fun () -> !now)
          fmt)
  in
  let data =
    Netdsl_format.Codec.encode_exn fmt
      (Netdsl_format.Value.Record
         [ ("seq", Netdsl_format.Value.Int 5L);
           ("kind", Netdsl_format.Value.Int 0L);
           ("payload", Netdsl_format.Value.Bytes "hello") ])
  in
  let owner = steer_into (key_of fmt "seq") ps data in
  let idle = 1 - owner in
  check_int "the owner holds the timer" 1 (Pipeline.timers_live ps.(owner));
  check_int "the other worker holds none" (-1) (Pipeline.next_timer_ms ps.(idle));
  while !now < 1000 do
    now := !now + 10;
    Array.iter (fun p -> ignore (Pipeline.poll_timers p)) ps
  done;
  check_int "two retransmits and the give-up fired while idle" 3
    (Stats.timers_expired (Pipeline.stats ps.(owner)));
  check_int "nothing fired on the other worker" 0
    (Stats.timers_expired (Pipeline.stats ps.(idle)));
  check_int "no timer left" 0 (Pipeline.timers_live ps.(owner))

let steered_slabs_match_single () =
  (* each worker's own slab, filled with the packets steered to it and
     drained through [process_slab_batch], as each serve loop does: the
     merged counters equal one pipeline's over the whole stream *)
  let ke = key_of Fm.Arq.format "seq" in
  let pkts = Array.init 700 (fun i -> arq_data ~seq:(i * 7 land 0xFF) "zz") in
  let workers = 2 in
  let share w =
    Array.of_list
      (List.filter (fun p -> worker_of ke ~workers p = w) (Array.to_list pkts))
  in
  let create () =
    Pipeline.create ~flight:arq_flight
      ~machine:(Netdsl_proto.Arq_fsm.receiver ~seq_bits:8)
      Fm.Arq.format
  in
  let ps =
    Array.init workers (fun w ->
        let p = create () in
        let mine = share w in
        check_bool "worker gets a share" true (Array.length mine > 0);
        run_through_slab p (Slab.create ~capacity:64 ()) mine;
        p)
  in
  let single = create () in
  Array.iter (fun pkt -> ignore (Pipeline.process single pkt)) pkts;
  let m = merged_stats ps and s = Pipeline.stats single in
  List.iteri
    (fun idx name ->
      check_int (name ^ " packets") (Stats.stage_packets s idx)
        (Stats.stage_packets m idx);
      check_int (name ^ " rejects") (Stats.stage_rejects s idx)
        (Stats.stage_rejects m idx))
    Pipeline.stage_names;
  check_int "every seq is a flow" 256 (Pipeline.flow_count single);
  check_int "flows split, none lost" (Pipeline.flow_count single)
    (Array.fold_left (fun acc p -> acc + Pipeline.flow_count p) 0 ps)

(* ------------------------------------------------------------------ *)

let suite =
  [ ( "engine.keymap",
      [ Alcotest.test_case "matches a Hashtbl model" `Quick keymap_matches_model;
        Alcotest.test_case "chosen low-bit keys spread" `Quick
          keymap_flood_spreads;
        Alcotest.test_case "churn allocates nothing" `Quick
          keymap_churn_allocates_nothing ] );
    ( "engine.slab",
      [ Alcotest.test_case "fifo across wraparound" `Quick slab_fifo_wraparound;
        Alcotest.test_case "batch across the wrap seam" `Quick
          slab_batch_across_seam;
        Alcotest.test_case "lease/return discipline" `Quick
          slab_lease_discipline;
        Alcotest.test_case "contiguous-run lease" `Quick slab_lease_run;
        Alcotest.test_case "empty slab pops 0 without blocking" `Quick
          slab_empty_pops_zero;
        Alcotest.test_case "full slab refuses until release" `Quick
          slab_full_refuses_until_release;
        Alcotest.test_case "positions cycle the ring" `Quick slab_positions_cycle;
        Alcotest.test_case "pop max splits a run" `Quick slab_pop_max_splits;
        Alcotest.test_case "create refuses bad sizes" `Quick
          slab_create_refuses_bad_sizes ] );
    ( "engine.stats",
      [ Alcotest.test_case "counters" `Quick stats_counters;
        Alcotest.test_case "merge" `Quick stats_merge;
        Alcotest.test_case "batch record" `Quick stats_batch;
        Alcotest.test_case "warnings" `Quick stats_warnings;
        Alcotest.test_case "clamp workers" `Quick stats_clamp_workers;
        Alcotest.test_case "merge sums evictions, keeps inputs" `Quick
          stats_merge_sums_evictions;
        Alcotest.test_case "copy is a snapshot" `Quick stats_copy_is_a_snapshot;
        Alcotest.test_case "merge refusals" `Quick stats_merge_refusals ] );
    ( "engine.pipeline",
      [ Alcotest.test_case "accept and reject" `Quick pipeline_accepts_and_rejects;
        Alcotest.test_case "verify stage" `Quick pipeline_verify_stage;
        Alcotest.test_case "machine per flow" `Quick pipeline_machine_flows;
        Alcotest.test_case "batch = singles" `Quick pipeline_batch_matches_singles;
        Alcotest.test_case "slab-driven run" `Quick pipeline_slab_driven;
        Alcotest.test_case "responder" `Quick pipeline_responder;
        Alcotest.test_case "patch responder" `Quick pipeline_patch_responder;
        Alcotest.test_case "flow eviction" `Quick pipeline_flow_eviction;
        Alcotest.test_case "eviction under adversarial churn" `Quick
          pipeline_eviction_churn;
        Alcotest.test_case "classify_id fast path" `Quick
          pipeline_classify_id_fast_path ] );
    ( "engine.flight",
      [ Alcotest.test_case "fused = reference lock-step" `Quick fused_matches_reference;
        Alcotest.test_case "fused = reference lock-step at depth" `Slow (fun () ->
            e15_lockstep 50_000);
        Alcotest.test_case "verify veto and pass-through" `Quick
          fused_verify_and_passthrough;
        Alcotest.test_case "decode error recovered" `Quick
          fused_rejected_decode_error;
        Alcotest.test_case "icmp echo responder: fused = reference" `Quick
          icmp_echo_matches_reference;
        Alcotest.test_case "dns responder clears z bits: fused = reference" `Quick
          dns_padding_matches_reference;
        Alcotest.test_case "tftp spec: fused = reference under mutants" `Quick
          tftp_spec_matches_reference;
        Alcotest.test_case "sensor_report: fused = reference, count lies" `Quick
          sensor_report_matches_reference;
        Alcotest.test_case "list of variable-size records refused" `Quick
          variable_records_refused;
        Alcotest.test_case "reply buffer high-water reset" `Quick
          reply_buf_high_water_reset;
        Alcotest.test_case "slab-driven run = reference" `Quick
          pipeline_slab_driven_matches_reference ] );
    ( "engine.stack",
      [ Alcotest.test_case "stacked chain responder" `Quick
          stack_pipeline_serves_chain;
        Alcotest.test_case "stack misuse + layered error detail" `Quick
          stack_pipeline_red_paths;
        Alcotest.test_case "absent field convention" `Quick
          stack_absent_field_convention;
        Alcotest.test_case "steady state allocation-free" `Quick
          stack_pipeline_zero_alloc;
        Alcotest.test_case "timed churn allocation-free" `Quick
          timed_churn_zero_alloc;
        Alcotest.test_case "recycled flow slot starts fresh" `Quick
          recycled_slot_starts_fresh;
        Alcotest.test_case "create allocates no ingest slab" `Quick
          create_allocates_no_ingest_slab ] );
    ( "engine.steer",
      [ Alcotest.test_case "fibonacci distribution" `Quick steer_distribution;
        Alcotest.test_case "fast key read = slow key read" `Quick
          key_int_agrees_with_key_option ] );
    ( "engine.steered",
      [ Alcotest.test_case "steered workers cover all packets" `Quick
          steered_cover_all_packets;
        Alcotest.test_case "steered fused responders" `Quick
          steered_fused_responders;
        Alcotest.test_case "steered = single (per flow)" `Quick
          steered_matches_single;
        Alcotest.test_case "idle worker fires its timers" `Quick
          steered_idle_worker_fires_timers;
        Alcotest.test_case "per-worker slabs = single" `Quick
          steered_slabs_match_single ] )
  ]
