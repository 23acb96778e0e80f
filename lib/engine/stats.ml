(* Per-stage counters and latency histograms.

   A [t] is owned by one domain and mutated without synchronisation — the
   engine gives each worker its own instance and merges after the fact
   ([merge_into]), so the hot path carries no atomics or locks. *)

let buckets = 40 (* log2 ns buckets: covers < 1 ns .. ~9 min *)

type stage = {
  s_name : string;
  mutable packets : int;
  mutable bytes : int;
  mutable rejects : int;
  mutable lat_ns : int; (* total latency attributed to this stage *)
  hist : int array; (* hist.(i): per-packet latencies in [2^i, 2^i+1) ns *)
}

type t = {
  stages : stage array;
  mutable evicted_flows : int;
  mutable timers_expired : int;
  mutable timers_cancelled : int;
  mutable timers_cascaded : int;
  mutable warnings : string list; (* newest first; deduplicated *)
}

let create names =
  if names = [] then invalid_arg "Stats.create: no stages";
  {
    stages =
      Array.of_list
        (List.map
           (fun s_name ->
             { s_name; packets = 0; bytes = 0; rejects = 0; lat_ns = 0;
               hist = Array.make buckets 0 })
           names);
    evicted_flows = 0;
    timers_expired = 0;
    timers_cancelled = 0;
    timers_cascaded = 0;
    warnings = [];
  }

let note_evicted_flow t = t.evicted_flows <- t.evicted_flows + 1
let evicted_flows t = t.evicted_flows

let note_timers ~expired ~cancelled ~cascaded t =
  t.timers_expired <- t.timers_expired + expired;
  t.timers_cancelled <- t.timers_cancelled + cancelled;
  t.timers_cascaded <- t.timers_cascaded + cascaded

let timers_expired t = t.timers_expired
let timers_cancelled t = t.timers_cancelled
let timers_cascaded t = t.timers_cascaded

let note_warning t msg =
  if not (List.mem msg t.warnings) then t.warnings <- msg :: t.warnings

let warnings t = List.rev t.warnings

(* More worker domains than cores is a benchmark lie waiting to happen:
   domains time-share, per-worker throughput collapses, and "scaling"
   rows measure the scheduler.  Clamp unless the caller explicitly opts
   into oversubscription, and word the warning either way. *)
let clamp_workers ~allow_oversubscribe n =
  let cores = Domain.recommended_domain_count () in
  if n <= cores then (n, None)
  else if allow_oversubscribe then
    ( n,
      Some
        (Printf.sprintf "serve: %d workers oversubscribe %d available core(s)" n
           cores) )
  else
    ( cores,
      Some
        (Printf.sprintf
           "serve: requested %d workers, clamped to %d available core(s)" n cores)
    )

let stage_names t = Array.to_list (Array.map (fun s -> s.s_name) t.stages)

let stage_index t name =
  let rec go i =
    if i >= Array.length t.stages then
      invalid_arg (Printf.sprintf "Stats: unknown stage %S" name)
    else if String.equal t.stages.(i).s_name name then i
    else go (i + 1)
  in
  go 0

let bucket_of_ns ns =
  if ns <= 0 then 0
  else
    let b = ref 0 in
    let v = ref ns in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    min !b (buckets - 1)

let record t i ~bytes ~ns =
  let s = t.stages.(i) in
  s.packets <- s.packets + 1;
  s.bytes <- s.bytes + bytes;
  s.lat_ns <- s.lat_ns + ns;
  let h = s.hist in
  let b = bucket_of_ns ns in
  h.(b) <- h.(b) + 1

let reject t i ~bytes =
  let s = t.stages.(i) in
  s.packets <- s.packets + 1;
  s.bytes <- s.bytes + bytes;
  s.rejects <- s.rejects + 1

let record_batch t i ~packets ~bytes ~rejects ~elapsed_ns =
  (* Batched stages time the whole batch; the histogram gets the per-packet
     mean, once per batch — cheap, and still a faithful latency profile at
     batch granularity. *)
  let s = t.stages.(i) in
  s.packets <- s.packets + packets;
  s.bytes <- s.bytes + bytes;
  s.rejects <- s.rejects + rejects;
  s.lat_ns <- s.lat_ns + elapsed_ns;
  if packets > 0 then begin
    let b = bucket_of_ns (elapsed_ns / packets) in
    s.hist.(b) <- s.hist.(b) + packets
  end

let merge_into ~into src =
  if Array.length into.stages <> Array.length src.stages then
    invalid_arg "Stats.merge_into: stage mismatch";
  into.evicted_flows <- into.evicted_flows + src.evicted_flows;
  into.timers_expired <- into.timers_expired + src.timers_expired;
  into.timers_cancelled <- into.timers_cancelled + src.timers_cancelled;
  into.timers_cascaded <- into.timers_cascaded + src.timers_cascaded;
  List.iter (note_warning into) (warnings src);
  Array.iteri
    (fun i (s : stage) ->
      let d = into.stages.(i) in
      if not (String.equal d.s_name s.s_name) then
        invalid_arg "Stats.merge_into: stage mismatch";
      d.packets <- d.packets + s.packets;
      d.bytes <- d.bytes + s.bytes;
      d.rejects <- d.rejects + s.rejects;
      d.lat_ns <- d.lat_ns + s.lat_ns;
      for b = 0 to buckets - 1 do
        d.hist.(b) <- d.hist.(b) + s.hist.(b)
      done)
    src.stages

let copy t =
  let c = create (stage_names t) in
  merge_into ~into:c t;
  c

let merge = function
  | [] -> invalid_arg "Stats.merge: empty list"
  | s :: rest ->
    let acc = copy s in
    List.iter (fun s -> merge_into ~into:acc s) rest;
    acc

(* Approximate percentile from the log2 histogram: the upper bound of the
   bucket containing the p-th packet. *)
let percentile_ns (s : stage) p =
  let total = Array.fold_left ( + ) 0 s.hist in
  if total = 0 then 0
  else begin
    let target = max 1 (int_of_float (ceil (p *. float_of_int total))) in
    let seen = ref 0 and b = ref 0 in
    (try
       for i = 0 to buckets - 1 do
         seen := !seen + s.hist.(i);
         if !seen >= target then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    1 lsl !b
  end

let pp_ns ppf ns =
  if ns < 1_000 then Format.fprintf ppf "%dns" ns
  else if ns < 1_000_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then Format.fprintf ppf "%.1fms" (float_of_int ns /. 1e6)
  else Format.fprintf ppf "%.2fs" (float_of_int ns /. 1e9)

let pp ppf t =
  Format.fprintf ppf "%-8s %12s %14s %9s %10s %8s %8s@." "stage" "packets"
    "bytes" "rejects" "mean" "~p50" "~p99";
  Array.iter
    (fun (s : stage) ->
      let mean = if s.packets = 0 then 0 else s.lat_ns / s.packets in
      let ns_str ns = Format.asprintf "%a" pp_ns ns in
      Format.fprintf ppf "%-8s %12d %14d %9d %10s %8s %8s@." s.s_name s.packets
        s.bytes s.rejects (ns_str mean)
        (ns_str (percentile_ns s 0.50))
        (ns_str (percentile_ns s 0.99)))
    t.stages;
  if t.evicted_flows > 0 then
    Format.fprintf ppf "evicted flows: %d@." t.evicted_flows;
  if t.timers_expired > 0 || t.timers_cancelled > 0 || t.timers_cascaded > 0 then
    Format.fprintf ppf "timers: %d expired, %d cancelled, %d cascaded@."
      t.timers_expired t.timers_cancelled t.timers_cascaded;
  List.iter (fun w -> Format.fprintf ppf "warning: %s@." w) (warnings t)

let to_text t = Format.asprintf "%a" pp t

let totals t =
  let packets = ref 0 and bytes = ref 0 and rejects = ref 0 in
  Array.iter
    (fun (s : stage) ->
      packets := !packets + s.packets;
      bytes := !bytes + s.bytes;
      rejects := !rejects + s.rejects)
    t.stages;
  (!packets, !bytes, !rejects)

let stage_packets t i = t.stages.(i).packets
let stage_bytes t i = t.stages.(i).bytes
let stage_rejects t i = t.stages.(i).rejects
let stage_mean_ns t i =
  let s = t.stages.(i) in
  if s.packets = 0 then 0 else s.lat_ns / s.packets
