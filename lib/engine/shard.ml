module F = Netdsl_format

type config = {
  workers : int;
  pipeline : Pipeline.config;
}

let default_config =
  { workers = Domain.recommended_domain_count ();
    pipeline = Pipeline.default_config }

type t = {
  cfg : config;
  key : F.View.key_extractor;
  key_min : int;  (* fewest packet bytes that carry the key *)
  pipes : Pipeline.t array;
  rings : Spsc.t array;
  mutable domains : unit Domain.t array;
  mutable running : bool;
  mutable unkeyed : int;
  warning : string option;
}

let create ?(config = default_config) ?(allow_oversubscribe = false) ~key ?mode
    ?flight ?machine ?on_transition ?clock_ms ?now_ns ?tick_ms ?on_response
    ?on_reply_slot fmt =
  if config.workers <= 0 then Error "Shard.create: workers must be positive"
  else
    match F.View.key_extractor fmt key with
    | Error e -> Error (Printf.sprintf "Shard.create: bad key field: %s" e)
    | Ok ke ->
      let workers, warning =
        Stats.clamp_workers ~allow_oversubscribe config.workers
      in
      let rings =
        Array.init workers (fun _ ->
            Spsc.create ~slot_bytes:config.pipeline.Pipeline.slot_bytes
              ~capacity:config.pipeline.Pipeline.ring_capacity ())
      in
      let pipes =
        Array.init workers (fun _ ->
            Pipeline.create ~config:config.pipeline ?mode ?flight ?machine
              ?on_transition ?clock_ms ?now_ns ?tick_ms ?on_response
              ?on_reply_slot fmt)
      in
      (match warning with
      | None -> ()
      | Some w -> Array.iter (fun p -> Stats.note_warning (Pipeline.stats p) w) pipes);
      Ok
        {
          cfg = config;
          key = ke;
          key_min = F.View.key_min_bytes ke;
          pipes;
          rings;
          domains = [||];
          running = false;
          unkeyed = 0;
          warning;
        }

let workers t = Array.length t.pipes
let warning t = t.warning
let worker_of_key t k = F.Bpf.steer ~workers:(workers t) k

(* One worker domain: claim a batch from the ring, run it through the
   pipeline in place, release.  An empty poll polls the timer wheel (a
   batch window polls it only when packets arrive, so an idle worker's
   timers would otherwise wait for traffic) and backs off. *)
let worker_loop t w =
  let ring = t.rings.(w) in
  let pipe = t.pipes.(w) in
  let batch = t.cfg.pipeline.Pipeline.batch in
  let rec loop idle =
    match Spsc.poll ring ~max:batch with
    | -1 -> ()
    | 0 ->
      ignore (Pipeline.poll_timers pipe);
      Spsc.backoff idle;
      loop (idle + 1)
    | n ->
      Pipeline.process_ring_batch pipe ring ~n;
      Spsc.release ring;
      loop 0
  in
  loop 0

let start t =
  if t.running then invalid_arg "Shard.start: already running";
  t.running <- true;
  t.domains <-
    Array.init (Array.length t.pipes) (fun w ->
        Domain.spawn (fun () -> worker_loop t w))

(* The steering hot path: read the key at its fixed offset, hash it once
   ({!Netdsl_format.Bpf.steer}, the kernel steering program's function),
   lease a slot in the destination worker's ring, blit once, publish.
   Nothing here allocates and no lock or shared counter is touched — the
   only shared write is the ring's release-store, and the only shared
   read is the consumer's head when the ring looks full (backpressure). *)
let feed t pkt =
  let len = String.length pkt in
  let key =
    if len < t.key_min then F.View.no_key else F.View.extract_key_int t.key pkt
  in
  (* too short to carry the key: worker 0's decode stage rejects and
     counts it, rather than it vanishing here *)
  if key = F.View.no_key then t.unkeyed <- t.unkeyed + 1;
  let ring = t.rings.(worker_of_key t key) in
  let n = ref 0 in
  while not (Spsc.has_space ring) do
    Spsc.backoff !n;
    incr n
  done;
  Bytes.blit_string pkt 0 (Spsc.slot ring) 0 len;
  Spsc.publish ring len;
  true

let drain t =
  Array.iter Spsc.close t.rings;
  if t.running then begin
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    t.running <- false
  end

let unkeyed t = t.unkeyed
let pipelines t = t.pipes

let stats t =
  let merged = Stats.create Pipeline.stage_names in
  Array.iter (fun p -> Stats.merge_into ~into:merged (Pipeline.stats p)) t.pipes;
  let u = unkeyed t in
  if u > 0 then Stats.note_unkeyed ~n:u merged;
  merged
