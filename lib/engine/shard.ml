module F = Netdsl_format

type config = {
  workers : int;
  pipeline : Pipeline.config;
}

let default_config =
  { workers = Domain.recommended_domain_count ();
    pipeline = Pipeline.default_config }

(* ------------------------------------------------------------------ *)
(* Steering: the RSS discipline.  The flow key is hashed exactly once at
   ingest (Fibonacci hashing — adjacent key values spread instead of
   clustering), masked into a power-of-two bucket table, and the bucket's
   owner is the destination worker.  Workers never read the table; the
   single steering thread owns it outright, so re-owning a bucket (work
   stealing) is a plain store.

   Per-flow ordering across a migration is kept by a *fence* per bucket:
   when bucket [b] moves from victim [v] to a thief, the fence records
   [v]'s ring position at that instant.  The first post-migration packet
   of [b] the thief meets makes it wait until [v]'s released head passes
   the fence — everything [v] was ever handed for [b] is done before the
   thief touches the bucket.  Fences compose across repeated migrations
   because releases are FIFO (see DESIGN.md "Stealing whole buckets"). *)
module Steer = struct
  type t = {
    n_workers : int;
    b_bits : int;
    b_mask : int;
    owner : int array; (* bucket -> worker; steering thread only *)
    fence : int Atomic.t array; (* bucket -> (pos lsl 6) lor (victim+1); 0 = none *)
    hungry : bool Atomic.t array; (* worker raises; steering thread consumes *)
    stealing : bool;
    threshold : int; (* a victim needs a backlog deeper than this *)
    mutable last_bucket : int; (* bucket of the last routed packet; -1 unkeyed *)
    mutable routed : int;
    mutable unkeyed : int;
    mutable steals : int; (* buckets migrated so far *)
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let create ?(buckets = 256) ?(stealing = false) ?(steal_threshold = 64)
      ~workers () =
    if workers <= 0 then invalid_arg "Steer.create: workers must be positive";
    if workers > 62 then invalid_arg "Steer.create: at most 62 workers";
    if steal_threshold < 0 then
      invalid_arg "Steer.create: steal_threshold must be non-negative";
    let nb = next_pow2 (max buckets workers) in
    let b_bits =
      let rec go b = if 1 lsl b >= nb then b else go (b + 1) in
      go 0
    in
    {
      n_workers = workers;
      b_bits;
      b_mask = nb - 1;
      owner = Array.init nb (fun b -> b mod workers);
      fence = Array.init nb (fun _ -> Atomic.make 0);
      hungry = Array.init workers (fun _ -> Atomic.make false);
      stealing;
      threshold = steal_threshold;
      last_bucket = -1;
      routed = 0;
      unkeyed = 0;
      steals = 0;
    }

  let workers t = t.n_workers
  let buckets t = t.b_mask + 1
  let stealing t = t.stealing
  let steals t = t.steals
  let unkeyed t = t.unkeyed

  (* Fibonacci hashing: multiply by 2^64/phi (as a 63-bit int) and keep
     the *top* bucket-index bits — a mask, never a mod. *)
  let bucket_of_key t k = (k * 0x2545F4914F6CDD1D) lsr (63 - t.b_bits) land t.b_mask

  let worker_of_key t k =
    if k = F.View.no_key then 0 else t.owner.(bucket_of_key t k)

  (* Steering-thread only: route one packet, remembering its bucket so
     the caller can tag the published slot with it. *)
  let route t ~key =
    t.routed <- t.routed + 1;
    if key = F.View.no_key then begin
      (* too short to carry the key: let worker 0's decode stage reject
         and count it, rather than dropping it invisibly here *)
      t.unkeyed <- t.unkeyed + 1;
      t.last_bucket <- -1;
      0
    end
    else begin
      let b = bucket_of_key t key in
      t.last_bucket <- b;
      t.owner.(b)
    end

  let last_bucket t = t.last_bucket

  (* Worker side: raise the "I am out of work" flag the steering thread
     answers with a bucket migration.  No-op unless stealing is on. *)
  let mark_hungry t w = if t.stealing then Atomic.set t.hungry.(w) true

  (* Steering-thread only.  Serve one hungry worker: hand it every other
     bucket of the deepest-backlog victim, fencing each moved bucket at
     the victim's current ring position.  The fence word is written
     before the owner flip, and both are visible to the thief no later
     than the release-publish of the first post-migration packet. *)
  let rebalance t rings =
    let thief = ref (-1) in
    let w = ref 0 in
    while !thief < 0 && !w < t.n_workers do
      if Atomic.get t.hungry.(!w) then thief := !w;
      incr w
    done;
    if !thief >= 0 then begin
      let thief = !thief in
      Atomic.set t.hungry.(thief) false;
      (* only feed a worker that is still actually out of work *)
      if Spsc.length rings.(thief) = 0 then begin
        let victim = ref (-1) and depth = ref t.threshold in
        for w = 0 to t.n_workers - 1 do
          if w <> thief then begin
            let d = Spsc.length rings.(w) in
            if d > !depth then begin
              victim := w;
              depth := d
            end
          end
        done;
        if !victim >= 0 then begin
          let v = !victim in
          let fence_word = (Spsc.producer_pos rings.(v) lsl 6) lor (v + 1) in
          let moved = ref 0 and seen = ref 0 in
          for b = 0 to t.b_mask do
            if t.owner.(b) = v then begin
              incr seen;
              if !seen land 1 = 1 then begin
                Atomic.set t.fence.(b) fence_word;
                t.owner.(b) <- thief;
                incr moved
              end
            end
          done;
          t.steals <- t.steals + !moved
        end
      end
    end

  (* Steering-thread only; call once per routed packet.  Cheap when idle:
     one immediate-bool test and a mask. *)
  let maybe_rebalance t rings =
    if t.stealing && t.routed land 31 = 0 then rebalance t rings

  (* Worker side: before processing a claimed batch, honour any migration
     fence its packets carry — wait until the fence's victim has released
     past the recorded position.  A fence naming ourselves is vacuous
     (our own FIFO already orders those packets). *)
  let fence_wait t rings ~me ~ring ~n =
    if t.stealing then
      for i = 0 to n - 1 do
        let b = Spsc.tag ring i in
        if b >= 0 then begin
          let f = Atomic.get t.fence.(b) in
          if f <> 0 then begin
            let v = (f land 63) - 1 in
            if v <> me then begin
              let pos = f lsr 6 in
              let k = ref 0 in
              while Spsc.head_pos rings.(v) < pos do
                Spsc.backoff !k;
                incr k
              done
            end
          end
        end
      done
end

(* ------------------------------------------------------------------ *)

type t = {
  cfg : config;
  key : F.View.key_extractor;
  key_min : int;  (* fewest packet bytes that carry the key *)
  steer : Steer.t;
  pipes : Pipeline.t array;
  rings : Spsc.t array;
  mutable domains : unit Domain.t array;
  mutable running : bool;
  warning : string option;
}

let create ?(config = default_config) ?(allow_oversubscribe = false)
    ?(stealing = false) ?steal_threshold ?buckets ~key ?mode ?flight ?machine
    ?on_transition ?clock_ms ?now_ns ?tick_ms ?on_response ?on_reply_slot
    fmt =
  if config.workers <= 0 then Error "Shard.create: workers must be positive"
  else
    match F.View.key_extractor fmt key with
    | Error e -> Error (Printf.sprintf "Shard.create: bad key field: %s" e)
    | Ok ke ->
      (* More worker domains than cores is a benchmark lie waiting to
         happen: domains time-share, per-worker throughput collapses, and
         "scaling" rows measure the scheduler.  Clamp unless the caller
         explicitly opts into oversubscription, and say so in the stats
         either way. *)
      let cores = Domain.recommended_domain_count () in
      let workers, warning =
        if config.workers <= cores then (config.workers, None)
        else if allow_oversubscribe then
          ( config.workers,
            Some
              (Printf.sprintf
                 "shard: %d workers oversubscribe %d available core(s)"
                 config.workers cores) )
        else
          ( cores,
            Some
              (Printf.sprintf
                 "shard: requested %d workers, clamped to %d available \
                  core(s)"
                 config.workers cores) )
      in
      let steal_threshold =
        match steal_threshold with
        | Some th -> th
        | None -> config.pipeline.Pipeline.batch
      in
      let steer = Steer.create ?buckets ~stealing ~steal_threshold ~workers () in
      let rings =
        Array.init workers (fun _ ->
            Spsc.create ~slot_bytes:config.pipeline.Pipeline.slot_bytes
              ~capacity:config.pipeline.Pipeline.ring_capacity ())
      in
      let pipes =
        Array.init workers (fun w ->
            (* window index -> absolute position in worker [w]'s ring *)
            let on_reply_slot =
              Option.map
                (fun f i buf len ->
                  f w (if i < 0 then -1 else Spsc.consumer_pos rings.(w) + i)
                    buf len)
                on_reply_slot
            in
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
          steer;
          pipes;
          rings;
          domains = [||];
          running = false;
          warning;
        }

let workers t = Array.length t.pipes
let warning t = t.warning
let worker_of_key t k = Steer.worker_of_key t.steer k
let steering t = t.steer
let rings t = t.rings

(* One worker domain: claim a batch from the ring, honour migration
   fences, run it through the pipeline in place, release.  Empty polls
   raise the hungry flag (a work-stealing request), poll the timer wheel
   (a batch window polls it only when packets arrive, so an idle
   worker's timers would otherwise wait for traffic) and back off. *)
let worker_loop t w =
  let ring = t.rings.(w) in
  let pipe = t.pipes.(w) in
  let batch = t.cfg.pipeline.Pipeline.batch in
  let rec loop idle =
    match Spsc.poll ring ~max:batch with
    | -1 -> ()
    | 0 ->
      Steer.mark_hungry t.steer w;
      ignore (Pipeline.poll_timers pipe);
      Spsc.backoff idle;
      loop (idle + 1)
    | n ->
      Steer.fence_wait t.steer t.rings ~me:w ~ring ~n;
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

let route t pkt ~len =
  let key =
    if len < t.key_min then F.View.no_key else F.View.extract_key_int t.key pkt
  in
  Steer.route t.steer ~key

(* The steering hot path: hash the key once, lease a slot in the
   destination worker's ring, blit once, publish the index.  Nothing
   here allocates and no lock or shared counter is touched — the only
   shared write is the ring's release-store, and the only shared read is
   the consumer's head when the ring looks full (backpressure). *)
let feed t pkt =
  let len = String.length pkt in
  let ring = t.rings.(route t pkt ~len) in
  let n = ref 0 in
  while not (Spsc.has_space ring) do
    Spsc.backoff !n;
    incr n
  done;
  Bytes.blit_string pkt 0 (Spsc.slot ring) 0 len;
  Spsc.publish ring ~tag:(Steer.last_bucket t.steer) len;
  Steer.maybe_rebalance t.steer t.rings;
  true

let drain t =
  Array.iter Spsc.close t.rings;
  if t.running then begin
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    t.running <- false
  end

let unkeyed t = Steer.unkeyed t.steer
let steals t = Steer.steals t.steer
let pipelines t = t.pipes

let stats t =
  let merged = Stats.create Pipeline.stage_names in
  Array.iter (fun p -> Stats.merge_into ~into:merged (Pipeline.stats p)) t.pipes;
  let u = unkeyed t in
  if u > 0 then Stats.note_unkeyed ~n:u merged;
  merged
