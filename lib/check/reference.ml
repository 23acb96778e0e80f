(* The reference executor: the spec's semantics over decoded values, the
   machine interpreter per flow, a hashed flow table on an explicit LRU
   list and a sorted timer list.  It reads the data types of the engine's
   spec ([Flight.spec]), configuration and outcome, and runs none of the
   engine's code: see reference.mli for the semantics it states. *)

module Desc = Netdsl_format.Desc
module Value = Netdsl_format.Value
module Codec = Netdsl_format.Codec
module Stack = Netdsl_format.Stack
module Sizing = Netdsl_format.Sizing
module Machine = Netdsl_fsm.Machine
module Interp = Netdsl_fsm.Interp
module Pipeline = Netdsl_engine.Pipeline
module Flight = Netdsl_engine.Flight

(* A resolved field: its layer and its bare name there. *)
type field = { layer : int; name : string }

type operand = field option * int64 (* a field to read, else the constant *)

(* A spec condition with its field names resolved. *)
type cond =
  | Cmp of Flight.cmp * operand * operand
  | All of cond list
  | Any of cond list
  | Not of cond

(* One respond action: the field it sets ([Error] when no rule may set
   it) and where the value comes from. *)
type action = { target : (field, string) result; source : operand }

type flow = {
  key : int;
  mutable cfg : Machine.config;
  (* the LRU list: [older] towards the eviction end *)
  mutable older : flow option;
  mutable newer : flow option;
}

(* A pending timer; [seq] is its arm order. *)
type timer = { due : int; seq : int; t_key : int; ev : string }

type counter = { mutable c_packets : int; mutable c_bytes : int; mutable c_rejects : int }

type count = { packets : int; bytes : int; rejects : int }

let no_key = min_int

type t = {
  layers : Desc.t array;
  seq : Stack.Seq.t;
  vias : string array;
  verify : cond option;
  classify : (cond * string) list;
  key_field : field option;
  respond : (cond * action list) list;
  interp : Interp.t option;  (* stepping one flow at a time *)
  initial : Machine.config;
  default_flow : flow;
  keyed : bool;
  flows : (int, flow) Hashtbl.t;
  mutable lru : flow option;  (* the eviction end *)
  mutable mru : flow option;
  max_flows : int;
  clock_ms : unit -> int;
  tick_ms : int;
  mutable now : int;  (* tick of the last poll, or of a firing timer *)
  mutable timers : timer list;  (* sorted by (due, seq) *)
  mutable next_seq : int;
  on_response : string -> unit;
  decode : counter;
  verify_c : counter;
  step : counter;
  encode : counter;
  mutable evicted : int;
  mutable expired : int;
}

let counter () = { c_packets = 0; c_bytes = 0; c_rejects = 0 }

(* ---- reading the spec ---- *)

let resolve ~stack_names name =
  match stack_names with
  | None -> { layer = 0; name }
  | Some names -> (
    match String.index_opt name '.' with
    | None -> invalid_arg (Printf.sprintf "Reference: field %S is not layer.field" name)
    | Some i ->
      let lname = String.sub name 0 i
      and fname = String.sub name (i + 1) (String.length name - i - 1) in
      let rec find j = function
        | [] -> invalid_arg (Printf.sprintf "Reference: no layer %S" lname)
        | n :: rest -> if String.equal n lname then j else find (j + 1) rest
      in
      { layer = find 0 names; name = fname })

(* The names any field of [fmt] is derived from: lengths, computed
   values and variant tags, at any depth. *)
let derived_from (fmt : Desc.t) =
  let rec expr acc (e : Desc.expr) =
    match e with
    | Field n -> n :: acc
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> expr (expr acc a) b
    | Const _ | Msg_len | Byte_len _ -> acc
  in
  let len acc = function
    | Desc.Len_expr e | Desc.Len_bytes e -> expr acc e
    | Desc.Len_fixed _ | Desc.Len_remaining | Desc.Len_terminated _ -> acc
  in
  let rec fields acc (f : Desc.t) = List.fold_left field acc f.fields
  and field acc (f : Desc.field) =
    match f.ty with
    | Computed { expr = e; _ } -> expr acc e
    | Bytes l -> len acc l
    | Array { elem; length } -> fields (len acc length) elem
    | Record sub -> fields acc sub
    | Variant { tag; cases; default } ->
      let acc = List.fold_left (fun acc (_, _, sub) -> fields acc sub) (tag :: acc) cases in
      Option.fold ~none:acc ~some:(fields acc) default
    | Uint _ | Bool_flag | Const _ | Enum _ | Checksum _ | Padding _ -> acc
  in
  fields [] fmt

(* Whether a checksum of carrier [fmt] covers its payload field [via]:
   the region reaches the end of the message, or its span runs through
   [via]. *)
let covers_payload (fmt : Desc.t) via =
  let index n =
    let rec go i = function
      | [] -> -1
      | (f : Desc.field) :: rest -> if String.equal f.name n then i else go (i + 1) rest
    in
    go 0 fmt.fields
  in
  List.exists
    (fun (f : Desc.field) ->
      match f.ty with
      | Checksum { region = Region_message | Region_rest; _ } -> true
      | Checksum { region = Region_span (a, b); _ } ->
        let v = index via in
        index a <= v && v <= index b
      | _ -> false)
    fmt.fields

(* Which fields a respond rule may set (reference.mli). *)
let settable layers vias { layer; name } =
  let fmt = layers.(layer) in
  let rec enclosing i =
    if i >= layer then Ok ()
    else if covers_payload layers.(i) vias.(i) then
      Error
        (Printf.sprintf "a checksum of layer %s covers the payload that carries %s"
           layers.(i).Desc.format_name name)
    else enclosing (i + 1)
  in
  match Desc.find_field fmt name with
  | None -> Error (Printf.sprintf "%S is not a top-level field" name)
  | Some f -> (
    match f.ty with
    | Uint { bits; _ } | Enum { bits; _ } -> (
      match Sizing.fixed_field_span fmt name with
      | Ok (off, _) when off land 7 = 0 && bits land 7 = 0 ->
        if List.mem name (derived_from fmt) then
          Error (Printf.sprintf "other fields are derived from %S" name)
        else enclosing 0
      | _ -> Error (Printf.sprintf "%S is not whole bytes at a fixed offset" name))
    | _ -> Error (Printf.sprintf "%S is not a plain integer field" name))

let create ?(config = Pipeline.default_config) ?stack ?machine
    ?(clock_ms = fun () -> int_of_float (Unix.gettimeofday () *. 1e3)) ?(tick_ms = 1)
    ?(on_response = fun _ -> ()) ~(flight : Flight.spec) (fmt : Desc.t) =
  if tick_ms <= 0 then invalid_arg "Reference.create: tick_ms must be positive";
  let stack_names = Option.map Stack.layer_names stack in
  let stack =
    match stack with
    | Some s -> s
    | None -> (
      match Stack.v ~name:fmt.format_name [ Stack.layer fmt ] with
      | Ok s -> s
      | Error e -> invalid_arg ("Reference.create: " ^ e))
  in
  let plan =
    match Stack.compile stack with
    | Ok p -> p
    | Error e -> invalid_arg ("Reference.create: " ^ e)
  in
  let n = List.length (Stack.layer_names stack) in
  let layers = Array.init n (Stack.layer_format stack) in
  let vias = Array.init n (Stack.layer_via stack) in
  (* a name the layer has: a top-level field or a field of a top-level
     variant's case, which is what [Value.find_int_flat] reads *)
  let resolve name =
    let f = resolve ~stack_names name in
    let names (fs : Desc.field list) = List.map (fun (g : Desc.field) -> g.name) fs in
    let known =
      List.concat_map
        (fun (g : Desc.field) ->
          match g.ty with
          | Variant { cases; default; _ } ->
            g.name
            :: List.concat_map (fun (_, _, (sub : Desc.t)) -> names sub.fields) cases
            @ Option.fold ~none:[] ~some:(fun (d : Desc.t) -> names d.fields) default
          | _ -> [ g.name ])
        layers.(f.layer).Desc.fields
    in
    if List.mem f.name known then f
    else invalid_arg (Printf.sprintf "Reference.create: no field %S" name)
  in
  let operand = function
    | Flight.Field f -> (Some (resolve f), 0L)
    | Flight.Const c -> (None, c)
  in
  let action (a : Flight.action) =
    let f = resolve a.set_field in
    { target = Result.map (fun () -> f) (settable layers vias f); source = operand a.set_to }
  in
  let interp = Option.map (fun m -> Interp.instantiate (Interp.prepare m)) machine in
  let initial =
    match interp with Some it -> Interp.config it | None -> { Machine.state = ""; regs = [] }
  in
  let rec cond : Flight.cond -> cond = function
    | Cmp (op, a, b) -> Cmp (op, operand a, operand b)
    | All cs -> All (List.map cond cs)
    | Any cs -> Any (List.map cond cs)
    | Not c -> Not (cond c)
  in
  {
    layers;
    seq = Stack.Seq.create plan;
    vias;
    verify = Option.map cond flight.sp_verify;
    classify = List.map (fun (r : Flight.rule) -> (cond r.ev_when, r.ev_name)) flight.sp_classify;
    key_field = Option.map resolve flight.sp_flow_key;
    respond =
      List.map
        (fun (r : Flight.response) -> (cond r.re_when, List.map action r.re_set))
        flight.sp_respond;
    interp;
    initial;
    default_flow = { key = no_key; cfg = initial; older = None; newer = None };
    keyed = flight.sp_flow_key <> None;
    flows = Hashtbl.create 64;
    lru = None;
    mru = None;
    max_flows = config.max_flows;
    clock_ms;
    tick_ms;
    now = clock_ms () / tick_ms;
    timers = [];
    next_seq = 0;
    on_response;
    decode = counter ();
    verify_c = counter ();
    step = counter ();
    encode = counter ();
    evicted = 0;
    expired = 0;
  }

(* ---- conditions over the decoded layers ---- *)

let read t { layer; name } = Value.find_int_flat (Stack.Seq.value t.seq layer) name

let value t = function None, c -> Some c | Some f, _ -> read t f

(* A comparison on a field the packet does not carry is false. *)
let rec holds t = function
  | Cmp (op, a, b) -> (
    match (value t a, value t b) with
    | Some x, Some y -> (
      let c = Int64.compare x y in
      match op with
      | Flight.Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0)
    | _ -> false)
  | All cs -> List.for_all (holds t) cs
  | Any cs -> List.exists (holds t) cs
  | Not c -> not (holds t c)

let first t rules = List.find_opt (fun (c, _) -> holds t c) rules

(* ---- the flow table: a hash on an explicit LRU list ---- *)

let unlink t f =
  (match f.older with Some o -> o.newer <- f.newer | None -> t.lru <- f.newer);
  (match f.newer with Some n -> n.older <- f.older | None -> t.mru <- f.older);
  f.older <- None;
  f.newer <- None

let push_mru t f =
  f.older <- t.mru;
  f.newer <- None;
  (match t.mru with Some m -> m.newer <- Some f | None -> t.lru <- Some f);
  t.mru <- Some f

let cancel t key = t.timers <- List.filter (fun tm -> tm.t_key <> key) t.timers

(* The flow of [key], made most recent; minted (evicting the least
   recently used flow and its timer at the bound) when new. *)
let touch t key =
  if (not t.keyed) || key = no_key then t.default_flow
  else
    match Hashtbl.find_opt t.flows key with
    | Some f ->
      unlink t f;
      push_mru t f;
      f
    | None ->
      if Hashtbl.length t.flows >= t.max_flows then begin
        match t.lru with
        | Some victim ->
          unlink t victim;
          Hashtbl.remove t.flows victim.key;
          cancel t victim.key;
          t.evicted <- t.evicted + 1
        | None -> ()
      end;
      let f = { key; cfg = t.initial; older = None; newer = None } in
      Hashtbl.replace t.flows key f;
      push_mru t f;
      f

(* ---- timers: a list sorted by deadline tick, then arm order ---- *)

let arm t key ~after_ms ~ev =
  let due = t.now + max 1 ((after_ms + t.tick_ms - 1) / t.tick_ms) in
  let same tm = tm.t_key = key && tm.due = due && String.equal tm.ev ev in
  if not (List.exists same t.timers) then begin
    cancel t key;
    let tm = { due; seq = t.next_seq; t_key = key; ev } in
    t.next_seq <- t.next_seq + 1;
    let rec insert = function
      | x :: rest when x.due < due || (x.due = due && x.seq < tm.seq) -> x :: insert rest
      | l -> tm :: l
    in
    t.timers <- insert t.timers
  end

(* Step [f] with [ev]; a fired transition's timer clause applies at the
   current tick.  [false] when the machine refuses the event. *)
let fire t it f ev =
  Interp.resume it f.cfg;
  match Interp.fire it ev with
  | Ok tr ->
    f.cfg <- Interp.config it;
    (match tr.Machine.timer with
    | Machine.No_timer -> ()
    | Arm_timer { after_ms; fire } -> arm t f.key ~after_ms ~ev:fire
    | Cancel_timer -> cancel t f.key);
    true
  | Error _ -> false

let poll_timers t =
  let target = t.clock_ms () / t.tick_ms in
  if target <= t.now then 0
  else begin
    let fired = ref 0 and refused = ref 0 in
    let rec go () =
      match t.timers with
      | tm :: rest when tm.due <= target ->
        t.timers <- rest;
        t.now <- tm.due;
        incr fired;
        let ok =
          match t.interp with
          | None -> false
          | Some it -> (
            if (not t.keyed) || tm.t_key = no_key then fire t it t.default_flow tm.ev
            else
              match Hashtbl.find_opt t.flows tm.t_key with
              | None -> false
              | Some f ->
                unlink t f;
                push_mru t f;
                fire t it f tm.ev)
        in
        if not ok then incr refused;
        go ()
      | _ -> ()
    in
    go ();
    t.now <- target;
    t.expired <- t.expired + !fired;
    t.step.c_packets <- t.step.c_packets + !fired;
    t.step.c_rejects <- t.step.c_rejects + !refused;
    !fired
  end

(* ---- replies: decode, substitute, re-encode from the innermost ---- *)

let substitute v name x =
  match v with
  | Value.Record fields ->
    Value.Record (List.map (fun (n, y) -> if String.equal n name then (n, x) else (n, y)) fields)
  | v -> v

(* The reply to the decoded request, or [None] when an action cannot
   apply or a layer does not re-encode. *)
let reply t actions =
  let values = Array.init (Array.length t.layers) (Stack.Seq.value t.seq) in
  let set a =
    match (a.target, value t a.source) with
    | Ok f, Some x ->
      values.(f.layer) <- substitute values.(f.layer) f.name (Value.Int x);
      true
    | _ -> false
  in
  let rec encode i inner =
    if i < 0 then inner
    else
      let v = match inner with None -> values.(i) | Some p -> substitute values.(i) t.vias.(i) (Value.Bytes p) in
      match Codec.encode t.layers.(i) v with
      | Ok s -> encode (i - 1) (Some s)
      | Error _ -> None
  in
  if List.for_all set actions then encode (Array.length t.layers - 1) None else None

(* ---- per packet ---- *)

let note c ~bytes ~reject =
  c.c_packets <- c.c_packets + 1;
  c.c_bytes <- c.c_bytes + bytes;
  if reject then c.c_rejects <- c.c_rejects + 1

let packet t pkt : Pipeline.outcome =
  let len = String.length pkt in
  match Stack.Seq.decode t.seq pkt with
  | Error e ->
    note t.decode ~bytes:len ~reject:true;
    Rejected_decode e
  | Ok () -> (
    note t.decode ~bytes:len ~reject:false;
    let verified =
      match t.verify with
      | None -> true
      | Some c ->
        let ok = holds t c in
        note t.verify_c ~bytes:len ~reject:(not ok);
        ok
    in
    if not verified then Rejected_verify
    else
      let stepped =
        match t.interp with
        | Some it when t.classify <> [] -> (
          match first t t.classify with
          | None ->
            note t.step ~bytes:len ~reject:false;
            true
          | Some (_, ev) ->
            let key =
              match t.key_field with
              | None -> no_key
              | Some f -> (match read t f with Some v -> Int64.to_int v | None -> no_key)
            in
            let ok = fire t it (touch t key) ev in
            note t.step ~bytes:len ~reject:(not ok);
            ok)
        | _ -> true
      in
      if not stepped then Rejected_step
      else
        match first t t.respond with
        | None -> Accepted
        | Some (_, actions) -> (
          match reply t actions with
          | Some r ->
            note t.encode ~bytes:len ~reject:false;
            t.on_response r;
            Accepted
          | None ->
            note t.encode ~bytes:0 ~reject:true;
            Rejected_encode))

let process t pkt =
  let o = packet t pkt in
  ignore (poll_timers t);
  o

let process_batch t pkts n =
  for i = 0 to n - 1 do
    ignore (packet t pkts.(i))
  done;
  ignore (poll_timers t)

let flow_count t = Hashtbl.length t.flows
let timers_live t = List.length t.timers
let evicted t = t.evicted
let expired t = t.expired

let stage t name =
  let c =
    match name with
    | "decode" -> t.decode
    | "verify" -> t.verify_c
    | "step" -> t.step
    | "encode" -> t.encode
    | _ -> invalid_arg ("Reference.stage: " ^ name)
  in
  { packets = c.c_packets; bytes = c.c_bytes; rejects = c.c_rejects }
