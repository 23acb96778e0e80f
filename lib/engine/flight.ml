(* Fused run-to-completion flight plans.

   A [spec] states, declaratively, everything the pipeline does to a
   packet: which fields the stages read, the semantic verify predicate,
   the event classifier, the flow key, and the respond-by-patching
   rules.  {!compile_stack} lowers the spec against a layered {!Stack}
   once, into a {e fused} fast path: one [Stack.run_window] of the chain's compiled
     static-offset kernels decodes, validates and extracts the demanded
     registers in a single pass; every condition is a precompiled closure
     reading a register with one array load, and every respond action a
     fixed-offset patch kernel ({!Emit.kernel}) inside its layer's window
     — no value tree, no boxed values, no per-packet allocation.  A single
     format is a one-layer stack: {!compile} qualifies the spec's bare
     field names once and compiles that, so every flight runs this one
     engine.  The spec record is readable outside, so the oracles'
     reference executor ([Check.Reference]) states the same semantics
     over decoded values without running any of this.

   Ordering guarantee (paper §3.4): [run_window] performs the {e complete}
   syntactic validation of the packet — every constant, constraint,
   computed field and checksum — before returning, and the pipeline
   consults [verify] before any classify/step/respond op.  Fusion changes
   where the work happens, never its order. *)

module F = Netdsl_format
module Fsm = Netdsl_fsm

(* ---- spec ---- *)

type operand = Field of string | Const of int64

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type cond =
  | Cmp of cmp * operand * operand
  | All of cond list
  | Any of cond list
  | Not of cond

type rule = { ev_when : cond; ev_name : string }
type action = { set_field : string; set_to : operand }
type response = { re_when : cond; re_set : action list }

type spec = {
  sp_demand : string list;
  sp_verify : cond option;
  sp_classify : rule list;
  sp_flow_key : string option;
  sp_respond : response list;
}

type plant = Late_static_load | Unrefused_patch | Evict_mru | Late_tick

let spec ?(demand = []) ?verify ?(classify = []) ?flow_key ?(respond = []) () =
  { sp_demand = demand; sp_verify = verify; sp_classify = classify;
    sp_flow_key = flow_key; sp_respond = respond }

let spec_flow_key s = s.sp_flow_key

let rec cond_fields acc = function
  | Cmp (_, a, b) -> operand_field (operand_field acc a) b
  | All cs | Any cs -> List.fold_left cond_fields acc cs
  | Not c -> cond_fields acc c

and operand_field acc = function Field f -> f :: acc | Const _ -> acc

let spec_fields s =
  let acc = s.sp_demand in
  let acc = match s.sp_flow_key with None -> acc | Some f -> f :: acc in
  let acc =
    match s.sp_verify with None -> acc | Some c -> cond_fields acc c
  in
  let acc =
    List.fold_left (fun acc r -> cond_fields acc r.ev_when) acc s.sp_classify
  in
  let acc =
    List.fold_left
      (fun acc r ->
        let acc = cond_fields acc r.re_when in
        List.fold_left (fun acc a -> operand_field acc a.set_to) acc r.re_set)
      acc s.sp_respond
  in
  List.sort_uniq String.compare acc

(* The spec with every field name [f] read as [layer.f]. *)
let qualify layer s =
  let q f = layer ^ "." ^ f in
  let operand = function Field f -> Field (q f) | Const _ as c -> c in
  let rec cond = function
    | Cmp (op, a, b) -> Cmp (op, operand a, operand b)
    | All cs -> All (List.map cond cs)
    | Any cs -> Any (List.map cond cs)
    | Not c -> Not (cond c)
  in
  {
    sp_demand = List.map q s.sp_demand;
    sp_verify = Option.map cond s.sp_verify;
    sp_classify = List.map (fun r -> { r with ev_when = cond r.ev_when }) s.sp_classify;
    sp_flow_key = Option.map q s.sp_flow_key;
    sp_respond =
      List.map
        (fun r ->
          {
            re_when = cond r.re_when;
            re_set =
              List.map (fun a -> { set_field = q a.set_field; set_to = operand a.set_to }) r.re_set;
          })
        s.sp_respond;
  }

(* ---- compiled form ---- *)

(* Event id for a classified name the plan does not know: refused by
   [Step.fire_id] as [Unknown_event] rather than mistaken for
   pass-through. *)
let unknown_event = max_int

(* Flow-key sentinel for "this packet carries no key". *)
let no_key = min_int

(* Guards and the key read the state of the last accepting run, and a
   patch rewrites its layer's window of the reply bytes in place. *)
type patch = Bytes.t -> bool

type t = {
  plan : F.Stack.plan;
  verify : (unit -> bool) option;
  classify : (unit -> bool) array;
  events : int array;  (* interned event id of each classify rule *)
  respond : (unit -> bool) array;
  patches : patch array array;  (* each respond rule's actions *)
  key : unit -> int;
  flow_key_name : string option;  (* qualified *)
}

let cmp_int op x y =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let cmp_i64 op x y = cmp_int op (Int64.compare x y) 0

(* [x op c] as [c (flip op) x] *)
let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | (Eq | Ne) as op -> op

(* Index of the first guard that holds on [x], or -1.  A while-loop, not a
   local recursive closure: this runs per packet and must not allocate. *)
let first_true guards x =
  let n = Array.length guards in
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < n do
    if (Array.unsafe_get guards !i) x then found := !i;
    incr i
  done;
  !found

let rec for_all x = function [] -> true | c :: tl -> c x && for_all x tl
let rec exists x = function [] -> false | c :: tl -> c x || exists x tl

(* The boolean structure of a condition over its leaf lowering. *)
let rec lower_cond leaf = function
  | Cmp (op, a, b) -> leaf op a b
  | All cs ->
    let cs = List.map (lower_cond leaf) cs in
    fun () -> for_all () cs
  | Any cs ->
    let cs = List.map (lower_cond leaf) cs in
    fun () -> exists () cs
  | Not c ->
    let c = lower_cond leaf c in
    fun () -> not (c ())

(* ---- register-side lowering (the fused plan) ----

   [reg f] resolves field [f] once, at compile time, to a register file
   and a slot in it: every leaf reads the register of the last accepting
   run with one array load.  A register reads -1 when the accepted packet
   does not carry the field (a variant case without it).  Then a
   comparison is false, the key is [no_key] and a patch is refused. *)

(* [c] as a native int, when it fits *)
let to_native c =
  let i = Int64.to_int c in
  if Int64.equal (Int64.of_int i) c then Some i else None

(* A register against a constant, one closure per operator. *)
let reg_vs_const op (file, i) c : unit -> bool =
  match op with
  | Eq -> fun () -> let x = Array.unsafe_get file i in x >= 0 && x = c
  | Ne -> fun () -> let x = Array.unsafe_get file i in x >= 0 && x <> c
  | Lt -> fun () -> let x = Array.unsafe_get file i in x >= 0 && x < c
  | Le -> fun () -> let x = Array.unsafe_get file i in x >= 0 && x <= c
  | Gt -> fun () -> let x = Array.unsafe_get file i in x >= 0 && x > c
  | Ge -> fun () -> let x = Array.unsafe_get file i in x >= 0 && x >= c

let rec reg_cmp reg op a b =
  match (a, b) with
  | Field fa, Field fb ->
    let (fa, ia) = reg fa and (fb, ib) = reg fb in
    fun () ->
      let x = Array.unsafe_get fa ia in
      x >= 0
      &&
      let y = Array.unsafe_get fb ib in
      y >= 0 && cmp_int op x y
  | Field fa, Const c -> (
    match to_native c with
    | Some c -> reg_vs_const op (reg fa) c
    | None ->
      (* outside native-int range: every register value compares to [c]
         as 0 does *)
      let file, i = reg fa in
      let k = cmp_i64 op 0L c in
      fun () -> Array.unsafe_get file i >= 0 && k)
  | Const _, Field _ -> reg_cmp reg (flip op) b a
  | Const ca, Const cb ->
    let k = cmp_i64 op ca cb in
    fun () -> k

(* The patch of one action inside layer [j]'s window, read from the
   chain's window array ([off] at [2j], [len] at [2j + 1]) of the
   accepted request the reply copies: the field's compiled kernel and its
   source register or constant, all resolved here.  An action on a field
   that cannot be patched ({!Stack.patcher} refused it) compiles, and
   refuses every packet at the encode stage. *)
let reg_patch reg patcher win j src : patch =
  match patcher with
  | Error _ -> fun _ -> false
  | Ok p -> (
    let k = F.Emit.kernel p in
    let o = 2 * j in
    match src with
    | Field f ->
      let file, i = reg f in
      fun buf ->
        let v = Array.unsafe_get file i in
        v >= 0 && k buf (Array.unsafe_get win o) (Array.unsafe_get win (o + 1)) v
    | Const c -> (
      match to_native c with
      | Some v -> fun buf -> k buf (Array.unsafe_get win o) (Array.unsafe_get win (o + 1)) v
      | None ->
        fun buf ->
          Result.is_ok
            (F.Emit.patch_window p ~off:(Array.unsafe_get win o)
               ~len:(Array.unsafe_get win (o + 1)) buf c)))

(* ---- compile ---- *)

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    Result.bind (f x) (fun y ->
        Result.bind (map_result f tl) (fun tl -> Ok (y :: tl)))

(* Every spec field is a qualified ["layer.field"] register of the
   compiled {!Stack.plan}, and actions patch inside the owning layer's
   recorded window — the reply buffer is a byte copy of the accepted
   request, so those windows are valid patch targets.  The planted
   [Unrefused_patch] resolves a patch with {!Emit.patcher} alone, as if
   {!Stack.patcher}'s refusal under a payload checksum were switched
   off. *)
let compile_stack ?plan ?plant stack sp =
  let ( let* ) = Result.bind in
  let plant_late_load = plant = Some Late_static_load in
  let patcher j field =
    if plant = Some Unrefused_patch then F.Emit.patcher (F.Stack.layer_format stack j) field
    else F.Stack.patcher stack j field
  in
  let* p = F.Stack.compile ~demand:(spec_fields sp) ~plant_late_load stack in
  let reg f =
    match F.Stack.reg p f with
    | Ok r -> (F.Stack.registers p, r)
    | Error e -> invalid_arg ("Flight: " ^ e)
  in
  let action a =
    let* j, field = F.Stack.locate p a.set_field in
    Ok (reg_patch reg (patcher j field) (F.Stack.windows p) j a.set_to)
  in
  let* patches =
    map_result (fun r -> Result.map Array.of_list (map_result action r.re_set)) sp.sp_respond
  in
  let event_of r =
    match plan with
    | None -> unknown_event
    | Some plan ->
      let id = Fsm.Step.event_id plan r.ev_name in
      if id < 0 then unknown_event else id
  in
  let cond = lower_cond (reg_cmp reg) in
  Ok
    {
      plan = p;
      flow_key_name = sp.sp_flow_key;
      verify = Option.map cond sp.sp_verify;
      classify = Array.of_list (List.map (fun r -> cond r.ev_when) sp.sp_classify);
      events = Array.of_list (List.map event_of sp.sp_classify);
      respond = Array.of_list (List.map (fun r -> cond r.re_when) sp.sp_respond);
      patches = Array.of_list patches;
      key =
        (match sp.sp_flow_key with
        | None -> fun () -> no_key
        | Some f ->
          let file, i = reg f in
          fun () ->
            let v = Array.unsafe_get file i in
            if v < 0 then no_key else v);
    }

(* A single format is a one-layer stack named after the format; the
   spec's bare names are qualified once, here. *)
let compile ?plan ?plant (fmt : F.Desc.t) sp =
  let layer = fmt.F.Desc.format_name in
  match
    Result.bind
      (F.Stack.v ~name:layer [ F.Stack.layer fmt ])
      (fun stack -> compile_stack ?plan ?plant stack (qualify layer sp))
  with
  | Ok t -> t
  | Error e -> invalid_arg ("Flight.compile: " ^ e)

let flow_key_name t = t.flow_key_name
let stack_plan t = t.plan

(* ---- fused per-packet interface ---- *)

let run_window t ~off ~len data = F.Stack.run_window t.plan ~off ~len data

let verify_armed t = t.verify <> None
let verify_ok t = match t.verify with None -> true | Some c -> c ()
let classify_armed t = Array.length t.classify > 0

(* First matching rule wins; no match means the packet does not concern
   the machine (pass-through, -1). *)
let event t =
  let i = first_true t.classify () in
  if i < 0 then -1 else Array.unsafe_get t.events i

(* Flow key as a native int; [no_key] = [min_int] means "no key on this
   packet" (fall back to the shared default instance).  Wide keys are
   truncated by [Int64.to_int]. *)
let flow_key t = t.key ()

let response t = first_true t.respond ()

let apply t idx buf ~len:_ =
  let set = t.patches.(idx) in
  let n = Array.length set in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    ok := (Array.unsafe_get set !i) buf;
    incr i
  done;
  !ok

let n_responses t = Array.length t.respond
