(* Fused run-to-completion flight plans.

   A [spec] states, declaratively, everything the pipeline does to a
   packet: which fields the stages read, the semantic verify predicate,
   the event classifier, the flow key, and the respond-by-patching
   rules.  {!compile} lowers the spec against a format
   once, into two coordinated artefacts:

   - a {e fused} fast path: when the format admits a {!View.Hot} plan for
     exactly the demanded fields, one [Hot.run] decodes, validates and
     extracts the demanded registers in a single pass, and every
     condition is a precompiled closure over native-int registers — no
     [View.t], no boxed values, no per-packet allocation.  When the
     format (or a demanded field) is outside the linear subset, the fused
     path falls back to an internal reusable [View.t]: still fused
     control flow, staged decode machinery.

   - {e staged} derivations ({!staged_verify}, {!staged_classify_id},
     {!staged_respond_patch}): the same spec as closures over a decoded
     view, which the pipeline's [Staged] reference executor runs — so
     [Staged] and [Fused] modes of one pipeline run the {e same
     semantics} from the same source of truth and can be diffed by the
     oracle.

   Ordering guarantee (paper §3.4): [run] performs the {e complete}
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

(* ---- compiled form ---- *)

(* Event id for a classified name the plan does not know: refused by
   [Step.fire_id] as [Unknown_event] rather than mistaken for
   pass-through. *)
let unknown_event = max_int

(* Flow-key sentinel for "this packet carries no key". *)
let no_key = min_int

type engine =
  | Linear of F.View.Hot.t  (* fused fast path: registers, no View.t *)
  | Interp of F.View.t  (* fallback: fused control flow, staged decode *)
  | Stacked of F.Stack.plan  (* fused layered chain: qualified registers *)

type crule = {
  (* classify rule: precompiled guard on each side, interned event id *)
  c_hot : unit -> bool;
  c_view : F.View.t -> bool;
  c_ev : int;
}

type caction = {
  a_patcher : (F.Emit.patcher, string) result;
  a_field : string;
  a_layer : int;  (* Stacked engine: owning layer index; -1 otherwise *)
  a_hot : unit -> int64;
  (* unboxed source for the fused tiers — [Some] whenever the value is a
     native-int register or an in-range constant, so the applied patch
     allocates nothing ([a_hot] is the boxing fallback) *)
  a_hot_int : (unit -> int) option;
  a_view : F.View.t -> int64 option;
}

type cresponse = {
  r_hot : unit -> bool;
  r_view : F.View.t -> bool;
  r_set : caction array;
}

type t = {
  fmt : F.Desc.t;
  sp_key : string option;
  engine : engine;
  verify_hot : (unit -> bool) option;
  verify_view : (F.View.t -> bool) option;
  classify : crule array;
  responses : cresponse array;
  key_hot : (unit -> int) option;  (* flow key as a native int *)
  key_view : (F.View.t -> int64 option) option;
  has_classify : bool;
  mutable last_err : F.Codec.error option;
}

let apply0 f = f ()

(* int-side comparison; registers are exact native ints in [0, 2^62). *)
let cmp_int op x y =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let cmp_i64 op x y =
  let c = Int64.compare x y in
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let ttrue () = true
let tfalse () = false

(* ---- hot-side lowering (registers) ---- *)

(* A constant outside native-int range can never equal a register value
   (registers are < 2^62): fold the comparison to its known truth. *)
let fold_high op =
  (* register value is strictly less than the constant *)
  match op with Eq | Gt | Ge -> tfalse | Ne | Lt | Le -> ttrue

let fold_low op =
  (* register value is strictly greater than the constant *)
  match op with Eq | Lt | Le -> tfalse | Ne | Gt | Ge -> ttrue

let int_of_const c =
  if Int64.compare c (Int64.of_int max_int) > 0 then `High
  else if Int64.compare c (Int64.of_int min_int) < 0 then `Low
  else `Int (Int64.to_int c)

let compile_cmp_hot h op a b =
  let slot f = F.View.Hot.demand_slot h f in
  match (a, b) with
  | Field fa, Field fb ->
    let sa = slot fa and sb = slot fb in
    fun () -> cmp_int op (F.View.Hot.get h sa) (F.View.Hot.get h sb)
  | Field fa, Const c -> (
    let sa = slot fa in
    match int_of_const c with
    | `Int ci -> fun () -> cmp_int op (F.View.Hot.get h sa) ci
    | `High -> fold_high op
    | `Low -> fold_low op)
  | Const c, Field fb -> (
    let sb = slot fb in
    match int_of_const c with
    | `Int ci -> fun () -> cmp_int op ci (F.View.Hot.get h sb)
    | `High -> fold_low op (* constant above any register value *)
    | `Low -> fold_high op)
  | Const ca, Const cb -> if cmp_i64 op ca cb then ttrue else tfalse

let rec compile_cond_hot h = function
  | Cmp (op, a, b) -> compile_cmp_hot h op a b
  | All cs ->
    let cs = List.map (compile_cond_hot h) cs in
    fun () -> List.for_all apply0 cs
  | Any cs ->
    let cs = List.map (compile_cond_hot h) cs in
    fun () -> List.exists apply0 cs
  | Not c ->
    let c = compile_cond_hot h c in
    fun () -> not (c ())

(* ---- stack-side lowering (chain registers) ----

   Same shape as the hot side over [Stack.reg_get] registers, with one
   extra rule: [reg_get] returns -1 when the accepted packet's variant
   case does not carry the field (register values are never negative), and
   a comparison over an absent field is [false] — the same semantics the
   view side gives [find_int] = [None]. *)

let stack_reg p f =
  match F.Stack.reg p f with
  | Ok r -> r
  | Error e -> invalid_arg ("Flight: " ^ e)

let compile_cmp_stack p op a b =
  match (a, b) with
  | Field fa, Field fb ->
    let ra = stack_reg p fa and rb = stack_reg p fb in
    fun () ->
      let x = F.Stack.reg_get p ra in
      x >= 0
      &&
      let y = F.Stack.reg_get p rb in
      y >= 0 && cmp_int op x y
  | Field fa, Const c -> (
    let ra = stack_reg p fa in
    match int_of_const c with
    | `Int ci ->
      fun () ->
        let x = F.Stack.reg_get p ra in
        x >= 0 && cmp_int op x ci
    | `High ->
      let k = fold_high op in
      fun () -> F.Stack.reg_get p ra >= 0 && k ()
    | `Low ->
      let k = fold_low op in
      fun () -> F.Stack.reg_get p ra >= 0 && k ())
  | Const c, Field fb -> (
    let rb = stack_reg p fb in
    match int_of_const c with
    | `Int ci ->
      fun () ->
        let y = F.Stack.reg_get p rb in
        y >= 0 && cmp_int op ci y
    | `High ->
      let k = fold_low op in
      fun () -> F.Stack.reg_get p rb >= 0 && k ()
    | `Low ->
      let k = fold_high op in
      fun () -> F.Stack.reg_get p rb >= 0 && k ())
  | Const ca, Const cb -> if cmp_i64 op ca cb then ttrue else tfalse

let rec compile_cond_stack p = function
  | Cmp (op, a, b) -> compile_cmp_stack p op a b
  | All cs ->
    let cs = List.map (compile_cond_stack p) cs in
    fun () -> List.for_all apply0 cs
  | Any cs ->
    let cs = List.map (compile_cond_stack p) cs in
    fun () -> List.exists apply0 cs
  | Not c ->
    let c = compile_cond_stack p c in
    fun () -> not (c ())

(* ---- view-side lowering (the staged semantics, shared by the fallback
   engine and by the staged derivations — identical by construction) ---- *)

let compile_operand_view = function
  | Const c -> fun _ -> Some c
  | Field f -> fun view -> F.View.find_int view f

(* A comparison over a field the view cannot produce is [false]: the spec
   asked about a value the packet does not carry. *)
let compile_cmp_view op a b =
  let ga = compile_operand_view a and gb = compile_operand_view b in
  fun view ->
    match (ga view, gb view) with
    | Some x, Some y -> cmp_i64 op x y
    | _ -> false

let rec compile_cond_view = function
  | Cmp (op, a, b) -> compile_cmp_view op a b
  | All cs ->
    let cs = List.map compile_cond_view cs in
    fun view -> List.for_all (fun c -> c view) cs
  | Any cs ->
    let cs = List.map compile_cond_view cs in
    fun view -> List.exists (fun c -> c view) cs
  | Not c ->
    let c = compile_cond_view c in
    fun view -> not (c view)

(* ---- compile ---- *)

let compile ?plan fmt sp =
  let demand = spec_fields sp in
  let engine =
    match F.View.Hot.compile ~demand fmt with
    | Ok h -> Linear h
    | Error _ -> Interp (F.View.create fmt)
  in
  let hot_of cond =
    match engine with
    | Linear h -> compile_cond_hot h cond
    (* never consulted on the fallback engine; [Stacked] never reaches
       here — it is built only by [compile_stack] *)
    | Interp _ | Stacked _ -> ttrue
  in
  let event_of name =
    match plan with
    | None -> unknown_event
    | Some p ->
      let id = Fsm.Step.event_id p name in
      if id < 0 then unknown_event else id
  in
  let classify =
    Array.of_list
      (List.map
         (fun r ->
           { c_hot = hot_of r.ev_when;
             c_view = compile_cond_view r.ev_when;
             c_ev = event_of r.ev_name })
         sp.sp_classify)
  in
  let compile_action a =
    let a_hot =
      match (engine, a.set_to) with
      | Linear h, Field f ->
        let s = F.View.Hot.demand_slot h f in
        fun () -> Int64.of_int (F.View.Hot.get h s)
      | _, Const c -> fun () -> c
      | (Interp _ | Stacked _), Field _ -> fun () -> 0L (* never consulted *)
    in
    let a_hot_int =
      match (engine, a.set_to) with
      | Linear h, Field f ->
        let s = F.View.Hot.demand_slot h f in
        Some (fun () -> F.View.Hot.get h s)
      | _, Const c -> (
        match int_of_const c with
        | `Int ci -> Some (fun () -> ci)
        | `High | `Low -> None)
      | (Interp _ | Stacked _), Field _ -> None
    in
    { a_patcher = F.Emit.patcher fmt a.set_field;
      a_field = a.set_field;
      a_layer = -1;
      a_hot;
      a_hot_int;
      a_view = compile_operand_view a.set_to }
  in
  let responses =
    Array.of_list
      (List.map
         (fun r ->
           { r_hot = hot_of r.re_when;
             r_view = compile_cond_view r.re_when;
             r_set = Array.of_list (List.map compile_action r.re_set) })
         sp.sp_respond)
  in
  let key_hot, key_view =
    match sp.sp_flow_key with
    | None -> (None, None)
    | Some f ->
      let hot =
        match engine with
        | Linear h ->
          let s = F.View.Hot.demand_slot h f in
          Some (fun () -> F.View.Hot.get h s)
        | Interp _ | Stacked _ -> None
      in
      (hot, Some (fun view -> F.View.find_int view f))
  in
  {
    fmt;
    sp_key = sp.sp_flow_key;
    engine;
    verify_hot = Option.map hot_of sp.sp_verify;
    verify_view = Option.map compile_cond_view sp.sp_verify;
    classify;
    responses;
    key_hot;
    key_view;
    has_classify = sp.sp_classify <> [];
    last_err = None;
  }

(* ---- compile against a layered stack ----

   The chain analogue of {!compile}: every spec field is a qualified
   ["layer.field"] register of the compiled {!Stack.plan}, actions patch
   inside the owning layer's recorded window, and there is no staged
   side — chains are a fused-only construct, diffed against the
   sequential {!Stack.Seq} reference by the chain oracle instead. *)

let split_qualified f =
  match String.index_opt f '.' with
  | None ->
    Error (Printf.sprintf "field %S is not a qualified layer.field name" f)
  | Some i ->
    Ok (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    Result.bind (f x) (fun y ->
        Result.bind (map_result f tl) (fun tl -> Ok (y :: tl)))

let compile_stack ?plan stack sp =
  let ( let* ) = Result.bind in
  let* p = F.Stack.compile ~demand:(spec_fields sp) stack in
  let stack_of cond = compile_cond_stack p cond in
  let event_of name =
    match plan with
    | None -> unknown_event
    | Some mp ->
      let id = Fsm.Step.event_id mp name in
      if id < 0 then unknown_event else id
  in
  let classify =
    Array.of_list
      (List.map
         (fun r ->
           { c_hot = stack_of r.ev_when;
             c_view = (fun _ -> false);
             c_ev = event_of r.ev_name })
         sp.sp_classify)
  in
  let compile_action a =
    let* lname, fname = split_qualified a.set_field in
    let* idx =
      match F.Stack.layer_index p lname with
      | Some i -> Ok i
      | None ->
        Error
          (Printf.sprintf "respond: %S names no layer of stack %s" a.set_field
             (F.Stack.name (F.Stack.stack p)))
    in
    let a_hot =
      match a.set_to with
      | Const c -> fun () -> c
      | Field f ->
        (* an absent source reads -1, which the patcher refuses as
           out-of-range — the respond fails, exactly as the staged path's
           impossible ("", 0) patch would *)
        let r = stack_reg p f in
        fun () -> Int64.of_int (F.Stack.reg_get p r)
    in
    let a_hot_int =
      match a.set_to with
      | Const c -> (
        match int_of_const c with
        | `Int ci -> Some (fun () -> ci)
        | `High | `Low -> None)
      | Field f ->
        let r = stack_reg p f in
        Some (fun () -> F.Stack.reg_get p r)
    in
    Ok
      { a_patcher = F.Emit.patcher (F.Stack.layer_fmt p idx) fname;
        a_field = a.set_field;
        a_layer = idx;
        a_hot;
        a_hot_int;
        a_view = (fun _ -> None) }
  in
  let* responses =
    map_result
      (fun r ->
        let* set = map_result compile_action r.re_set in
        Ok
          { r_hot = stack_of r.re_when;
            r_view = (fun _ -> false);
            r_set = Array.of_list set })
      sp.sp_respond
  in
  let key_hot =
    match sp.sp_flow_key with
    | None -> None
    | Some f ->
      let r = stack_reg p f in
      Some
        (fun () ->
          let v = F.Stack.reg_get p r in
          if v < 0 then no_key else v)
  in
  Ok
    {
      fmt = F.Stack.layer_fmt p 0;
      sp_key = sp.sp_flow_key;
      engine = Stacked p;
      verify_hot = Option.map stack_of sp.sp_verify;
      verify_view = None;
      classify;
      responses = Array.of_list responses;
      key_hot;
      key_view = None;
      has_classify = sp.sp_classify <> [];
      last_err = None;
    }

let tier t =
  match t.engine with
  | Linear _ -> `Linear
  | Interp _ -> `Interp
  | Stacked _ -> `Stacked

let format t = t.fmt
let flow_key_name t = t.sp_key

let stack_plan t =
  match t.engine with Stacked p -> Some p | Linear _ | Interp _ -> None

(* ---- fused per-packet interface ---- *)

let run_window t ~off ~len data =
  match t.engine with
  | Linear h -> F.View.Hot.run_window h ~off ~len data
  | Stacked p -> F.Stack.run_window p ~off ~len data
  | Interp v -> (
    match F.View.decode v ~off ~len data with
    | Ok () ->
      t.last_err <- None;
      true
    | Error e ->
      t.last_err <- Some e;
      false)

let run t ?(off = 0) ?len data =
  let len = match len with None -> String.length data - off | Some l -> l in
  run_window t ~off ~len data

let last_error t = t.last_err

let verify_armed t = t.verify_view <> None || t.verify_hot <> None

let verify_ok t =
  match t.engine with
  | Linear _ | Stacked _ -> (
    match t.verify_hot with None -> true | Some c -> c ())
  | Interp v -> ( match t.verify_view with None -> true | Some c -> c v)

let classify_armed t = t.has_classify

(* First matching rule wins; no match means the packet does not concern
   the machine (pass-through, -1) — same contract as the staged
   classifier closure. *)
let event t =
  (* while-loops, not a local recursive closure: this runs per packet on
     the fused fast path and must not allocate *)
  let arr = t.classify in
  let n = Array.length arr in
  let found = ref (-1) in
  let i = ref 0 in
  (match t.engine with
  | Linear _ | Stacked _ ->
    while !found < 0 && !i < n do
      if (Array.unsafe_get arr !i).c_hot () then
        found := (Array.unsafe_get arr !i).c_ev;
      incr i
    done
  | Interp v ->
    while !found < 0 && !i < n do
      if (Array.unsafe_get arr !i).c_view v then
        found := (Array.unsafe_get arr !i).c_ev;
      incr i
    done);
  !found

(* Flow key as a native int; [no_key] = [min_int] means "no key on this
   packet" (fall back to the shared default instance, as the staged path
   does when [find_int] returns [None]).  Wide keys are truncated by
   [Int64.to_int] identically in both modes. *)

let flow_key t =
  match t.engine with
  | Linear _ | Stacked _ -> (
    match t.key_hot with None -> no_key | Some k -> k ())
  | Interp v -> (
    match t.key_view with
    | None -> no_key
    | Some k -> ( match k v with None -> no_key | Some k -> Int64.to_int k))

let response t =
  let arr = t.responses in
  let n = Array.length arr in
  let found = ref (-1) in
  let i = ref 0 in
  (match t.engine with
  | Linear _ | Stacked _ ->
    while !found < 0 && !i < n do
      if (Array.unsafe_get arr !i).r_hot () then found := !i;
      incr i
    done
  | Interp v ->
    while !found < 0 && !i < n do
      if (Array.unsafe_get arr !i).r_view v then found := !i;
      incr i
    done);
  !found

let apply t idx buf ~len =
  let r = t.responses.(idx) in
  let n = Array.length r.r_set in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let a = r.r_set.(!i) in
    (match a.a_patcher with
    | Error _ -> ok := false
    | Ok p -> (
      match t.engine with
      | Linear _ -> (
        let r =
          match a.a_hot_int with
          | Some g -> F.Emit.patch_window_int p ~off:0 ~len buf (g ())
          | None -> F.Emit.patch_window p ~off:0 ~len buf (a.a_hot ())
        in
        match r with Ok () -> () | Error _ -> ok := false)
      | Stacked sp -> (
        (* the reply buffer is a byte copy of the accepted request, so the
           chain's recorded layer windows are valid patch targets *)
        let loff = F.Stack.layer_off sp a.a_layer
        and llen = F.Stack.layer_len sp a.a_layer in
        let r =
          match a.a_hot_int with
          | Some g -> F.Emit.patch_window_int p ~off:loff ~len:llen buf (g ())
          | None -> F.Emit.patch_window p ~off:loff ~len:llen buf (a.a_hot ())
        in
        match r with Ok () -> () | Error _ -> ok := false)
      | Interp view -> (
        match a.a_view view with
        | None -> ok := false
        | Some v -> (
          match F.Emit.patch_window p ~off:0 ~len buf v with
          | Ok () -> ()
          | Error _ -> ok := false))));
    incr i
  done;
  !ok

let n_responses t = Array.length t.responses

(* ---- staged derivations ----

   The same spec as closures over a decoded view, for the staged
   reference executor.  These consult only the view-side lowering, which the fallback engine
   shares verbatim — so Staged and the Interp-tier Fused path are the
   same code, and the Linear tier is diffed against it by the oracle. *)

let is_stacked t = match t.engine with Stacked _ -> true | _ -> false
let staged_verify t = t.verify_view

let staged_classify_id t =
  if (not t.has_classify) || is_stacked t then None
  else
    Some
      (fun view ->
        let n = Array.length t.classify in
        let rec go i =
          if i >= n then -1
          else if t.classify.(i).c_view view then t.classify.(i).c_ev
          else go (i + 1)
        in
        go 0)

let staged_respond_patch t =
  if Array.length t.responses = 0 || is_stacked t then None
  else
    Some
      (fun view ->
        let n = Array.length t.responses in
        let rec pick i =
          if i >= n then None
          else if t.responses.(i).r_view view then Some t.responses.(i)
          else pick (i + 1)
        in
        match pick 0 with
        | None -> None
        | Some r ->
          Some
            (Array.to_list r.r_set
            |> List.map (fun a ->
                   match a.a_view view with
                   | Some v -> (a.a_field, v)
                   | None ->
                     (* source field absent: emit an impossible mutation
                        so the staged encode stage rejects the packet,
                        exactly as the fused [apply] does *)
                     ("", 0L))))
