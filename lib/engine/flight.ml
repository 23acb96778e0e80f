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
     control flow, staged decode machinery.  {!compile_stack} builds the
     same fast path over a layered chain's registers.  The two register
     tiers share one lowering and one assembly; every tier compiles to
     one closure form, so the per-packet accessors never branch on it.

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

(* Every tier compiles to the same fused closure form: guards and the key
   read the state of the last accepting [run], and a patch rewrites the
   reply bytes [buf.(0 .. len-1)] in place. *)
type patch = Bytes.t -> int -> bool

type t = {
  fmt : F.Desc.t;
  sp_key : string option;
  engine : engine;
  verify : (unit -> bool) option;
  classify : (unit -> bool) array;
  events : int array;  (* interned event id of each classify rule *)
  respond : (unit -> bool) array;
  patches : patch array array;  (* each respond rule's actions *)
  key : unit -> int;
  s_verify : (F.View.t -> bool) option;
  s_classify : (F.View.t -> int) option;
  s_respond : (F.View.t -> (string * int64) list option) option;
  mutable last_err : F.Codec.error option;
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

(* The boolean structure of a condition, over any leaf lowering: [x] is
   [()] on the register side and the decoded view on the view side. *)
let rec lower_cond leaf = function
  | Cmp (op, a, b) -> leaf op a b
  | All cs ->
    let cs = List.map (lower_cond leaf) cs in
    fun x -> for_all x cs
  | Any cs ->
    let cs = List.map (lower_cond leaf) cs in
    fun x -> exists x cs
  | Not c ->
    let c = lower_cond leaf c in
    fun x -> not (c x)

let patched = function Ok () -> true | Error _ -> false

(* An action on a field the format cannot patch compiles, and refuses
   every packet at the encode stage. *)
let patch_or_refuse fmt field k =
  match F.Emit.patcher fmt field with Ok p -> k p | Error _ -> fun _ _ -> false

(* ---- register-side lowering (the [Linear] and [Stacked] tiers) ----

   [reg f] resolves field [f] once, at compile time, to a reader of its
   native-int register after an accepting run.  A reader returns -1 when
   the accepted packet does not carry the field (a [Stacked] variant case
   without it; [Linear] registers are in [0, 2^62) and never do).  Then a
   comparison is false, the key is [no_key] and a patch is refused — what
   the view side does when [find_int] returns [None]. *)

(* [c] as a native int, when it fits *)
let to_native c =
  let i = Int64.to_int c in
  if Int64.equal (Int64.of_int i) c then Some i else None

let rec reg_cmp reg op a b =
  match (a, b) with
  | Field fa, Field fb ->
    let ra = reg fa and rb = reg fb in
    fun () ->
      let x = ra () in
      x >= 0
      &&
      let y = rb () in
      y >= 0 && cmp_int op x y
  | Field fa, Const c -> (
    let ra = reg fa in
    match to_native c with
    | Some c ->
      fun () ->
        let x = ra () in
        x >= 0 && cmp_int op x c
    | None ->
      (* outside native-int range: every register value compares to [c]
         as 0 does *)
      let k = cmp_i64 op 0L c in
      fun () -> ra () >= 0 && k)
  | Const _, Field _ -> reg_cmp reg (flip op) b a
  | Const ca, Const cb ->
    let k = cmp_i64 op ca cb in
    fun () -> k

(* Patch [p] from [src] inside the window [buf.(off .. off+len-1)]. *)
let reg_patch reg p src =
  match src with
  | Field f ->
    let r = reg f in
    fun buf off len ->
      let v = r () in
      v >= 0 && patched (F.Emit.patch_window_int p ~off ~len buf v)
  | Const c -> (
    match to_native c with
    | Some i -> fun buf off len -> patched (F.Emit.patch_window_int p ~off ~len buf i)
    | None -> fun buf off len -> patched (F.Emit.patch_window p ~off ~len buf c))

(* How a tier lowers the spec's leaves.  [l_action] fails only when the
   action names no patch target of the tier. *)
type lowering = {
  l_cond : cond -> unit -> bool;
  l_key : string -> unit -> int;
  l_action : action -> (patch, string) result;
}

(* [place field] names the format, field and window an action patches:
   [window patch] runs [patch buf off len] over the right bytes. *)
let reg_lowering reg ~place =
  {
    l_cond = lower_cond (reg_cmp reg);
    l_key =
      (fun f ->
        let r = reg f in
        fun () ->
          let v = r () in
          if v < 0 then no_key else v);
    l_action =
      (fun a ->
        Result.map
          (fun (fmt, field, window) ->
            patch_or_refuse fmt field (fun p -> window (reg_patch reg p a.set_to)))
          (place a.set_field));
  }

(* ---- view-side lowering (the staged semantics, shared by the [Interp]
   tier and by the staged derivations — identical by construction) ---- *)

let view_operand = function
  | Const c -> fun _ -> Some c
  | Field f -> fun view -> F.View.find_int view f

(* A comparison over a field the view cannot produce is [false]: the spec
   asked about a value the packet does not carry. *)
let view_cmp op a b =
  let ga = view_operand a and gb = view_operand b in
  fun view ->
    match (ga view, gb view) with
    | Some x, Some y -> cmp_i64 op x y
    | _ -> false

let view_cond = lower_cond view_cmp

(* The [Interp] tier: the view-side closures over its pooled view. *)
let view_lowering fmt v =
  {
    l_cond =
      (fun c ->
        let c = view_cond c in
        fun () -> c v);
    l_key =
      (fun f () ->
        match F.View.find_int v f with None -> no_key | Some k -> Int64.to_int k);
    l_action =
      (fun a ->
        let src = view_operand a.set_to in
        Ok
          (patch_or_refuse fmt a.set_field (fun p buf len ->
               match src v with
               | None -> false
               | Some x -> patched (F.Emit.patch_window p ~off:0 ~len buf x))));
  }

(* ---- one assembly for every tier ---- *)

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    Result.bind (f x) (fun y ->
        Result.bind (map_result f tl) (fun tl -> Ok (y :: tl)))

let assemble ?plan ~fmt ~engine ~staged low sp =
  let ( let* ) = Result.bind in
  let* patches =
    map_result
      (fun r -> Result.map Array.of_list (map_result low.l_action r.re_set))
      sp.sp_respond
  in
  let event_of r =
    match plan with
    | None -> unknown_event
    | Some p ->
      let id = Fsm.Step.event_id p r.ev_name in
      if id < 0 then unknown_event else id
  in
  let events = Array.of_list (List.map event_of sp.sp_classify) in
  let classify_when = List.map (fun r -> r.ev_when) sp.sp_classify
  and respond_when = List.map (fun r -> r.re_when) sp.sp_respond in
  let guards lower whens = Array.of_list (List.map lower whens) in
  let s_classify =
    let guards = guards view_cond classify_when in
    fun view ->
      let i = first_true guards view in
      if i < 0 then -1 else events.(i)
  in
  let s_respond =
    let guards = guards view_cond respond_when in
    let sets =
      Array.of_list
        (List.map
           (fun r -> List.map (fun a -> (a.set_field, view_operand a.set_to)) r.re_set)
           sp.sp_respond)
    in
    fun view ->
      let i = first_true guards view in
      if i < 0 then None
      else
        Some
          (List.map
             (fun (field, src) ->
               match src view with
               | Some v -> (field, v)
               | None ->
                 (* source field absent: an impossible mutation, so the
                    staged encode stage rejects the packet as the fused
                    [apply] does *)
                 ("", 0L))
             sets.(i))
  in
  let staged_if armed f = if staged && armed then Some f else None in
  Ok
    {
      fmt;
      sp_key = sp.sp_flow_key;
      engine;
      verify = Option.map low.l_cond sp.sp_verify;
      classify = guards low.l_cond classify_when;
      events;
      respond = guards low.l_cond respond_when;
      patches = Array.of_list patches;
      key =
        (match sp.sp_flow_key with None -> fun () -> no_key | Some f -> low.l_key f);
      s_verify = (if staged then Option.map view_cond sp.sp_verify else None);
      s_classify = staged_if (sp.sp_classify <> []) s_classify;
      s_respond = staged_if (sp.sp_respond <> []) s_respond;
      last_err = None;
    }

(* ---- compile ---- *)

let whole_message patch buf len = patch buf 0 len

let compile ?plan fmt sp =
  let engine, low =
    match F.View.Hot.compile ~demand:(spec_fields sp) fmt with
    | Ok h ->
      let reg f =
        let s = F.View.Hot.demand_slot h f in
        fun () -> F.View.Hot.get h s
      in
      (Linear h, reg_lowering reg ~place:(fun f -> Ok (fmt, f, whole_message)))
    | Error _ ->
      let v = F.View.create fmt in
      (Interp v, view_lowering fmt v)
  in
  (* both single-format lowerings place every action *)
  Result.get_ok (assemble ?plan ~fmt ~engine ~staged:true low sp)

(* ---- compile against a layered stack ----

   The chain analogue of {!compile}: every spec field is a qualified
   ["layer.field"] register of the compiled {!Stack.plan}, actions patch
   inside the owning layer's recorded window, and there is no staged
   side — chains are a fused-only construct, diffed against the
   sequential {!Stack.Seq} reference by the chain oracle instead. *)

let compile_stack ?plan stack sp =
  let ( let* ) = Result.bind in
  let* p = F.Stack.compile ~demand:(spec_fields sp) stack in
  let reg f =
    match F.Stack.reg p f with
    | Ok r -> fun () -> F.Stack.reg_get p r
    | Error e -> invalid_arg ("Flight: " ^ e)
  in
  let place f =
    let* i =
      match String.index_opt f '.' with
      | None -> Error (Printf.sprintf "field %S is not a qualified layer.field name" f)
      | Some i -> Ok i
    in
    let lname = String.sub f 0 i
    and field = String.sub f (i + 1) (String.length f - i - 1) in
    match F.Stack.layer_index p lname with
    | None ->
      Error
        (Printf.sprintf "respond: %S names no layer of stack %s" f
           (F.Stack.name (F.Stack.stack p)))
    | Some idx ->
      (* the reply buffer is a byte copy of the accepted request, so the
         chain's recorded layer windows are valid patch targets *)
      let window patch buf _ =
        patch buf (F.Stack.layer_off p idx) (F.Stack.layer_len p idx)
      in
      Ok (F.Stack.layer_fmt p idx, field, window)
  in
  assemble ?plan ~fmt:(F.Stack.layer_fmt p 0) ~engine:(Stacked p) ~staged:false
    (reg_lowering reg ~place) sp

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
let verify_armed t = t.verify <> None
let verify_ok t = match t.verify with None -> true | Some c -> c ()
let classify_armed t = Array.length t.classify > 0

(* First matching rule wins; no match means the packet does not concern
   the machine (pass-through, -1) — same contract as the staged
   classifier closure. *)
let event t =
  let i = first_true t.classify () in
  if i < 0 then -1 else Array.unsafe_get t.events i

(* Flow key as a native int; [no_key] = [min_int] means "no key on this
   packet" (fall back to the shared default instance, as the staged path
   does when [find_int] returns [None]).  Wide keys are truncated by
   [Int64.to_int] identically in both modes. *)
let flow_key t = t.key ()

let response t = first_true t.respond ()

let apply t idx buf ~len =
  let set = t.patches.(idx) in
  let n = Array.length set in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    ok := (Array.unsafe_get set !i) buf len;
    incr i
  done;
  !ok

let n_responses t = Array.length t.respond

(* ---- staged derivations ----

   The same spec as closures over a decoded view, for the staged
   reference executor.  These are the view-side lowering, which the
   [Interp] tier wraps verbatim — so Staged and the Interp-tier Fused path
   are the same code, and the register tiers are diffed against it by the
   oracle. *)

let staged_verify t = t.s_verify
let staged_classify_id t = t.s_classify
let staged_respond_patch t = t.s_respond
