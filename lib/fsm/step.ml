module M = Machine

(* A transition candidate compiled into one (state, event) slot.  Guards
   and actions are closures over the flat register file; [c_index] points
   back into [p_transitions] for label reconstruction. *)
type candidate = {
  c_guard : int array -> bool;
  c_action : int array -> unit;
  c_dst : int;
  c_index : int;
}

type plan = {
  p_machine : M.t;
  p_states : string array;
  p_events : string array;
  p_regs : string array;
  p_reg_init : int array;
  p_state_ids : (string, int) Hashtbl.t;
  p_event_ids : (string, int) Hashtbl.t;
  p_reg_ids : (string, int) Hashtbl.t;
  p_initial : int;
  p_accepting : bool array;
  p_transitions : M.transition array; (* declaration order *)
  p_slots : candidate array array; (* state_id * n_events + event_id *)
  p_timers : int array; (* per-transition packed timer word, see below *)
  p_has_timers : bool;
}

(* Timer ops packed into one native int so the engine's post-fire check is
   an array read and a comparison against 0: [timer_none] = 0 (no op),
   [timer_cancel] = -1, and an arm is [(after_ms lsl 20) lor fire_event_id]
   — always positive because validation bounds after_ms >= 1 and machines
   never intern 2^20 events. *)
let timer_none = 0
let timer_cancel = -1
let timer_after_ms w = w lsr 20
let timer_event w = w land 0xFFFFF

type instance = {
  i_plan : plan;
  mutable i_state : int;
  i_regs : int array;
  mutable i_last : int;
  (* the engine's timer cache.  [i_timer] is the wheel entry last armed
     for this instance's flow (see [Engine.Wheel.arm_hint]) — a hint,
     never trusted, so staleness is harmless.  [i_tword]/[i_tnow] record
     the timer word and wheel tick of the last arm: when both match the
     current re-arm the deadline is bit-identical and the engine skips
     the wheel entirely — these two the engine MUST keep truthful, by
     clearing on expiry and cancel. *)
  mutable i_timer : int;
  mutable i_tword : int;
  mutable i_tnow : int;
}

type verdict = Fired | Unknown_event | Unhandled | Nondeterministic

(* ------------------------------------------------------------------ *)
(* Lowering guards and actions.  Constant subtrees fold at compile time
   so a guard like [True] or [3 < 5] costs nothing per event. *)

type comp = Const of int | Dyn of (int array -> int)

let force = function Const n -> (fun _ -> n) | Dyn f -> f

let lift2 op a b =
  match (a, b) with
  | Const x, Const y -> Const (op x y)
  | _ ->
    let fa = force a and fb = force b in
    Dyn (fun regs -> op (fa regs) (fb regs))

let wrap_mod a b =
  if b = 0 then invalid_arg "Machine.eval_expr: modulo by zero"
  else ((a mod b) + b) mod b

let rec compile_expr reg_ids : M.expr -> comp = function
  | M.Int n -> Const n
  | M.Reg r ->
    let i = Hashtbl.find reg_ids r in
    Dyn (fun regs -> Array.unsafe_get regs i)
  | M.Add (a, b) -> lift2 ( + ) (compile_expr reg_ids a) (compile_expr reg_ids b)
  | M.Sub (a, b) -> lift2 ( - ) (compile_expr reg_ids a) (compile_expr reg_ids b)
  | M.Mul (a, b) -> lift2 ( * ) (compile_expr reg_ids a) (compile_expr reg_ids b)
  | M.Mod (a, b) -> lift2 wrap_mod (compile_expr reg_ids a) (compile_expr reg_ids b)

type gcomp = Gconst of bool | Gdyn of (int array -> bool)

let gforce = function Gconst b -> (fun _ -> b) | Gdyn f -> f

let gcmp op a b =
  match (a, b) with
  | Const x, Const y -> Gconst (op x y)
  | _ ->
    let fa = force a and fb = force b in
    Gdyn (fun regs -> op (fa regs) (fb regs))

let rec compile_cond reg_ids : M.cond -> gcomp = function
  | M.True -> Gconst true
  | M.False -> Gconst false
  | M.Eq (a, b) -> gcmp ( = ) (compile_expr reg_ids a) (compile_expr reg_ids b)
  | M.Ne (a, b) -> gcmp ( <> ) (compile_expr reg_ids a) (compile_expr reg_ids b)
  | M.Lt (a, b) -> gcmp ( < ) (compile_expr reg_ids a) (compile_expr reg_ids b)
  | M.Le (a, b) -> gcmp ( <= ) (compile_expr reg_ids a) (compile_expr reg_ids b)
  | M.Not c -> (
    match compile_cond reg_ids c with
    | Gconst b -> Gconst (not b)
    | Gdyn f -> Gdyn (fun regs -> not (f regs)))
  | M.And (a, b) ->
    (* Short-circuit like the interpreter; [&&] in the closure keeps it. *)
    (match (compile_cond reg_ids a, compile_cond reg_ids b) with
    | Gconst false, _ -> Gconst false
    | Gconst true, g -> g
    | g, Gconst true -> g
    | Gdyn fa, Gconst false -> Gdyn (fun regs -> ignore (fa regs); false)
    | Gdyn fa, Gdyn fb -> Gdyn (fun regs -> fa regs && fb regs))
  | M.Or (a, b) -> (
    match (compile_cond reg_ids a, compile_cond reg_ids b) with
    | Gconst true, _ -> Gconst true
    | Gconst false, g -> g
    | g, Gconst false -> g
    | Gdyn fa, Gconst true -> Gdyn (fun regs -> ignore (fa regs); true)
    | Gdyn fa, Gdyn fb -> Gdyn (fun regs -> fa regs || fb regs))

let no_action _ = ()

(* Actions run left to right over the evolving register file, each
   assignment wrapping into the register's domain — exactly
   [Machine.apply]'s fold. *)
let compile_actions reg_ids domains actions =
  let one (M.Assign (r, e)) =
    let i = Hashtbl.find reg_ids r in
    let d = domains.(i) in
    match compile_expr reg_ids e with
    | Const n ->
      let v = wrap_mod n d in
      fun regs -> Array.unsafe_set regs i v
    | Dyn f -> fun regs -> Array.unsafe_set regs i (wrap_mod (f regs) d)
  in
  match List.map one actions with
  | [] -> no_action
  | [ f ] -> f
  | fs -> fun regs -> List.iter (fun f -> f regs) fs

(* ------------------------------------------------------------------ *)

let intern names =
  let arr = Array.of_list names in
  let tbl = Hashtbl.create (max 4 (Array.length arr)) in
  Array.iteri (fun i n -> Hashtbl.add tbl n i) arr;
  (arr, tbl)

let compile m =
  let m = M.validate_exn m in
  let p_states, p_state_ids = intern m.M.states in
  let p_events, p_event_ids = intern m.M.events in
  let p_regs, p_reg_ids = intern (List.map (fun r -> r.M.reg_name) m.M.registers) in
  let p_reg_init = Array.of_list (List.map (fun r -> r.M.init) m.M.registers) in
  let domains = Array.of_list (List.map (fun r -> r.M.domain) m.M.registers) in
  let p_transitions = Array.of_list m.M.transitions in
  let n_states = Array.length p_states and n_events = Array.length p_events in
  (* Build the dense slots, keeping candidates in declaration order so
     nondeterminism reports the same labels in the same order as the
     interpreter's transition-list scan. *)
  let buckets = Array.make (n_states * n_events) [] in
  Array.iteri
    (fun idx (t : M.transition) ->
      let s = Hashtbl.find p_state_ids t.M.src in
      let e = Hashtbl.find p_event_ids t.M.event in
      let c =
        {
          c_guard = gforce (compile_cond p_reg_ids t.M.guard);
          c_action = compile_actions p_reg_ids domains t.M.actions;
          c_dst = Hashtbl.find p_state_ids t.M.dst;
          c_index = idx;
        }
      in
      buckets.((s * n_events) + e) <- c :: buckets.((s * n_events) + e))
    p_transitions;
  let p_slots = Array.map (fun cs -> Array.of_list (List.rev cs)) buckets in
  let p_accepting = Array.make n_states false in
  List.iter (fun s -> p_accepting.(Hashtbl.find p_state_ids s) <- true) m.M.accepting;
  let p_timers =
    Array.map
      (fun (t : M.transition) ->
        match t.M.timer with
        | M.No_timer -> timer_none
        | M.Cancel_timer -> timer_cancel
        | M.Arm_timer { after_ms; fire } ->
          (after_ms lsl 20) lor Hashtbl.find p_event_ids fire)
      p_transitions
  in
  {
    p_machine = m;
    p_states;
    p_events;
    p_regs;
    p_reg_init;
    p_state_ids;
    p_event_ids;
    p_reg_ids;
    p_initial = Hashtbl.find p_state_ids m.M.initial;
    p_accepting;
    p_transitions;
    p_slots;
    p_timers;
    p_has_timers = Array.exists (fun w -> w <> timer_none) p_timers;
  }

let machine p = p.p_machine
let n_states p = Array.length p.p_states
let n_events p = Array.length p.p_events
let n_registers p = Array.length p.p_regs

let id_in tbl name = match Hashtbl.find_opt tbl name with Some i -> i | None -> -1
let event_id p name = id_in p.p_event_ids name
let state_id p name = id_in p.p_state_ids name
let register_id p name = id_in p.p_reg_ids name
let event_name p i = p.p_events.(i)
let state_name p i = p.p_states.(i)
let register_name p i = p.p_regs.(i)
let transition p i = p.p_transitions.(i)
let timer_word p i = Array.unsafe_get p.p_timers i
let has_timers p = p.p_has_timers

let instance p =
  {
    i_plan = p;
    i_state = p.p_initial;
    i_regs = Array.copy p.p_reg_init;
    i_last = -1;
    i_timer = -1;
    i_tword = 0;
    i_tnow = 0;
  }

let plan_of i = i.i_plan

let reset i =
  i.i_state <- i.i_plan.p_initial;
  Array.blit i.i_plan.p_reg_init 0 i.i_regs 0 (Array.length i.i_regs);
  i.i_last <- -1;
  i.i_timer <- -1;
  i.i_tword <- 0;
  i.i_tnow <- 0

let fire_id i ev =
  let p = i.i_plan in
  let n_events = Array.length p.p_events in
  if ev < 0 || ev >= n_events then Unknown_event
  else begin
    let slot = Array.unsafe_get p.p_slots ((i.i_state * n_events) + ev) in
    let n = Array.length slot in
    let regs = i.i_regs in
    let chosen = ref (-1) in
    let multiple = ref false in
    for k = 0 to n - 1 do
      if (Array.unsafe_get slot k).c_guard regs then
        if !chosen >= 0 then multiple := true else chosen := k
    done;
    if !multiple then Nondeterministic
    else if !chosen < 0 then Unhandled
    else begin
      let c = Array.unsafe_get slot !chosen in
      c.c_action regs;
      i.i_state <- c.c_dst;
      i.i_last <- c.c_index;
      Fired
    end
  end

let fire i name = fire_id i (event_id i.i_plan name)

let state i = i.i_state
let state_name_of i = i.i_plan.p_states.(i.i_state)
let in_accepting i = i.i_plan.p_accepting.(i.i_state)

let register i r =
  if r < 0 || r >= Array.length i.i_regs then
    invalid_arg (Printf.sprintf "Step.register: no register with id %d" r)
  else i.i_regs.(r)

let register_by_name i name =
  match Hashtbl.find_opt i.i_plan.p_reg_ids name with
  | Some r -> i.i_regs.(r)
  | None -> invalid_arg (Printf.sprintf "Step.register_by_name: unknown register %S" name)

let last_transition i = i.i_last
let timer_hint i = i.i_timer
let timer_unchanged i ~word ~wnow = word = i.i_tword && wnow = i.i_tnow

let note_timer_armed i ~hint ~word ~wnow =
  i.i_timer <- hint;
  i.i_tword <- word;
  i.i_tnow <- wnow

let clear_timer_armed i = i.i_tword <- 0

let config i =
  let p = i.i_plan in
  {
    M.state = p.p_states.(i.i_state);
    regs = Array.to_list (Array.mapi (fun r v -> (p.p_regs.(r), v)) i.i_regs);
  }

let enabled_labels i name =
  let p = i.i_plan in
  match Hashtbl.find_opt p.p_event_ids name with
  | None -> []
  | Some ev ->
    let slot = p.p_slots.((i.i_state * Array.length p.p_events) + ev) in
    Array.to_list slot
    |> List.filter (fun c -> c.c_guard i.i_regs)
    |> List.map (fun c -> p.p_transitions.(c.c_index).M.t_label)

let describe i name = function
  | Fired -> (
    match i.i_last with
    | -1 -> Printf.sprintf "event %S fired" name
    | t ->
      Printf.sprintf "event %S fired transition %s" name
        i.i_plan.p_transitions.(t).M.t_label)
  | Unknown_event -> Printf.sprintf "unknown event %S" name
  | Unhandled ->
    Printf.sprintf "event %S is not handled in state %S" name (state_name_of i)
  | Nondeterministic ->
    Printf.sprintf "event %S enables several transitions: %s" name
      (String.concat ", " (enabled_labels i name))
