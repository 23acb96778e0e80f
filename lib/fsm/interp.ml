module M = Machine

type error =
  | Unknown_event of string
  | Unhandled of { state : string; event : string }
  | Nondeterministic of { event : string; labels : string list }

let pp_error ppf = function
  | Unknown_event e -> Format.fprintf ppf "unknown event %S" e
  | Unhandled { state; event } ->
    Format.fprintf ppf "event %S is not handled in state %S" event state
  | Nondeterministic { event; labels } ->
    Format.fprintf ppf "event %S enables several transitions: %s" event
      (String.concat ", " labels)

type t = {
  m : M.t;
  mutable cfg : M.config;
  mutable log : (string * M.transition) list; (* newest first *)
  on_transition : M.transition -> M.config -> unit;
  on_unhandled : string -> M.config -> unit;
}

let create ?(on_transition = fun _ _ -> ()) ?(on_unhandled = fun _ _ -> ()) m =
  let m = M.validate_exn m in
  { m; cfg = M.initial_config m; log = []; on_transition; on_unhandled }

(* A machine validated once, instantiated many times — one interpreter per
   flow (or per engine worker) without paying validation per instance. *)
type prepared = { p_machine : M.t; p_initial : M.config }

let prepare m =
  let m = M.validate_exn m in
  { p_machine = m; p_initial = M.initial_config m }

let prepared_machine p = p.p_machine

let instantiate ?(on_transition = fun _ _ -> ()) ?(on_unhandled = fun _ _ -> ()) p =
  { m = p.p_machine; cfg = p.p_initial; log = []; on_transition; on_unhandled }

let resume t cfg =
  t.cfg <- cfg;
  t.log <- []

let machine t = t.m
let config t = t.cfg
let state t = t.cfg.M.state

let register t name =
  match List.assoc_opt name t.cfg.M.regs with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Interp.register: unknown register %S" name)

let can_fire t event = M.enabled t.m t.cfg event <> []

let fire t event =
  if not (M.has_event t.m event) then Error (Unknown_event event)
  else
    match M.enabled t.m t.cfg event with
    | [] ->
      t.on_unhandled event t.cfg;
      Error (Unhandled { state = t.cfg.M.state; event })
    | [ tr ] ->
      let next = M.apply t.m t.cfg tr in
      t.cfg <- next;
      t.log <- (event, tr) :: t.log;
      t.on_transition tr next;
      Ok tr
    | trs ->
      Error
        (Nondeterministic
           { event; labels = List.map (fun (tr : M.transition) -> tr.t_label) trs })

let fire_exn t event =
  match fire t event with
  | Ok tr -> tr
  | Error e -> invalid_arg (Format.asprintf "Interp.fire_exn: %a" pp_error e)

let fire_all t events =
  let rec go = function
    | [] -> Ok ()
    | e :: rest -> ( match fire t e with Ok _ -> go rest | Error err -> Error err)
  in
  go events

let in_accepting t = M.is_accepting t.m t.cfg.M.state

let reset t =
  t.cfg <- M.initial_config t.m;
  t.log <- []

let history t = List.rev t.log
