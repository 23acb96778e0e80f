type width = B | H | W
type cond = Jeq | Jgt | Jge
type src = K of int | X

type insn =
  | Ld_len
  | Ldx_len
  | Ld_abs of width * int
  | Rsh of int
  | And of int
  | Add of int
  | Mul of int
  | Mod of int
  | Jmp of cond * src * int * int
  | Ret of int
  | Ret_a

type program = insn array

let accept = 0xFFFF_FFFF
let udp_header = 8

(* ---- code blocks ------------------------------------------------------ *)

(* A jump inside a block goes to the next instruction, past the block (the
   check passed) or to the reject. *)
type target = Fall | Pass | Reject

type item = I of insn | J of cond * src * target * target

(* A := the value of a big-endian field at [bit_off, bit_off + bits) of
   the payload, which starts at offset [base] of what the program reads,
   with one aligned load, a shift and a mask; [None] when no single load
   of at most 4 bytes covers it.  The load ends on the field's last byte,
   so it fails (the program returns 0) exactly when the field is cut. *)
let load ~base ~bit_off ~bits =
  let b = bit_off / 8 and s = bit_off mod 8 in
  let span = s + bits in
  let lw =
    if span <= 8 then Some (B, 8, b, span)
    else if span <= 16 then Some (H, 16, b, span)
    else if span <= 24 then
      (* a 3-byte window: the word that ends on its last byte *)
      if base + b >= 1 then Some (W, 32, b - 1, span + 8) else None
    else if span <= 32 then Some (W, 32, b, span)
    else None
  in
  Option.map
    (fun (w, wbits, byte, span) ->
      [ Ld_abs (w, base + byte) ]
      @ (if wbits > span then [ Rsh (wbits - span) ] else [])
      @ if span > bits then [ And ((1 lsl bits) - 1) ] else [])
    lw

(* Membership of A in the intervals: ascending, each lower bound guarded
   (A below it is below every later interval too), each upper bound
   either passes or falls through to the next interval. *)
let member ivs ~max =
  let k v = K (Int64.to_int v) in
  let rec go = function
    | [] -> []
    | [ (lo, hi) ] when Int64.equal lo hi -> [ J (Jeq, k lo, Pass, Reject) ]
    | (lo, hi) :: rest when Int64.equal lo hi -> J (Jeq, k lo, Pass, Fall) :: go rest
    | (lo, hi) :: rest ->
      (if Int64.compare lo 0L > 0 then [ J (Jge, k lo, Fall, Reject) ] else [])
      @ (if Int64.equal hi max then []
         else [ J (Jgt, k hi, (if rest = [] then Reject else Fall), Pass) ])
      @ go rest
  in
  go ivs

(* Top-level big-endian integers of at most 32 bits at fixed offsets,
   with their shapes and loads. *)
let fixed_fields (lay : Sizing.layout) =
  List.filter_map
    (fun (e : Sizing.entry) ->
      match (e.shape, e.off, e.width) with
      | Some ({ kind = Int | Const | Computed; endian = Big; _ } as sh), Some bit_off, Some bits
        when bits > 0 && bits <= 32 ->
        Option.map
          (fun ld -> (e.field, sh, List.map (fun i -> I i) ld))
          (load ~base:udp_header ~bit_off ~bits)
      | _ -> None)
    lay

(* [Some c] when [e] is [x + c] for the atom [x] [is_atom] recognises. *)
let rec affine is_atom (e : Desc.expr) =
  match e with
  | e when is_atom e -> Some 0
  | Add (e, Const c) | Add (Const c, e) ->
    Option.map (fun d -> d + Int64.to_int c) (affine is_atom e)
  | Sub (e, Const c) -> Option.map (fun d -> d - Int64.to_int c) (affine is_atom e)
  | _ -> None

(* Datagram-length equalities: each [(f, k)] says the datagram is
   [value f + k] bytes long, UDP header included. *)
let length_equalities (lay : Sizing.layout) fixed =
  let lookup name =
    List.find_opt (fun ((f : Desc.field), _, _) -> String.equal f.name name) fixed
  in
  (* the last field, when everything before it has a fixed size in whole
     bytes *)
  let last =
    match List.rev lay with
    | { field; off = Some o; _ } :: _ when o land 7 = 0 -> Some (field, o / 8)
    | _ -> None
  in
  let trailing_len =
    match last with
    | Some ({ ty = Bytes (Len_expr (Field f) | Len_bytes (Field f)); _ }, p) ->
      Option.map (fun x -> (x, udp_header + p)) (lookup f)
    | _ -> None
  in
  let rest_name =
    match last with
    | Some ({ name; ty = Bytes Len_remaining; _ }, p) -> Some (name, p)
    | _ -> None
  in
  let computed =
    List.filter_map
      (fun ((f : Desc.field), _, _ as x) ->
        match f.ty with
        | Computed { expr; _ } -> (
          match affine (function Desc.Msg_len -> true | _ -> false) expr with
          | Some c -> Some (x, udp_header - c)
          | None -> (
            match rest_name with
            | Some (rest, p) -> (
              match affine (function Desc.Byte_len n -> String.equal n rest | _ -> false) expr with
              | Some c -> Some (x, udp_header + p - c)
              | None -> None)
            | None -> None))
        | _ -> None)
      fixed
  in
  List.sort_uniq
    (fun (((a : Desc.field), _, _), k) (((b : Desc.field), _, _), k') ->
      compare (a.name, k) (b.name, k'))
    (Option.to_list trailing_len @ computed)

(* ---- assembly --------------------------------------------------------- *)

(* The kernel's jump offsets are 8 bits: a program stays inside the range
   they can span by dropping value checks from the end. *)
let max_insns = 256

let assemble blocks =
  let n = List.fold_left (fun acc b -> acc + List.length b) 0 blocks + 2 in
  let reject = n - 1 in
  let out = Array.make n (Ret 0) in
  let pc = ref 0 in
  List.iter
    (fun block ->
      let stop = !pc + List.length block in
      List.iter
        (fun item ->
          let rel = function
            | Fall -> 0
            | Pass -> stop - (!pc + 1)
            | Reject -> reject - (!pc + 1)
          in
          out.(!pc) <-
            (match item with
            | I insn -> insn
            | J (c, s, t, f) -> Jmp (c, s, rel t, rel f));
          incr pc)
        block)
    blocks;
  out.(n - 2) <- Ret accept;
  out

let compile (fmt : Desc.t) =
  let min_bytes = Sizing.min_bytes fmt in
  let lay = Sizing.layout fmt in
  let fixed = fixed_fields lay in
  let checks =
    List.filter_map
      (fun (_, (sh : Sizing.shape), ld) ->
        if Sizing.full sh then None else Some (sh.admitted, ld, sh.bits))
      fixed
  in
  if List.exists (fun (ivs, _, _) -> ivs = []) checks then
    (* some field admits no value: the decoder rejects every datagram *)
    Some [| Ret 0 |]
  else
    let values =
      List.map
        (fun (ivs, ld, bits) ->
          ld @ member ivs ~max:(Int64.pred (Int64.shift_left 1L bits)))
        checks
    in
    let lengths =
      match length_equalities lay fixed with
      | [] -> []
      | eqs ->
        [ I Ldx_len ]
        :: List.map
             (fun ((_, _, ld), k) ->
               ld @ [ I (Add (k land 0xFFFF_FFFF)); J (Jeq, X, Pass, Reject) ])
             eqs
    in
    let min_len =
      if min_bytes > 0 then [ [ I Ld_len; J (Jge, K (udp_header + min_bytes), Pass, Reject) ] ]
      else []
    in
    let size bs = List.fold_left (fun acc b -> acc + List.length b) 2 bs in
    let rec fit values =
      if size (min_len @ values @ lengths) <= max_insns || values = [] then values
      else fit (List.rev (List.tl (List.rev values)))
    in
    match min_len @ fit values @ lengths with
    | [] -> None
    | blocks -> Some (assemble blocks)

(* ---- kernel steering -------------------------------------------------- *)

(* The steering arithmetic, after the key is loaded into A: the one
   definition of which worker owns a key.  The kernel program runs these
   instructions and [steer] evaluates the same list in OCaml.  A key of
   at most [small_key_bits] bits has few enough values that a hash could
   leave a worker empty (both values of a 1-bit key hash to worker 0 of
   3), so it is reduced as it is: [key mod workers], which gives every
   worker [ceil (2^bits / workers)] values at most.  A wider key is
   Fibonacci-hashed in 32 bits, the width of cBPF's ALU: multiplied by
   2^32/phi, its top 16 bits kept, then reduced. *)
let small_key_bits = 8
let steer_multiplier = 0x9E37_79B1
let steer_shift = 16

let steer_insns ~bits ~workers =
  if bits <= small_key_bits then [ Mod workers ]
  else [ Mul steer_multiplier; Rsh steer_shift; Mod workers ]

type key = { k_bit_off : int; k_bits : int; k_little : bool }

let key fmt name =
  let lay = Sizing.layout fmt in
  match Sizing.find lay name with
  | None -> Error (Printf.sprintf "no top-level field %S" name)
  | Some { shape = None | Some { kind = Padding; _ }; _ } ->
    Error (Printf.sprintf "field %S is not a scalar" name)
  | Some { shape = Some { bits; _ }; _ } when bits > 62 ->
    Error (Printf.sprintf "field %S is too wide for a key" name)
  | Some { shape = Some { bits; endian; _ }; _ } -> (
    match Sizing.span lay name with
    | Ok (off, _) -> Ok { k_bit_off = off; k_bits = bits; k_little = endian = Desc.Little }
    | Error _ as e -> e)

let no_key = min_int

let read_key k data =
  if k.k_bit_off + k.k_bits > String.length data * 8 then no_key
  else View.Hot.read_scalar data ~bit_off:k.k_bit_off ~bits:k.k_bits ~little:k.k_little

let steer ~workers k v =
  if v = no_key then 0
  else
    List.fold_left
      (fun a insn ->
        match insn with
        | Mul k -> (a * k) land 0xFFFF_FFFF
        | Rsh k -> a lsr k
        | Mod k -> a mod k
        | _ -> a)
      (v land 0xFFFF_FFFF) (steer_insns ~bits:k.k_bits ~workers)

let steering fmt ~key:name ~workers =
  if workers < 2 then Error "kernel steering needs at least 2 workers"
  else
    match key fmt name with
    | Error _ as e -> e
    | Ok k -> (
      let fail why = Error (Printf.sprintf "field %S %s" name why) in
      if k.k_little then fail "is little-endian; the kernel loads big-endian"
      else if k.k_bits > 32 then fail "is wider than the kernel's 32-bit registers"
      else
        match load ~base:0 ~bit_off:k.k_bit_off ~bits:k.k_bits with
        | None -> fail "needs more than one kernel load"
        | Some ld -> Ok (Array.of_list (ld @ steer_insns ~bits:k.k_bits ~workers @ [ Ret_a ])))

(* ---- encoding and printing ------------------------------------------- *)

let width_code = function W -> 0x00 | H -> 0x08 | B -> 0x10
let cond_code = function Jeq -> 0x10 | Jgt -> 0x20 | Jge -> 0x30

let encode prog =
  Array.map
    (function
      | Ld_len -> (0x80, 0, 0, 0)
      | Ldx_len -> (0x81, 0, 0, 0)
      | Ld_abs (w, k) -> (0x20 lor width_code w, 0, 0, k)
      | Rsh k -> (0x74, 0, 0, k)
      | And k -> (0x54, 0, 0, k)
      | Add k -> (0x04, 0, 0, k)
      | Mul k -> (0x24, 0, 0, k)
      | Mod k -> (0x94, 0, 0, k)
      | Jmp (c, K k, jt, jf) -> (0x05 lor cond_code c, jt, jf, k)
      | Jmp (c, X, jt, jf) -> (0x0d lor cond_code c, jt, jf, 0)
      | Ret k -> (0x06, 0, 0, k)
      | Ret_a -> (0x16, 0, 0, 0))
    prog

let to_string prog =
  let line i insn =
    let plain op arg = Printf.sprintf "(%03d) %-8s %s" i op arg in
    match insn with
    | Ld_len -> plain "ld" "#pktlen"
    | Ldx_len -> plain "ldx" "#pktlen"
    | Ld_abs (w, k) ->
      plain (match w with B -> "ldb" | H -> "ldh" | W -> "ld") (Printf.sprintf "[%d]" k)
    | Rsh k -> plain "rsh" (Printf.sprintf "#%d" k)
    | And k -> plain "and" (Printf.sprintf "#0x%x" k)
    | Add k -> plain "add" (Printf.sprintf "#%d" k)
    | Mul k -> plain "mul" (Printf.sprintf "#0x%x" k)
    | Mod k -> plain "mod" (Printf.sprintf "#%d" k)
    | Jmp (c, s, jt, jf) ->
      Printf.sprintf "(%03d) %-8s %-16s jt %d  jf %d" i
        (match c with Jeq -> "jeq" | Jgt -> "jgt" | Jge -> "jge")
        (match s with K k -> Printf.sprintf "#0x%x" k | X -> "x")
        (i + 1 + jt) (i + 1 + jf)
    | Ret k -> plain "ret" (Printf.sprintf "#%d" k)
    | Ret_a -> plain "ret" "a"
  in
  String.concat "\n" (Array.to_list (Array.mapi line prog)) ^ "\n"
