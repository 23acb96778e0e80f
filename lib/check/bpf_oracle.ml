module Bpf = Netdsl_format.Bpf
module Codec = Netdsl_format.Codec

type t = { rows : (int * int * int * int) array }

let prepare prog = { rows = Bpf.encode prog }

type verdict = Drop | Keep of int

let u32 x = x land 0xFFFF_FFFF

(* Byte [k] of what the program reads: [hdr] header bytes, then the
   payload.  A UDP socket filter sees an 8-byte UDP header (ports 0,
   length [len], checksum 0); a reuseport steering program sees none. *)
let byte ~hdr payload len k =
  if k >= hdr then Char.code (String.unsafe_get payload (k - hdr))
  else if k = 4 then (len lsr 8) land 0xFF
  else if k = 5 then len land 0xFF
  else 0

(* The program's return value.  Interprets the kernel's rows, not
   [Bpf.insn]: the encoding is what the kernel runs, and any opcode
   [Bpf.encode] does not emit is refused.  Jumps only go forward, so the
   loop ends; nothing here allocates. *)
let exec ~hdr rows payload =
  let len = String.length payload + hdr in
  let a = ref 0 and x = ref 0 and pc = ref 0 and ret = ref (-1) in
  while !ret < 0 do
    if !pc >= Array.length rows then invalid_arg "Bpf_oracle: ran off the program";
    let code, jt, jf, k = rows.(!pc) in
    incr pc;
    let src = if code land 0x08 <> 0 then !x else k in
    let w = match code with 0x20 -> 4 | 0x28 -> 2 | 0x30 -> 1 | _ -> 0 in
    if w > 0 then begin
      (* a load past the end ends the program: the kernel returns 0 *)
      if k < 0 || k + w > len then ret := 0
      else begin
        a := 0;
        for i = k to k + w - 1 do
          a := (!a lsl 8) lor byte ~hdr payload len i
        done
      end
    end
    else
      match code with
      | 0x80 -> a := len
      | 0x81 -> x := len
      | 0x04 -> a := u32 (!a + k)
      | 0x24 -> a := u32 (!a * k)
      | 0x94 when k > 0 -> a := !a mod k
      | 0x54 -> a := !a land k
      | 0x74 -> a := !a lsr (k land 31)
      | 0x15 | 0x1d -> pc := !pc + if !a = src then jt else jf
      | 0x25 | 0x2d -> pc := !pc + if !a > src then jt else jf
      | 0x35 | 0x3d -> pc := !pc + if !a >= src then jt else jf
      | 0x06 -> ret := u32 k
      | 0x16 -> ret := !a
      | _ -> invalid_arg (Printf.sprintf "Bpf_oracle: opcode 0x%02x not modelled" code)
  done;
  !ret

(* Payload bytes the socket receives, or -1: the kernel keeps
   [max header r] bytes when that is shorter than the datagram. *)
let kept t payload =
  match exec ~hdr:Bpf.udp_header t.rows payload with
  | 0 -> -1
  | r -> min (String.length payload) (max Bpf.udp_header r - Bpf.udp_header)

let run t payload = match kept t payload with -1 -> Drop | n -> Keep n

let passes t payload =
  match t with None -> true | Some t -> kept t payload = String.length payload

let unsound fmt t payload =
  match Codec.decode fmt payload with
  | Error _ -> None
  | Ok _ -> (
    match run t payload with
    | Keep n when n = String.length payload -> None
    | v ->
      Some
        (Printf.sprintf "the decoder accepts %s, the filter %s"
           (Netdsl_util.Hexdump.to_hex payload)
           (match v with
           | Drop -> "drops it"
           | Keep n -> Printf.sprintf "keeps %d of its %d bytes" n (String.length payload))))

let dropped t payloads =
  List.fold_left (fun acc p -> if passes t p then acc else acc + 1) 0 payloads

let steer t payload = exec ~hdr:0 t.rows payload

(* ---- planted mutants ------------------------------------------------- *)

let mutate_first f prog =
  let out = Array.copy prog in
  let rec go i =
    if i >= Array.length prog then None
    else
      match f prog.(i) with
      | Some insn ->
        out.(i) <- insn;
        Some out
      | None -> go (i + 1)
  in
  go 0

let tighten_range =
  mutate_first (function
    | Bpf.Jmp (Jgt, K k, jt, jf) when k > 0 -> Some (Bpf.Jmp (Jgt, K (k - 1), jt, jf))
    | _ -> None)

let shift_loads prog =
  let changed = ref false in
  let out =
    Array.map
      (function
        | Bpf.Ld_abs (w, k) ->
          changed := true;
          Bpf.Ld_abs (w, k + 1)
        | insn -> insn)
      prog
  in
  if !changed then Some out else None

let trim_accept =
  mutate_first (function
    | Bpf.Ret k when k = Bpf.accept -> Some (Bpf.Ret 6)
    | _ -> None)

let wrong_multiplier =
  mutate_first (function
    | Bpf.Mul k -> Some (Bpf.Mul ((k + 0x10000) land 0xFFFF_FFFF))
    | _ -> None)

let mutants prog =
  List.filter_map
    (fun (name, m) -> Option.map (fun p -> (name, p)) (m prog))
    [ ("tightened range", tighten_range); ("loads one byte late", shift_loads);
      ("accept returns 6", trim_accept); ("wrong multiplier", wrong_multiplier) ]
