(* Regenerates the committed golden corpus under test/corpus/: for every
   shipped format one well-formed wire sample and one canonically
   malformed one (the first corruption, in a fixed candidate order, that
   the codec rejects); for every catalogue stack the chained golden
   packets plus canonical cross-layer malformed variants (truncated
   mid-chain, demux mismatch, outer length lie).  Deterministic: fixed
   seeds, so re-running produces identical files.

     dune exec test/make_corpus.exe            (writes into test/corpus)
     dune exec test/make_corpus.exe -- DIR     (writes into DIR)
*)

module Codec = Netdsl_format.Codec
module Desc = Netdsl_format.Desc
module Stack = Netdsl_format.Stack
module Hexdump = Netdsl_util.Hexdump
module Prng = Netdsl_util.Prng
module Corpus = Netdsl_check.Corpus
module Mutate = Netdsl_check.Mutate
module Fm = Netdsl_formats

let rejects fmt pkt =
  match Codec.decode fmt pkt with Ok _ -> false | Error _ -> true

(* Candidate corruptions, mildest first; the malformed golden is the first
   one the codec refuses. *)
let malformed_of fmt valid =
  let n = String.length valid in
  let set i c =
    let b = Bytes.of_string valid in
    Bytes.set b i c;
    Bytes.to_string b
  in
  let candidates =
    [ (if n > 0 then String.sub valid 0 (n - 1) else valid);
      (if n > 0 then set (n - 1) (Char.chr (Char.code valid.[n - 1] lxor 0xff))
       else valid);
      (if n > 0 then set 0 (Char.chr (Char.code valid.[0] lxor 0x80)) else valid);
      valid ^ "\xff\xff\xff\xff";
      String.make (max 1 n) '\x00';
      (* permissive formats (no checksum, trailing payload absorbs bytes):
         make an interior count/length field lie, then truncate hard *)
      (if n > 5 then set 5 '\xff' else valid);
      (if n > 1 then String.sub valid 0 (n / 2) else valid);
      (if n > 1 then String.sub valid 0 1 else valid) ]
  in
  match List.find_opt (rejects fmt) candidates with
  | Some m -> m
  | None ->
    Printf.eprintf "no corruption of %s rejects — corpus would be vacuous\n"
      fmt.Desc.format_name;
    exit 1

(* Cross-layer corruptions of a chained packet, mildest first; each must
   make the fused chain (and therefore the sequential reference — the
   oracle guarantees they agree) reject.  [windows] are the accepting
   per-layer byte windows of [valid]. *)
let chain_malformed stack plan valid =
  let seq = Stack.Seq.create plan in
  (match Stack.Seq.decode seq valid with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "chained golden for %s does not decode: %s\n"
      (Stack.name stack) (Codec.error_to_string e);
    exit 1);
  let n = Stack.layer_count plan in
  let windows =
    Array.init n (fun i -> (Stack.Seq.layer_off seq i, Stack.Seq.layer_len seq i))
  in
  (* the demux slot of carrier layer [i], shifted to its chained offset *)
  let demux_lie i value =
    match Stack.layer_select stack i with
    | None -> None
    | Some (field, _) -> (
      let slots = Mutate.slots (Mutate.plan (Stack.layer_format stack i)) in
      match
        List.find_opt (fun s -> String.equal s.Mutate.s_name field) slots
      with
      | None -> None
      | Some s ->
        let off, _ = windows.(i) in
        Some
          [ Mutate.Field_set
              { name = s.Mutate.s_name; bit_off = s.Mutate.s_bit_off + (8 * off);
                bits = s.Mutate.s_bits; endian = s.Mutate.s_endian; value } ])
  in
  (* an outer length-class slot undercounting the layers it carries *)
  let length_lie i =
    let slots = Mutate.slots (Mutate.plan (Stack.layer_format stack i)) in
    match
      List.find_opt (fun s -> s.Mutate.s_kind = Mutate.Computed) slots
    with
    | None -> None
    | Some s ->
      let off, _ = windows.(i) in
      let header = fst windows.(i + 1) - off in
      Some
        [ Mutate.Field_set
            { name = s.Mutate.s_name; bit_off = s.Mutate.s_bit_off + (8 * off);
              bits = s.Mutate.s_bits; endian = s.Mutate.s_endian;
              value = Int64.of_int (max 0 (header - 1)) } ]
  in
  let inner_off = fst windows.(n - 1) in
  let candidates =
    [ (* truncated mid-chain: the innermost header cut short *)
      Some [ Mutate.Truncate (inner_off + 1) ];
      (* demux mismatch on the outermost edge *)
      demux_lie 0 0xdeadL;
      (* outer length lying about the inner layers *)
      length_lie 0 ]
    @ List.init (n - 1) (fun i -> demux_lie i 0L)
  in
  let malformed =
    List.filter_map
      (fun ops ->
        match ops with
        | None -> None
        | Some ops ->
          let m = Mutate.apply ops valid in
          if (not (Stack.run plan m)) && not (String.equal m valid) then Some m
          else None)
      candidates
  in
  if malformed = [] then begin
    Printf.eprintf "no cross-layer corruption of %s rejects — corpus would be vacuous\n"
      (Stack.name stack);
    exit 1
  end;
  malformed

let write_file path lines =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/corpus" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, fmt) ->
      let gen =
        match Corpus.generator fmt with
        | Some g -> g
        | None ->
          Printf.eprintf "format %s has no generator\n" name;
          exit 1
      in
      let valid = gen (Prng.of_int 20260806) in
      assert (not (rejects fmt valid));
      let malformed = malformed_of fmt valid in
      write_file
        (Filename.concat dir (name ^ "-valid.hex"))
        [ Printf.sprintf "# %s: well-formed golden wire sample" name;
          Hexdump.to_hex valid ];
      write_file
        (Filename.concat dir (name ^ "-malformed.hex"))
        [ Printf.sprintf "# %s: canonical malformed sample (codec rejects)" name;
          Hexdump.to_hex malformed ];
      Printf.printf "%-10s valid %d bytes, malformed %d bytes\n" name
        (String.length valid)
        (String.length malformed))
    Corpus.shipped;
  List.iter
    (fun (name, stack) ->
      let plan =
        match Stack.compile stack with
        | Ok p -> p
        | Error e ->
          Printf.eprintf "stack %s does not fuse: %s\n" name e;
          exit 1
      in
      let valid = Corpus.stack_seeds stack in
      if valid = [] then begin
        Printf.eprintf "stack %s has no chained seeds\n" name;
        exit 1
      end;
      let malformed = chain_malformed stack plan (List.hd valid) in
      write_file
        (Filename.concat dir (name ^ "-chain-valid.hex"))
        (Printf.sprintf "# %s: well-formed chained packets (every layer decodes)"
           name
        :: List.map Hexdump.to_hex valid);
      write_file
        (Filename.concat dir (name ^ "-chain-malformed.hex"))
        (Printf.sprintf
           "# %s: cross-layer malformed chains (truncated mid-chain, demux \
            mismatch, outer length lie)"
           name
        :: List.map Hexdump.to_hex malformed);
      Printf.printf "%-10s %d chained packets, %d malformed chains\n" name
        (List.length valid) (List.length malformed))
    Fm.Stacks.all
