(* Batched kernel I/O: thin OCaml face over the recvmmsg/sendmmsg/epoll
   stubs in mmsg_stubs.c.  All hot-path calls return plain ints (the
   -1 / -2 / -3 convention below) so the server's drain and flush loops
   stay allocation-free; only setup builds OCaml values. *)

type t

external create : int -> t = "netdsl_mmsg_create"

external stub_available : unit -> bool = "netdsl_mmsg_available"

(* NETDSL_NO_MMSG forces the legacy path even where the stubs work —
   deterministic red-path cram tests and a kill switch in one. *)
let disabled_by_env () =
  match Sys.getenv_opt "NETDSL_NO_MMSG" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let available () = (not (disabled_by_env ())) && stub_available ()

external recv :
  t -> Unix.file_descr -> bufs:Bytes.t array -> lens:int array -> base:int ->
  count:int -> int = "netdsl_mmsg_recv_byte" "netdsl_mmsg_recv"

external send :
  t -> Unix.file_descr -> bufs:Bytes.t array -> lens:int array ->
  addr_idx:int array -> off:int -> n:int -> int
  = "netdsl_mmsg_send_byte" "netdsl_mmsg_send"

external last_recv_oversized : t -> int = "netdsl_mmsg_last_oversized" [@@noalloc]
external last_send_msgs : t -> int = "netdsl_mmsg_last_msgs" [@@noalloc]
external last_send_calls : t -> int = "netdsl_mmsg_last_calls" [@@noalloc]
external gso_available : unit -> bool = "netdsl_mmsg_gso_available"

module For_testing = struct
  external refuse_groups : t -> bool -> unit = "netdsl_mmsg_refuse_groups"
  [@@noalloc]
end

external attach_rows : Unix.file_descr -> bool -> int array -> int
  = "netdsl_attach_program"

let attach ~steering fd prog =
  let rows =
    Array.concat
      (List.map
         (fun (c, jt, jf, k) -> [| c; jt; jf; k |])
         (Array.to_list (Netdsl_format.Bpf.encode prog)))
  in
  attach_rows fd steering rows = 0

let attach_filter = attach ~steering:false
let attach_steering = attach ~steering:true

external socket_drops : Unix.file_descr -> int = "netdsl_socket_drops" [@@noalloc]

let eagain = -1
let unavailable = -2

external now_ns : unit -> int = "netdsl_now_ns" [@@noalloc]

let now_ms () = now_ns () / 1_000_000

module Epoll = struct
  type ep

  external create : int -> ep = "netdsl_epoll_create"
  external add : ep -> Unix.file_descr -> int -> unit = "netdsl_epoll_add"

  external wait : ep -> tags:int array -> timeout_ms:int -> int
    = "netdsl_epoll_wait"

  external close : ep -> unit = "netdsl_epoll_close"
  external stub_available : unit -> bool = "netdsl_epoll_available"

  let available () = (not (disabled_by_env ())) && stub_available ()
end
