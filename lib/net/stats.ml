type t = {
  mutable rx_pkts : int;
  mutable rx_bytes : int;
  mutable tx_pkts : int;
  mutable tx_msgs : int;
  mutable tx_bytes : int;
  mutable drops : int;
  mutable kernel_drops : int;
  mutable send_eagain : int;
  mutable short_writes : int;
  mutable tx_errors : int;
  mutable conns_accepted : int;
  mutable conns_closed : int;
  mutable hwm_drain : int;
  mutable hwm_datagram : int;
  mutable syscalls : int;
  mutable batched_rx : int;
  mutable batched_tx : int;
  mutable hwm_pkts_per_syscall : int;
}

let create () =
  { rx_pkts = 0; rx_bytes = 0; tx_pkts = 0; tx_msgs = 0; tx_bytes = 0;
    drops = 0; kernel_drops = 0; send_eagain = 0; short_writes = 0; tx_errors = 0;
    conns_accepted = 0; conns_closed = 0; hwm_drain = 0; hwm_datagram = 0;
    syscalls = 0; batched_rx = 0; batched_tx = 0; hwm_pkts_per_syscall = 0 }

let reset_highwater t =
  t.hwm_drain <- 0;
  t.hwm_datagram <- 0;
  t.hwm_pkts_per_syscall <- 0

let merge_into ~into s =
  into.rx_pkts <- into.rx_pkts + s.rx_pkts;
  into.rx_bytes <- into.rx_bytes + s.rx_bytes;
  into.tx_pkts <- into.tx_pkts + s.tx_pkts;
  into.tx_msgs <- into.tx_msgs + s.tx_msgs;
  into.tx_bytes <- into.tx_bytes + s.tx_bytes;
  into.drops <- into.drops + s.drops;
  into.kernel_drops <- into.kernel_drops + s.kernel_drops;
  into.send_eagain <- into.send_eagain + s.send_eagain;
  into.short_writes <- into.short_writes + s.short_writes;
  into.tx_errors <- into.tx_errors + s.tx_errors;
  into.conns_accepted <- into.conns_accepted + s.conns_accepted;
  into.conns_closed <- into.conns_closed + s.conns_closed;
  into.hwm_drain <- max into.hwm_drain s.hwm_drain;
  into.hwm_datagram <- max into.hwm_datagram s.hwm_datagram;
  into.syscalls <- into.syscalls + s.syscalls;
  into.batched_rx <- into.batched_rx + s.batched_rx;
  into.batched_tx <- into.batched_tx + s.batched_tx;
  into.hwm_pkts_per_syscall <-
    max into.hwm_pkts_per_syscall s.hwm_pkts_per_syscall

let merge ts =
  let into = create () in
  List.iter (fun s -> merge_into ~into s) ts;
  into

let to_text t =
  Printf.sprintf
    "rx %d pkts / %d B   tx %d pkts / %d msgs / %d B   drops %d   \
     kernel-drops %d\n\
     send-eagain %d   short-writes %d   tx-errors %d   hwm drain %d pkts, \
     datagram %d B\n\
     syscalls %d   batched-rx %d   batched-tx %d   hwm %d pkts/syscall"
    t.rx_pkts t.rx_bytes t.tx_pkts t.tx_msgs t.tx_bytes t.drops t.kernel_drops t.send_eagain
    t.short_writes t.tx_errors t.hwm_drain t.hwm_datagram t.syscalls
    t.batched_rx t.batched_tx t.hwm_pkts_per_syscall
