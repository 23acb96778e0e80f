/* Batched kernel I/O for the socket front end: recvmmsg / sendmmsg over
 * preallocated msghdr / iovec / sockaddr arrays, plus a persistent epoll
 * instance for edge-triggered readiness.  One syscall moves up to a whole
 * batch of datagrams straight into (or out of) Engine.Slab slots.
 *
 * Calling convention shared by every I/O stub here:
 *   >= 0  datagrams moved / events ready
 *   -1    EAGAIN / EWOULDBLOCK / EINTR  (nothing to do right now)
 *   -2    unavailable on this platform or kernel (ENOSYS; or non-Linux build)
 *   -3    any other socket error (caller counts it and drops, never raises
 *         on the hot path)
 *
 * The runtime lock stays HELD across recvmmsg/sendmmsg: the sockets are
 * non-blocking (MSG_DONTWAIT besides), so the calls cannot block, and
 * holding the lock keeps naked Bytes_val pointers stable — OCaml 5's
 * stop-the-world minor GC cannot move the buffers while this domain is
 * inside the stub.  epoll_wait DOES release the lock around the (possibly
 * blocking) wait and copies ready tags out of C-side storage afterwards.
 */

#ifdef __linux__
#define _GNU_SOURCE /* recvmmsg/sendmmsg; must precede every libc header */
#endif

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/custom.h>
#include <caml/threads.h>

#include <string.h>
#include <errno.h>

#ifdef __linux__

#include <stdint.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/epoll.h>
#include <netinet/in.h>
#include <unistd.h>
#include <linux/filter.h>

#ifndef SO_MEMINFO
#define SO_MEMINFO 55 /* asm-generic/socket.h, Linux >= 4.12 */
#endif
#define NETDSL_MEMINFO_DROPS 8 /* SK_MEMINFO_DROPS, linux/sock_diag.h */
#ifndef SO_ATTACH_REUSEPORT_CBPF
#define SO_ATTACH_REUSEPORT_CBPF 51 /* asm-generic/socket.h, Linux >= 4.5 */
#endif

#ifndef SOL_UDP
#define SOL_UDP 17
#endif
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103 /* linux/udp.h, Linux >= 4.18 */
#endif

/* ---- batch: the reusable scatter/gather arrays ---------------------- */

/* One UDP_SEGMENT control message, aligned for struct cmsghdr. */
union netdsl_ctrl {
  char buf[CMSG_SPACE(sizeof(uint32_t))];
  struct cmsghdr align;
};

struct netdsl_batch {
  int cap;
  struct mmsghdr *hdrs;
  struct iovec *iovs;
  struct sockaddr_storage *addrs; /* indexed by slab slot: rx source, tx dest */
  socklen_t *addrlens;
  union netdsl_ctrl *ctrls;       /* per message: UDP_SEGMENT of a group */
  int *segs;                      /* per message: datagrams it carries */
  int gso;            /* group reply runs: probe said yes, no refusal yet */
  int refuse_groups;  /* test hook: malformed cmsg, the kernel refuses */
  int last_msgs;      /* messages the kernel accepted in the last send */
  int last_calls;     /* sendmmsg calls the last send made */
  int last_oversized; /* datagrams the last recv discarded as oversized */
};

#define Batch_val(v) (*(struct netdsl_batch **)Data_custom_val(v))

static void netdsl_batch_finalize(value v)
{
  struct netdsl_batch *b = Batch_val(v);
  if (b) {
    free(b->hdrs);
    free(b->iovs);
    free(b->addrs);
    free(b->addrlens);
    free(b->ctrls);
    free(b->segs);
    free(b);
    Batch_val(v) = NULL;
  }
}

static struct custom_operations netdsl_batch_ops = {
  "netdsl.mmsg.batch",
  netdsl_batch_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

/* UDP GSO probe: the UDP_SEGMENT socket option arrived with the cmsg
 * (Linux 4.18).  An older kernel would ignore a SOL_UDP cmsg and send a
 * group as ONE concatenated datagram, so grouping needs a yes here. */
static int netdsl_gso_probe(void)
{
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return 0;
  int v = 0;
  socklen_t vl = sizeof v;
  int ok = getsockopt(fd, SOL_UDP, UDP_SEGMENT, &v, &vl) == 0;
  close(fd);
  return ok;
}

CAMLprim value netdsl_mmsg_create(value vslots)
{
  CAMLparam1(vslots);
  CAMLlocal1(res);
  int cap = Int_val(vslots);
  if (cap <= 0) caml_invalid_argument("Mmsg.create: slots must be positive");
  struct netdsl_batch *b = malloc(sizeof *b);
  if (!b) caml_raise_out_of_memory();
  b->cap = cap;
  b->hdrs = calloc(cap, sizeof *b->hdrs);
  b->iovs = calloc(cap, sizeof *b->iovs);
  b->addrs = calloc(cap, sizeof *b->addrs);
  b->addrlens = calloc(cap, sizeof *b->addrlens);
  b->ctrls = calloc(cap, sizeof *b->ctrls);
  b->segs = calloc(cap, sizeof *b->segs);
  if (!b->hdrs || !b->iovs || !b->addrs || !b->addrlens || !b->ctrls
      || !b->segs) {
    free(b->hdrs); free(b->iovs); free(b->addrs); free(b->addrlens);
    free(b->ctrls); free(b->segs); free(b);
    caml_raise_out_of_memory();
  }
  b->gso = netdsl_gso_probe();
  b->refuse_groups = 0;
  b->last_msgs = 0;
  b->last_calls = 0;
  b->last_oversized = 0;
  res = caml_alloc_custom(&netdsl_batch_ops, sizeof(struct netdsl_batch *), 0, 1);
  Batch_val(res) = b;
  CAMLreturn(res);
}

/* recv batch fd bufs lens base count -> moved
 *
 * Scatters up to [count] datagrams into bufs[base..base+count-1] (a leased
 * Slab run: contiguous, never wrapping), records kernel-written lengths in
 * the OCaml int array lens[base..] (Val_long into an int array needs no
 * write barrier) and source addresses in the C sockaddr slots of the same
 * indices, where they stay valid until the slot's reply is flushed. */
CAMLprim value netdsl_mmsg_recv(value vbatch, value vfd, value vbufs,
                                value vlens, value vbase, value vcount)
{
  struct netdsl_batch *b = Batch_val(vbatch);
  int fd = Int_val(vfd);
  int base = Int_val(vbase);
  int count = Int_val(vcount);
  if (base < 0 || count <= 0 || base + count > b->cap)
    caml_invalid_argument("Mmsg.recv: run outside the batch");
  b->last_oversized = 0;
  for (int i = 0; i < count; i++) {
    value buf = Field(vbufs, base + i);
    b->iovs[base + i].iov_base = Bytes_val(buf);
    b->iovs[base + i].iov_len = caml_string_length(buf);
    memset(&b->hdrs[base + i].msg_hdr, 0, sizeof(struct msghdr));
    b->hdrs[base + i].msg_hdr.msg_iov = &b->iovs[base + i];
    b->hdrs[base + i].msg_hdr.msg_iovlen = 1;
    b->hdrs[base + i].msg_hdr.msg_name = &b->addrs[base + i];
    b->hdrs[base + i].msg_hdr.msg_namelen = sizeof(struct sockaddr_storage);
  }
  int r = recvmmsg(fd, &b->hdrs[base], count, MSG_DONTWAIT, NULL);
  if (r < 0) {
    if (errno == EINTR) return Val_int(0); /* retry; edge state unknown */
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Val_int(-1);
    if (errno == ENOSYS) return Val_int(-2);
    return Val_int(-3);
  }
  /* A datagram that fills its whole slot may not have fit in it: the
   * slots are one byte wider than the largest packet served, so filling
   * one means the datagram was oversized (the kernel cut it, MSG_TRUNC).
   * It is discarded here, the kept datagrams moved down over it, so the
   * run stays contiguous; the caller counts [last_oversized] as drops. */
  int w = 0;
  for (int i = 0; i < r; i++) {
    struct mmsghdr *h = &b->hdrs[base + i];
    if (h->msg_len >= b->iovs[base + i].iov_len
        || (h->msg_hdr.msg_flags & MSG_TRUNC))
      continue;
    if (w != i) {
      memcpy(b->iovs[base + w].iov_base, b->iovs[base + i].iov_base, h->msg_len);
      memcpy(&b->addrs[base + w], &b->addrs[base + i], sizeof b->addrs[0]);
    }
    Field(vlens, base + w) = Val_long(h->msg_len);
    b->addrlens[base + w] = h->msg_hdr.msg_namelen;
    w++;
  }
  b->last_oversized = r - w;
  return Val_int(w);
}

CAMLprim value netdsl_mmsg_recv_byte(value *argv, int argn)
{
  (void)argn;
  return netdsl_mmsg_recv(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* last_oversized batch: datagrams the last recv discarded as wider than
 * a slot.  [@@noalloc] on the OCaml side. */
CAMLprim value netdsl_mmsg_last_oversized(value vbatch)
{
  return Val_int(Batch_val(vbatch)->last_oversized);
}

/* ---- send: one message per datagram, or one per reply run ---------- */

/* A run is consecutive entries with a recorded address slot, byte-equal
 * destination sockaddrs and equal lengths (the last may be shorter).  It
 * leaves as ONE msghdr whose iovecs are the entries' staging buffers,
 * plus a UDP_SEGMENT cmsg naming the segment size: the kernel builds one
 * skb and cuts it into datagrams after the UDP/IP output path, so the
 * per-datagram cost of that path is paid once per run.  Caps keep every
 * segment inside a 1500-byte MTU and every run inside one skb. */

#define GSO_MAX_SEGS 64
#define GSO_MAX_BYTES 65000

static size_t gso_seg_cap(const struct sockaddr_storage *ss)
{
  return ss->ss_family == AF_INET6 ? 1500 - 40 - 8 : 1500 - 20 - 8;
}

static int same_dest(const struct netdsl_batch *b, long ai, long aj)
{
  return ai == aj
         || (b->addrlens[ai] == b->addrlens[aj]
             && memcmp(&b->addrs[ai], &b->addrs[aj], b->addrlens[ai]) == 0);
}

/* The kernel's "no" to a group: no UDP_SEGMENT support (EINVAL,
 * ENOPROTOOPT), a segment wider than the route's MTU (EINVAL, or
 * EMSGSIZE on newer kernels), or a device path that cannot segment
 * (EIO).  Every entry of a refused group is still sendable alone. */
static int gso_refused(int err)
{
  return err == EINVAL || err == EIO || err == ENOPROTOOPT || err == EMSGSIZE;
}

static void set_single(struct netdsl_batch *b, int h, int e, long ai)
{
  struct msghdr *m = &b->hdrs[h].msg_hdr;
  memset(m, 0, sizeof *m);
  m->msg_iov = &b->iovs[e];
  m->msg_iovlen = 1;
  if (ai >= 0) {
    m->msg_name = &b->addrs[ai];
    m->msg_namelen = b->addrlens[ai];
  }
}

/* Build the messages for entries off..off+n-1 into hdrs[off..]: one per
 * run while [b->gso] holds, else one per entry.  Returns how many;
 * segs[h] says how many datagrams message h carries. */
static int build_msgs(struct netdsl_batch *b, value vaddr_idx, int off, int n)
{
  int m = 0;
  for (int i = off; i < off + n;) {
    long ai = Long_val(Field(vaddr_idx, i));
    size_t len = b->iovs[i].iov_len;
    int k = 1;
    if (b->gso && ai >= 0 && len > 0 && len <= gso_seg_cap(&b->addrs[ai])) {
      size_t total = len;
      while (i + k < off + n && k < GSO_MAX_SEGS) {
        long aj = Long_val(Field(vaddr_idx, i + k));
        size_t lj = b->iovs[i + k].iov_len;
        if (aj < 0 || lj == 0 || lj > len || total + lj > GSO_MAX_BYTES
            || !same_dest(b, ai, aj))
          break;
        total += lj;
        k++;
        if (lj < len) break; /* a shorter segment ends its run */
      }
    }
    int h = off + m; /* h <= i: message slots trail the entries */
    set_single(b, h, i, ai);
    if (k > 1) {
      struct msghdr *mh = &b->hdrs[h].msg_hdr;
      mh->msg_iovlen = k;
      mh->msg_control = b->ctrls[h].buf;
      mh->msg_controllen = CMSG_SPACE(sizeof(uint16_t));
      struct cmsghdr *c = CMSG_FIRSTHDR(mh);
      c->cmsg_level = SOL_UDP;
      c->cmsg_type = UDP_SEGMENT;
      /* the hook's wrong length draws the kernel's EINVAL for real */
      c->cmsg_len = b->refuse_groups ? CMSG_LEN(sizeof(uint32_t))
                                     : CMSG_LEN(sizeof(uint16_t));
      uint16_t seg = (uint16_t)len;
      memcpy(CMSG_DATA(c), &seg, sizeof seg);
    }
    b->segs[h] = k;
    m++;
    i += k;
  }
  return m;
}

/* send batch fd bufs lens addr_idx off n -> sent
 *
 * Gathers entries off..off+n-1 of the staging arrays: bufs.(i) holds
 * lens.(i) reply bytes, addr_idx.(i) names the sockaddr slot to send to
 * (-1 = connected socket, no address: never grouped, one msghdr each).
 * Returns how many DATAGRAMS left — the caller resumes from off+sent on
 * a partial send; [last_msgs] says in how many messages, [last_calls]
 * in how many sendmmsg calls.
 *
 * A group the kernel refuses as the FIRST message fails the whole call:
 * grouping then stops on this batch for good (a path that refuses one
 * run refuses them all) and the entries go again, one datagram per
 * message, in a second sendmmsg.  A refusal after earlier messages went
 * out is lost — sendmmsg returns the count sent — so the caller's
 * resume brings the refused group back here as the first message. */
CAMLprim value netdsl_mmsg_send(value vbatch, value vfd, value vbufs,
                                value vlens, value vaddr_idx, value voff,
                                value vn)
{
  struct netdsl_batch *b = Batch_val(vbatch);
  int fd = Int_val(vfd);
  int off = Int_val(voff);
  int n = Int_val(vn);
  if (off < 0 || n <= 0 || off + n > b->cap)
    caml_invalid_argument("Mmsg.send: run outside the batch");
  for (int i = off; i < off + n; i++) {
    value buf = Field(vbufs, i);
    b->iovs[i].iov_base = Bytes_val(buf);
    b->iovs[i].iov_len = Long_val(Field(vlens, i));
    long ai = Long_val(Field(vaddr_idx, i));
    if (ai >= b->cap) caml_invalid_argument("Mmsg.send: bad address slot");
  }
  int m = build_msgs(b, vaddr_idx, off, n);
  int r = sendmmsg(fd, &b->hdrs[off], m, MSG_DONTWAIT);
  b->last_calls = 1;
  if (r < 0 && b->segs[off] > 1 && gso_refused(errno)) {
    b->gso = 0;
    m = build_msgs(b, vaddr_idx, off, n);
    r = sendmmsg(fd, &b->hdrs[off], m, MSG_DONTWAIT);
    b->last_calls = 2;
  }
  if (r < 0) {
    b->last_msgs = 0;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return Val_int(-1);
    if (errno == ENOSYS) return Val_int(-2);
    return Val_int(-3);
  }
  b->last_msgs = r;
  int sent = 0;
  for (int j = 0; j < r; j++) sent += b->segs[off + j];
  return Val_int(sent);
}

CAMLprim value netdsl_mmsg_send_byte(value *argv, int argn)
{
  (void)argn;
  return netdsl_mmsg_send(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6]);
}

/* last_msgs batch: messages the kernel accepted in the last send (its
 * datagrams-per-message view).  [@@noalloc] on the OCaml side. */
CAMLprim value netdsl_mmsg_last_msgs(value vbatch)
{
  return Val_int(Batch_val(vbatch)->last_msgs);
}

/* last_calls batch: sendmmsg calls the last send made (2 when a refused
 * group was re-sent).  [@@noalloc] on the OCaml side. */
CAMLprim value netdsl_mmsg_last_calls(value vbatch)
{
  return Val_int(Batch_val(vbatch)->last_calls);
}

CAMLprim value netdsl_mmsg_gso_available(value vunit)
{
  (void)vunit;
  return Val_bool(netdsl_gso_probe());
}

/* Test hook: make every group carry a malformed UDP_SEGMENT cmsg, so the
 * kernel refuses it (EINVAL) and the refusal path runs as it would for a
 * real one: the entries are re-sent singly and grouping stops. */
CAMLprim value netdsl_mmsg_refuse_groups(value vbatch, value von)
{
  Batch_val(vbatch)->refuse_groups = Bool_val(von);
  return Val_unit;
}

/* Availability probe: a throwaway recvmmsg on an unbound UDP socket.
 * EAGAIN means the syscall exists; ENOSYS means a pre-2.6.33 kernel (or
 * a seccomp filter) and the caller falls back to recvfrom/sendto. */
CAMLprim value netdsl_mmsg_available(value vunit)
{
  (void)vunit;
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return Val_false;
  char scratch[8];
  struct iovec iov = { .iov_base = scratch, .iov_len = sizeof scratch };
  struct mmsghdr h;
  memset(&h, 0, sizeof h);
  h.msg_hdr.msg_iov = &iov;
  h.msg_hdr.msg_iovlen = 1;
  int r = recvmmsg(fd, &h, 1, MSG_DONTWAIT, NULL);
  int ok = !(r < 0 && errno == ENOSYS);
  close(fd);
  return Val_bool(ok);
}

/* ---- socket filter, steering program and drop counter --------------- */

/* attach_program fd steering rows: install a classic-BPF program (rows
 * are the flattened (code, jt, jf, k) quadruples) as the socket's filter
 * (SO_ATTACH_FILTER) or, with steering set, as its SO_REUSEPORT group's
 * socket-selection program (SO_ATTACH_REUSEPORT_CBPF).  0 on success, -2
 * where the option does not exist, -3 on any other refusal (the kernel's
 * verifier says no). */
CAMLprim value netdsl_attach_program(value vfd, value vsteering, value vrows)
{
  int n = Wosize_val(vrows) / 4;
  if (n <= 0 || n > BPF_MAXINSNS)
    caml_invalid_argument("Mmsg.attach: program size");
  struct sock_filter *code = calloc(n, sizeof *code);
  if (!code) caml_raise_out_of_memory();
  for (int i = 0; i < n; i++) {
    code[i].code = (uint16_t)Long_val(Field(vrows, 4 * i));
    code[i].jt = (uint8_t)Long_val(Field(vrows, 4 * i + 1));
    code[i].jf = (uint8_t)Long_val(Field(vrows, 4 * i + 2));
    code[i].k = (uint32_t)Long_val(Field(vrows, 4 * i + 3));
  }
  struct sock_fprog prog = { .len = (unsigned short)n, .filter = code };
  int opt = Bool_val(vsteering) ? SO_ATTACH_REUSEPORT_CBPF : SO_ATTACH_FILTER;
  int r = setsockopt(Int_val(vfd), SOL_SOCKET, opt, &prog, sizeof prog);
  int err = errno;
  free(code);
  if (r == 0) return Val_int(0);
  return Val_int(err == ENOPROTOOPT ? -2 : -3);
}

/* socket_drops fd: the socket's drop counter (SO_MEMINFO slot
 * SK_MEMINFO_DROPS): datagrams its filter rejected plus datagrams a full
 * receive buffer refused.  -1 where the kernel does not report it. */
CAMLprim value netdsl_socket_drops(value vfd)
{
  uint32_t mem[16];
  socklen_t len = sizeof mem;
  memset(mem, 0, sizeof mem);
  if (getsockopt(Int_val(vfd), SOL_SOCKET, SO_MEMINFO, mem, &len) != 0
      || len <= NETDSL_MEMINFO_DROPS * sizeof(uint32_t))
    return Val_long(-1);
  return Val_long(mem[NETDSL_MEMINFO_DROPS]);
}

/* ---- persistent epoll ----------------------------------------------- */

struct netdsl_epoll {
  int epfd;
  int cap;                   /* max events per wait */
  struct epoll_event *evs;   /* C-side event storage (stable across GC) */
};

#define Epoll_val(v) (*(struct netdsl_epoll **)Data_custom_val(v))

static void netdsl_epoll_finalize(value v)
{
  struct netdsl_epoll *e = Epoll_val(v);
  if (e) {
    if (e->epfd >= 0) close(e->epfd);
    free(e->evs);
    free(e);
    Epoll_val(v) = NULL;
  }
}

static struct custom_operations netdsl_epoll_ops = {
  "netdsl.mmsg.epoll",
  netdsl_epoll_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

CAMLprim value netdsl_epoll_create(value vcap)
{
  CAMLparam1(vcap);
  CAMLlocal1(res);
  int cap = Int_val(vcap);
  if (cap <= 0) caml_invalid_argument("Epoll.create: cap must be positive");
  int epfd = epoll_create1(0);
  if (epfd < 0) caml_failwith("Epoll.create: epoll_create1 failed");
  struct netdsl_epoll *e = malloc(sizeof *e);
  struct epoll_event *evs = calloc(cap, sizeof *evs);
  if (!e || !evs) {
    close(epfd); free(e); free(evs);
    caml_raise_out_of_memory();
  }
  e->epfd = epfd;
  e->cap = cap;
  e->evs = evs;
  res = caml_alloc_custom(&netdsl_epoll_ops, sizeof(struct netdsl_epoll *), 0, 1);
  Epoll_val(res) = e;
  CAMLreturn(res);
}

/* add ep fd tag: edge-triggered read interest; tag comes back from wait. */
CAMLprim value netdsl_epoll_add(value vep, value vfd, value vtag)
{
  struct netdsl_epoll *e = Epoll_val(vep);
  struct epoll_event ev;
  memset(&ev, 0, sizeof ev);
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = (uint64_t)Long_val(vtag);
  if (epoll_ctl(e->epfd, EPOLL_CTL_ADD, Int_val(vfd), &ev) < 0)
    caml_failwith("Epoll.add: epoll_ctl failed");
  return Val_unit;
}

/* wait ep tags timeout_ms -> ready count (tags.(0..n-1) filled), or -1 on
 * EINTR.  Releases the runtime lock around the wait — other domains must
 * stay free to run (and to start a stop-the-world GC) while this one
 * sleeps in the kernel. */
CAMLprim value netdsl_epoll_wait(value vep, value vtags, value vtimeout)
{
  CAMLparam3(vep, vtags, vtimeout);
  struct netdsl_epoll *e = Epoll_val(vep);
  int timeout = Int_val(vtimeout);
  int cap = e->cap;
  int want = Wosize_val(vtags);
  if (want < cap) cap = want;
  int r;
  if (timeout == 0)
    r = epoll_wait(e->epfd, e->evs, cap, 0);
  else {
    caml_release_runtime_system();
    r = epoll_wait(e->epfd, e->evs, cap, timeout);
    caml_acquire_runtime_system();
  }
  if (r < 0) {
    if (errno == EINTR) CAMLreturn(Val_int(-1));
    caml_failwith("Epoll.wait: epoll_wait failed");
  }
  for (int i = 0; i < r; i++)
    Field(vtags, i) = Val_long((long)e->evs[i].data.u64);
  CAMLreturn(Val_int(r));
}

CAMLprim value netdsl_epoll_close(value vep)
{
  struct netdsl_epoll *e = Epoll_val(vep);
  if (e->epfd >= 0) {
    close(e->epfd);
    e->epfd = -1;
  }
  return Val_unit;
}

CAMLprim value netdsl_epoll_available(value vunit)
{
  (void)vunit;
  return Val_true;
}

#else /* !__linux__ : every stub reports unavailable / fails cleanly */

CAMLprim value netdsl_mmsg_create(value vslots)
{
  (void)vslots;
  caml_failwith("Mmsg.create: batched I/O unavailable on this platform");
}

CAMLprim value netdsl_mmsg_recv(value a, value b, value c, value d, value e,
                                value f)
{
  (void)a; (void)b; (void)c; (void)d; (void)e; (void)f;
  return Val_int(-2);
}

CAMLprim value netdsl_mmsg_recv_byte(value *argv, int argn)
{
  (void)argv; (void)argn;
  return Val_int(-2);
}

CAMLprim value netdsl_mmsg_send(value a, value b, value c, value d, value e,
                                value f, value g)
{
  (void)a; (void)b; (void)c; (void)d; (void)e; (void)f; (void)g;
  return Val_int(-2);
}

CAMLprim value netdsl_mmsg_send_byte(value *argv, int argn)
{
  (void)argv; (void)argn;
  return Val_int(-2);
}

CAMLprim value netdsl_mmsg_last_msgs(value vbatch)
{
  (void)vbatch;
  return Val_int(0);
}

CAMLprim value netdsl_mmsg_last_oversized(value vbatch)
{
  (void)vbatch;
  return Val_int(0);
}

CAMLprim value netdsl_attach_program(value vfd, value vsteering, value vrows)
{
  (void)vfd; (void)vsteering; (void)vrows;
  return Val_int(-2);
}

CAMLprim value netdsl_socket_drops(value vfd)
{
  (void)vfd;
  return Val_long(-1);
}

CAMLprim value netdsl_mmsg_last_calls(value vbatch)
{
  (void)vbatch;
  return Val_int(0);
}

CAMLprim value netdsl_mmsg_gso_available(value vunit)
{
  (void)vunit;
  return Val_false;
}

CAMLprim value netdsl_mmsg_refuse_groups(value a, value b)
{
  (void)a; (void)b;
  return Val_unit;
}

CAMLprim value netdsl_mmsg_available(value vunit)
{
  (void)vunit;
  return Val_false;
}

CAMLprim value netdsl_epoll_create(value vcap)
{
  (void)vcap;
  caml_failwith("Epoll.create: epoll unavailable on this platform");
}

CAMLprim value netdsl_epoll_add(value a, value b, value c)
{
  (void)a; (void)b; (void)c;
  return Val_unit;
}

CAMLprim value netdsl_epoll_wait(value a, value b, value c)
{
  (void)a; (void)b; (void)c;
  return Val_int(-2);
}

CAMLprim value netdsl_epoll_close(value vep)
{
  (void)vep;
  return Val_unit;
}

CAMLprim value netdsl_epoll_available(value vunit)
{
  (void)vunit;
  return Val_false;
}

#endif

/* Allocation-free monotonic clock, integer nanoseconds in an OCaml
 * immediate (62 bits holds ~73 years of nanoseconds).  Declared
 * [@@noalloc] on the OCaml side: no caml_* calls, no lock dance —
 * cheap enough to bracket every engine batch.  Portable: every POSIX
 * target of this tree has clock_gettime; wall time is the (boxed-float
 * parity) fallback of last resort. */
#include <time.h>
#include <sys/time.h>

CAMLprim value netdsl_now_ns(value vunit)
{
  (void)vunit;
#ifdef CLOCK_MONOTONIC
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) == 0)
    return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
#endif
  {
    struct timeval tv;
    gettimeofday(&tv, NULL);
    return Val_long((intnat)tv.tv_sec * 1000000000 + (intnat)tv.tv_usec * 1000);
  }
}
