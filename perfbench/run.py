#!/usr/bin/env python3
"""Serve-path benchmark: client-observed goodput and RTT through a separate
server process, plus a per-layer ledger measured from outside.

Run from the repository root:

    python3 perfbench/run.py --workload arq-min --seed 1 --seconds 30 --trace 0

Builds perfbench/pb_server.exe and perfbench/pb_client.exe with dune, then
for the workload:

  * serving run: starts the server, pins it and the load generator to
    separate cores when there are two, and runs the client's warmup and
    alternating closed-loop and open-loop phases; every reply is checked
    against the stream's precomputed expectations;
  * set-up: between rounds the client starts fresh servers and times
    spawn -> first correct reply to a probe (median is setup_s);
  * with --trace 1, also the in-process layer replay (pb_client replay),
    whose spans are written to perfbench/out/.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  Exit status is 0 only when every reply was correct.

--plant patch|stall runs with a planted defect (a wrong patch constant in
the server, or a server stopped mid-run); --self-test runs both plants and
succeeds only when each is reported as failures.
"""

import argparse
import atexit
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join("_build", "default", "perfbench")
SERVER = os.path.join(BUILD, "pb_server.exe")
CLIENT = os.path.join(BUILD, "pb_client.exe")
OUT = os.path.join(HERE, "out")
# a run ends within this many seconds, whatever the server does
DEADLINE_S = 170


def log(msg):
    print(msg, flush=True)


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def check_layout():
    """The benchmark builds the program from source: refuse to run where
    the repository's sources are not present."""
    for path in ("dune-project", "lib", "specs/arq.ndsl", "specs/stacks.ndsl", "specs/timeout.ndsl"):
        if not os.path.exists(path):
            die("run from the repository root: %s is missing" % path)


def build(deadline):
    cmd = ["dune", "build", "--root", ".", "./perfbench/pb_server.exe", "./perfbench/pb_client.exe"]
    # no shared dune cache: the build reads and writes inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
                           timeout=max(1, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")


def stop(proc, grace=3.0):
    """Stop a child and wait for it: SIGTERM, then SIGKILL."""
    if proc.poll() is None:
        try:
            proc.send_signal(signal.SIGCONT)
            proc.terminate()
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        except ProcessLookupError:
            pass


def run_json(cmd, deadline, cpu=None):
    """Run a pb_client mode; its last stdout line is JSON.  None on
    timeout, crash or garbage.  The client runs in a process group of its
    own, so a timeout also ends the set-up servers it spawns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    pin(proc.pid, cpu)
    try:
        out, err = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        return None
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        return None
    lines = out.decode().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def cpus():
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def pin(pid, cpu):
    if cpu is not None:
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:
            pass


SERVERS = []


class Server:
    """One pb_server process on an ephemeral port; collects its JSON
    stdout lines."""

    def __init__(self, workload, defect=False, cpu=None):
        cmd = [SERVER, "--workload", workload]
        if defect:
            cmd.append("--defect")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        SERVERS.append(self)
        pin(self.proc.pid, cpu)
        self.lines = []
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            try:
                self.lines.append(json.loads(line))
            except ValueError:
                pass

    def ready(self):
        return next((l for l in self.lines if l.get("ready")), None)

    def wait_ready(self, limit):
        """The ready line, or None if the server died or took too long."""
        while self.ready() is None and time.monotonic() < limit and self.proc.poll() is None:
            time.sleep(0.0002)
        return self.ready()

    def snaps(self):
        return [l for l in self.lines if "snap" in l]

    def vm_hwm_kb(self):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return None

    def stop(self):
        stop(self.proc)
        self.reader.join(timeout=2)


def stop_servers():
    for srv in SERVERS:
        srv.stop()


def delta(a, b, key):
    return b[key] - a[key]


def ratio(num, den):
    return num / den if den else 0.0


def stall_after_warmup(srv):
    """The stall plant: once the warmup's snapshot line is in, let the
    closed loop run half a second more, then stop the server process
    (SIGSTOP: it stops answering; SIGKILL still ends it)."""
    limit = time.monotonic() + 30
    while not srv.snaps() and srv.proc.poll() is None and time.monotonic() < limit:
        time.sleep(0.01)
    time.sleep(0.5)
    if srv.proc.poll() is None:
        os.kill(srv.proc.pid, signal.SIGSTOP)


def measure(args, rate):
    """One full run; returns (correct, attempted, failed, e2e, layers, info)."""
    deadline = time.monotonic() + DEADLINE_S
    all_cpus = cpus()
    srv_cpu, cli_cpu = (all_cpus[-1], all_cpus[0]) if len(all_cpus) >= 2 else (None, None)

    srv = Server(args.workload, defect=args.plant == "patch", cpu=srv_cpu)
    ready = srv.wait_ready(time.monotonic() + 10)
    load_cmd = [CLIENT, "load", "--workload", args.workload, "--seed", str(args.seed),
                "--server", SERVER, "--port", str(ready["port"] if ready else 0), "--pid", str(srv.proc.pid),
                "--seconds", str(args.seconds), "--rate", str(rate)]
    if args.plant == "stall" and ready:
        threading.Thread(target=stall_after_warmup, args=(srv,), daemon=True).start()
    load = run_json(load_cmd, deadline, cli_cpu) if ready else None
    hwm_kb = srv.vm_hwm_kb()
    srv.stop()
    snaps = srv.snaps()

    info = {"server_drops": snaps[-1]["drops"] if snaps else 0,
            "send_eagain": snaps[-1]["send_eagain"] if snaps else 0}
    if load is None:
        return False, 1, 1, {}, {}, info
    setup_ok = load["setup_s"]
    readies = load["ready"]
    trials = load["setup_trials"]
    info.update({"setup_samples": len(setup_ok), "setup_trials": trials})
    attempted = load["attempted"]
    # Every request that expected a reply and got none, and every reply
    # that answers no request (wrong or stray), is a failed operation; so
    # is a set-up probe that was never answered.  Drops are printed beside
    # the metrics, not forgiven.
    failed = load["missing"] + load["wrong"] + trials - len(setup_ok)
    rates = load["closed_rates"]
    # a run too short for one goodput stretch has no numbers to report
    correct = failed == 0 and not load["stalled"] and load["open_rtt_samples"] > 0 and len(rates) > 0
    e2e = {
        "goodput_pps": (statistics.median(rates) if rates else 0.0, "1/s", len(rates)),
        "rtt_p50_us": (load["rtt_p50_us"], "us", load["open_rtt_samples"]),
        "rtt_p99_us": (load["rtt_p99_us"], "us", load["open_rtt_samples"]),
        "server_cpu_ns_per_pkt": (load["server_cpu_ns_per_pkt"], "ns", load["open_sent"]),
        "server_rss_mb": ((hwm_kb or 0) / 1024.0, "MB", 1),
        "setup_s": (statistics.median(setup_ok) if setup_ok else 0.0, "s", len(setup_ok)),
    }
    info.update(load)
    layers = {}
    if args.trace:
        layers, replay_ok = per_layer(args, load, snaps, readies, deadline, srv_cpu)
        correct = correct and replay_ok
    return correct, attempted, failed, e2e, layers, info


def per_layer(args, load, snaps, readies, deadline, cpu):
    rounds = load["rounds"]
    if len(snaps) < 2 + 2 * rounds:
        return {}, False
    final = snaps[-1]

    # snapshots: after the warmup, then after each closed and each open phase
    def phase(key, first):
        return sum(delta(snaps[first + 2 * r], snaps[first + 1 + 2 * r], key) for r in range(rounds))

    # the replay's packets arrive as the open phases' did: this many per
    # server wake, on average
    rx_batch = max(1.0, ratio(phase("rx_pkts", 1), phase("wakeups", 1)))
    os.makedirs(OUT, exist_ok=True)
    replay = run_json([CLIENT, "replay", "--workload", args.workload, "--seed", str(args.seed),
                       "--rx-batch", repr(rx_batch),
                       "--spans-out", os.path.join(OUT, "spans-%s.tsv" % args.workload)],
                      deadline, cpu)
    if replay is None:
        return {}, False

    def med(key):
        vals = [r[key] for r in readies]
        return statistics.median(vals) if vals else 0.0

    cpu_ns = load["server_cpu_ns_per_pkt"]
    ledger = {
        "net.rx_ns_per_pkt": replay["net_rx_ns"],
        "net.tx_ns_per_pkt": replay["net_tx_ns"],
        "slab.ns_per_pkt": replay["slab_ns"],
        "parse.ns_per_pkt": replay["parse_ns"],
        "match.ns_per_pkt": replay["match_ns"],
        "step.ns_per_pkt": replay["step_ns"],
        "timers.ns_per_pkt": replay["timers_ns"],
        "deparse.ns_per_pkt": replay["deparse_ns"],
        "engine.self_ns_per_pkt": replay["engine_self_ns"],
    }
    attributed = sum(ledger.values())
    m = dict(ledger)
    m.update({
        "rtt_p99_us": load["rtt_p99_us"],
        "net.syscalls_per_pkt": ratio(phase("syscalls", 0), phase("rx_pkts", 0)),
        "net.pkts_per_rx_call": replay["net_pkts_per_rx_call"],
        "net.wakeups_per_pkt": ratio(phase("wakeups", 1), phase("rx_pkts", 1)),
        "net.drops": final["drops"],
        "net.send_eagain": final["send_eagain"],
        "net.kernel_drops": load["kernel_drops"],
        "slab.hwm_depth": final["hwm_drain"],
        "parse.reject_ratio": ratio(final["decode_rej"], final["decode_pkts"]),
        "step.reject_ratio": ratio(final["step_rej"], final["step_pkts"]),
        "flows.evicted_per_pkt": ratio(final["evicted"], final["processed"]),
        "flows.live": replay["flows_live"],
        "timers.ns_per_op": replay["timers_ns_per_op"],
        "timers.armed_per_pkt": replay["timers_armed_per_pkt"],
        "timers.expired": final["timers_expired"],
        "timers.cascaded": final["timers_cascaded"],
        "engine.ns_per_pkt": replay["engine_ns"],
        "engine.alloc_b_per_pkt": replay["engine_alloc_b"],
        "engine.traced_ns_per_pkt": replay["engine_traced_ns"],
        "engine.decomposed_ns_per_pkt": replay["engine_decomposed_ns"],
        "setup.parse_s": med("parse_s"),
        "setup.compile_s": med("compile_s"),
        "setup.bind_s": med("bind_s"),
        "trace.span_ns": replay["span_ns"],
        "trace.spans_per_pkt": replay["spans_per_pkt"],
        "trace.overhead_ns_per_pkt": replay["engine_traced_ns"] - replay["engine_decomposed_ns"],
        "ledger.server_cpu_ns_per_pkt": cpu_ns,
        "ledger.attributed_ns_per_pkt": attributed,
        "ledger.unattributed_ns_per_pkt": cpu_ns - attributed,
        "gen.late_us_p99": load["late_p99_us"],
        "gen.late_us_max": load["late_max_us"],
        "host.steal_pct": max(load["closed_steal_pct"], load["open_steal_pct"]),
        "host.ref_us": load["host_ref_us"],
    })
    log("ledger (ns/pkt): " + " + ".join("%s %.1f" % (k.replace("_ns_per_pkt", "").replace(".ns_per_pkt", ""), v)
                                         for k, v in ledger.items())
        + " + unattributed %.1f = server_cpu %.1f" % (cpu_ns - attributed, cpu_ns))
    log("  (replayed at %.2f pkts per server wake; the flow table's lookup, mint and eviction"
        " have no public entry point and fall into unattributed)" % rx_batch)
    return m, replay["failed"] == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="arq-min")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("patch", "stall"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    check_layout()
    atexit.register(stop_servers)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        die("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads)))
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    build(time.monotonic() + 900)

    rate = workloads[args.workload]["rate_pps"]
    correct, attempted, failed, e2e, layers, info = measure(args, rate)
    log("workload %s seed %d: closed loop then open loop at %d/s, %ds measured, loopback UDP"
        % (args.workload, args.seed, rate, args.seconds))
    for name, (value, unit, samples) in e2e.items():
        log("  %-22s %14.3f %-4s (%d samples)" % (name, value, unit, samples))
    if "late_p99_us" in info:
        log("  generator: late p99 %.1f us, late max %.1f us; host steal %.2f%% closed, %.2f%% open;"
            " host reference walk %.0f us"
            % (info["late_p99_us"], info["late_max_us"], info["closed_steal_pct"], info["open_steal_pct"],
               info["host_ref_us"]))
        log("  server cpu from /proc/<pid>/stat ticks: %.1f ns/pkt (10 ms resolution; the metric reads"
            " schedstat)" % info["server_tick_ns_per_pkt"])
    log("  drops: kernel %s, server slab %d; send EAGAIN %d"
        % (info.get("kernel_drops"), info["server_drops"], info["send_eagain"]))
    log("  failed %d of %d attempted (missing %s, wrong or stray %s, set-up probes answered %d/%d)%s"
        % (failed, attempted, info.get("missing"), info.get("wrong"), info.get("setup_samples", 0),
           info.get("setup_trials", 0), ", server stalled" if info.get("stalled") else ""))
    for name, value in layers.items():
        log("  %-32s %14.3f" % (name, value))

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        if args.trace:
            value = layers.get(spec["name"])
        else:
            value = e2e.get(spec["name"], (None,))[0]
        if value is not None:
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    correct = correct and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


def self_test():
    """Each planted defect must end as reported failures, not numbers,
    and within the run's deadline."""
    ok = True
    cases = [(w, "patch") for w in ("arq-min", "tftp-flows", "arq-hostile")] + [("arq-min", "stall")]
    for workload, plant in cases:
        t0 = time.monotonic()
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                            "--seed", "1", "--seconds", "2", "--plant", plant],
                           stdout=subprocess.PIPE, timeout=200)
        took = time.monotonic() - t0
        try:
            res = json.loads(r.stdout.decode().strip().splitlines()[-1])
        except (IndexError, ValueError):
            res = {}
        caught = r.returncode != 0 and res.get("correct") is False and res.get("failed", 0) > 0
        log("self-test %-11s %-5s: exit %d, failed %s of %s, %.1fs -> %s"
            % (workload, plant, r.returncode, res.get("failed"), res.get("attempted"), took,
               "caught" if caught else "MISSED"))
        ok = ok and caught
    return 0 if ok else 1


if __name__ == "__main__":
    main()
