#!/usr/bin/env python3
"""B-Neck stack benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it libbneck from the repository's sources)
into .bench_build/, runs bneck_perfbench for the workload, checks its
outputs and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones.  The exit code is
0 only when every check passed.  perfbench/README.md describes the
workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(CMAKE_DIR, "bneck_perfbench")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("churn", "churn_sharded4", "dense_star", "daemon_burst")
SIM_WORKLOADS = ("churn", "churn_sharded4", "dense_star")

# name -> unit, for --trace 0.
END_TO_END = {
    "packets_per_s": "packets/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_quiescence_ms": "ms",
    "packets_per_event": "packets",
    "converge_ms_p50": "ms",
    "converge_ms_p90": "ms",
    "frames_per_s": "frames/s",
}

# name -> unit, for --trace 1.  A layer a workload does not run reports 0.
PER_LAYER = {
    "sim.events": "count",
    "sim.pending_max": "count",
    "sim.self_s": "s",
    "sim.ns_per_event": "ns",
    "transport.sends": "count",
    "transport.send_s": "s",
    "transport.retransmissions": "count",
    "core.deliveries": "count",
    "core.handler_s": "s",
    "core.ns_per_delivery": "ns",
    "core.api_s": "s",
    "core.packets.join": "count",
    "core.packets.probe": "count",
    "core.packets.response": "count",
    "core.packets.update": "count",
    "core.packets.bottleneck": "count",
    "core.packets.setbneck": "count",
    "core.packets.leave": "count",
    "core.probe_cycles": "count",
    "core.sessions_per_link_max": "count",
    "core.sessions_per_link_mean": "count",
    "workload.plan_s": "s",
    "workload.schedule_s": "s",
    "workload.verify_s": "s",
    "daemon.cpu_s": "s",
    "client.cpu_s": "s",
    "client.api_s": "s",
    "client.poll_s": "s",
    "client.status_queries": "count",
    "client.nudges": "count",
    "udp.datagrams_sent": "count",
    "udp.datagrams_received": "count",
    "udp.acks_sent": "count",
    "udp.decode_errors": "count",
    "reliable.retransmissions": "count",
    "reliable.duplicates_dropped": "count",
    "daemon.frames_accepted": "count",
    "daemon.frames_rejected": "count",
    "failed_phases": "share",
    "failed_bursts": "share",
    "trace.coverage": "share",
    "trace.overhead_cpu_s": "s",
    "sharded.windows": "count",
    "sharded.packets_per_window": "packets",
    "sharded.cross_shard_packets": "count",
    "sharded.cut_links": "count",
    "sharded.lookahead_ns": "ns",
    "sharded.partition_s": "s",
    "sharded.cpu_per_wall": "share",
    "sharded.sys_s": "s",
    "sharded.vcsw": "count",
}

# The last line of standard output when the built program could not be
# run to a report.
FAILED_RESULT = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank p-th percentile of `samples` and the number of samples
    beyond it.  Raises ValueError when fewer than MIN_BEYOND samples lie
    beyond, or when there are no samples."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if p < 100 and beyond < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has %d beyond it, fewer than %d"
            % (p, n, beyond, MIN_BEYOND))
    return sorted(samples)[rank - 1], beyond


def converge_percentiles(sample_sets):
    """p50 and p90 of each sample set (one per timed pass of daemon_burst,
    one per input instance of a simulator workload), each with at
    least MIN_BEYOND samples beyond it, and the median of each over the
    sets: a slow stretch of the host that hits a minority of the passes
    moves the reported percentiles as little as it moves a median
    throughput.  Returns (p50, p90, samples, least beyond p90)."""
    if not sample_sets:
        raise ValueError("no convergence samples")
    p50s, p90s, beyond = [], [], []
    for samples in sample_sets:
        p50s.append(percentile(samples, 50)[0])
        value, n = percentile(samples, 90)
        p90s.append(value)
        beyond.append(n)
    return (statistics.median(p50s), statistics.median(p90s),
            sum(len(s) for s in sample_sets), min(beyond))


def find_drift(counter_sets, reference=None, label="pass"):
    """Compares deterministic counters.  Every set in `counter_sets` must
    equal `reference` (default: the first set) on every key the two
    share, and carry the same keys.  Returns one message per mismatch."""
    if not counter_sets:
        return []
    ref = counter_sets[0] if reference is None else reference
    errors = []
    for i, counters in enumerate(counter_sets):
        if reference is None and i == 0:
            continue
        for key in sorted(set(ref) | set(counters)):
            want, got = ref.get(key), counters.get(key)
            if want is None or got is None:
                if reference is None:
                    errors.append("%s %d: counter %s missing" % (label, i, key))
                continue
            if want != got:
                errors.append("%s %d: %s = %r, expected %r"
                              % (label, i, key, got, want))
    return errors


def instance_counters(report):
    """The deterministic counters of a report's passes, grouped by the
    input instance each pass ran: {instance: [counters, ...]}."""
    by = {}
    for p, c in zip(report["passes"], report["counters"]):
        by.setdefault(p["instance"], []).append(c)
    return by


def check_pins(workload, seed, size, counters, pins):
    """Compares a run's counters with the pinned values for its workload,
    seed and size, if any are pinned."""
    pinned = pins.get(workload, {}).get("size=%g,seed=%d" % (size, seed))
    if not pinned:
        return []
    errors = []
    for key, want in sorted(pinned.items()):
        got = counters.get(key)
        if got != want:
            errors.append("pin %s = %r, pinned %r" % (key, got, want))
    return errors


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark package.  Raises
    CalledProcessError when the build fails."""
    os.makedirs(CMAKE_DIR, exist_ok=True)
    out = sys.stderr
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=out, stderr=out)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", jobs],
                   check=True, stdout=out, stderr=out)


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def cross_run_drift(report, firsts):
    """Counters of earlier runs of the same binary, workload, seed and
    size (kept under .bench_build/) must equal this run's, instance by
    instance.  `firsts` maps each instance to its first pass's counters."""
    cache_dir = os.path.join(BUILD_ROOT, "counters", binary_digest())
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, "%s-seed%d-size%g.json"
                        % (report["workload"], report["seed"], report["size"]))
    earlier = {}
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
    errors = []
    for inst, counters in sorted(firsts.items()):
        if str(inst) in earlier:
            errors += find_drift([counters], reference=earlier[str(inst)],
                                 label="run, instance %d," % inst)
    if not errors and any(str(i) not in earlier for i in firsts):
        earlier.update({str(i): c for i, c in firsts.items()})
        tmp = path + ".tmp%d" % os.getpid()
        with open(tmp, "w") as f:
            json.dump(earlier, f, sort_keys=True)
        os.replace(tmp, path)
    return errors


# A pass's steal correction is capped at this share of its wall time:
# the largest steal measured while the correction was checked was 0.40 s
# per wall second.
MAX_STEAL_SHARE = 0.5


def unstolen_wall_s(p):
    """Wall seconds of a pass's timed region less the CPU time the
    hypervisor stole from the guest meanwhile (summed over its CPUs).
    The shards of the sharded engine meet at a barrier tens of thousands
    of times a pass, the daemon's two threads answer each other, and the
    classic engine is one thread: in all three, time stolen from a busy
    CPU stalls the whole computation, so it is subtracted from the
    wall."""
    return p["wall_s"] - min(p["host_steal_s"], MAX_STEAL_SHARE * p["wall_s"])


def end_to_end_metrics(report):
    timed = [p for p in report["passes"]
             if not p["traced"] and not p["warmup"]]
    # The deterministic metrics: means over the input instances, each
    # from its first pass.
    firsts = [sets[0] for _, sets in
              sorted(instance_counters(report).items())]
    first_passes = {}
    for p in report["passes"]:
        first_passes.setdefault(p["instance"], p)
    p50, p90, samples, beyond = converge_percentiles(report["converge_ms"])
    values = {
        "packets_per_s": statistics.median(
            p["packets"] / unstolen_wall_s(p) for p in timed),
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "sim_quiescence_ms": statistics.mean(
            c["sim_quiescence_ns"] for c in firsts) * 1e-6,
        "packets_per_event": statistics.mean(
            p["packets"] / p["api_events"] for p in first_passes.values()),
        "converge_ms_p50": p50,
        "converge_ms_p90": p90,
        "frames_per_s": statistics.median(
            p["frames"] / unstolen_wall_s(p) for p in timed),
    }
    if report["workload"] == "daemon_burst":
        values["packets_per_event"] = statistics.median(
            p["packets"] / p["api_events"] for p in timed)
    log("converge_ms: %d samples in %d sets, at least %d beyond p90 in each"
        % (samples, len(report["converge_ms"]), beyond))
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer_metrics(report):
    layers = dict(report["layers"])
    share = report["failed"] / max(1, report["attempted"])
    sim = report["workload"] in SIM_WORKLOADS
    layers["failed_phases"] = share if sim else 0.0
    layers["failed_bursts"] = 0.0 if sim else share
    return {k: {"value": float(layers.get(k, 0.0)), "unit": u}
            for k, u in PER_LAYER.items()}


def evaluate(report, pins, cross_run=True):
    """Applies every gate to a raw report.  Returns (errors, metrics)."""
    errors = list(report["failures"])
    if report["failed"] and not errors:
        errors.append("%d failed checks" % report["failed"])
    by_instance = instance_counters(report)
    for inst, sets in sorted(by_instance.items()):
        errors += find_drift(sets, label="instance %d pass" % inst)
    if 0 in by_instance:
        errors += check_pins(report["workload"], report["seed"],
                             report["size"], by_instance[0][0], pins)
    if by_instance and cross_run and not report["failed"]:
        errors += cross_run_drift(
            report, {i: sets[0] for i, sets in by_instance.items()})
    metrics = {}
    try:
        metrics = (per_layer_metrics(report) if report["trace"]
                   else end_to_end_metrics(report))
    except (ValueError, ZeroDivisionError, statistics.StatisticsError) as e:
        errors.append("metrics: %s" % e)
    return errors, metrics


def fail(code):
    print(json.dumps(FAILED_RESULT))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=float, default=1.0,
                    help="multiplies the workload's default size")
    ap.add_argument("--fault-single-kick", action="store_true",
                    help="run the protocol with a known bug (gate self-test)")
    args = ap.parse_args(argv)
    # Child processes must not outlive this one, even when it is
    # terminated: SystemExit unwinds through the kill-and-wait below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(4))

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        # No result line: without a program built from the repository's
        # sources there is nothing measured, not even a failed check.
        log("perfbench: build failed: %s" % e)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", repr(args.size)]
    if args.fault_single_kick:
        cmd.append("--fault-single-kick")
    # Once built, a run must end within 180 s.
    budget = 165.0
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %.0f s"
            % (args.workload, budget))
        return fail(3)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: bneck_perfbench exited %d without a report"
            % proc.returncode)
        return fail(3)

    with open(PINS) as f:
        pins = json.load(f)
    try:
        errors, metrics = evaluate(report, pins,
                                   cross_run=not args.fault_single_kick)
        prov = report["provenance"]
        failed_checks = report["failed"]
        attempted = max(1, report["attempted"])
    except (KeyError, TypeError) as e:
        log("perfbench: malformed report: %r" % e)
        return fail(3)

    os.makedirs(os.path.join(BUILD_ROOT, "reports"), exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "reports", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(report, f)
    steal = [p["host_steal_s"] / p["wall_s"] for p in report["passes"]
             if p["wall_s"] > 0]
    log("perfbench: %s seed %d size %g, %d passes; nproc %d, %s, %s; "
        "host steal %.3f CPU-s per s (median over passes)"
        % (args.workload, args.seed, args.size, len(report["passes"]),
           prov["nproc"], prov["compiler"], prov["build_type"],
           statistics.median(steal) if steal else 0.0))
    for e in errors[:20]:
        log("perfbench: FAIL %s" % e)

    correct = not errors and proc.returncode == 0
    failed = failed_checks if correct else max(1, failed_checks)
    print(json.dumps({"correct": correct,
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
