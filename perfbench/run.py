#!/usr/bin/env python3
"""One run of one gridcast benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds gridcast (Release) from the checkout's sources into .bench_build/,
generates the workload's inputs from the seed, drives the program through
its public entry points for S seconds, checks every output, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END); with
--trace 1 they are the per-layer ones (PER_LAYER), from a separately
traced run.  A record of the run — metrics, sample counts, provenance and
the host steal time accumulated during it — goes to
.bench_build/perfbench/runs/, and the traced run's spans to
.bench_build/perfbench/traces/.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys

import host
import samples
import serve_client
from host import BUILD_DIR, ROOT, BenchError

# The workloads, and why each was chosen.
WORKLOADS = {
    # The paper's headline experiment (Fig. 2) and the `auto`-at-scale
    # target: one item races one fresh draw at every cluster count 5-50 with
    # the seven paper heuristics plus `auto`, so every item costs the same.
    # Over 95% of it is SchedulerEntry::order(); it never touches sim or
    # serve.
    "race_fig2": "race",
    # The measured all-to-all sweep on a generated 16-cluster grid: ~90% of
    # a cell is message-level execution (sim, collective), ~10% scheduling.
    # A sched change that moves race_fig2 should leave it put.
    "sim_alltoall": "sim",
    # The daemon under batched loopback clients: the wire, parsing,
    # signatures, cache hits, misses, evictions and plan builds at 6
    # clusters, where Fig. 2-scale scheduling costs do not reach.  The
    # requests are drawn from the log the CI serve lane replays.
    "serve_batch": "serve",
}

# The request log serve_batch draws its stream from.
SERVE_LOG = ROOT / "tests" / "data" / "serve_requests.txt"

END_TO_END = {
    "throughput": "items/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_ORDERED = ["FlatTree", "FEF", "ECEF", "ECEF-LA", "ECEF-LAt", "ECEF-LAT", "BottomUp", "auto",
            "ECEF-AvgEdge", "ECEF-AvgMove", "LAN-Flat", "Star-WAN"]
PER_LAYER = {
    "sched.order.busy_s": "s",
    **{f"sched.order.{name}.busy_s": "s" for name in _ORDERED},
    "sched.evaluate.busy_s": "s",
    "sched.auto.evaluated": "count",
    "sched.auto.pruned": "count",
    "sched.auto.gated": "count",
    "sched.auto.prune_ratio": "ratio",
    "exp.sample.busy_s": "s",
    "exp.instance_cache.hits": "count",
    "exp.instance_cache.misses": "count",
    "collective.dest_order.busy_s": "s",
    "sim.execute.busy_s": "s",
    "sim.events": "count",
    "sim.messages": "count",
    "sim.wan_messages": "count",
    "sim.events_per_s": "1/s",
    "serve.parse.busy_s": "s",
    "serve.signature.busy_s": "s",
    "serve.lookup.busy_s": "s",
    "serve.reply.busy_s": "s",
    "serve.build.bcast.busy_s": "s",
    "serve.build.scatter.busy_s": "s",
    "serve.build.alltoall.busy_s": "s",
    "serve.build.calls": "count",
    "serve.hits": "count",
    "serve.misses": "count",
    "serve.hit_rate": "ratio",
    "serve.evictions": "count",
    "serve.build_waits": "count",
    "serve.wire.wait_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

# Set-up is timed on this many spawns per run and reported as their median.
SETUP_SPAWNS = 9
# The batch workloads run until their p99 is supported (>= 10 items beyond).
BATCH_MIN_ITEMS = 1000
# A measuring child may take this much longer than --seconds.
GRACE_S = 120.0


# ------------------------------------------------------------ batch workloads

def spawn_ready(cmd):
    """Start a driver command and wait for its "ready <cpu seconds>
    <reference seconds>" line; returns the process, the CPU seconds its
    set-up took and the reference kernel time it measured right after."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.PIPE, text=True)
    fields = proc.stdout.readline().split()
    if len(fields) != 3 or fields[0] != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"{cmd[1]} failed during set-up")
    return proc, float(fields[1]), float(fields[2])


def finish(proc, timeout):
    """Wait for a driver command; returns its last stdout line as JSON."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("driver did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"driver exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_batch(driver, workload, inputs, seconds, trace, record):
    cmd = [driver, WORKLOADS[workload], f"--dir={inputs}", f"--seconds={seconds}",
           f"--trace={trace}"]
    if trace:
        trace_out = BUILD_DIR / "traces" / f"{workload}-seed{record['seed']}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        proc, _, _ = spawn_ready(cmd + [f"--trace-out={trace_out}"])
        out = finish(proc, seconds + GRACE_S)
        metrics = dict(out["layers"])
        untraced, traced = out["untraced_items_per_s"], out["traced_items_per_s"]
        metrics["trace.overhead"] = (untraced - traced) / untraced
        return out["attempted"], out["failed"], metrics

    setups = []  # (CPU seconds, reference seconds) per spawn
    for _ in range(SETUP_SPAWNS - 1):
        proc, setup_cpu_s, ref_s = spawn_ready(cmd + ["--setup-only"])
        finish_setup_only(proc)
        setups.append((setup_cpu_s, ref_s))
    proc, setup_cpu_s, ref_s = spawn_ready(cmd + [f"--min-items={BATCH_MIN_ITEMS}"])
    setups.append((setup_cpu_s, ref_s))
    out = finish(proc, seconds + GRACE_S)
    # Item and set-up times are CPU times: the batch workloads run on one
    # thread, and their wall time adds only what the host withholds —
    # preemption, and steal that took a third of some 30 s runs.  Both are
    # further rescaled by the reference kernel timed beside them
    # (samples.host_scaled); the raw figures stay in the run's record.
    cpu, ref = out["item_cpu_s"], out["ref_cpu_s"]
    items = samples.host_scaled(cpu, ref)
    record["timed_wall_s"] = out["wall_s"]
    record["raw_cpu_items_per_s"] = len(cpu) / math.fsum(cpu)
    record["reference_median_s"] = statistics.median(ref)
    record["setup_cpu_s"] = [c for c, _ in setups]
    record["setup_reference_s"] = [r for _, r in setups]
    metrics = {
        "throughput": len(items) / math.fsum(items),
        **latency_metrics(items, record),
        "setup_s": statistics.median(samples.host_scaled(*zip(*setups), half_window=0)),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    return out["attempted"], out["failed"], metrics


def reference_seconds(driver):
    """The reference kernel's time on the host right now."""
    out = subprocess.run([str(driver), "reference"], capture_output=True, text=True,
                         timeout=GRACE_S)
    if out.returncode != 0:
        raise BenchError("perfbench_driver reference failed")
    return float(out.stdout)


def finish_setup_only(proc):
    if proc.wait(timeout=GRACE_S) != 0:
        raise BenchError("driver failed after set-up")
    proc.stdout.close()


def latency_metrics(latencies, record):
    out = {}
    for name, q in (("latency_p50_s", 0.50), ("latency_p99_s", 0.99)):
        value = samples.percentile(latencies, q)
        if value is None:
            raise BenchError(f"{len(latencies)} samples cannot support {name}")
        out[name] = value
    record["latency_samples"] = len(latencies)
    return out


# ------------------------------------------------------------ serve_batch

def run_serve(driver, daemon_bin, inputs, seconds, trace, record):
    capacity = int((inputs / "capacity.txt").read_text())
    record["plan_capacity_bytes"] = capacity
    requests = (inputs / "requests.txt").read_text().splitlines()
    expected = (inputs / "expected.txt").read_text().splitlines()

    daemon = client = None
    setups = []  # (daemon CPU seconds, reference seconds) per spawn
    try:
        for spawn in range(SETUP_SPAWNS):
            daemon = serve_client.spawn_daemon(daemon_bin, capacity, inputs / "warm.txt")
            client = serve_client.BatchClient(daemon.port, requests, expected)
            warm = client.run(0)  # one untimed batch per connection
            # The daemon's own CPU time, as for the batch workloads: the
            # wall clock of a spawn doubles when the host is busy (waking
            # idle vCPUs), while the daemon's work moves by ~5%.
            setups.append((daemon.cpu_seconds(), reference_seconds(driver)))
            if spawn + 1 < SETUP_SPAWNS:
                client.close()
                daemon.stop()
        timed = client.run(seconds)
        stats = client.stats()
        rss_mb = daemon.peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        if daemon is not None:
            daemon.stop()

    # Every request is checked, the untimed first batches' too.
    attempted = sum(len(r["sent"]) for r in warm + timed)
    failed = sum(r["failed"] for r in warm + timed)
    latencies = [t for r in timed for t in r["latency_s"]]
    record["daemon_stats"] = stats
    record["setup_cpu_s"] = [c for c, _ in setups]
    record["setup_reference_s"] = [r for _, r in setups]
    if not trace:
        span = max(r["t_end"] for r in timed) - min(r["t0"] for r in timed)
        metrics = {
            "throughput": sum(len(r["sent"]) for r in timed) / span,
            **latency_metrics(latencies, record),
            "setup_s": statistics.median(samples.host_scaled(*zip(*setups), half_window=0)),
            "peak_rss_mb": rss_mb,
        }
        return attempted, failed, metrics

    # Replay what the final daemon served, in send order, in-process.
    history = sorted(warm + timed, key=lambda r: r["t0"])
    sent_log = inputs / "sent.txt"
    sent_log.write_text("".join(" ".join(map(str, r["sent"])) + "\n" for r in history))
    trace_out = BUILD_DIR / "traces" / f"serve_batch-seed{record['seed']}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    replay = subprocess.run(
        [str(driver), "serve-replay", f"--dir={inputs}", f"--sent={sent_log}",
         f"--trace-out={trace_out}"],
        capture_output=True, text=True, timeout=GRACE_S)
    if replay.returncode != 0:
        raise BenchError("serve-replay failed: " + replay.stderr.strip())
    out = json.loads(replay.stdout.strip().splitlines()[-1])
    busy = out["batch_busy_s"]
    timed_ids = {id(r) for r in timed}
    waits = [r["t_end"] - r["t0"] - busy[i] for i, r in enumerate(history)
             if id(r) in timed_ids]
    hits, misses = int(stats["hits"]), int(stats["misses"])
    metrics = dict(out["layers"])
    metrics.update({
        "serve.hits": hits,
        "serve.misses": misses,
        "serve.hit_rate": hits / (hits + misses),
        "serve.evictions": int(stats["evictions"]),
        "serve.build_waits": int(stats["build_waits"]),
        "serve.wire.wait_s": sum(waits) / len(waits),
        "trace.overhead": (out["untraced_items_per_s"] - out["traced_items_per_s"])
                          / out["untraced_items_per_s"],
    })
    return attempted + out["requests"], failed + out["failed"], metrics


# ------------------------------------------------------------ entry point

def gen_command(driver, workload, seed, inputs):
    """The command that writes a workload's inputs for a seed into `inputs`."""
    return [str(driver), "gen", f"--workload={workload}", f"--seed={seed}",
            f"--dir={inputs}", f"--log={SERVE_LOG}"]


def run(workload, seed, seconds, trace):
    driver, daemon_bin = host.build()
    inputs = BUILD_DIR / "inputs" / f"{workload}-seed{seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    gen = subprocess.run(gen_command(driver, workload, seed, inputs),
                         capture_output=True, text=True, timeout=GRACE_S)
    if gen.returncode != 0:
        raise BenchError("input generation failed: " + gen.stderr.strip())
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": host.provenance(driver)}
    steal0 = host.steal_seconds()
    if workload == "serve_batch":
        attempted, failed, metrics = run_serve(driver, daemon_bin, inputs, seconds, trace, record)
    else:
        attempted, failed, metrics = run_batch(driver, workload, inputs, seconds, trace, record)
    record["steal_s"] = host.steal_seconds() - steal0

    declared = PER_LAYER if trace else END_TO_END
    unknown = set(metrics) - set(declared)
    if unknown:
        raise BenchError(f"undeclared metrics: {sorted(unknown)}")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in declared.items()},
    }
    record.update(result)
    runs = BUILD_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("provenance " + json.dumps(record["provenance"]))
    print(f"steal_s {record['steal_s']:.3f}  latency samples "
          f"{record.get('latency_samples', '-')}  reference median s "
          f"{record.get('reference_median_s', '-')}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
