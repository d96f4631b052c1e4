#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json:
set-up is timed as a cold start (fresh interpreter to workload ready)
several times and reported as the median, then the op loop runs for
``--seconds``. ``--trace 1`` runs a fixed number of ops twice — once
untraced in a child process and once traced here — checks that the
outputs are identical, and prints the per-layer metrics. Every op's
output is hashed and checked (see checks.py); the last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``.

Internal modes: ``--ops N --emit FILE`` runs exactly N ops and writes
their digests and timings (used by ``--trace 1`` and by
record_digests.py); ``--setup-probe`` prepares the workload, prints
``ready`` and exits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import calibration  # noqa: E402

SETUP_REPEATS = 5
#: Even a slow commit completes this many ops per timed run.
MIN_OPS = 2
#: Ops per traced run; fixed, so the exact counts compare across commits.
TRACE_OPS = {"bulk": 6, "campaign": 3, "replay": 40, "service": 4}
CHILD_TIMEOUT_S = 170

#: End-to-end metric units (``--trace 0``).
E2E_UNITS = {
    "setup_s": "s", "rss_peak_mb": "MB", "ok_ratio": "ratio",
    "pkts_per_s": "1/s", "runs_per_s": "1/s", "op_p50_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk", "campaign", "replay", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--emit", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_ops(wl, seconds=None, n_ops=None):
    """The closed loop: the scaled latency of every completed op, the
    unscaled ones, and every op's digest (None when it raised)."""
    latencies, raw, digests = [], [], []
    start = time.perf_counter()
    wl.clock = calibration.ScaledClock()
    index = 0
    while True:
        if n_ops is not None:
            if index >= n_ops:
                break
        elif (index >= MIN_OPS and index % wl.cycle == 0
              and time.perf_counter() - start >= seconds):
            break
        try:
            elapsed, out = wl.op(index)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
            wl.check.raised(index, exc)
            elapsed, out = None, None
        else:
            wl.check.record(index, out)
            latencies.append(elapsed)
            raw.append(wl.clock.op_raw)
        digests.append(out)
        index += 1
    return latencies, raw, digests


def setup_probe(args) -> int:
    import workloads

    wl = workloads.make(args.workload, args.seed, args.workdir)
    try:
        wl.prepare()
        print("ready", flush=True)
    finally:
        wl.close()
    return 0


def time_setup(args, workdir: str) -> float:
    """Median cold start: fresh interpreter until the workload is ready.

    Not scaled by the host probe. The cold start runs in a child process
    the probe does not track: over ten bulk runs whose probe ranged from
    4.2 to 7.1 ms, scaling widened the set-up spread from 0.11 to 0.47.
    """
    samples = []
    for rep in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"probe-{rep}")
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", probe_dir]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(ready - start)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(samples)


def e2e_metrics(wl, latencies, setup_s: float) -> dict:
    busy = sum(latencies)
    attempted = len(wl.check.digests)
    failed = len(wl.check.mismatched_ops)
    return {
        "setup_s": setup_s,
        "rss_peak_mb": rss_peak_mb(),
        "ok_ratio": 1.0 - failed / attempted if attempted else 0.0,
        "pkts_per_s": wl.pkts / busy if busy else 0.0,
        "runs_per_s": wl.runs / busy if busy else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
    }


def workload_lines(wl, metrics: dict, raw: list) -> list:
    """The per-workload figures by the names the roadmap uses."""
    probes = wl.clock.probes
    named = {"fail_ratio": (1.0 - metrics["ok_ratio"], "ratio", None),
             "setup_s": (metrics["setup_s"], "s", None),
             "rss_peak_mb": (metrics["rss_peak_mb"], "MB", None),
             "pkts_per_s": (metrics["pkts_per_s"], "1/s", None),
             "host_probe_s": (statistics.median(probes), "s", len(probes)),
             "op_p50_raw_s": (statistics.median(raw or [math.nan]), "s", len(raw))}

    def quantiles(prefix: str, key: str) -> None:
        values = wl.samples.get(key, [])
        if values:
            named[f"{prefix}_p50_s"] = (statistics.median(values), "s", len(values))
            named[f"{prefix}_p90_s"] = (percentile(values, 0.9), "s", len(values))

    if wl.name == "bulk":
        named["run_p50_s"] = (metrics["op_p50_s"], "s", len(wl.check.digests))
    elif wl.name == "campaign":
        fuzz_s = sum(wl.samples.get("fuzz", [])) or math.nan
        suite_s = sum(wl.samples.get("suite", [])) or math.nan
        named["candidates_per_s"] = (wl.candidates / fuzz_s, "1/s", wl.candidates)
        named["checks_per_s"] = (wl.checks / suite_s, "1/s", wl.checks)
    elif wl.name == "replay":
        quantiles("replay", "replay")
        quantiles("load", "load")
    elif wl.name == "service":
        quantiles("job", "job")
        quantiles("resubmit", "resubmit")
    lines = []
    for name, (value, unit, n) in named.items():
        count = f"  (n={n})" if n is not None else ""
        lines.append(f"{wl.name:9s} {name:18s} {value:14.6g} {unit}{count}")
    check = wl.check
    lines.append(f"{wl.name:9s} checks: {check.referenced} of {len(check.digests)} ops "
                 f"matched against reference digests, {check.identity_checks} "
                 f"identity checks")
    return lines


def measure(args, workdir: str) -> dict:
    import workloads

    setup_s = math.nan if args.ops is not None else time_setup(args, workdir)
    wl = workloads.make(args.workload, args.seed, os.path.join(workdir, "main"))
    try:
        wl.prepare()
        latencies, raw, digests = run_ops(wl, seconds=args.seconds, n_ops=args.ops)
        metrics = e2e_metrics(wl, latencies, setup_s)
    finally:
        wl.close()
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            json.dump({"digests": digests, "busy_s": sum(latencies)}, handle)
    for line in workload_lines(wl, metrics, raw) + wl.check.problems:
        print(line)
    return result_doc(wl.check, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()})


def measure_traced(args, workdir: str) -> dict:
    import tracing
    import workloads

    n_ops = TRACE_OPS[args.workload]
    emit = os.path.join(workdir, "untraced.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0", "--ops", str(n_ops),
           "--emit", emit]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S)
    with open(emit, "r", encoding="utf-8") as handle:
        untraced = json.load(handle)

    tracer = tracing.Tracer()
    wl = workloads.make(args.workload, args.seed, os.path.join(workdir, "main"),
                        tracer=tracer)
    tracing.install(tracer)
    try:
        wl.prepare()
        icrc_before = tracing.icrc_cache_stats()
        tracer.on = True
        latencies, raw, digests = run_ops(wl, n_ops=n_ops)
        tracer.on = False
        hits, misses = (after - before for after, before
                        in zip(tracing.icrc_cache_stats(), icrc_before))
        tracer.counts["net.icrc_hits"] += hits
        tracer.counts["net.icrc_lookups"] += hits + misses
        for index, (ours, theirs) in enumerate(zip(digests, untraced["digests"])):
            wl.check.identity(index, ours is not None and ours == theirs,
                              "traced output equals untraced output")
        layers = tracing.layer_metrics(tracer)
        layers.update({"coverage.points": 0, "store.entries": 0,
                       "store.journal_bytes": 0})
        layers.update(wl.counts())
        layers["core.trace_pkts"] = wl.pkts
        layers["trace.overhead_ratio"] = sum(latencies) / untraced["busy_s"]
        layers["trace.spans"] = tracer.span_count()
        # Unscaled, like the executor spans it is compared with.
        layers["service.overhead_s"] = (sum(raw) - layers["service.executor_s"]
                                        if wl.name == "service" else 0.0)
        layers["service.replayed_ratio"] = 0.0
        if wl.name == "service":
            counters = wl.health()["dispatcher"]
            layers["service.replayed_ratio"] = (
                counters["replayed"] / counters["dispatched"])
        # The first op again, in the same process: its output should not
        # depend on what ran before it.
        _, again = wl.op(0)
        layers["check.rerun_mismatches"] = int(again != digests[0])
    finally:
        tracer.on = False
        wl.close()
        tracer.uninstall()
    tracer.dump(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.pkl"))
    for line in wl.check.problems:
        print(line)
    return result_doc(wl.check, {k: (v, layer_unit(k)) for k, v in layers.items()})


def result_doc(check, metrics: dict) -> dict:
    failed = len(check.mismatched_ops)
    return {"correct": failed == 0 and bool(check.digests),
            "attempted": len(check.digests), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(metrics.items())}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            doc = measure_traced(args, workdir)
        else:
            doc = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
