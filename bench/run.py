"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload browse|harvest|publish --seed N --seconds S --trace 0|1

Run from the root of a skoshub checkout. The program under test is always
the checkout's own `src/`, started as `python -m skoshub.cli`. Inputs are
generated from the seed into `bench/_work/`; the program sees only those
files. With `--trace 0` the run prints the end-to-end metrics; with
`--trace 1` it prints the per-layer metrics of a traced replay instead
(see tracing.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path

import publish
import service
import synth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SETUP_LAUNCHES = 5
WORKLOADS = ("browse", "harvest", "publish")


def program_env():
    if not (SRC / "skoshub" / "cli.py").is_file():
        raise SystemExit("error: no skoshub sources at %s; run from the root of a checkout" % SRC)
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def measure_setup(manifest, env, work):
    """Median launch-to-ready time of `skoshub serve` over several launches.

    Returns (median seconds, the last server, still running)."""
    times, server = [], None
    for i in range(SETUP_LAUNCHES):
        if server is not None:
            server.stop()
        server = service.Server(manifest, env, work / ("serve-%d.log" % i))
        times.append(server.setup_s)
    return statistics.median(times), server


def end_to_end(workload, seed, seconds, work, env, manifest, model):
    if workload == "publish":
        samples, failures, peak, elapsed = publish.run(model, work, env, seed, seconds)
        # a publish ends with the service restarting on the published store
        setup_s, server = measure_setup(work / "publish" / "manifest.json", env, work)
        server.stop()
    else:
        plan = (service.browse_plan if workload == "browse" else service.harvest_plan)(model, seed)
        setup_s, server = measure_setup(manifest, env, work)
        try:
            samples, failures, elapsed = service.replay(server.port, plan, seconds)
            peak = server.peak_rss_mb()
        finally:
            server.stop()
    counts = Counter(s[0] for s in samples)
    print("samples: %d (%s)" % (len(samples), ", ".join("%s %d" % kv for kv in sorted(counts.items()))))
    times = [s[1] for s in samples] or [0.0]  # every operation failed: correct is false
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (statistics.median(times) * 1000, "ms"),
        "p90_ms": (p90(times) * 1000, "ms"),
        "throughput_ops": (len(samples) / elapsed, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, len(samples) + len(failures), failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    env = program_env()
    work = WORK / ("%s-%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    model = synth.Model(args.seed)
    manifest = model.write(work / "inputs")
    # The oracle is large and lives for the whole run; keep the collector
    # from rescanning it inside timed regions.
    gc.collect()
    gc.freeze()
    print("nproc %d, python %s, load average %s" % (
        os.cpu_count(), sys.version.split()[0], " ".join("%.2f" % x for x in os.getloadavg())))
    print("inputs: seed %d, %d concepts per thesaurus, %d triples, %d crosswalk lines" % (
        args.seed, model.size, len(model.merged), model.crosswalk.count("\n")))
    if args.trace:
        import tracing
        metrics, attempted, failures = tracing.run(args.workload, args.seed, args.seconds, work, env, manifest, model)
    else:
        metrics, attempted, failures = end_to_end(args.workload, args.seed, args.seconds, work, env, manifest, model)
    for f in failures[:10]:
        print("FAILED %s" % f, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-48s %14.4f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
