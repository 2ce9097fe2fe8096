"""End-to-end DGE benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 55 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps the
program's layer entry points and prints the per-layer metrics instead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--repeat N`` runs N fresh
interpreters on seeds ``seed .. seed+N-1`` and prints each metric's
median and quartiles.

The program is imported from ``src/`` of the working directory; without
it the command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

#: Recorded with every run; dict and set order, and so timings, depend
#: on it.
HASH_SEED = "0"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("serve", "churn"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="cycle time to measure; whole cycles run "
                             "until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many fresh interpreters on "
                             "consecutive seeds and summarise them")
    return parser.parse_args(argv)


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def per_layer(run, tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: work inside timed phases, per cycle."""
    cycles = run.cycles
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYER_SECONDS:
        out[layer] = (tracer.self_seconds.get(layer, 0.0) / cycles, "s")
    out["extraction.docs"] = (
        tracer.calls.get("extraction.extract_s", 0) / cycles, "count")
    out["storage.mvcc.index_builds"] = (
        tracer.calls.get("storage.mvcc.index_build_s", 0) / cycles, "count")
    for metric, counter, unit in COUNTERS:
        out[metric] = (tracer.counters.get(counter, 0.0) / cycles, unit)
    out["debugger.constraints_learned"] = (
        statistics.fmean(run.samples.constraints_learned), "count")
    out["userlayer.notifications"] = (
        run.samples.notifications / cycles, "count")
    return out


#: Per-layer self-time metrics, in seconds per cycle.
LAYER_SECONDS = (
    "lang.optimize_s", "lang.execute_s", "extraction.extract_s",
    "integration.resolve_s", "integration.fuse_s", "debugger.learn_s",
    "debugger.check_s", "uncertainty.record_s", "uncertainty.save_s",
    "uncertainty.load_s", "storage.snapshot_commit_s",
    "storage.intermediate_append_s", "storage.rdbms.write_s",
    "storage.rdbms.open_s", "storage.sql.parse_s", "storage.planner.plan_s",
    "storage.mvcc.begin_snapshot_s", "storage.mvcc.index_build_s",
    "core.admit_s", "core.query_other_s", "core.ingest_other_s",
    "userlayer.index_corpus_s", "userlayer.index_facts_s",
    "userlayer.search_s", "userlayer.search_facts_s", "core.stream.diff_s",
    "core.stream.process_s", "core.generate_other_s",
)
#: Per-layer metrics read from the program's own counters.
COUNTERS = (
    ("cache.hits", "cache.hits", "count"),
    ("cache.misses", "cache.misses", "count"),
    ("integration.pairs_scored", "dge.pairs_scored", "count"),
    ("storage.rdbms.wal_bytes", "rdbms.wal.bytes", "bytes"),
    ("storage.qcache.hits", "planner.cache.hits", "count"),
    ("storage.qcache.misses", "planner.cache.misses", "count"),
    ("storage.mvcc.snapshot_builds", "rdbms.mvcc.snapshot_builds", "count"),
    ("storage.mvcc.snapshot_reuses", "rdbms.mvcc.snapshot_reuses", "count"),
)


def print_breakdown(tracer, run, label: str, scopes: list[str],
                    per: str, scale: float, unit: str) -> None:
    """Self time per layer inside ``scopes``, per cycle or per call."""
    totals: dict[str, float] = {}
    calls = 0
    for scope in scopes:
        calls += tracer.scope_calls.get(scope, 0)
        for layer, seconds in tracer.scope_breakdown(scope).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    divisor = run.cycles if per == "cycle" else max(calls, 1)
    print(f"breakdown {label} ({unit} per {per}, {calls} calls):")
    for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<34} {seconds / divisor * scale:12.3f}")
    print(f"  {'total':<34} {sum(totals.values()) / divisor * scale:12.3f}")


def measure(args: argparse.Namespace, root: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from speed import REFERENCE_SECONDS, SpeedProbe

    speed = SpeedProbe()
    speed.probe()
    start = perf_counter()
    import repro  # noqa: F401  (imports every layer)
    from repro.extraction import (
        InfoboxExtractor,
        RuleCascadeExtractor,
        WikiTableExtractor,
    )
    from repro.telemetry import metrics

    import tracer as tracing
    import workload

    registry = metrics.get_registry()
    tracer = None
    if args.trace:
        tracer = tracing.install(
            [InfoboxExtractor, RuleCascadeExtractor, WikiTableExtractor],
            lambda: {c: registry.get(c) for _, c, _ in COUNTERS})
    work_root = os.path.join(root, ".perfbench_work", str(os.getpid()))
    try:
        run = workload.Run(args.workload, args.seed, args.seconds,
                           work_root, speed, tracer)
        once_setup = (start, perf_counter() - start)
        speed.probe()
        run.execute()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    samples = run.samples

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"cycles={run.cycles} sha={git_sha(root)} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"hashseed={os.environ.get('PYTHONHASHSEED')} "
          f"date={datetime.datetime.now(datetime.timezone.utc):%Y-%m-%dT%H:%M:%SZ}")
    for kind, (attempted, failed) in sorted(samples.ops.items()):
        note = workload.EXPECTED_FAULTS.get(kind, "") if failed else ""
        print(f"op {kind:<16} attempted {attempted:6d} failed {failed:6d}"
              + (f"  ({note})" if note else ""))
    for phase, timings in samples.phases.items():
        print(f"samples {phase:<14} " + " ".join(
            f"{sum(speed.scaled(*t) for t in sample):.4f}"
            for sample in timings))
    print(f"speed probe: {len(speed.took)} probes, median "
          f"{statistics.median(speed.took) * 1e3:.3f} ms, reference "
          f"{REFERENCE_SECONDS * 1e3:.3f} ms")
    for error in samples.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if tracer is None:
        metrics_out = workload.end_to_end(samples, once_setup)
    else:
        for name, (value, unit) in workload.end_to_end(
                samples, once_setup).items():
            print(f"traced {name:<34} {value:16.6f} {unit}")
        metrics_out = per_layer(run, tracer)
        print_breakdown(tracer, run, "generate_s", ["generate"], "cycle",
                        1.0, "s")
        print_breakdown(tracer, run, "point reads, serve stage",
                        ["serve.point"], "call", 1e6, "us")
        print_breakdown(tracer, run, "point reads, churn stage",
                        ["churn.point"], "call", 1e6, "us")
    for name, (value, unit) in metrics_out.items():
        print(f"metric {name:<34} {value:16.6f} {unit}")
    for name, values in sorted(samples.latencies.items()):
        print(f"samples {name:<14} {len(values)} reads")
    for name, (value, unit) in workload.end_to_end(
            samples, once_setup, scale=False).items():
        print(f"unscaled {name:<32} {value:16.6f} {unit}")
    for name, (value, unit) in workload.unsteady(samples).items():
        print(f"unsteady {name:<32} {value:16.6f} {unit}")
    unexpected = [k for k, (_, f) in samples.ops.items()
                  if f and k not in workload.EXPECTED_FAULTS]
    result = {
        "correct": not samples.errors and not unexpected,
        "attempted": sum(a for a, _ in samples.ops.values()),
        "failed": sum(f for _, f in samples.ops.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics_out.items()},
    }
    print(json.dumps(result))
    return 0


def repeat(args: argparse.Namespace) -> int:
    """Run ``--repeat`` fresh interpreters and summarise their metrics."""
    values: dict[str, list[float]] = {}
    shares: set[tuple[int, int]] = set()
    for seed in range(args.seed, args.seed + args.repeat):
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # Figures printed beside the metrics: a traced run's end-to-end
        # figures (for the tracing overhead), the unsteady ones and the
        # times as measured, before scaling to the reference speed.
        for line in done.stdout.splitlines():
            if line.startswith(("traced ", "unsteady ", "unscaled ")):
                kind, name, value, _unit = line.split()
                values.setdefault(f"{kind}:{name}", []).append(float(value))
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8}")
    for name, series in values.items():
        q1, med, q3 = (statistics.quantiles(series, n=4)
                       if len(series) > 1 else (series[0],) * 3)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<34} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f}")
    ratios = {f / a for f, a in shares}
    print(f"failed share per run: {sorted(ratios)}")
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the repository root (src/repro not "
              "found)", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # A fresh interpreter with a fixed hash seed; exec replaces this
        # process, so nothing is left running.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        sys.stdout.flush()
        os.execv(sys.executable,
                 [sys.executable, os.path.abspath(__file__), *argv])
    return measure(args, root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
