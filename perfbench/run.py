"""cubesign benchmark: one workload, one closed-loop client, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 36 --trace 0

The package is imported from ``src/`` next to this directory and treated as
a library (plus the ``cubesign`` CLI for ``verify``).  Every operation's
output is checked; failures count in ``failed``.  The loop makes passes over
a fixed pool for ``--seconds`` seconds, and on until ``MIN_OPS`` operations
have run, so that at least ten latencies lie beyond p90.

Shared hosts swing in speed by up to 1.5x over seconds to minutes, which
moves every wall time with them.  So a fixed probe loop that calls no
cubesign code runs once a second through the loop, and the gated times
(``*_norm`` and ``setup_s``) are scaled to a nominal host on which the probe
takes ``REF_PROBE_MS``: an operation time is multiplied by ``REF_PROBE_MS``
over the run's mean probe time, and a set-up round's time over the time of
a probe run just before it.  A change to cubesign moves them as it moves wall
time; a change in the host's speed moves the probe too and cancels out.  The
wall times as measured (``ops_per_s``, ``latency_p50_ms``, ``latency_p90_ms``,
``setup_s_raw``) and the probe time (``calibration_ms``) are in the report.

The metric names come from ``BENCHMARK.json``.  The second-to-last line of
output is a report with every metric and its unit, the decision tallies, the
CLI timings and provenance; the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
wrappers installed.  With ``--trace 1`` they are the per-layer ones, from
span wrappers around each module's public functions; the spans are written
to ``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_OPS = 100
PROBE_EVERY_S = 1.0
# Probe time of the nominal host that the gated times are scaled to.
REF_PROBE_MS = 40.0

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def use_checkout_sources() -> None:
    """Import cubesign from this checkout's src/, or exit without a result."""
    if not (SRC / "cubesign" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cubesign package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubesign

    if SRC.resolve() not in Path(cubesign.__file__).resolve().parents:
        sys.exit(f"perfbench: cubesign imported from {cubesign.__file__}, not {SRC}")


def make_probe():
    """A fixed numpy-and-Python loop that no cubesign change moves; each call returns its ms."""
    import numpy as np

    rng = random.Random(0)
    points = np.array([rng.getrandbits(32) for _ in range(3000)], dtype=np.uint64)
    terms = [(rng.getrandbits(32) & rng.getrandbits(32) & rng.getrandbits(32), rng.choice((1, -1)))
             for _ in range(1000)]

    def probe() -> float:
        start = time.perf_counter()
        acc = np.zeros(len(points), dtype=np.int64)
        for mask, c in terms:
            m = np.uint64(mask)
            acc[(points & m) == m] += c
        total = 0
        for i in range(100_000):
            total += i * i % 7
        return 1000 * (time.perf_counter() - start)

    return probe


def weighted_quantile(weighted: list[tuple[float, float]], q: float) -> float:
    """Smallest value whose sorted (value, weight) prefix holds a share q of the weight."""
    total = sum(w for _, w in weighted)
    acc = 0.0
    for value, w in weighted:
        acc += w
        if acc >= q * total - 1e-9:
            return value
    return weighted[-1][0]


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def cli_import_ms(reps: int = 3) -> float:
    """Median time to import cubesign.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import cubesign.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(1000 * float(proc.stdout))
    return statistics.median(times)


def provenance(workload: str, seed: int) -> dict:
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "cubesign").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "op_seeds": "sha256(seed:workload:entry)[:8]; keypair k from seed k",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 profile=None, max_ops: int | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result object, report)."""
    import tracing
    import workloads

    profile = profile or workloads.PRODUCTION[name]
    report: dict = {"provenance": provenance(name, seed)}
    probe = make_probe()
    probes = [probe()]
    wl = workloads.WORKLOADS[name](profile, seed)

    setup_times = []
    setup_scaled = []  # each round scaled by the probe run just before it

    def setup_round(k: int) -> list:
        before = probe()
        start = time.perf_counter()
        entries = wl.build(k)
        setup_times.append(time.perf_counter() - start)
        setup_scaled.append(setup_times[-1] * REF_PROBE_MS / before)
        return entries

    for k in range(workloads.SETUP_ROUNDS):
        wl.pool += setup_round(k)
    if hasattr(wl, "cost"):
        wl.pool = workloads.balanced(wl.pool, wl.cost)

    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    latencies: list[tuple[int, float]] = []  # (pool entry, seconds)
    problems: list[str] = []
    attempted = failed = 0
    # The host's speed swings over a few seconds, so set-up is also timed at
    # even intervals through the loop (results discarded); setup_s is the
    # median over all rounds, each scaled by a probe run just before it.  The
    # probe also runs every PROBE_EVERY_S seconds to measure the host's speed
    # for the operations.  Neither counts as loop time.
    spacing = seconds / (workloads.SETUP_REPEATS + 1)
    repeats = 0
    paused = next_probe = 0.0
    loop_start = time.perf_counter()
    try:
        while ((elapsed := time.perf_counter() - loop_start - paused) < seconds
               or attempted < MIN_OPS) and (max_ops is None or attempted < max_ops):
            if repeats < workloads.SETUP_REPEATS and elapsed >= (repeats + 1) * spacing:
                tracer.enabled = False
                start = time.perf_counter()
                setup_round(repeats % workloads.SETUP_ROUNDS)
                paused += time.perf_counter() - start
                tracer.enabled = True
                repeats += 1
                continue
            if elapsed >= next_probe:
                probes.append(probe())
                paused += probes[-1] / 1000
                next_probe = elapsed + PROBE_EVERY_S
                continue
            i = attempted
            j = i % len(wl.pool)
            attempted += 1
            tracer.op = i
            start = time.perf_counter()
            try:
                out = wl.op(j)
            except Exception:  # a failing operation is counted, the run goes on
                failed += 1
                problems.append(f"op {i}: {traceback.format_exc(limit=3)}")
                continue
            latencies.append((j, time.perf_counter() - start))
            tracer.enabled = False  # checks are not part of the operation
            try:
                problem = wl.check(j, out)
            except Exception:
                problem = traceback.format_exc(limit=3)
            tracer.enabled = True
            if problem:
                failed += 1
                problems.append(f"op {i}: {problem}")
    finally:
        tracer.uninstall()

    op_seconds = sum(t for _, t in latencies)
    # > 1 on a host slower than the nominal one; the gated times are divided by it.
    slowdown = statistics.mean(probes) / REF_PROBE_MS
    metrics: dict[str, tuple[float, str]] = {}
    if latencies:
        # Each pool entry weighs the same however often it ran, so the
        # metrics describe one pass over the pool, not the mix of a partial
        # last pass (which would change with the speed of the code).
        runs = Counter(j for j, _ in latencies)
        weighted = sorted((1000 * t, 1 / runs[j]) for j, t in latencies)
        mean_ms = sum(ms * w for ms, w in weighted) / len(runs)
        p50, p90 = weighted_quantile(weighted, 0.5), weighted_quantile(weighted, 0.9)
        metrics["ops_per_s"] = (1000 / mean_ms, "1/s")
        metrics["latency_p50_ms"] = (p50, "ms")
        metrics["latency_p90_ms"] = (p90, "ms")
        metrics["ops_per_s_norm"] = (1000 / mean_ms * slowdown, "1/s")
        metrics["latency_p50_ms_norm"] = (p50 / slowdown, "ms")
        metrics["latency_p90_ms_norm"] = (p90 / slowdown, "ms")
    metrics["setup_s"] = (statistics.median(setup_scaled), "s")
    metrics["setup_s_raw"] = (statistics.median(setup_times), "s")
    report["calibration_ms"] = statistics.mean(probes)
    report["probes"] = len(probes)

    if trace:
        metrics.update(tracing.layer_metrics(tracer, len(latencies), op_seconds))
        metrics["cli.import_ms"] = (cli_import_ms(), "ms")
        if wl.sig_terms:
            metrics["sizes.sig_terms_p50"] = (statistics.median(wl.sig_terms), "terms")
            metrics["sizes.sig_terms_max"] = (max(wl.sig_terms), "terms")
        tracer.write(OUT / f"spans-{name}-{seed}.jsonl")
        report["absent"] = tracer.missing
    elif profile.cli_runs:
        cli_ms, cli_problems = wl.cli_check(OUT, cli_env())
        attempted += len(cli_ms)
        failed += len(cli_problems)
        problems += cli_problems
        metrics["cli_verify_p50_ms"] = (statistics.median(cli_ms), "ms")
        report["cli_samples"] = len(cli_ms)
    metrics.update(wl.extra_metrics())
    metrics["error_frac"] = (failed / attempted if attempted else 1.0, "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    report["latency_samples"] = len(latencies)
    report["pool_entries"] = len(wl.pool)
    report["setup_rounds_s"] = setup_times
    report["problems"] = problems[:5]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    wanted = [m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: report["metrics"][k] for k in wanted if k in report["metrics"]},
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "keygen_sign", "exhaustive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
