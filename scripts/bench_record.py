"""Record perfbench runs of a parent and a changed checkout into a BENCH_*.json file.

Per-layer traces of both checkouts: every workload, traced, over seeds 51..53.

    python3 scripts/bench_record.py --checkout DIR --parent DIR --out FILE

runs the two checkouts one after the other for each workload and seed,
alternating which runs first, so host drift during the recording reaches
both sides alike.  It stores under ``parent`` and ``change`` in ``FILE`` the
result objects with each run's probe time ``calibration_ms``, the per-metric
medians across the seeds, the absent traced names, the checkout's git
revision and ``src/cubesign`` line count ``src_lines``, the seeds and nproc.
One traced run per side is too noisy to decide a per-layer claim; the median
over several seeds is steadier.

After the last pair of traced runs, ``import cubesign.cli`` is timed
``IMPORTS_PER_SIDE`` times per side in one phase of pairs of imports, each
pair in ``side_order``, each import in a fresh interpreter from the
checkout's ``src`` with one run of ``perfbench/run.py``'s probe just before
it, so that no import runs in the wake of a traced run.
``cli_import`` holds each side's raw and probe-scaled median and minimum
and every import with its probe time.  The minimum is the steadier figure:
host noise only ever adds to an import's time.  The traced ``cli.import_ms``
runs after the loop of its own run, while that run's probe time comes from
inside the loop.

Traced times are wall times of one run, so they move with the host's speed.
``median_probe_scaled`` holds the medians of the time metrics (unit ``s/op``
or ``ms``) with each run's value scaled as ``perfbench/run.py`` scales its
gated times: by ``REF_PROBE_MS`` over the run's ``calibration_ms``.

End-to-end pairs of the two checkouts on one workload:

    python3 scripts/bench_record.py --checkout DIR --parent DIR --workload W \\
        --seeds 61-70 --out FILE

runs both sides once per seed for the ``run_seconds`` of the checkout's
``BENCHMARK.json``, alternating which side runs first.  Each pair goes under
``end_to_end/W/SEED``.  The pairs stored for W whose two ``src_sha256`` match
those of this invocation's runs are summarised per metric under
``end_to_end_summary/W``, and the summary is printed: the medians, the
parent's interquartile range, the number of pairs the change wins, whether
a gain may be claimed and whether the metric stays within its
``BENCHMARK.json`` bound (see ``summarize``).  Other entries already in
``FILE`` are kept in both modes.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("verify", "keygen_sign", "exhaustive")
TRACE_SEEDS = (51, 52, 53)
TRACE_ARGS = ("--seconds", "0", "--trace", "1")
TIME_UNITS = ("s/op", "ms")
IMPORTS_PER_SIDE = 27
IMPORT_CODE = ("import time; t = time.perf_counter(); import cubesign.cli;"
               " print(1000 * (time.perf_counter() - t))")
ROOT = Path(__file__).resolve().parent.parent


def perfbench_run():
    """This repository's ``perfbench/run.py`` as a module: its probe and ``REF_PROBE_MS``.

    ``REF_PROBE_MS`` is the nominal probe time to which it scales its gated times.
    """
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_import_ms(checkout: Path) -> float:
    """Wall ms of ``import cubesign.cli`` from the checkout's ``src`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, (str(checkout / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=checkout, capture_output=True,
                          text=True, check=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    return float(proc.stdout)


def run_perfbench(checkout: Path, workload: str, seed: int, extra: tuple[str, ...]) -> tuple[dict, dict]:
    """(result object, report) of one ``perfbench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def git_revision(checkout: Path) -> str:
    """HEAD of the checkout, with ``+dirty`` if tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True).stdout.strip()

    rev = git("rev-parse", "HEAD") or "unknown"
    return rev + "+dirty" if git("status", "--porcelain", "--untracked-files=no") else rev


def src_lines(checkout: Path) -> int:
    """Lines of the checkout's ``src/cubesign/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "cubesign").glob("*.py"))


def medians(results: list[dict]) -> dict[str, dict]:
    """Per-metric median value over result objects, keeping each metric's unit."""
    out = {}
    for r in results:
        for name, m in r["metrics"].items():
            out.setdefault(name, {"values": [], "unit": m["unit"]})["values"].append(m["value"])
    return {name: {"value": statistics.median(m["values"]), "unit": m["unit"]} for name, m in out.items()}


def probe_scaled(run: dict, ref_ms: float) -> dict:
    """A traced run's time metrics, each scaled by ``ref_ms`` over the run's probe time."""
    scale = ref_ms / run["calibration_ms"]
    return {"metrics": {name: {"value": m["value"] * scale, "unit": m["unit"]}
                        for name, m in run["result"]["metrics"].items() if m["unit"] in TIME_UNITS}}


def merge(path: Path, updates: dict) -> dict:
    """Merge nested ``updates`` into the JSON object stored at ``path`` and write it back."""
    data = json.loads(path.read_text()) if path.exists() else {}

    def into(dst: dict, src: dict) -> None:
        for key, value in src.items():
            if isinstance(value, dict) and isinstance(dst.get(key), dict):
                into(dst[key], value)
            else:
                dst[key] = value

    into(data, updates)
    path.write_text(json.dumps(data, indent=1) + "\n")
    return data


def side_order(k: int) -> tuple[str, str]:
    """The sides of the k-th pair of runs, in the order they run."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def record_traces(checkout: Path, parent: Path, out: Path) -> dict:
    dirs = {"parent": parent, "change": checkout}
    bench = perfbench_run()
    ref_ms, probe = bench.REF_PROBE_MS, bench.make_probe()
    runs: dict[str, dict[str, list]] = {side: {w: [] for w in WORKLOADS} for side in dirs}
    imports: dict[str, list] = {side: [] for side in dirs}
    for k, (workload, seed) in enumerate(itertools.product(WORKLOADS, TRACE_SEEDS)):
        order = side_order(k)
        for side in order:
            result, report = run_perfbench(dirs[side], workload, seed, TRACE_ARGS)
            runs[side][workload].append({
                "seed": seed, "ran_first": order[0], "src_sha256": report["provenance"]["src_sha256"],
                "absent": report.get("absent", []), "calibration_ms": report["calibration_ms"],
                "result": result,
            })
    for k in range(IMPORTS_PER_SIDE):
        for side in side_order(k):
            probe_ms = probe()
            imports[side].append({"probe_ms": probe_ms, "import_ms": cli_import_ms(dirs[side])})
    raw_ms = {side: [run["import_ms"] for run in imports[side]] for side in dirs}
    scaled_ms = {side: [run["import_ms"] * ref_ms / run["probe_ms"] for run in imports[side]]
                 for side in dirs}
    return merge(out, {side: {
        "git_revision": git_revision(dirs[side]),
        "src_lines": src_lines(dirs[side]),
        "seeds": list(TRACE_SEEDS),
        "nproc": os.cpu_count(),
        "ref_probe_ms": ref_ms,
        "command": "python3 perfbench/run.py --workload W --seed S " + " ".join(TRACE_ARGS),
        "trace": {workload: {
            "absent": sorted({name for run in wruns for name in run["absent"]}),
            "median": medians([run["result"] for run in wruns]),
            "median_probe_scaled": medians([probe_scaled(run, ref_ms) for run in wruns]),
            "runs": wruns,
        } for workload, wruns in runs[side].items()},
        "cli_import": {
            "command": IMPORT_CODE,
            "median_ms": statistics.median(raw_ms[side]),
            "median_probe_scaled_ms": statistics.median(scaled_ms[side]),
            "min_ms": min(raw_ms[side]),
            "min_probe_scaled_ms": min(scaled_ms[side]),
            "runs": imports[side],
        },
    } for side in dirs})


def end_to_end_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    result, report = run_perfbench(checkout, workload, seed, ("--seconds", str(seconds), "--trace", "0"))
    side = {name: round(m["value"], 4) for name, m in report["metrics"].items()}
    side.update(failed=result["failed"], attempted=result["attempted"],
                src_sha256=report["provenance"]["src_sha256"])
    return side


def summarize(pairs: dict, declared: list[dict], shas: set[tuple[str, str]]) -> dict:
    """Per end-to-end metric: medians, the parent's IQR, the pairs the change wins and verdicts.

    Only pairs whose (parent, change) ``src_sha256`` is in ``shas`` count, so
    pairs of other checkouts stored in the same file stay out.  ``claim``
    holds when the change wins at least nine tenths of the pairs, ties
    counting for neither, and its median beats the parent's by more than the
    parent's IQR.  ``within_bound``, for a metric with a declared ``bound``,
    holds when the change's median is no worse than the parent's by more
    than that fraction of it.
    """
    out = {}
    kept = [p for p in pairs.values()
            if (p["parent"]["src_sha256"], p["change"]["src_sha256"]) in shas]
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(p["parent"][name], p["change"][name]) for p in kept
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent = [a for a, _ in both]
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        parent_median, change_median = statistics.median(parent), statistics.median(b for _, b in both)
        gain = change_median - parent_median if higher else parent_median - change_median
        wins = sum((b > a) if higher else (b < a) for a, b in both)
        out[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": q3 - q1,
            "change_wins": wins,
            "pairs": len(both),
            "claim": 10 * wins >= 9 * len(both) and gain > q3 - q1,
        }
        if "bound" in metric:
            out[name]["within_bound"] = gain >= -metric["bound"] * abs(parent_median)
    return out


def print_summary(workload: str, summary: dict) -> None:
    print(f"{workload}: metric parent_median change_median parent_iqr wins/pairs claim within_bound")
    for name, s in summary.items():
        print(f"  {name} {s['parent_median']:.4g} {s['change_median']:.4g} {s['parent_iqr']:.4g}"
              f" {s['change_wins']}/{s['pairs']} {s['claim']} {s.get('within_bound', '-')}")


def record_pairs(checkout: Path, parent: Path, workload: str, seeds: list[int], out: Path) -> dict:
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    shas = set()
    for k, seed in enumerate(seeds):
        order = side_order(k)
        pair = {side: end_to_end_side(parent if side == "parent" else checkout, workload, seed, seconds)
                for side in order}
        shas.add((pair["parent"]["src_sha256"], pair["change"]["src_sha256"]))
        data = merge(out, {"end_to_end": {workload: {str(seed): {**pair, "ran_first": order[0]}}}})
    metrics = declared["end_to_end"] + [{"name": "error_frac", "better": "lower"}]
    summary = summarize(data["end_to_end"][workload], metrics, shas)
    print_summary(workload, summary)
    return merge(out, {
        "end_to_end_command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "end_to_end_revisions": {"parent": git_revision(parent), "change": git_revision(checkout)},
        "end_to_end_summary": {workload: summary},
    })


def parse_seeds(text: str) -> list[int]:
    """``61-70`` or ``61,63,65``; at least one seed."""
    if "-" in text:
        lo, hi = text.split("-")
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True, help="the changed checkout")
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge into")
    parser.add_argument("--workload", choices=WORKLOADS, help="workload of end-to-end pairs")
    parser.add_argument("--seeds", type=parse_seeds, help="seeds of end-to-end pairs, e.g. 61-70")
    args = parser.parse_args(argv)
    checkout, parent = args.checkout.resolve(), args.parent.resolve()
    if args.workload is None and args.seeds is None:
        record_traces(checkout, parent, args.out)
    elif args.workload and args.seeds:
        record_pairs(checkout, parent, args.workload, args.seeds, args.out)
    else:
        parser.error("--workload and --seeds go together")
    return 0


if __name__ == "__main__":
    sys.exit(main())
