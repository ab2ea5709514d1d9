"""The experiment scripts under scripts/ run at tiny sizes and print their tables."""

import importlib.util
import json
import math
import random
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

from cubesign.params import SchemeParams
from cubesign.scheme import keygen, sign

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, header",
    [
        ("estimate_mc_constant",
         ["--polys", "2", "--runs", "3", "--trials", "64,128", "--nvars", "8"],
         ["trials", "mean_err", "p50_err", "p95_err", "max_err", "exceed"]),
        ("size_survey", ["--keypairs", "2"], ["n=31", "t=3", "b=3", "d=2", "r=1", "keypairs=2"]),
        ("wrong_key_gap", ["--cycles", "2", "--params", "n=8,trials=200"],
         ["n=8", "threshold=0.03", "cycles=2", "(200", "trials)"]),
        ("wrong_key_gap", ["--cycles", "2", "--params", "n=8,trials=200", "--exhaustive"],
         ["n=8", "threshold=0.03", "cycles=2", "(exhaustive)"]),
    ],
    ids=["estimate_mc_constant", "size_survey", "wrong_key_gap", "wrong_key_gap_exhaustive"],
)
def test_script_runs_and_prints_its_header(name, argv, header, capsys):
    assert load(name).main(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.split()[:len(header)] == header


def test_size_survey_reports_ranges_per_polynomial(capsys):
    # two keypairs from the default base seed 1000: one signature each, and
    # each key's published images
    assert load("size_survey").main(["--keypairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[5].split() == ["per", "polynomial", "p50", "p99", "max"]
    rows = {tuple(line.split()[:2]): [int(x) for x in line.split()[2:]] for line in lines[6:]}
    params = SchemeParams()
    sigs, images = [], []
    for s in range(2):
        rng = random.Random(1000 + s)
        priv, pub = keygen(params, rng)
        sigs.append(sign(priv, params, f"size probe {s}".encode(), rng).poly)
        images += pub.mapped
    expected = {}
    for label, polys in (("signature", sigs), ("image", images)):
        for name, values in (
            ("terms", [len(p.terms) for p in polys]),
            ("degree", [p.degree() for p in polys]),
            ("coeff_bits", [max(abs(c).bit_length() for c in p.terms.values()) for p in polys]),
            ("bound_bits", [sum(abs(c) for c in p.terms.values()).bit_length() for p in polys]),
        ):
            v = sorted(values)
            expected[label, name] = [v[math.ceil(q * len(v)) - 1] for q in (0.5, 0.99)] + [v[-1]]
    assert rows == expected


def test_wrong_key_gap_exhaustive_output_is_pinned(capsys):
    # the whole report of two exhaustive cycles at n = 10, byte for byte
    assert load("wrong_key_gap").main(["--exhaustive", "--cycles", "2", "--params", "n=10"]) == 0
    assert capsys.readouterr().out == (
        "n=10 threshold=0.03 cycles=2 (exhaustive)\n"
        "population    accept     min     p25  median     p75     max\n"
        "    honest     2/2  0.0000  0.0000  0.0000  0.0000  0.0000\n"
        " wrong-key     1/2  0.0220  0.0220  0.0317  0.0415  0.0415\n"
        "wrong-key gaps above threshold: 1/2\n"
    )


# The forged row and the last line of two cycles at n = 8, per keyless
# population and mode.
FORGER_ROWS = {
    ("identity", False): ("  identity     2/2  0.0050  0.0050  0.0150  0.0250  0.0250",
                          "identity gaps above threshold: 0/2"),
    ("identity", True): ("  identity     0/2  0.0371  0.0371  0.0391  0.0410  0.0410",
                         "identity gaps above threshold: 2/2"),
    ("permuted", False): ("  permuted     1/2  0.0250  0.0250  0.0400  0.0550  0.0550",
                          "permuted gaps above threshold: 1/2"),
    ("permuted", True): ("  permuted     1/2  0.0234  0.0234  0.0469  0.0703  0.0703",
                         "permuted gaps above threshold: 1/2"),
    ("constant", False): ("  constant     0/2  0.0500  0.0500  0.1400  0.2300  0.2300",
                          "constant gaps above threshold: 2/2"),
    ("constant", True): ("  constant     1/2  0.0156  0.0156  0.1377  0.2598  0.2598",
                         "constant gaps above threshold: 1/2"),
}


@pytest.mark.parametrize("forger, exhaustive", list(FORGER_ROWS),
                         ids=[f"{f}-{'exhaustive' if e else 'sampled'}" for f, e in FORGER_ROWS])
def test_wrong_key_gap_keyless_forger_populations(forger, exhaustive, capsys):
    # the honest rows are the default run's: only the forged population changes
    argv = ["--cycles", "2", "--params", "n=8,trials=200"] + ["--exhaustive"] * exhaustive
    script = load("wrong_key_gap")
    assert script.main(argv) == 0
    default = capsys.readouterr().out.splitlines()
    assert script.main([*argv, "--forger", forger]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == default[:3]
    assert tuple(lines[3:]) == FORGER_ROWS[forger, exhaustive]


# The lines --grind 3 --recheck 4 adds to two permuted cycles at n = 8.
GRIND_LINES = {
    False: ("first-pass accepts: 3/6",
            "best re-accepts per cycle: min 3 p25 3 median 3.5 p75 4 max 4"),
    True: ("first-pass accepts: 4/6",
           "best re-accepts per cycle: min 3 p25 3 median 3 p75 3 max 3"),
}


@pytest.mark.parametrize("exhaustive", [False, True], ids=["sampled", "exhaustive"])
def test_wrong_key_gap_grind_appends_its_lines(exhaustive, capsys):
    # grinding only adds lines: the report before them is the plain run's
    argv = ["--cycles", "2", "--params", "n=8,trials=200", "--forger", "permuted"]
    argv += ["--exhaustive"] * exhaustive
    script = load("wrong_key_gap")
    assert script.main(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert script.main([*argv, "--grind", "3", "--recheck", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == plain
    assert lines[5:] == [
        "grind: 3 permuted candidates per cycle, 4 rechecks of each accepted one",
        *GRIND_LINES[exhaustive],
        "cycles re-accepting a candidate >= 4/2 times: 2/2",
    ]


def test_bench_record_medians_and_merge(tmp_path):
    bench = load("bench_record")
    results = [{"metrics": {"a_s": {"value": v, "unit": "s/op"}, "n": {"value": 7.0, "unit": "calls/op"}}}
               for v in (0.3, 0.1, 0.2)]
    results.append({"metrics": {"a_s": {"value": 0.4, "unit": "s/op"}}})
    assert bench.medians(results) == {"a_s": {"value": 0.25, "unit": "s/op"},
                                      "n": {"value": 7.0, "unit": "calls/op"}}

    out = tmp_path / "BENCH.json"
    bench.merge(out, {"parent": {"seeds": [51]}, "end_to_end": {"verify": {"61": 1}}})
    data = bench.merge(out, {"change": {"seeds": [52]}, "end_to_end": {"verify": {"62": 2}}})
    assert data == {"parent": {"seeds": [51]}, "change": {"seeds": [52]},
                    "end_to_end": {"verify": {"61": 1, "62": 2}}}
    assert json.loads(out.read_text()) == data


def test_bench_record_summarizes_pairs(capsys):
    bench = load("bench_record")
    pairs = {str(s): {"parent": {"ops": p, "ms": 10.0, "src_sha256": "p"},
                      "change": {"ops": c, "ms": 9.0, "src_sha256": "c"}}
             for s, p, c in ((61, 10.0, 15.0), (62, 12.0, 11.0), (63, 11.0, 16.0))}
    # a pair of another change checkout left in the file does not count
    pairs["60"] = {"parent": {"ops": 10.0, "ms": 10.0, "src_sha256": "p"},
                   "change": {"ops": 1.0, "ms": 99.0, "src_sha256": "old"}}
    declared = [{"name": "ops", "better": "higher", "bound": 0.1},
                {"name": "ms", "better": "lower", "bound": 0.1},
                {"name": "missing", "better": "lower"}]
    got = bench.summarize(pairs, declared, {("p", "c")})
    assert got["ops"] == {"parent_median": 11.0, "change_median": 15.0, "parent_iqr": 2.0,
                          "change_wins": 2, "pairs": 3, "claim": False, "within_bound": True}
    # 3 of 3 wins, by a median of 1.0 against the parent's IQR of 0
    assert got["ms"]["change_wins"] == 3
    assert got["ms"]["claim"] is True and got["ms"]["within_bound"] is True
    assert "missing" not in got
    # 9 of 10 wins by more than the IQR is a claim; a loss past the bound is not within it
    ten = {str(s): {"parent": {"ops": 10.0 + s % 2, "ms": 10.0, "src_sha256": "p"},
                    "change": {"ops": 10.0 if s == 0 else 20.0, "ms": 11.5, "src_sha256": "c"}}
           for s in range(10)}
    got = bench.summarize(ten, declared, {("p", "c")})
    assert got["ops"]["change_wins"] == 9 and got["ops"]["claim"] is True
    assert got["ms"]["within_bound"] is False and got["ms"]["claim"] is False
    bench.print_summary("verify", got)
    assert capsys.readouterr().out.splitlines()[1].split() == [
        "ops", "10.5", "20", "1", "9/10", "True", "True"]
    assert bench.parse_seeds("61-63") == [61, 62, 63]
    assert bench.parse_seeds("5,7") == [5, 7]
    with pytest.raises(ValueError):
        bench.parse_seeds("63-61")


def test_bench_record_pairs_summarize_only_this_invocations_checkouts(tmp_path, monkeypatch, capsys):
    bench = load("bench_record")

    def fake_side(checkout, workload, seed, seconds):
        return {"ops_per_s_norm": 20.0 if checkout.name == "change" else 10.0,
                "failed": 0, "attempted": 5, "src_sha256": checkout.name}

    monkeypatch.setattr(bench, "end_to_end_side", fake_side)
    monkeypatch.setattr(bench, "git_revision", lambda checkout: checkout.name)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "ops_per_s_norm", "better": "higher", "bound": 0.2}]}))
    out = tmp_path / "BENCH.json"
    # a pair an earlier change checkout left in the file
    stale = {"parent": {"ops_per_s_norm": 10.0, "src_sha256": "parent"},
             "change": {"ops_per_s_norm": 1.0, "src_sha256": "earlier"}}
    bench.merge(out, {"end_to_end": {"verify": {"60": stale}}})
    assert bench.main(["--checkout", str(tmp_path / "change"), "--parent", str(tmp_path / "parent"),
                       "--out", str(out), "--workload", "verify", "--seeds", "61-62"]) == 0
    data = json.loads(out.read_text())
    assert set(data["end_to_end"]["verify"]) == {"60", "61", "62"}
    summary = data["end_to_end_summary"]["verify"]["ops_per_s_norm"]
    assert (summary["pairs"], summary["change_wins"], summary["change_median"]) == (2, 2, 20.0)
    assert "ops_per_s_norm 10 20 0 2/2 True True" in capsys.readouterr().out


def test_bench_record_interleaves_traced_runs(tmp_path, monkeypatch):
    bench = load("bench_record")
    calls = []

    def fake_run(checkout, workload, seed, extra):
        calls.append((checkout.name, workload, seed))
        value = 1.0 if checkout.name == "parent" else 2.0
        result = {"metrics": {"counting.evaluate_s": {"value": value + seed, "unit": "s/op"},
                              "cli.import_ms": {"value": 100.0, "unit": "ms"},
                              "counting.term_points_per_s": {"value": 5.0, "unit": "1/s"},
                              "counting.evaluate_calls": {"value": 8.0, "unit": "calls/op"}}}
        # the probe takes 10, 20 or 40 ms on seeds 51, 52 and 53
        report = {"provenance": {"src_sha256": checkout.name}, "absent": [],
                  "calibration_ms": 10.0 * 2 ** (seed - 51)}
        return result, report

    monkeypatch.setattr(bench, "run_perfbench", fake_run)
    monkeypatch.setattr(bench, "git_revision", lambda checkout: checkout.name)
    monkeypatch.setattr(bench, "cli_import_ms", lambda checkout: 100.0)
    # src_lines counts the lines of src/cubesign/*.py only
    for side, lines in (("parent", 3), ("change", 2)):
        src = tmp_path / side / "src" / "cubesign"
        src.mkdir(parents=True)
        (src / "a.py").write_text("x = 1\n" * (lines - 1))
        (src / "b.py").write_text("y = 2\n")
        (src / "notes.txt").write_text("not counted\n")
    out = tmp_path / "BENCH.json"
    assert bench.main(["--checkout", str(tmp_path / "change"), "--parent", str(tmp_path / "parent"),
                       "--out", str(out)]) == 0
    # each workload and seed runs both sides back to back, the first side alternating
    expected = []
    for k, (workload, seed) in enumerate((w, s) for w in bench.WORKLOADS for s in bench.TRACE_SEEDS):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        expected += [(side, workload, seed) for side in sides]
    assert calls == expected
    data = json.loads(out.read_text())
    for side, base, lines in (("parent", 1.0, 3), ("change", 2.0, 2)):
        assert data[side]["git_revision"] == side
        assert data[side]["src_lines"] == lines
        trace = data[side]["trace"]["exhaustive"]
        assert [run["seed"] for run in trace["runs"]] == list(bench.TRACE_SEEDS)
        assert trace["median"]["counting.evaluate_s"]["value"] == base + 52
        assert [run["calibration_ms"] for run in trace["runs"]] == [10.0, 20.0, 40.0]
        # each run's times scaled by REF_PROBE_MS over its probe time, then the median
        ref = bench.perfbench_run().REF_PROBE_MS
        assert data[side]["ref_probe_ms"] == ref
        scaled = trace["median_probe_scaled"]
        assert set(scaled) == {"counting.evaluate_s", "cli.import_ms"}
        assert scaled["counting.evaluate_s"] == {"value": (base + 52) * ref / 20.0, "unit": "s/op"}
        assert scaled["cli.import_ms"] == {"value": 100.0 * ref / 20.0, "unit": "ms"}
    assert [run["ran_first"] for run in data["parent"]["trace"]["verify"]["runs"]] == [
        "parent", "change", "parent"]
    with pytest.raises(SystemExit):
        bench.main(["--checkout", "c", "--parent", "p", "--out", str(out), "--workload", "verify"])


def test_bench_record_times_cli_imports_between_probes(tmp_path, monkeypatch):
    bench = load("bench_record")
    events = []
    probe_times = iter([10.0, 20.0, 40.0] * 18)
    imports = bench.IMPORTS_PER_SIDE
    assert imports == 27

    def probe():
        events.append("probe")
        return next(probe_times)

    def fake_subprocess_run(cmd, cwd, env, **kwargs):
        side = Path(cwd).name
        assert cmd[1:] == ["-c", bench.IMPORT_CODE]
        assert env["PYTHONPATH"].startswith(str(Path(cwd) / "src"))
        events.append(side)
        ms = 100.0 if side == "parent" else 50.0
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{ms + len(events)}\n", stderr="")

    def fake_run(checkout, workload, seed, extra):
        events.append("run")
        return ({"metrics": {}}, {"provenance": {"src_sha256": checkout.name}, "absent": [],
                                  "calibration_ms": 40.0})

    monkeypatch.setattr(bench, "perfbench_run",
                        lambda: SimpleNamespace(REF_PROBE_MS=40.0, make_probe=lambda: probe))
    monkeypatch.setattr(bench.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(bench, "run_perfbench", fake_run)
    monkeypatch.setattr(bench, "git_revision", lambda checkout: checkout.name)
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "cubesign").mkdir(parents=True)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--checkout", str(tmp_path / "change"), "--parent", str(tmp_path / "parent"),
                       "--out", str(out)]) == 0
    # every traced run first, then one probe just before each fresh import,
    # the imports in pairs whose sides alternate as the traced pairs' do
    expected = ["run"] * (2 * len(bench.WORKLOADS) * len(bench.TRACE_SEEDS))
    for k in range(imports):
        for side in bench.side_order(k):
            expected += ["probe", side]
    assert events == expected
    data = json.loads(out.read_text())
    for side, base in (("parent", 100.0), ("change", 50.0)):
        cli = data[side]["cli_import"]
        assert cli["command"] == bench.IMPORT_CODE
        assert len(cli["runs"]) == imports
        raw = [run["import_ms"] for run in cli["runs"]]
        assert raw == [base + i + 1 for i, event in enumerate(events) if event == side]
        scaled = sorted(run["import_ms"] * 40.0 / run["probe_ms"] for run in cli["runs"])
        assert cli["median_ms"] == sorted(raw)[imports // 2]
        assert cli["median_probe_scaled_ms"] == scaled[imports // 2]
        assert (cli["min_ms"], cli["min_probe_scaled_ms"]) == (min(raw), scaled[0])
        assert {run["probe_ms"] for run in cli["runs"]} == {10.0, 20.0, 40.0}
