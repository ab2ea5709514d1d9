"""The experiment scripts under scripts/ run at tiny sizes and print their tables."""

import importlib.util
from pathlib import Path

import pytest

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
