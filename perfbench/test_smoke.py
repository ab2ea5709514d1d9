"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import run

run.use_checkout_sources()

import workloads  # noqa: E402  (needs the checkout's src/ on the path)
from cubesign import counting, scheme  # noqa: E402

NAMES = [w["name"] for w in run.DECLARED["workloads"]]
UNITS = {kind: {m["name"]: m["unit"] for m in run.DECLARED[kind]} for kind in ("end_to_end", "per_layer")}
WORK_COUNTS = (
    "counting.evaluate_calls", "counting.term_points", "counting.sample_points",
    "counting.exact_points", "scheme.parse_terms", "scheme.parse_bytes",
    "scheme.serialize_bytes", "poly.substitute_calls", "poly.substitute_out_terms",
    "sizes.sig_terms_p50", "sizes.sig_terms_max", "trace.spans",
)


def tiny(name: str, trace: bool):
    return run.run_workload(name, seed=5, seconds=120, trace=trace,
                            profile=workloads.TINY[name], max_ops=4)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(name):
    result, report = tiny(name, trace=False)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == UNITS["end_to_end"]
    assert report["metrics"]["error_frac"]["value"] == 0.0
    for key in ("git_revision", "src_sha256", "nproc", "python", "numpy", "seed"):
        assert key in report["provenance"]
    assert report["calibration_ms"] > 0

    traced, _ = tiny(name, trace=True)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == UNITS["per_layer"]


@pytest.mark.parametrize("name", NAMES)
def test_work_counts_repeat_exactly(name):
    first, _ = tiny(name, trace=True)
    second, _ = tiny(name, trace=True)
    for key in WORK_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def _flip_decision(verify):
    def tampered(*args, **kwargs):
        report = verify(*args, **kwargs)
        return dataclasses.replace(report, accepted=not report.accepted)
    return tampered


def _drop_last_term(to_text):
    def tampered(sig):
        return to_text(sig).rstrip("\n").rsplit("\n", 1)[0] + "\n"
    return tampered


def _shift_signed_count(verify_poly):
    def tampered(*args, **kwargs):
        report = verify_poly(*args, **kwargs)
        return dataclasses.replace(report, signed_positive=report.signed_positive + 1)
    return tampered


@pytest.mark.parametrize("name, attr, tamper", [
    ("verify", "verify", _flip_decision),
    ("keygen_sign", "signature_to_text", _drop_last_term),
    ("exhaustive", "verify_poly", _shift_signed_count),
])
def test_tampered_output_counts_as_an_error(monkeypatch, name, attr, tamper):
    monkeypatch.setattr(scheme, attr, tamper(getattr(scheme, attr)))
    result, report = tiny(name, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["metrics"]["error_frac"]["value"] > 0


def test_wrong_counting_kernel_is_caught(monkeypatch):
    # Zeros on both sides agree with each other; only the recount can tell.
    def zeros(p, masks):
        return np.zeros(len(masks), dtype=np.int64)
    monkeypatch.setattr(scheme, "evaluate_batch", zeros)
    result, report = tiny("exhaustive", trace=False)
    assert not result["correct"]
    assert any("recounted" in p for p in report["problems"])


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(counting, "exact_value_counts")
    result, report = tiny("verify", trace=True)
    assert result["correct"]
    assert "counting.exact_s" not in result["metrics"]
    assert "counting.exact_points" not in result["metrics"]
    assert "cubesign.counting:exact_value_counts" in report["absent"]
