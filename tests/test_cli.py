import io
import os
import random
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import cubesign
from cubesign.cli import main
from cubesign.scheme import (
    Signature,
    public_key_from_text,
    signature_from_text,
    signature_to_text,
    verify,
)

from conftest import wide_hostile_poly

MESSAGE = b"cli round trip message\n"
TAMPERED = b"cli round trip message?\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One production keypair and signature shared by the read-only tests."""
    tmp = tmp_path_factory.mktemp("cli")
    msg = tmp / "msg.txt"
    msg.write_bytes(MESSAGE)
    (tmp / "other.txt").write_bytes(TAMPERED)
    assert main(["keygen", "--seed", "7", "-o", str(tmp / "k")]) == 0
    assert main(["sign", "--key", str(tmp / "k.key"), "--seed", "8", str(msg)]) == 0
    return tmp


def test_keygen_is_deterministic(tmp_path, capsys):
    argv = ["keygen", "--seed", "7", "--params", "n=10,trials=500"]
    assert main(argv + ["-o", str(tmp_path / "a")]) == 0
    assert main(argv + ["-o", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "params n=10 t=3 b=3 d=2 r=1" in out
    assert (tmp_path / "a.pub").read_bytes() == (tmp_path / "b.pub").read_bytes()
    assert (tmp_path / "a.key").read_bytes() == (tmp_path / "b.key").read_bytes()
    assert (tmp_path / "a.pub").read_text().startswith("params ")


def test_round_trip_accepts(workspace, capsys):
    rc = main([
        "verify", "--pub", str(workspace / "k.pub"), "--sig", str(workspace / "msg.txt.sig"),
        "--seed", "0", str(workspace / "msg.txt"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "decision=accept" in out
    assert "trials=3000" in out


def test_tampered_message_rejects(workspace, capsys):
    rc = main([
        "verify", "--pub", str(workspace / "k.pub"), "--sig", str(workspace / "msg.txt.sig"),
        "--seed", "4", str(workspace / "other.txt"),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "decision=reject" in out


def test_verify_flag_overrides(workspace, capsys):
    rc = main([
        "verify", "--pub", str(workspace / "k.pub"), "--sig", str(workspace / "msg.txt.sig"),
        "--seed", "0", "--trials", "500", "--threshold", "0.5",
        str(workspace / "msg.txt"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trials=500" in out
    assert "threshold=0.5" in out


@pytest.mark.parametrize("message, seed", [("msg.txt", 0), ("other.txt", 4)])
def test_verify_prints_the_report_counts(workspace, capsys, message, seed):
    rc = main([
        "verify", "--pub", str(workspace / "k.pub"), "--sig", str(workspace / "msg.txt.sig"),
        "--seed", str(seed), str(workspace / message),
    ])
    fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    pub = public_key_from_text((workspace / "k.pub").read_text())
    sig = signature_from_text((workspace / "msg.txt.sig").read_text())
    report = verify(pub, (workspace / message).read_bytes(), sig, pub.params, random.Random(seed))
    assert rc == (0 if report.accepted else 1)
    assert int(fields["reference_count"]) == report.reference_positive
    assert int(fields["signed_count"]) == report.signed_positive
    assert int(fields["allowed_gap"]) == report.allowed_gap == 90


def test_sign_from_stdin_needs_output_path(workspace, monkeypatch, capsys):
    buffer = io.BytesIO(MESSAGE)
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=buffer))
    rc = main(["sign", "--key", str(workspace / "k.key"), "--seed", "8"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    # refused before the message was read
    assert buffer.tell() == 0


@pytest.mark.parametrize("sig_text", [None, "nvars=32\n1_0:1\n"], ids=["missing", "malformed"])
def test_verify_from_stdin_parses_the_signature_first(workspace, tmp_path, monkeypatch, capsys,
                                                      sig_text):
    buffer = io.BytesIO(MESSAGE)
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=buffer))
    sig = tmp_path / "bad.sig"
    if sig_text is not None:
        sig.write_text(sig_text)
    rc = main(["verify", "--pub", str(workspace / "k.pub"), "--sig", str(sig), "--seed", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    # refused before the message was read
    assert buffer.tell() == 0


def test_sign_from_stdin_with_output_path(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(MESSAGE)))
    out = tmp_path / "stdin.sig"
    rc = main(["sign", "--key", str(workspace / "k.key"), "--seed", "8", "-o", str(out)])
    assert rc == 0
    # same key, seed, and bytes as the file-based signature
    assert out.read_bytes() == (workspace / "msg.txt.sig").read_bytes()
    capsys.readouterr()


def test_missing_key_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["sign", "--key", str(tmp_path / "nope.key"), "-o", str(tmp_path / "s"),
               str(tmp_path / "nope.msg")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_public_key_is_a_usage_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.pub"
    bad.write_text("params n=31\n\nnot a polynomial\n")
    rc = main(["verify", "--pub", str(bad), "--sig", str(workspace / "msg.txt.sig"),
               "--seed", "0", str(workspace / "msg.txt")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_param_override_is_a_usage_error(tmp_path, capsys):
    rc = main(["keygen", "--seed", "1", "--params", "n=64", "-o", str(tmp_path / "k")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_reports_sizes_and_dimension(workspace, capsys):
    rc = main([
        "analyze", "--pub", str(workspace / "k.pub"), "--key", str(workspace / "k.key"),
        "--sig", str(workspace / "msg.txt.sig"), "--nvars", "2", "--degree", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "public key bits" in out
    assert "private key bits" in out
    assert "signature bits" in out
    assert "attack dimension" in out
    assert "attack.count_at_most=6" in out
    assert "attack.count_exact_degree=3" in out
    for label in ("public_key", "private_key", "signature"):
        assert f"{label}.bits=" in out


def test_analyze_without_files_still_counts_dimensions(capsys):
    rc = main(["analyze", "--nvars", "31", "--degree", "27"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "attack dimension" in out
    assert "public key bits" not in out


def run_child(*args):
    """A child interpreter with ``args`` that imports the package these tests import."""
    src = str(Path(cubesign.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )


def run_module(*args):
    """``python -m cubesign`` in a child that imports the package these tests import."""
    return run_child("-m", "cubesign", *args)


def test_package_and_light_modules_import_alone():
    # the package loads no module of its own; these modules load neither numpy nor the verifier
    proc = run_child("-c", textwrap.dedent("""
        import sys
        import cubesign
        print(sorted(m for m in sys.modules if m.startswith("cubesign.")))
        import cubesign.automorphisms, cubesign.errors, cubesign.hashing
        import cubesign.params, cubesign.poly, cubesign.sizes
        print(sorted({"numpy", "cubesign.counting", "cubesign.scheme"} & set(sys.modules)))
    """))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_module_entry_point():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "keygen" in proc.stdout and "verify" in proc.stdout


def test_module_verify_of_a_malformed_key_exits_2(workspace, tmp_path):
    # a mapped polynomial in one variable too many fails the reader's check
    blocks = (workspace / "k.pub").read_text().split("\n\n")
    blocks[-1] = blocks[-1].replace("nvars=31", "nvars=32", 1)
    bad = tmp_path / "bad.pub"
    bad.write_text("\n\n".join(blocks))
    proc = run_module("verify", "--pub", str(bad), "--sig", str(workspace / "msg.txt.sig"),
                      "--seed", "0", str(workspace / "msg.txt"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: mapped polynomial has the wrong variable count")


def test_module_verify_of_a_wide_hostile_signature_exits_2(workspace, tmp_path):
    # 4000-digit coefficients pass the counters' int64 cube bound
    sig = tmp_path / "wide.sig"
    sig.write_text(signature_to_text(Signature(wide_hostile_poly(32))))
    proc = run_module("verify", "--pub", str(workspace / "k.pub"), "--sig", str(sig),
                      "--seed", "0", str(workspace / "msg.txt"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: counting needs a value bound below 2**62")


def test_verify_of_a_key_whose_combine_passes_int64_exits_2(workspace, tmp_path, capsys):
    # images and signature the constant 2**31 - 1: every coefficient fits in
    # 32 bits, yet the signed side's combine bound passes 2**62
    blocks = (workspace / "k.pub").read_text().split("\n\n")[:4]
    pub = tmp_path / "hostile.pub"
    pub.write_text("\n\n".join(blocks + ["nvars=31\n2147483647:"] * 3) + "\n")
    sig = tmp_path / "hostile.sig"
    sig.write_text("nvars=32\n2147483647:\n")
    rc = main(["verify", "--pub", str(pub), "--sig", str(sig), "--seed", "1",
               str(workspace / "msg.txt")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: counting needs a value bound below 2**62")
