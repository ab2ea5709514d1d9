"""Command-line interface: keygen, sign, verify, bench, analyze."""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

from .errors import SamplingError
from .params import SchemeParams, parse_param_overrides
from .scheme import (
    keygen,
    private_key_from_text,
    private_key_to_text,
    public_key_from_text,
    public_key_to_text,
    sign,
    signature_from_text,
    signature_to_text,
    verify,
)
from .sizes import (
    MONOMIAL_BITS,
    VARIABLE_BITS,
    attack_dimension_report,
    format_size_report,
    measure,
    size_records,
)

# Default parameter rows for the bench table: (t, b, d, r).
BENCH_ROWS = (
    (3, 3, 1, 1),
    (3, 3, 2, 1),
    (3, 4, 1, 1),
    (4, 3, 1, 1),
    (5, 3, 1, 1),
    (3, 3, 1, 2),
)

# The package's other error types (FormatError, DimensionError, ...) subclass ValueError.
_USER_ERRORS = (OSError, ValueError, SamplingError)


def _make_rng(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _read_message(path: str | None) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def cmd_keygen(args: argparse.Namespace) -> int:
    params = parse_param_overrides(args.params)
    rng = _make_rng(args.seed)
    priv, pub = keygen(params, rng)
    pub_path = Path(f"{args.out}.pub")
    priv_path = Path(f"{args.out}.key")
    pub_path.write_text(public_key_to_text(pub))
    priv_path.write_text(private_key_to_text(params, priv))
    print(f"params n={params.n} t={params.t} b={params.b} d={params.d} r={params.r}")
    print(f"wrote {pub_path} and {priv_path}")
    return 0


def cmd_sign(args: argparse.Namespace) -> int:
    params, priv = private_key_from_text(Path(args.key).read_text())
    message = _read_message(args.message)
    rng = _make_rng(args.seed)
    sig = sign(priv, params, message, rng)
    if args.out:
        out = Path(args.out)
    elif args.message and args.message != "-":
        out = Path(args.message + ".sig")
    else:
        raise ValueError("reading the message from stdin requires -o")
    out.write_text(signature_to_text(sig))
    print(f"wrote {out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    pub = public_key_from_text(Path(args.pub).read_text())
    params = pub.params
    if args.trials is not None:
        params = replace(params, trials=args.trials)
    if args.threshold is not None:
        params = replace(params, threshold=args.threshold)
    message = _read_message(args.message)
    sig = signature_from_text(Path(args.sig).read_text())
    rng = _make_rng(args.seed)
    report = verify(pub, message, sig, params, rng, exhaustive=args.exhaustive)
    print(f"trials={report.trials}")
    print(f"reference_positive={report.reference_proportion:.4f}")
    print(f"signed_positive={report.signed_proportion:.4f}")
    print(f"difference={report.proportion_gap:.4f}")
    print(f"threshold={params.threshold}")
    print(f"decision={'accept' if report.accepted else 'reject'}")
    return 0 if report.accepted else 1


def _parse_rows(spec: str | None) -> tuple[tuple[int, int, int, int], ...]:
    if not spec:
        return BENCH_ROWS
    rows = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        values = [int(tok) for tok in part.split(",")]
        if len(values) != 4:
            raise ValueError(f"each bench row needs t,b,d,r, got {part!r}")
        rows.append(tuple(values))
    if not rows:
        raise ValueError("no bench rows given")
    return tuple(rows)


def cmd_bench(args: argparse.Namespace) -> int:
    rows = _parse_rows(args.rows)
    reps = args.reps
    header = (
        f"{'t':>3} {'b':>3} {'d':>3} {'r':>3} {'verify_s':>9}"
        f" {'sig_kb':>8} {'pub_kb':>8} {'priv_kb':>8} {'mem_mb':>7}"
    )
    print(header)
    for i, (t, b, d, r) in enumerate(rows):
        params = SchemeParams(t=t, b=b, d=d, r=r)
        if args.trials is not None:
            params = replace(params, trials=args.trials)
        seed = None if args.seed is None else args.seed + 1000 * i
        rng = _make_rng(seed)
        priv, pub = keygen(params, rng)
        message = f"bench row {i}".encode()
        sig = sign(priv, params, message, rng)
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            verify(pub, message, sig, params, rng)
            times.append(time.perf_counter() - start)
        # Peak memory is measured on a separate traced run; tracing slows
        # execution, so it never contributes a timing sample.
        tracemalloc.start()
        verify(pub, message, sig, params, rng)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        sig_kb = measure([sig.poly]).kilobytes
        pub_kb = measure([*pub.base, *pub.mapped]).kilobytes
        priv_kb = measure(priv.aut.images).kilobytes
        print(
            f"{t:>3} {b:>3} {d:>3} {r:>3} {statistics.median(times):>9.3f}"
            f" {sig_kb:>8.2f} {pub_kb:>8.2f} {priv_kb:>8.2f} {peak / 2**20:>7.1f}"
        )
    print(f"(verify_s: median of {reps} runs; mem_mb: approximate traced peak)")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    emitted = False
    records: list[str] = []
    if args.pub:
        pub = public_key_from_text(Path(args.pub).read_text())
        report = measure([*pub.base, *pub.mapped])
        print(format_size_report(report, "public key"))
        records += size_records(report, "public_key")
        emitted = True
    if args.key:
        _, priv = private_key_from_text(Path(args.key).read_text())
        report = measure(priv.aut.images)
        print(format_size_report(report, "private key"))
        records += size_records(report, "private_key")
        emitted = True
    if args.sig:
        sig = signature_from_text(Path(args.sig).read_text())
        report = measure([sig.poly])
        print(format_size_report(report, "signature"))
        records += size_records(report, "signature")
        emitted = True
    if emitted:
        print(
            f"(variable indices charged {VARIABLE_BITS} bits each,"
            f" monomials {MONOMIAL_BITS} bits)"
        )
        print()
    dim = attack_dimension_report(args.nvars, args.degree)
    rows = [
        ("variables", f"{dim.nvars}"),
        ("max degree", f"{dim.max_degree}"),
        ("monomials, degree at most", f"{dim.count_at_most} (~{dim.count_at_most:.2e})"),
        ("monomials, exact degree", f"{dim.count_exact_degree} (~{dim.count_exact_degree:.2e})"),
    ]
    width = max(len(k) for k, _ in rows)
    print("attack dimension")
    for k, v in rows:
        print(f"  {k:<{width}}  {v}")
    if not dim.agree:
        print("  (the two counts differ; both are listed)")
    records += [
        f"attack.count_at_most={dim.count_at_most}",
        f"attack.count_exact_degree={dim.count_exact_degree}",
    ]
    print()
    for line in records:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubesign",
        description="Polynomial-automorphism signatures with Monte-Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keypair")
    p.add_argument("--seed", type=int, help="deterministic RNG seed (tests only)")
    p.add_argument("--params", help="comma-separated overrides, e.g. n=8,t=3")
    p.add_argument("-o", "--out", required=True, help="output prefix for .pub/.key")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("sign", help="sign a message file (or stdin)")
    p.add_argument("--key", required=True, help="private key file")
    p.add_argument("--seed", type=int, help="deterministic RNG seed (tests only)")
    p.add_argument("-o", "--out", help="signature output path (default: MESSAGE.sig)")
    p.add_argument("message", nargs="?", help="message file; omit or '-' for stdin")
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("verify", help="verify a signature; exit 0 accept, 1 reject")
    p.add_argument("--pub", required=True, help="public key file")
    p.add_argument("--sig", required=True, help="signature file")
    p.add_argument("--seed", type=int, help="deterministic RNG seed (tests only)")
    p.add_argument("--trials", type=int, help="override sample count")
    p.add_argument("--threshold", type=float, help="override accepted proportion gap")
    p.add_argument("--exhaustive", action="store_true", help="enumerate instead of sampling")
    p.add_argument("message", nargs="?", help="message file; omit or '-' for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timing and size table over parameter rows")
    p.add_argument("--seed", type=int, help="deterministic RNG seed")
    p.add_argument("--reps", type=int, default=5, help="verification runs per row")
    p.add_argument("--rows", help="semicolon-separated t,b,d,r rows")
    p.add_argument("--trials", type=int, help="override sample count")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="size reports and attack-dimension counts")
    p.add_argument("--pub", help="public key file")
    p.add_argument("--key", help="private key file")
    p.add_argument("--sig", help="signature file")
    p.add_argument("--nvars", type=int, default=31, help="variables for the dimension count")
    p.add_argument("--degree", type=int, default=27, help="degree bound for the dimension count")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
