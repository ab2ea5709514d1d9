"""Survey of key and signature sizes under the fixed bit-counting rule.

Generates seeded keypairs at the given parameters, signs one probe message
per keypair, and prints quantiles of the public key, private key, and
signature sizes.  The distributions are strongly right-skewed: occasional
automorphisms blow up the mapped polynomials by an order of magnitude, so
means sit well above medians and single-seed figures are not representative.

A second table gives the ranges that admission limits on parsed text must
admit: the p50, p99 and max of the term count, the degree, the largest
coefficient's bit length and the bit length of the cube bound sum |c|
(which sampled counting needs below 2**62), over the signatures and over
the published images phi(P_j), one value per polynomial.  The default seeds start at
1000, apart from those of the acceptance tests (0-19).

Example:
    python3 scripts/size_survey.py --keypairs 100
"""

import argparse
import math
import random
import statistics

from cubesign.params import parse_param_overrides
from cubesign.poly import Poly, value_bound
from cubesign.scheme import keygen, sign
from cubesign.sizes import measure


def row(label: str, values: list[float]) -> str:
    v = sorted(values)
    return (f"{label:>9} {statistics.mean(v):>8.2f} {v[len(v) // 2]:>8.2f}"
            f" {v[len(v) // 4]:>8.2f} {v[(3 * len(v)) // 4]:>8.2f}"
            f" {v[0]:>8.2f} {v[-1]:>8.2f}")


def range_rows(label: str, polys: list) -> list[str]:
    """p50, p99 and max (nearest rank) of terms, degree, coefficient and bound bits over polys."""
    rows = []
    for name, measure_of in (
        ("terms", len),
        ("degree", Poly.degree),
        ("coeff_bits", lambda p: max((abs(c).bit_length() for c in p.terms.values()), default=0)),
        ("bound_bits", lambda p: value_bound(p).bit_length()),
    ):
        v = sorted(map(measure_of, polys))
        p50, p99 = (v[math.ceil(q * len(v)) - 1] for q in (0.5, 0.99))
        rows.append(f"{label + ' ' + name:>20} {p50:>8} {p99:>8} {v[-1]:>8}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1000, help="base RNG seed")
    parser.add_argument("--keypairs", type=int, default=50, help="keypairs to sample")
    parser.add_argument("--params", help="comma-separated overrides, e.g. d=1,r=1")
    args = parser.parse_args(argv)

    params = parse_param_overrides(args.params)
    sig_kb, pub_kb, priv_kb = [], [], []
    sigs, images = [], []
    for s in range(args.keypairs):
        rng = random.Random(args.seed + s)
        priv, pub = keygen(params, rng)
        sig = sign(priv, params, f"size probe {s}".encode(), rng)
        sig_kb.append(measure([sig.poly]).kilobytes)
        pub_kb.append(measure([*pub.base, *pub.mapped]).kilobytes)
        priv_kb.append(measure(priv.aut.images).kilobytes)
        sigs.append(sig.poly)
        images += pub.mapped

    print(f"n={params.n} t={params.t} b={params.b} d={params.d} r={params.r}"
          f" keypairs={args.keypairs} (sizes in KB)")
    print(f"{'':>9} {'mean':>8} {'median':>8} {'p25':>8} {'p75':>8} {'min':>8} {'max':>8}")
    print(row("signature", sig_kb))
    print(row("public", pub_kb))
    print(row("private", priv_kb))
    print(f"{'per polynomial':>20} {'p50':>8} {'p99':>8} {'max':>8}")
    for line in range_rows("signature", sigs) + range_rows("image", images):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
