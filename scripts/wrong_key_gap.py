"""Distribution of the verifier's count gap for honest and forged signatures.

For each seeded cycle the script generates a keypair, signs a message with
the true key, forges a signature of it, and verifies both against the true
public key.  It reports acceptance rates and quantiles of the observed
proportion gap |p_R - p_S| for the two populations.  With --exhaustive
(n <= 24) the gap is computed over the full cube and the sampling noise
disappears, which isolates the structural separation the threshold has to
detect.

--forger picks the forged population:
    wrong-key  the message signed with an independently sampled key (default)
    identity   the message polynomial itself, unsigned
    permuted   the message polynomial with its n + 1 variables permuted at random
    constant   the constant polynomial 1
Only wrong-key uses a key; the other three are built from the message alone.

--grind M models a forger who may try many candidates: each cycle also draws
M seeded candidates of the --forger population, verifies each once at a fresh
verifier seed, and re-verifies each accepted one --recheck R times at further
fresh seeds.  It adds the first-pass acceptances, the quantiles over cycles
of each cycle's best re-accept count, and the cycles with a candidate
re-accepted at least R/2 times; identity and constant give M copies of one
candidate, so only the verifier seeds differ.  The default --grind 0 adds
nothing.

Example:
    python3 scripts/wrong_key_gap.py --cycles 60 --params n=12 --exhaustive --forger identity
    python3 scripts/wrong_key_gap.py --cycles 20 --forger permuted --grind 10 --recheck 10
"""

import argparse
import random
import statistics
from dataclasses import replace

from cubesign.automorphisms import random_permutation, sample_automorphism, sample_sparse
from cubesign.params import parse_param_overrides
from cubesign.poly import Poly
from cubesign.scheme import PrivateKey, Signature, keygen, sign_poly, verify_poly

FORGERS = ("wrong-key", "identity", "permuted", "constant")


def quantiles(values):
    v = sorted(values)
    return v[0], v[len(v) // 4], statistics.median(v), v[(3 * len(v)) // 4], v[-1]


def forge(forger: str, params, q: Poly, seed: int) -> Signature:
    """A forged signature of q from the named population; seed drives its randomness."""
    if forger == "wrong-key":
        wrong = PrivateKey(sample_automorphism(params, random.Random(seed)))
        return sign_poly(wrong, params, q, random.Random(seed + 100_000))
    if forger == "identity":
        return Signature(q)
    if forger == "permuted":
        return Signature(random_permutation(q.nvars, random.Random(seed)).apply(q))
    return Signature(Poly.const(1, q.nvars))


def grind(forger: str, params, pub, q: Poly, rng: random.Random, candidates: int,
          recheck: int, exhaustive: bool) -> tuple[int, int]:
    """(first-pass accepts, best re-accept count) of candidates forgeries of q.

    rng draws each candidate's seed and every verifier seed, in that order.
    """
    def accepted(sig: Signature) -> bool:
        return verify_poly(pub, q, sig, params=params, rng=random.Random(rng.getrandbits(63)),
                           exhaustive=exhaustive).accepted

    first = best = 0
    for _ in range(candidates):
        sig = forge(forger, params, q, rng.getrandbits(63))
        if accepted(sig):
            first += 1
            best = max(best, sum(accepted(sig) for _ in range(recheck)))
    return first, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--cycles", type=int, default=50, help="keypairs per population")
    parser.add_argument("--params",
                        help="comma-separated overrides, e.g. n=12,trials=2000,threshold=0.05")
    parser.add_argument("--exhaustive", action="store_true",
                        help="enumerate the cube instead of sampling (n <= 24)")
    parser.add_argument("--forger", choices=FORGERS, default="wrong-key",
                        help="the forged population (default: wrong-key)")
    parser.add_argument("--grind", type=int, default=0, metavar="M",
                        help="forger candidates tried per cycle (default 0: none)")
    parser.add_argument("--recheck", type=int, default=10, metavar="R",
                        help="re-verifications of each accepted candidate (default 10)")
    args = parser.parse_args(argv)
    if args.grind < 0 or args.recheck < 1:
        parser.error("--grind must be at least 0 and --recheck at least 1")

    params = parse_param_overrides(args.params)
    # The hashed message's stand-in at reduced variable counts: 20 terms of degree 1..3.
    message_params = replace(params, t=20, b=3)

    honest_gaps, forged_gaps = [], []
    honest_accepts = forged_accepts = 0
    ground = []
    for i in range(args.cycles):
        rng = random.Random(args.seed + i)
        priv, pub = keygen(params, rng)
        q = sample_sparse(message_params, params.n + 1, rng)
        honest = sign_poly(priv, params, q, rng)
        forged = forge(args.forger, params, q, args.seed + 500_000 + i)

        rep_h = verify_poly(pub, q, honest, params=params,
                            rng=random.Random(args.seed + 700_000 + i),
                            exhaustive=args.exhaustive)
        rep_f = verify_poly(pub, q, forged, params=params,
                            rng=random.Random(args.seed + 800_000 + i),
                            exhaustive=args.exhaustive)
        honest_gaps.append(rep_h.proportion_gap)
        forged_gaps.append(rep_f.proportion_gap)
        honest_accepts += 1 if rep_h.accepted else 0
        forged_accepts += 1 if rep_f.accepted else 0
        if args.grind:
            ground.append(grind(args.forger, params, pub, q,
                                random.Random(args.seed + 900_000 + i), args.grind,
                                args.recheck, args.exhaustive))

    mode = "exhaustive" if args.exhaustive else f"{params.trials} trials"
    print(f"n={params.n} threshold={params.threshold} cycles={args.cycles} ({mode})")
    print(f"{'population':>10} {'accept':>9} {'min':>7} {'p25':>7} {'median':>7}"
          f" {'p75':>7} {'max':>7}")
    for label, accepts, gaps in (("honest", honest_accepts, honest_gaps),
                                 (args.forger, forged_accepts, forged_gaps)):
        q = quantiles(gaps)
        print(f"{label:>10} {accepts:>5}/{args.cycles}"
              f" {q[0]:>7.4f} {q[1]:>7.4f} {q[2]:>7.4f} {q[3]:>7.4f} {q[4]:>7.4f}")
    above = sum(1 for g in forged_gaps if g > params.threshold)
    print(f"{args.forger} gaps above threshold: {above}/{args.cycles}")
    if args.grind:
        best = [b for _, b in ground]
        q = quantiles(best)
        print(f"grind: {args.grind} {args.forger} candidates per cycle,"
              f" {args.recheck} rechecks of each accepted one")
        print(f"first-pass accepts: {sum(f for f, _ in ground)}/{args.grind * args.cycles}")
        print(f"best re-accepts per cycle: min {q[0]} p25 {q[1]} median {q[2]:g}"
              f" p75 {q[3]} max {q[4]}")
        print(f"cycles re-accepting a candidate >= {args.recheck}/2 times:"
              f" {sum(2 * b >= args.recheck for b in best)}/{args.cycles}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
