"""Release acceptance gate.

One test per criterion, each printing a single PASS/FAIL line with the
measured statistic next to the pinned tolerance.  Seeds are fixed up front
and never tuned: a criterion that the implementation genuinely does not
meet fails here with its measured numbers rather than being relaxed.
Timing is machine-dependent and is measured by ``perfbench/``, not
asserted.
"""

import math
import random
import statistics

from cubesign.automorphisms import sample_automorphism, sample_indicator, sample_sparse
from cubesign.counting import (
    estimate_positive_proportion,
    exact_value_counts,
    required_trials,
)
from cubesign.hashing import digest_to_poly, hash_message, message_poly
from cubesign.params import SchemeParams
from cubesign.poly import Poly, poly_to_text
from cubesign.scheme import PrivateKey, keygen, sign, sign_poly, verify
from cubesign.sizes import attack_dimension, measure

# pinned tolerances and sample budgets
INVARIANCE_PAIRS = 200
BIJECTION_AUTOMORPHISMS = 200
INDICATOR_SAMPLES = 1000
HONEST_CYCLES = 100
WRONG_KEY_CYCLES = 100
WRONG_KEY_MIN_REJECTS = 95
WRONG_KEY_MIN_MEDIAN_GAP = 0.03
TRIALS_WINDOW = (2500, 3500)
ESTIMATOR_POLYS = 50
ESTIMATOR_RUNS = 100  # two independent estimates per polynomial
ESTIMATOR_TOLERANCE = 0.03
ESTIMATOR_MIN_WITHIN = 99
SIZE_KEYPAIRS = 20
SIG_KB_WINDOW = (2.0, 8.0)
PUB_KB_WINDOW = (8.0, 30.0)
DIMENSION_FLOOR = 2 ** 53
DIMENSION_MAGNITUDE = 1.4e16

SMALL = SchemeParams(n=8, trials=64)

# frozen conversion of SHA3-256("abc"); must stay bit-exact across platforms
ABC_GOLDEN = """\
nvars=32
-1:4
-1:2,4
1:9,10
-1:10,11,12
1:12,13,14
-1:13,14,15
1:14,16
1:17,19
1:18,20
1:19,21
1:23
1:25,26
1:27,29
-1:31
1:1,31,32"""


def report(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_poly(nvars: int, rng: random.Random) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 10)):
        terms[rng.randrange(1 << nvars)] = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
    return Poly(nvars, terms)


def test_c01_positive_count_invariance_is_exact():
    failures = 0
    for i in range(INVARIANCE_PAIRS):
        rng = random.Random(i)
        p = random_poly(SMALL.n, rng)
        aut = sample_automorphism(SMALL, rng)
        if exact_value_counts(p).positive != exact_value_counts(aut.apply(p)).positive:
            failures += 1
    report(
        failures == 0,
        "positive-count invariance",
        f"{failures} mismatches in {INVARIANCE_PAIRS} exhaustive pairs at n={SMALL.n}",
    )


def test_c02_automorphisms_permute_the_cube():
    failures = 0
    for i in range(BIJECTION_AUTOMORPHISMS):
        aut = sample_automorphism(SMALL, random.Random(i))
        image = {
            sum(img.evaluate(t) << k for k, img in enumerate(aut.images))
            for t in range(1 << SMALL.n)
        }
        if image != set(range(1 << SMALL.n)):
            failures += 1
    report(
        failures == 0,
        "cube bijection",
        f"{failures} non-bijective maps in {BIJECTION_AUTOMORPHISMS} automorphisms at n={SMALL.n}",
    )


def test_c03_indicator_samples_are_idempotent():
    failures = 0
    for i in range(INDICATOR_SAMPLES):
        h = sample_indicator(set(), SMALL, SMALL.n, random.Random(i))
        if h * h != h:
            failures += 1
    report(
        failures == 0,
        "indicator closure",
        f"{failures} non-idempotent outputs in {INDICATOR_SAMPLES} samples",
    )


def test_c04_honest_round_trips_all_accept():
    params = SchemeParams()
    accepted = 0
    worst_margin = None
    allowed = None
    for i in range(HONEST_CYCLES):
        rng = random.Random(i)
        priv, pub = keygen(params, rng)
        msg = f"round-trip message {i}".encode()
        sig = sign(priv, params, msg, rng)
        rep = verify(pub, msg, sig, rng=random.Random(10_000 + i))
        allowed = rep.allowed_gap
        margin = allowed - rep.count_gap
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
        accepted += 1 if rep.accepted else 0
    report(
        accepted == HONEST_CYCLES,
        "honest round-trip",
        f"{accepted}/{HONEST_CYCLES} accepted at defaults"
        f" (min count margin {worst_margin} of {allowed})",
    )


def test_c05_wrong_key_signatures_are_rejected():
    params = SchemeParams()
    rejected = 0
    gaps = []
    for i in range(WRONG_KEY_CYCLES):
        rng = random.Random(i)
        priv, pub = keygen(params, rng)
        wrong = PrivateKey(sample_automorphism(params, random.Random(50_000 + i)))
        msg = f"forgery attempt {i}".encode()
        forged = sign_poly(wrong, params, message_poly(msg), random.Random(60_000 + i))
        rep = verify(pub, msg, forged, rng=random.Random(70_000 + i))
        gaps.append(rep.proportion_gap)
        rejected += 0 if rep.accepted else 1
    median_gap = statistics.median(gaps)
    report(
        rejected >= WRONG_KEY_MIN_REJECTS and median_gap > WRONG_KEY_MIN_MEDIAN_GAP,
        "wrong-key rejection",
        f"{rejected}/{WRONG_KEY_CYCLES} rejected (need >= {WRONG_KEY_MIN_REJECTS});"
        f" median proportion gap {median_gap:.4f} (need > {WRONG_KEY_MIN_MEDIAN_GAP})",
    )


def test_c06_trial_count_formula_matches_defaults():
    n = required_trials(0.03, 2 ** -33)
    lo, hi = TRIALS_WINDOW
    report(
        lo <= n <= hi,
        "trial-count formula",
        f"required_trials(0.03, 2**-33) = {n}, window [{lo}, {hi}]",
    )


def test_c07_estimator_tracks_the_exact_oracle():
    within = 0
    worst = 0.0
    for i in range(ESTIMATOR_POLYS):
        sp = SchemeParams(n=10, t=2 + i % 4, b=3, trials=3000)
        p = sample_sparse(sp, sp.n, random.Random(i))
        exact = exact_value_counts(p).positive / (1 << sp.n)
        for j in range(ESTIMATOR_RUNS // ESTIMATOR_POLYS):
            est = estimate_positive_proportion(p, sp.trials, random.Random(5000 + 2 * i + j))
            error = abs(est - exact)
            worst = max(worst, error)
            within += 1 if error <= ESTIMATOR_TOLERANCE else 0
    report(
        within >= ESTIMATOR_MIN_WITHIN,
        "estimator accuracy",
        f"{within}/{ESTIMATOR_RUNS} estimates within {ESTIMATOR_TOLERANCE} of exact"
        f" (need >= {ESTIMATOR_MIN_WITHIN}); worst error {worst:.4f}",
    )


def test_c08_mean_sizes_fall_in_the_published_windows():
    params = SchemeParams()
    sig_kb, pub_kb = [], []
    for s in range(SIZE_KEYPAIRS):
        rng = random.Random(s)
        priv, pub = keygen(params, rng)
        sig = sign(priv, params, b"size-criterion probe", rng)
        sig_kb.append(measure([sig.poly]).kilobytes)
        pub_kb.append(measure([*pub.base, *pub.mapped]).kilobytes)
    sig_mean = statistics.mean(sig_kb)
    pub_mean = statistics.mean(pub_kb)
    sig_ok = SIG_KB_WINDOW[0] <= sig_mean <= SIG_KB_WINDOW[1]
    pub_ok = PUB_KB_WINDOW[0] <= pub_mean <= PUB_KB_WINDOW[1]
    report(
        sig_ok and pub_ok,
        "size windows",
        f"mean signature {sig_mean:.3f} KB in {list(SIG_KB_WINDOW)}: {sig_ok};"
        f" mean public key {pub_mean:.3f} KB in {list(PUB_KB_WINDOW)}: {pub_ok}"
        f" ({SIZE_KEYPAIRS} keypairs, seeds 0..{SIZE_KEYPAIRS - 1})",
    )


def test_c09_hash_conversion_golden_vectors():
    zero = digest_to_poly(bytes(32))
    ones = digest_to_poly(b"\xff" * 32)
    ones_ok = (
        len(ones.terms) == 32
        and all(c == -1 for c in ones.terms.values())
        and all(m.bit_count() == 3 for m in ones.terms)
    )
    abc = poly_to_text(digest_to_poly(hash_message(b"abc")))
    report(
        not zero and ones_ok and abc == ABC_GOLDEN and message_poly(b"abc") == digest_to_poly(hash_message(b"abc")),
        "hash golden vectors",
        f"zero digest -> zero poly: {not zero}; ones digest -> 32 degree-3 terms"
        f" at -1: {ones_ok}; SHA3-256('abc') conversion bit-exact: {abc == ABC_GOLDEN}",
    )


def test_c10_attack_dimension_magnitudes():
    literal = math.comb(57, 30)
    inclusive = math.comb(58, 27)
    floor_ok = literal > DIMENSION_FLOOR and inclusive > DIMENSION_FLOOR
    near = [x for x in (literal, inclusive) if DIMENSION_MAGNITUDE / 2 <= x <= DIMENSION_MAGNITUDE * 2]
    cross_ok = attack_dimension(30, 27) == literal and attack_dimension(31, 27) == inclusive
    report(
        floor_ok and bool(near) and cross_ok,
        "attack dimension",
        f"C(57,30) = {literal:.3e}, C(58,27) = {inclusive:.3e}, both > 2**53: {floor_ok};"
        f" within 2x of {DIMENSION_MAGNITUDE:.1e}: {len(near)} of 2; library agrees: {cross_ok}",
    )
