import hashlib
import math
import random
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubesign import counting, scheme
from cubesign.automorphisms import extend_for_signing, sample_automorphism, sample_indicator
from cubesign.counting import (
    CUBE_BLOCK,
    cube_blocks,
    evaluate_batch,
    evaluate_stack,
    exact_dtype,
    exact_value_counts,
    sample_points,
)
from cubesign.errors import CapacityError, DimensionError, FormatError
from cubesign.params import SchemeParams
from cubesign.poly import INT64_SAFE_BOUND, Poly, indices_of, mask_of, split_blocks, value_bound
from cubesign.scheme import (
    CHALLENGE_NVARS,
    PrivateKey,
    PublicKey,
    Signature,
    _challenge_positive,
    _nested_combine,
    keygen,
    private_key_from_text,
    private_key_to_text,
    public_key_from_text,
    public_key_to_text,
    sample_challenge,
    sign,
    sign_poly,
    signature_from_text,
    signature_to_text,
    verify,
    verify_poly,
)

from conftest import point_set, wide_hostile_poly

TP = SchemeParams(n=10, trials=1000)

# frozen digests of the seed-42 production keypair serialization
KEYGEN_PUB_SHA = "9fff1bdf7b58f11e5342568948d27e3d0e62f76f6444b439fc523aa319a481c5"
KEYGEN_PRIV_SHA = "59e90109ad07c4036837e0616ba15af5a71ce225809a972535097127ca1645ff"
# frozen digest of a seed-7 signature of b"golden" under that private key
SIGN_SHA = "8abf4b7329e1111cadc289a5f50e0cdd384836e76666534f5bde25dfe3782e38"


def synth_q(nvars, rng, nterms=20):
    """Stand-in for the hash polynomial at reduced variable counts."""
    terms = {}
    while len(terms) < nterms:
        deg = rng.randint(1, 3)
        m = mask_of(rng.sample(range(1, nvars + 1), deg))
        if m not in terms:
            terms[m] = rng.choice((1, -1))
    return Poly(nvars, terms)


def combine(challenge, components):
    """Materialize challenge(c1..c4) as an explicit polynomial."""
    nv = components[0].nvars
    acc = Poly.zero(nv)
    for cmask, coeff in challenge.terms.items():
        term = Poly.const(coeff, nv)
        for slot in range(CHALLENGE_NVARS):
            if (cmask >> slot) & 1:
                term = term * components[slot]
        acc = acc + term
    return acc


def test_keygen_shapes():
    priv, pub = keygen(TP, random.Random(1))
    assert len(pub.base) == len(pub.mapped) == 3
    for p in pub.base:
        assert len(p) == TP.t
        assert p.degree() <= TP.b
        assert all(c in (-1, 1) for c in p.terms.values())
    assert priv.aut.nvars == TP.n
    for p, fp in zip(pub.base, pub.mapped):
        assert fp == priv.aut.apply(p)


def test_keygen_production_golden():
    priv, pub = keygen(SchemeParams(), random.Random(42))
    pub_sha = hashlib.sha256(public_key_to_text(pub).encode()).hexdigest()
    priv_sha = hashlib.sha256(private_key_to_text(SchemeParams(), priv).encode()).hexdigest()
    assert pub_sha == KEYGEN_PUB_SHA
    assert priv_sha == KEYGEN_PRIV_SHA


def test_signature_production_golden():
    priv, _ = keygen(SchemeParams(), random.Random(42))
    sig = sign(priv, SchemeParams(), b"golden", random.Random(7))
    assert hashlib.sha256(signature_to_text(sig).encode()).hexdigest() == SIGN_SHA


def test_key_images_preserve_value_counts():
    for seed in range(10):
        priv, pub = keygen(TP, random.Random(seed))
        for p, fp in zip(pub.base, pub.mapped):
            assert exact_value_counts(p) == exact_value_counts(fp)


def test_signature_preserves_value_counts():
    for seed in range(10):
        rng = random.Random(seed)
        priv, _ = keygen(TP, rng)
        q = synth_q(TP.n + 1, rng)
        sig = sign_poly(priv, TP, q, rng)
        assert exact_value_counts(q) == exact_value_counts(sig.poly)


def test_signed_combination_is_automorphic_image():
    # the verifier-side pair (R, S) satisfies S = extended(R) exactly
    params = SchemeParams(n=6, trials=64)
    rng = random.Random(77)
    priv, pub = keygen(params, rng)
    q = synth_q(params.n + 1, rng, nterms=8)
    tweak = sample_indicator(set(), params, params.n, rng)
    ext = extend_for_signing(priv.aut, tweak)
    sig = Signature(ext.apply(q))

    u = sample_challenge(random.Random(5))
    wide = params.n + 1
    reference = combine(u, [p.widen(wide) for p in pub.base] + [q])
    signed = combine(u, [p.widen(wide) for p in pub.mapped] + [sig.poly])
    assert signed == ext.apply(reference)


def test_fresh_tweak_randomizes_signatures():
    rng = random.Random(3)
    priv, pub = keygen(TP, rng)
    q = synth_q(TP.n + 1, rng)
    sig_a = sign_poly(priv, TP, q, random.Random(100))
    sig_b = sign_poly(priv, TP, q, random.Random(101))
    assert sig_a.poly != sig_b.poly
    for sig in (sig_a, sig_b):
        rep = verify_poly(pub, q, sig, params=TP, rng=random.Random(9), exhaustive=True)
        assert rep.accepted


def test_exhaustive_verification_sees_exact_count_equality():
    params = SchemeParams(n=8, trials=64)
    for seed in range(10):
        rng = random.Random(seed)
        priv, pub = keygen(params, rng)
        q = synth_q(params.n + 1, rng)
        sig = sign_poly(priv, params, q, rng)
        rep = verify_poly(pub, q, sig, params=params, rng=random.Random(seed), exhaustive=True)
        assert rep.accepted
        assert rep.reference_positive == rep.signed_positive
        assert rep.trials == 2 ** (params.n + 1)


def test_sampled_verification_accepts_honest_signatures():
    # 1000 trials leaves the 0.03 threshold at ~1.5 sigma of the count noise,
    # so honest runs need the production trial budget to accept reliably
    check = SchemeParams(n=10, trials=3000)
    for seed in range(10):
        rng = random.Random(seed)
        priv, pub = keygen(TP, rng)
        q = synth_q(TP.n + 1, rng)
        sig = sign_poly(priv, TP, q, rng)
        rep = verify_poly(pub, q, sig, params=check, rng=random.Random(500 + seed))
        assert rep.accepted
        assert rep.trials == check.trials


def test_verification_is_threshold_monotone():
    rng = random.Random(15)
    priv, pub = keygen(TP, rng)
    q = synth_q(TP.n + 1, rng)
    sig = sign_poly(priv, TP, q, rng)
    reports = [
        verify_poly(pub, q, sig, params=SchemeParams(n=10, trials=1000, threshold=eps),
                    rng=random.Random(77))
        for eps in (0.001, 0.01, 0.03, 0.2)
    ]
    gaps = {r.count_gap for r in reports}
    assert len(gaps) == 1  # same seed, same counts
    accepted = [r.accepted for r in reports]
    assert accepted == sorted(accepted)  # once accepted, stays accepted


def test_production_verify_counts_are_pinned():
    # seeded (reference, signed) counts; a change here changes seeded decisions
    for seed, expected in ((0, (449, 528)), (1, (1025, 988)), (2, (1422, 1449))):
        rng = random.Random(seed)
        priv, pub = keygen(SchemeParams(), rng)
        message = f"m{seed}".encode()
        sig = sign(priv, pub.params, message, rng)
        rep = verify(pub, message, sig, rng=random.Random(1))
        assert (rep.reference_positive, rep.signed_positive) == expected
        assert rep.accepted


def use_cube_block(monkeypatch, size):
    """Enumerate the cube in blocks of size points; counting owns the walk."""
    monkeypatch.setattr(counting, "CUBE_BLOCK", size)


def test_exhaustive_wrong_key_counts_are_pinned():
    # n=16 enumerates 2**17 points
    params = SchemeParams(n=16, trials=1000)
    rng = random.Random(0)
    priv, pub = keygen(params, rng)
    q = synth_q(params.n + 1, rng)
    wrong = PrivateKey(sample_automorphism(params, random.Random(500)))
    sig = sign_poly(wrong, params, q, rng)
    rep = verify_poly(pub, q, sig, params=params, rng=random.Random(3), exhaustive=True)
    assert (rep.reference_positive, rep.signed_positive) == (92694, 88042)
    assert (rep.trials, rep.allowed_gap) == (1 << 17, 3932)
    assert not rep.accepted


def test_exhaustive_counts_at_n20_are_pinned():
    # 2**21 points, walked in several blocks: an honest and a wrong-key signature
    params = SchemeParams(n=20, trials=1000)
    rng = random.Random(20)
    priv, pub = keygen(params, rng)
    q = synth_q(params.n + 1, rng)
    wrong = PrivateKey(sample_automorphism(params, random.Random(2000)))
    for signer, seed, expected in ((priv, 21, (957778, 957778)),
                                   (wrong, 22, (1168661, 1186020))):
        sig = sign_poly(signer, params, q, random.Random(seed))
        rep = verify_poly(pub, q, sig, params=params, rng=random.Random(seed), exhaustive=True)
        assert (rep.reference_positive, rep.signed_positive) == expected
        assert (rep.trials, rep.allowed_gap) == (1 << 21, 62914)


def challenge_bound(challenge, bounds):
    """sum |c_m| * prod max(1, bounds[i]) over the challenge's terms m, term by term."""
    return sum(abs(c) * math.prod(max(1, bounds[i - 1]) for i in indices_of(mask))
               for mask, c in challenge.terms.items())


def side_bound(challenge, components):
    """The challenge's bound with each component's cube bound as its input's."""
    return challenge_bound(challenge, [value_bound(p) for p in components])


@given(st.dictionaries(st.integers(0, (1 << CHALLENGE_NVARS) - 1),
                       st.integers(-(1 << 70), 1 << 70), max_size=1 << CHALLENGE_NVARS),
       st.lists(st.one_of(st.integers(0, 3), st.integers(0, 1 << 70)),
                min_size=CHALLENGE_NVARS, max_size=CHALLENGE_NVARS))
def test_nested_bound_matches_the_termwise_challenge_bound(terms, bounds):
    # the combine bound _challenge_positive computes, zero inputs counted as 1
    challenge = Poly(CHALLENGE_NVARS, terms)
    sizes = [abs(challenge.terms.get(mask, 0)) for mask in range(1 << CHALLENGE_NVARS)]
    nested = _nested_combine(sizes, [max(1, b) for b in bounds])
    assert nested == challenge_bound(challenge, bounds)


def cube_recount(challenge, components, points=None):
    """Points of the whole cube, or of ``points``, where challenge(components) > 0.

    Component values are plain numpy int64 sums of the coefficients below
    2**40 plus Python-int sums of the others, combined as Python ints.
    """
    if points is None:
        points = range(1 << max(p.nvars for p in components))
    cube = np.array(points, dtype=np.int64)
    values = []
    for p in components:
        v = np.zeros(len(cube), dtype=np.int64)
        big = np.zeros(len(cube), dtype=object)
        for mask, c in p.terms.items():
            covered = (cube & mask) == mask
            if abs(c) < 1 << 40:
                v += c * covered
            else:
                big[covered] += c
        values.append(v.astype(object) + big)
    acc = 0
    for mask, c in challenge.terms.items():
        term = c
        for i in range(CHALLENGE_NVARS):
            if (mask >> i) & 1:
                term = term * values[i]
        acc = acc + term
    return int((acc > 0).sum())


def assert_exhaustive_verify_matches_recount(n):
    """Exhaustive verify of an honest and a wrong-key signature at n, against cube_recount."""
    params = SchemeParams(n=n, trials=1000)
    rng = random.Random(9)
    priv, pub = keygen(params, rng)
    q = synth_q(params.n + 1, rng)
    wrong = PrivateKey(sample_automorphism(params, random.Random(900)))
    m = params.n + 1
    for signer, seed in ((priv, 4), (wrong, 5)):
        sig = sign_poly(signer, params, q, random.Random(seed))
        rep = verify_poly(pub, q, sig, params=params, rng=random.Random(seed),
                          exhaustive=True)
        reference = [p.widen(m) for p in pub.base] + [q]
        signed = [p.widen(m) for p in pub.mapped] + [sig.poly]
        assert rep.trials == 1 << m
        assert rep.reference_positive == cube_recount(rep.challenge, reference)
        assert rep.signed_positive == cube_recount(rep.challenge, signed)


def test_exhaustive_verify_matches_whole_cube_recount():
    # n=15 walks one block of 2**15 points and y's 2**16; n=17 one of 2**17 and y's 2**18
    for n in (15, 17):
        assert_exhaustive_verify_matches_recount(n)


def test_exhaustive_verify_matches_whole_cube_recount_in_small_blocks(monkeypatch):
    # 2**12-point blocks: 8 of the public polynomials' cube, y on each and on its shift
    use_cube_block(monkeypatch, 1 << 12)
    assert_exhaustive_verify_matches_recount(15)


def test_challenge_exact_path_matches_pointwise_recount():
    # each component fits int64 on its own; their products under the challenge
    # do not, so the combine is refused, where the pointwise recount still runs
    rng = random.Random(17)
    nv = 8
    components = [
        Poly(nv, {
            rng.randrange(1 << nv): rng.choice((1, -1)) * rng.randrange(1 << 39, 1 << 41)
            for _ in range(6)
        })
        for _ in range(CHALLENGE_NVARS)
    ]
    challenge = Poly(CHALLENGE_NVARS, {0b0001: 1, 0b0011: 1, 0b0111: 2, 0b1100: -2})
    assert all(value_bound(p) < INT64_SAFE_BOUND for p in components)
    assert not side_bound(challenge, components) < INT64_SAFE_BOUND
    combined = combine(challenge, components)
    expected = sum(combined.evaluate(point) > 0 for point in range(1 << nv))
    assert 0 < expected < 1 << nv
    for points in (None, point_set(range(1 << nv), nv)):
        with pytest.raises(CapacityError, match="below 2\\*\\*62"):
            _challenge_positive(challenge, components, points)


def pointwise_positive(challenge, components, points):
    """Points where the materialized combination is positive, one evaluate per point."""
    combined = combine(challenge, components)
    return sum(combined.evaluate(int(point)) > 0 for point in points)


@pytest.mark.parametrize("magnitude", [4, 1 << 41], ids=["int64", "object"])
@pytest.mark.parametrize("terms", [
    {0: 3},
    {0: -2},
    {0b0001: 1, 0b0110: -2, 0b1000: 2, 0b1111: -1},
    {0b1001: 2, 0b0011: -1, 0b1110: 1},
], ids=["positive-constant", "negative-constant", "no-constant", "no-constant-sparse"])
def test_challenge_combine_matches_pointwise_recount(terms, magnitude):
    rng = random.Random(len(terms))
    nv = 8
    components = [
        Poly(nv, {rng.randrange(1 << nv): rng.choice((1, -1)) * rng.randrange(1, magnitude)
                  for _ in range(6)})
        for _ in range(CHALLENGE_NVARS)
    ]
    if magnitude > 4 and set(terms) == {0}:
        # a constant-only challenge fits int64 unless the constant itself does not
        terms = {0: terms[0] << 70}
    challenge = Poly(CHALLENGE_NVARS, terms)
    assert (side_bound(challenge, components) < INT64_SAFE_BOUND) == (magnitude == 4)
    samples = [rng.getrandbits(nv) for _ in range(300)]
    if magnitude > 4:
        # the combine bound passes int64: refused on both paths
        for given in (point_set(samples, nv), None):
            with pytest.raises(CapacityError, match="below 2\\*\\*62"):
                _challenge_positive(challenge, components, given)
        return
    for given, points in ((point_set(samples, nv), samples), (None, range(1 << nv))):
        expected = pointwise_positive(challenge, components, points)
        assert _challenge_positive(challenge, components, given) == expected
    if set(terms) == {0}:
        assert expected == (1 << nv) * (terms[0] > 0)
    else:
        assert 0 < expected < 1 << nv


def test_challenge_exact_path_over_two_cube_blocks(monkeypatch):
    # coefficients near 2**40, so the products pass int64 over 2**17 points:
    # the first block refuses the combine
    use_cube_block(monkeypatch, 1 << 16)
    rng = random.Random(23)
    nv = 17
    components = [
        Poly(nv, {
            sum(1 << b for b in rng.sample(range(nv), rng.randint(1, 3))):
                rng.choice((1, -1)) * rng.randrange(1 << 39, 1 << 41)
            for _ in range(3)
        })
        for _ in range(CHALLENGE_NVARS)
    ]
    challenge = Poly(CHALLENGE_NVARS, {0: -5, 0b0011: 1, 0b0101: -2, 0b1110: 2, 0b1111: 1})
    assert not side_bound(challenge, components) < INT64_SAFE_BOUND
    assert len(cube_blocks(nv)) == 2
    # the exact oracle refuses the materialized product as well
    with pytest.raises(CapacityError, match="below 2\\*\\*62"):
        exact_value_counts(combine(challenge, components))
    calls = recorded_calls(monkeypatch)
    with pytest.raises(CapacityError, match="below 2\\*\\*62"):
        _challenge_positive(challenge, components, None)
    assert [points for _, points in calls] == [cube_blocks(nv)[0]] * 3


def test_challenge_combine_casts_an_unread_component_without_using_it(monkeypatch):
    # the challenge has no term on the big component, so the combine runs in
    # the read components' type: the big component is evaluated and cast to
    # it, where its values may wrap, but never multiplied.  Past int64 it is
    # refused, as the challenge does not save it.
    nv = 6
    x = [Poly.variable(i, nv) for i in range(1, nv + 1)]
    challenge = Poly(CHALLENGE_NVARS, {0: -1, 0b0010: 1, 0b0100: 1, 0b0011: 2})
    types = recorded_types(monkeypatch)
    for scale, dtype in ((1, np.int8), (1 << 10, np.int16), (1 << 20, np.int32),
                         (1 << 40, np.int64)):
        for big_bits in (70, 40):
            big = Poly(nv, {0b1: 1 << big_bits, 0b110: -3})
            components = [Poly.zero(nv), scale * (x[1] - x[2]), scale * (2 * x[3] + 1), big]
            assert exact_dtype(side_bound(challenge, components)) is dtype
            for points in (None, point_set(range(1 << nv), nv)):
                if big_bits == 70:
                    with pytest.raises(CapacityError, match="below 2\\*\\*62"):
                        _challenge_positive(challenge, components, points)
                    continue
                types.clear()
                expected = pointwise_positive(challenge, components, range(1 << nv))
                assert _challenge_positive(challenge, components, points) == expected
                assert set(types) == {dtype}


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("bits, side, dtype", [(15, 31, np.int16), (31, 1290, np.int32),
                                               (62, 1_600_000, np.int64)],
                         ids=["int16", "int32", "int64"])
def test_challenge_combine_reaches_its_bound_in_a_narrow_type(bits, side, dtype, sign):
    # challenge x1*x2*x3 + d*x4 on components of positive coefficients that
    # sum to side, side, side and 1: at the all-ones point every term takes
    # its bound, so the combined value is sign * (2**bits - 1), the largest
    # magnitude the narrow type holds.  A narrower type would wrap it; at 62
    # bits, d + 1 makes the bound 2**62, which is refused.
    rng = random.Random(bits)
    nv = 8
    ones = (1 << nv) - 1

    def sized(total):
        # distinct masks, positive coefficients summing to total
        masks = rng.sample(range(1, 1 << nv), 5)
        cuts = sorted(rng.sample(range(1, total), len(masks) - 1))
        return Poly(nv, {m: b - a for m, a, b in zip(masks, [0, *cuts], [*cuts, total])})

    components = [sized(side), sized(side), sized(side), Poly.variable(nv, nv)]
    d = (1 << bits) - 1 - side ** 3
    assert d > 0
    challenge = Poly(CHALLENGE_NVARS, {0b0111: sign, 0b1000: sign * d})
    assert side_bound(challenge, components) == (1 << bits) - 1
    assert exact_dtype(side_bound(challenge, components)) is dtype
    assert combine(challenge, components).evaluate(ones) == sign * ((1 << bits) - 1)
    samples = [rng.getrandbits(nv) for _ in range(300)] + [ones]
    for given, points in ((point_set(samples, nv), samples), (None, None)):
        expected = cube_recount(challenge, components, points)
        assert _challenge_positive(challenge, components, given) == expected
    assert (expected > 0) == (sign > 0)
    if bits == 62:
        challenge = Poly(CHALLENGE_NVARS, {0b0111: sign, 0b1000: sign * (d + 1)})
        assert side_bound(challenge, components) == INT64_SAFE_BOUND
        for given in (point_set(samples, nv), None):
            with pytest.raises(CapacityError, match="below 2\\*\\*62"):
                _challenge_positive(challenge, components, given)


def test_challenge_combine_bounds_coefficients_on_a_zero_component():
    # a zero component must not hide the 2**70 coefficient from the int64
    # check: the combine is refused on both paths
    nv = 4
    x = [Poly.variable(i, nv) for i in range(1, nv + 1)]
    components = [Poly.zero(nv), x[1] - x[2], x[0] + 1, x[3]]
    challenge = Poly(CHALLENGE_NVARS, {0b11: 1 << 70, 0b1: 1})
    assert not side_bound(challenge, components) < INT64_SAFE_BOUND
    for points in (None, point_set(range(1 << nv), nv)):
        with pytest.raises(CapacityError, match="below 2\\*\\*62"):
            _challenge_positive(challenge, components, points)


@pytest.mark.parametrize("exhaustive", [False, True])
def test_unwidened_components_count_like_their_widened_copies(exhaustive):
    params = SchemeParams(n=12, trials=700)
    rng = random.Random(41)
    priv, pub = keygen(params, rng)
    m = params.n + 1
    q = synth_q(m, rng)
    sig = sign_poly(priv, params, q, rng)
    points = None if exhaustive else sample_points(m, params.trials, random.Random(5))
    for seed in range(4):
        challenge = sample_challenge(random.Random(seed))
        for components in ([*pub.base, q], [*pub.mapped, sig.poly]):
            widened = [p.widen(m) for p in components]
            assert _challenge_positive(challenge, components, points) == _challenge_positive(
                challenge, widened, points)


@pytest.mark.parametrize("magnitude", [4, 1 << 41], ids=["int64", "object"])
@pytest.mark.parametrize("widths", [(9, 10, 11, 12), (12, 9, 10, 11), (10, 10, 10, 10)],
                         ids=["mixed", "narrow-second", "all-narrower"])
def test_narrow_components_broadcast_over_a_wider_block(widths, magnitude):
    # the whole cube of the widest component is counted: a last component
    # wider than the others is evaluated on their block and its shift, a
    # narrower one on their block.  The fixed challenge's f1 is one component.
    # With coefficients past 2**40 every challenge's combine passes int64 and
    # is refused.
    rng = random.Random(sum(widths))
    components = [
        Poly(nv, {rng.randrange(1 << nv): rng.choice((1, -1)) * rng.randrange(1, magnitude)
                  for _ in range(6)})
        for nv in widths
    ]
    top = max(widths)
    widened = [p.widen(top) for p in components]
    fixed = Poly(CHALLENGE_NVARS, {0: -1, 0b0001: 1, 0b0010: 2, 0b1100: 1})
    for challenge in [fixed] + [sample_challenge(random.Random(seed)) for seed in range(4)]:
        assert (side_bound(challenge, components) < INT64_SAFE_BOUND) == (magnitude == 4)
        if magnitude > 4:
            with pytest.raises(CapacityError, match="below 2\\*\\*62"):
                _challenge_positive(challenge, components, None)
            continue
        expected = cube_recount(challenge, widened)
        assert 0 < expected < 1 << top
        assert _challenge_positive(challenge, components, None) == expected


def recorded_types(monkeypatch):
    """A list that records every type scheme.exact_dtype picks."""
    types = []

    def recorder(bound):
        types.append(exact_dtype(bound))
        return types[-1]

    monkeypatch.setattr(scheme, "exact_dtype", recorder)
    return types


@pytest.mark.parametrize("position", [0, 3], ids=["rest", "last"])
@pytest.mark.parametrize("big, dtype", [(1 << 40, np.int64), (1 << 70, object)],
                         ids=["int64", "object"])
def test_combine_type_follows_the_block_values_not_the_cube_bound(big, dtype, position,
                                                                  monkeypatch):
    # one component has a big coefficient on a term of x17, so its cube bound
    # needs int64, or passes it, but on the 2**16-point block where x17 = 0
    # its values are small: that block combines in a narrow type, the other
    # in int64.  Past int64 the component is refused on either path, since
    # each block evaluates it whole.
    use_cube_block(monkeypatch, 1 << 16)
    rng = random.Random(position + big.bit_length())
    nv = 17
    components = [
        Poly(nv, {rng.randrange(1 << nv): rng.choice((1, -1)) * rng.randint(1, 3)
                  for _ in range(6)})
        for _ in range(CHALLENGE_NVARS)
    ]
    components[position] += Poly(nv, {1 << 16 | 0b1: big, 1 << 16 | 0b110: -big})
    challenge = Poly(CHALLENGE_NVARS, {0: -1, 0b0001: 1, 0b0110: 2, 0b1000: 1, 0b1011: -1})
    samples = [rng.getrandbits(16) for _ in range(301)]
    if dtype is object:
        assert value_bound(components[position]) >= INT64_SAFE_BOUND
        for given in (None, point_set(samples, nv)):
            with pytest.raises(CapacityError, match="below 2\\*\\*62"):
                _challenge_positive(challenge, components, given)
        return
    assert exact_dtype(value_bound(components[position])) is dtype
    types = recorded_types(monkeypatch)
    expected = cube_recount(challenge, components)
    assert 0 < expected < 1 << nv
    assert _challenge_positive(challenge, components, None) == expected
    assert {np.int8, np.int16} & set(types) and dtype in types
    # sample points with x17 = 0 form one block of small values
    types.clear()
    expected = cube_recount(challenge, components, samples)
    assert _challenge_positive(challenge, components, point_set(samples, nv)) == expected
    assert set(types) <= {np.int8, np.int16}


@pytest.mark.parametrize("position", [0, 3], ids=["rest", "last"])
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("peak", [2**7 - 1, 2**7, 2**15 - 1, 2**15])
def test_combine_type_holds_a_block_peak_at_a_type_edge(peak, sign, position):
    # the component's values are 0 or sign * peak, its cube bound 3 * peak;
    # the challenge reads it alone, with either sign, so a block combined in
    # a type that holds sign * peak but not -sign * peak wraps one of them
    nv = 8
    x1, x2 = Poly.variable(1, nv), Poly.variable(2, nv)
    components = [Poly.variable(i, nv) for i in range(1, CHALLENGE_NVARS + 1)]
    components[position] = sign * peak * (x1 + x2 - x1 * x2)
    rng = random.Random(peak)
    samples = [rng.getrandbits(nv) for _ in range(301)]
    for d in (1, -1):
        challenge = Poly(CHALLENGE_NVARS, {1 << position: d})
        for given, points in ((None, None), (point_set(samples, nv), samples)):
            expected = cube_recount(challenge, components, points)
            assert (expected > 0) == (d == sign)
            assert _challenge_positive(challenge, components, given) == expected


@pytest.mark.parametrize("position", range(CHALLENGE_NVARS))
def test_an_unread_component_past_int64_is_refused(position):
    # values reach 2**63 on a component the challenge never reads: it is
    # refused all the same, so whether a key is refused does not hang on
    # the challenge drawn
    nv = 6
    components = [Poly.variable(i, nv) - Poly.variable(nv - i, nv)
                  for i in range(1, CHALLENGE_NVARS + 1)]
    components[position] = Poly(nv, {0b1: 1 << 63, 0b110: 3})
    reads = [i for i in range(CHALLENGE_NVARS) if i != position]
    challenge = Poly(CHALLENGE_NVARS, {0: 1, 1 << reads[0]: 2, (1 << reads[1]) | (1 << reads[2]): -3})
    assert 0 < cube_recount(challenge, components) < 1 << nv
    for given in (None, point_set(range(1 << nv), nv)):
        with pytest.raises(CapacityError, match="below 2\\*\\*62"):
            _challenge_positive(challenge, components, given)


def recorded_calls(monkeypatch):
    """A list that records every (polynomial, points) scheme evaluates.

    A call to scheme.evaluate_batch is one entry; a call to
    scheme.evaluate_stack is one entry per polynomial of the stack, in order.
    """
    calls = []

    def recorder(p, points):
        calls.append((p, points))
        return evaluate_batch(p, points)

    def stack_recorder(polys, points):
        calls.extend((p, points) for p in polys)
        return evaluate_stack(polys, points)

    monkeypatch.setattr(scheme, "evaluate_batch", recorder)
    monkeypatch.setattr(scheme, "evaluate_stack", stack_recorder)
    return calls


def test_exhaustive_verify_evaluates_public_polynomials_on_their_own_cube(monkeypatch):
    # each public polynomial once per block of its own cube; the message
    # polynomial or signature once on its whole cube at n = 14, and at
    # n = 18, whose cube is one CUBE_BLOCK, on that block and on its shift by 2**n
    calls = recorded_calls(monkeypatch)
    wide = CUBE_BLOCK.bit_length() - 1
    for n in (14, wide):
        params = SchemeParams(n=n, trials=1000)
        rng = random.Random(n)
        priv, pub = keygen(params, rng)
        q = synth_q(n + 1, rng)
        sig = sign_poly(priv, params, q, rng)
        calls.clear()
        rep = verify_poly(pub, q, sig, params=params, rng=random.Random(3), exhaustive=True)
        low, high = range(0, 1 << n), range(1 << n, 1 << (n + 1))
        ys = [range(0, 1 << (n + 1))] if n < wide else [low, high]
        assert calls == [(p, low) for p in pub.base] + [(q, y) for y in ys] + [
            (p, low) for p in pub.mapped] + [(sig.poly, y) for y in ys]
        assert rep.accepted and rep.count_gap == 0


def test_a_wide_last_component_is_walked_in_bounded_blocks(monkeypatch):
    # rest components of 8 variables and a last one of 20 to 22: y goes in
    # CUBE_BLOCK-point blocks, each viewed as rows of the 2**8-point block,
    # and no more of them are held at once as the cube grows
    rng = random.Random(20)
    rest = [Poly(8, {rng.randrange(1, 1 << 8): rng.choice((1, -1)) for _ in range(5)})
            for _ in range(CHALLENGE_NVARS - 1)]

    def last(nv):
        return Poly(nv, {rng.randrange(1, 1 << nv): rng.choice((1, -1)) for _ in range(12)})

    challenge = Poly(CHALLENGE_NVARS, {0: 1, 0b0011: -2, 0b1000: 2, 0b1100: 1})
    calls = recorded_calls(monkeypatch)
    y = last(20)
    components = [*rest, y]
    expected = cube_recount(challenge, [p.widen(20) for p in components])
    assert 0 < expected < 1 << 20
    assert _challenge_positive(challenge, components, None) == expected
    ys = [points for p, points in calls if p is y]
    assert ys == [range(s, s + CUBE_BLOCK) for s in range(0, 1 << 20, CUBE_BLOCK)]

    # 4 and 16 y blocks: both cubes take more than one
    peaks = {}
    for nv in (20, 22):
        components = [*rest, last(nv)]
        tracemalloc.start()
        _challenge_positive(challenge, components, None)
        peaks[nv] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[22] < 1.25 * peaks[20]


def test_wide_hostile_coefficients_are_refused_in_bounded_memory():
    # its cube bound passes INT64_SAFE_BOUND, so the signed side refuses the
    # signature before counting, holding little more than the parsed text
    _, pub = keygen(SchemeParams(), random.Random(0))
    sig = Signature(wide_hostile_poly(SchemeParams().n + 1))
    text = signature_to_text(sig)
    assert len(text) > 128_000
    for parse in (lambda: sig, lambda: signature_from_text(text)):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="below 2\\*\\*62"):
                verify(pub, b"msg", parse(), rng=random.Random(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_exhaustive_verify_refuses_wide_hostile_coefficients_in_bounded_memory():
    # with a 4000-digit constant every zeta entry of the signature's block
    # would be a 13,300-bit int; its cube bound passes INT64_SAFE_BOUND, so
    # the block is refused before it is allocated
    params = SchemeParams(n=14, trials=1000)
    _, pub = keygen(params, random.Random(0))
    m = params.n + 1
    q = Poly.variable(1, m) - Poly.variable(2, m)
    sig = Signature(wide_hostile_poly(m) + Poly.const(10 ** 3999, m))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="below 2\\*\\*62"):
            verify_poly(pub, q, sig, params=params, rng=random.Random(1), exhaustive=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _random_terms(nvars, count):
    rng = random.Random(27)
    return {rng.getrandbits(nvars): rng.choice((1, -1)) for _ in range(count)}


def _dense_text(nvars, count):
    """A block of ``_random_terms`` in the canonical form, written without a ``Poly``."""
    terms = sorted(_random_terms(nvars, count).items())
    return "\n".join([f"nvars={nvars}"] + [f"{c}:{','.join(map(str, indices_of(m)))}" for m, c in terms])


FULL_MASK = (1 << 32) - 1
# Hostile signature texts, in 32 variables but for the one past that word:
# each one's builder, the error verifying it against the seed-0 production
# key raises (None: it returns a report), and the tracemalloc budget of
# parsing and verifying it, in MiB: about twice the measured peak, and at
# least 0.5 MiB.
HOSTILE_SIGNATURES = {
    "dense-terms": (lambda: signature_to_text(Signature(Poly(32, _random_terms(32, 5000)))),
                    None, 2),
    "degree-32": (lambda: signature_to_text(Signature(
        Poly(32, {FULL_MASK: 3} | {FULL_MASK ^ 1 << i: 1 for i in range(32)}))), None, 1.5),
    "wide-coefficients": (lambda: signature_to_text(Signature(wide_hostile_poly(32))),
                          CapacityError, 0.5),
    "huge-header": (lambda: "nvars=" + "9" * 100_000 + "\n1:1\n", FormatError, 1),
    "malformed-header": (lambda: "nvars=+32\n1:1\n", FormatError, 0.5),
    "wide-64-variables": (lambda: _dense_text(64, 5000), FormatError, 1.5),
    "extra-blocks": (lambda: "\n".join([signature_to_text(Signature(Poly.variable(1, 32)))] * 10_000),
                     FormatError, 4),
}


@pytest.fixture(scope="module")
def production_public_key():
    return keygen(SchemeParams(), random.Random(0))[1]


@pytest.mark.parametrize("case", list(HOSTILE_SIGNATURES))
def test_hostile_signature_text_stays_within_its_memory_budget(case, production_public_key):
    # the text is built untraced; parsing and verifying it are traced
    build, error, budget_mib = HOSTILE_SIGNATURES[case]
    text = build()
    tracemalloc.start()
    try:
        with pytest.raises(error) if error else nullcontext():
            verify(production_public_key, b"msg", signature_from_text(text), rng=random.Random(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget_mib * 2**20


@pytest.mark.parametrize("exhaustive", [False, True], ids=["sampled", "exhaustive"])
@pytest.mark.parametrize("wide_side", ["message", "signature"])
def test_a_wide_component_is_refused_before_either_side_is_counted(
    monkeypatch, exhaustive, wide_side
):
    # every component's cube bound is checked up front, so neither side's
    # components are evaluated when any one of them is past int64
    priv, pub = keygen(TP, random.Random(0))
    m = TP.n + 1
    q = synth_q(m, random.Random(1))
    sig = sign_poly(priv, TP, q, random.Random(2))
    if wide_side == "message":
        q = wide_hostile_poly(m)
    else:
        sig = Signature(wide_hostile_poly(m))
    calls = recorded_calls(monkeypatch)
    with pytest.raises(CapacityError, match="below 2\\*\\*62"):
        verify_poly(pub, q, sig, params=TP, rng=random.Random(3), exhaustive=exhaustive)
    assert calls == []


def test_parsed_key_and_signature_past_int64_are_refused(monkeypatch):
    # every coefficient fits in 32 bits, yet with the images and the
    # signature the constant 2**31 - 1 the signed side's combine bound
    # needs 95 bits over the images alone: parsed text reaches the refusal,
    # after the reference side has combined in a narrow type
    _, pub = keygen(SchemeParams(), random.Random(0))
    params_and_base = public_key_to_text(pub).split("\n\n")[:4]
    hostile = public_key_from_text("\n\n".join(params_and_base + ["nvars=31\n2147483647:"] * 3))
    sig = signature_from_text("nvars=32\n2147483647:\n")
    types = recorded_types(monkeypatch)
    with pytest.raises(CapacityError, match="below 2\\*\\*62, got one of 95 bits"):
        verify(hostile, b"msg", sig, rng=random.Random(1))
    assert types and set(types) <= {np.int8, np.int16, np.int32, np.int64}


def test_exhaustive_verify_refuses_a_cube_past_the_enumeration_limit(monkeypatch):
    # the public polynomials' cube is within the limit; the (n+1)-cube is not
    params = SchemeParams(n=25, trials=1000)
    rng = random.Random(25)
    priv, pub = keygen(params, rng)
    q = synth_q(params.n + 1, rng)
    sig = sign_poly(priv, params, q, rng)
    calls = recorded_calls(monkeypatch)
    with pytest.raises(CapacityError, match="at most 25 variables, got 26"):
        verify_poly(pub, q, sig, params=params, rng=random.Random(3), exhaustive=True)
    assert calls == []


def test_unmapped_hash_polynomial_mostly_fails():
    # submitting Q itself leans on the challenge coupling only; record the rate
    rejected = 0
    for seed in range(100):
        rng = random.Random(seed)
        priv, pub = keygen(TP, rng)
        q = synth_q(TP.n + 1, rng)
        rep = verify_poly(pub, q, Signature(q), params=TP, rng=random.Random(40_000 + seed))
        rejected += 0 if rep.accepted else 1
    assert rejected == 51  # seeded historical record, not a strength claim


def test_wrong_message_rejected_at_test_profile():
    rejected = 0
    for seed in range(40):
        rng = random.Random(seed)
        priv, pub = keygen(TP, rng)
        q_signed = synth_q(TP.n + 1, rng)
        q_checked = synth_q(TP.n + 1, random.Random(7000 + seed))
        sig = sign_poly(priv, TP, q_signed, rng)
        rep = verify_poly(pub, q_checked, sig, params=TP, rng=random.Random(8000 + seed))
        rejected += 0 if rep.accepted else 1
    assert rejected >= 30  # marginal distribution shift detects message swaps


def test_production_sign_verify_round_trip():
    params = SchemeParams()
    rng = random.Random(1234)
    priv, pub = keygen(params, rng)
    message = b"attack at dawn"
    sig = sign(priv, params, message, rng)
    assert sig.poly.nvars == params.n + 1
    rep = verify(pub, message, sig, rng=random.Random(99))
    assert rep.accepted
    assert rep.allowed_gap == 90


def test_sign_requires_production_width():
    priv, _ = keygen(TP, random.Random(0))
    with pytest.raises(ValueError):
        sign(priv, TP, b"msg", random.Random(1))


def test_verify_rejects_dimension_mismatch():
    rng = random.Random(33)
    priv, pub = keygen(TP, rng)
    q = synth_q(TP.n + 1, rng)
    with pytest.raises(DimensionError):
        verify_poly(pub, q, Signature(q.widen(TP.n + 5)), params=TP, rng=random.Random(0))
    with pytest.raises(DimensionError):
        verify_poly(pub, q.widen(TP.n + 5), Signature(q), params=TP, rng=random.Random(0))


def test_challenge_shape():
    for seed in range(200):
        u = sample_challenge(random.Random(seed))
        assert u.nvars == CHALLENGE_NVARS
        assert u  # never the zero polynomial
        assert all(-2 <= c <= 2 for c in u.terms.values())


# -------------------------------------------------------------- serialization

def test_public_key_round_trip():
    priv, pub = keygen(TP, random.Random(8))
    assert public_key_from_text(public_key_to_text(pub)) == pub


def test_private_key_round_trip():
    priv, _ = keygen(TP, random.Random(8))
    text = private_key_to_text(TP, priv)
    params, loaded = private_key_from_text(text)
    assert params == TP
    assert loaded == priv


def test_signature_round_trip():
    rng = random.Random(5)
    priv, _ = keygen(TP, rng)
    sig = sign_poly(priv, TP, synth_q(TP.n + 1, rng), rng)
    assert signature_from_text(signature_to_text(sig)) == sig


def test_public_key_text_rejects_corruption():
    priv, pub = keygen(TP, random.Random(8))
    text = public_key_to_text(pub)
    blocks = text.split("\n\n")

    truncated = "\n\n".join(blocks[:-1])
    with pytest.raises(FormatError):
        public_key_from_text(truncated)

    # a base polynomial with a coefficient outside {-1, +1}
    tampered = text.replace("\n1:", "\n3:", 1)
    with pytest.raises(FormatError):
        public_key_from_text(tampered)

    with pytest.raises(FormatError):
        public_key_from_text("garbage\n\n" + "\n\n".join(blocks[1:]))


def test_public_key_text_rejects_wrong_arity():
    priv, pub = keygen(TP, random.Random(8))
    blocks = public_key_to_text(pub).split("\n\n")
    # extra constant term makes the first base polynomial 4-sparse
    blocks[1] = blocks[1].replace("nvars=10\n", "nvars=10\n1:\n", 1)
    with pytest.raises(FormatError):
        public_key_from_text("\n\n".join(blocks))


def test_private_key_text_rejects_dimension_mismatch():
    priv, _ = keygen(TP, random.Random(8))
    text = private_key_to_text(SchemeParams(n=11, trials=1000), priv)
    with pytest.raises(FormatError):
        private_key_from_text(text)


def test_params_block_must_be_one_canonical_line():
    priv, pub = keygen(TP, random.Random(8))
    for parse, text in (
        (public_key_from_text, public_key_to_text(pub)),
        (private_key_from_text, private_key_to_text(TP, priv)),
    ):
        parse(text)
        for bad in (text.replace(" b=", "\nb=", 1), text.replace("n=10", "n=010", 1)):
            with pytest.raises(FormatError):
                parse(bad)


def test_negative_nvars_is_a_format_error():
    priv, pub = keygen(TP, random.Random(8))

    def negate_last_block(text):
        head, _, tail = text.rpartition("nvars=10")
        return head + "nvars=-1" + tail

    for parse, text in (
        (signature_from_text, "nvars=-1"),
        (public_key_from_text, negate_last_block(public_key_to_text(pub))),
        (private_key_from_text, negate_last_block(private_key_to_text(TP, priv))),
    ):
        with pytest.raises(FormatError):
            parse(text)


def _malformed_texts():
    """(parser, text, message) for each reader check that a well-formed file never meets."""
    priv, pub = keygen(TP, random.Random(8))
    x = [1 << i for i in range(TP.n)]

    def public(base=pub.base, mapped=pub.mapped):
        return public_key_to_text(PublicKey(TP, tuple(base), tuple(mapped)))

    def base_with(poly):
        return public(base=(poly, *pub.base[1:]))

    private = private_key_to_text(TP, priv)
    blocks = private.split("\n\n")  # params, the lone header, then one block per image
    blocks[2] = blocks[2].replace("nvars=10", "nvars=11", 1)
    return {
        "base-nvars": (public_key_from_text, base_with(pub.base[0].widen(TP.n + 1)),
                       "base polynomial has the wrong variable count"),
        "base-degree": (public_key_from_text,
                        base_with(Poly(TP.n, {x[0] | x[1] | x[2] | x[3]: 1, x[4]: 1, x[5]: -1})),
                        "degree 1..3"),
        "base-constant": (public_key_from_text, base_with(Poly(TP.n, {0: 1, x[4]: 1, x[5]: -1})),
                          "degree 1..3"),
        "mapped-nvars": (public_key_from_text,
                         public(mapped=(*pub.mapped[:2], pub.mapped[2].widen(TP.n + 1))),
                         "mapped polynomial has the wrong variable count"),
        "no-automorphism": (private_key_from_text, private.split("\n\n")[0] + "\n",
                            "needs a params line and an automorphism"),
        "no-lone-header": (private_key_from_text, private.replace("nvars=10\n\n", "nvars=10\n", 1),
                           "lone nvars= header"),
        "image-nvars": (private_key_from_text, "\n\n".join(blocks),
                        "every image must live in the ambient variable set"),
        # the block count is checked before any image block is parsed
        "extra-block": (private_key_from_text, private + "\ngarbage\n", "expected 10 image blocks"),
    }


MALFORMED_TEXTS = _malformed_texts()


@pytest.mark.parametrize("case", MALFORMED_TEXTS)
def test_reader_checks_raise_format_error(case):
    parse, text, message = MALFORMED_TEXTS[case]
    with pytest.raises(FormatError, match=message):
        parse(text)


FUZZ_PARAMS = SchemeParams(n=5, trials=100)
# Characters of the key and signature formats plus a few outsiders.
FUZZ_ALPHABET = "0123456789-+:,= \n\tnvarspmthx_１"


def _fuzz_cases():
    """(parser, serializer of its result, valid text) for each file format."""
    rng = random.Random(3)
    priv, pub = keygen(FUZZ_PARAMS, rng)
    sig = sign_poly(priv, FUZZ_PARAMS, synth_q(FUZZ_PARAMS.n + 1, rng, nterms=8), rng)
    return (
        (public_key_from_text, public_key_to_text, public_key_to_text(pub)),
        (
            private_key_from_text,
            lambda out: private_key_to_text(*out),
            private_key_to_text(FUZZ_PARAMS, priv),
        ),
        (signature_from_text, signature_to_text, signature_to_text(sig)),
    )


FUZZ_CASES = _fuzz_cases()
EDIT = st.tuples(
    st.sampled_from(("insert", "replace", "delete")),
    st.integers(min_value=0),
    st.sampled_from(FUZZ_ALPHABET),
)


@settings(max_examples=300)
@given(st.integers(0, len(FUZZ_CASES) - 1), st.lists(EDIT, max_size=4))
def test_mutated_texts_parse_or_raise_format_error(case, edits):
    parse, dump, text = FUZZ_CASES[case]
    if not edits:
        assert dump(parse(text)) == text
    for op, where, ch in edits:
        i = where % (len(text) + 1)
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif op == "replace":
            text = text[:i] + ch + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    try:
        out = parse(text)
    except FormatError:
        pass
    else:
        # only the written form is accepted, up to blank lines and padding
        assert split_blocks(dump(out)) == split_blocks(text)
