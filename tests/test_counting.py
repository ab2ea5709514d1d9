import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubesign.counting import (
    EXACT_NVARS_LIMIT,
    INT64_SAFE_BOUND,
    ValueCounts,
    estimate_positive_proportion,
    evaluate_batch,
    exact_value_counts,
    fits_int64,
    required_trials,
    sample_tuple_chunks,
)
from cubesign.errors import CapacityError
from cubesign.poly import Poly

from conftest import poly_strategy


def v(i, n):
    return Poly.variable(i, n)


def test_exact_counts_single_variable():
    assert exact_value_counts(v(1, 2)).positive == 2


def test_exact_counts_xor():
    xor = v(1, 2) + v(2, 2) - 2 * v(1, 2) * v(2, 2)
    assert exact_value_counts(xor).positive == 2


def test_exact_counts_constant():
    assert exact_value_counts(Poly.const(1, 2)).positive == 4
    counts = exact_value_counts(Poly.const(-3, 2))
    assert counts == ValueCounts(positive=0, zero=0, negative=4)


def pointwise_counts(p):
    """Reference tally: evaluate p at every cube point one by one."""
    values = [p.evaluate(x) for x in range(2 ** p.nvars)]
    return ValueCounts(
        sum(v > 0 for v in values), values.count(0), sum(v < 0 for v in values)
    )


@given(poly_strategy(6))
def test_exact_counts_partition_the_cube(p):
    counts = exact_value_counts(p)
    assert counts.positive + counts.zero + counts.negative == 2 ** p.nvars
    assert counts == pointwise_counts(p)


def test_exact_counts_golden():
    # 150 terms over 16 variables; counts recorded with the pointwise walker
    rng = random.Random(16)
    terms = {}
    while len(terms) < 150:
        mask = 0
        for _ in range(rng.randint(0, 4)):
            mask |= 1 << rng.randrange(16)
        terms[mask] = rng.choice((-3, -2, -1, 1, 2, 3))
    assert exact_value_counts(Poly(16, terms)) == ValueCounts(26660, 2693, 36183)


def test_exact_counts_at_the_enumeration_limit():
    n = EXACT_NVARS_LIMIT
    # x1 - x2 is 1 on a quarter of the cube, -1 on a quarter and 0 on half
    quarter = 2 ** (n - 2)
    assert exact_value_counts(v(1, n) - v(2, n)) == ValueCounts(quarter, 2 * quarter, quarter)


def test_exact_counts_capacity_guard():
    with pytest.raises(CapacityError):
        exact_value_counts(Poly.zero(EXACT_NVARS_LIMIT + 1))


def test_required_trials_reference_values():
    # ceil(0.02 * 4 * log2(2/delta) / eps^2) at the production operating point
    assert required_trials(0.03, 2.0 ** -33, 0.02) == 3023
    assert required_trials(0.015, 2.0 ** -33, 0.02) == 12089
    assert required_trials(0.03, 2.0 ** -33, 0.04) == 6045


def test_required_trials_scaling():
    # linear in the constant, inverse-quadratic in the accuracy, up to ceiling slack
    base = required_trials(0.03, 2.0 ** -33, 0.02)
    assert abs(required_trials(0.03, 2.0 ** -33, 0.04) - 2 * base) <= 2
    assert abs(required_trials(0.015, 2.0 ** -33, 0.02) - 4 * base) <= 4


def test_estimator_constant_polynomials():
    assert estimate_positive_proportion(Poly.const(1, 8), 100, random.Random(1)) == 1.0
    assert estimate_positive_proportion(Poly.const(-1, 8), 100, random.Random(1)) == 0.0


def test_estimator_seeded_golden():
    assert estimate_positive_proportion(v(1, 8), 3000, random.Random(5)) == 1509 / 3000


def test_estimator_close_to_symmetric_truth():
    # x1 is positive on exactly half the cube
    hits = [
        estimate_positive_proportion(v(1, 8), 3000, random.Random(seed))
        for seed in range(50)
    ]
    assert abs(sum(hits) / len(hits) - 0.5) < 0.01
    assert all(abs(h - 0.5) < 0.05 for h in hits)


def test_estimator_matches_exact_on_sparse_samples():
    from cubesign.automorphisms import sample_sparse
    from cubesign.params import SchemeParams

    params = SchemeParams(n=10)
    bad = 0
    for seed in range(40):
        p = sample_sparse(params, 10, random.Random(200 + seed))
        exact = exact_value_counts(p).positive / 2 ** 10
        est = estimate_positive_proportion(p, 3000, random.Random(300 + seed))
        if abs(est - exact) > 0.03:
            bad += 1
    assert bad == 0


def test_estimator_handles_non_chunk_multiple():
    positive = estimate_positive_proportion(v(1, 6), 700, random.Random(2)) * 700
    assert positive == pytest.approx(round(positive))
    assert 0 < positive < 700


def test_sample_tuple_chunks_are_seed_deterministic():
    a = [c.tolist() for c in sample_tuple_chunks(10, 1100, random.Random(4))]
    b = [c.tolist() for c in sample_tuple_chunks(10, 1100, random.Random(4))]
    assert a == b
    assert sum(len(c) for c in sample_tuple_chunks(10, 1100, random.Random(4))) == 1100


def test_evaluate_batch_matches_pointwise():
    p = 3 * v(1, 8) * v(2, 8) - v(3, 8) + 1
    chunks = sample_tuple_chunks(8, 512, random.Random(7))
    for chunk in chunks:
        values = evaluate_batch(p, chunk)
        for mask, value in zip(chunk.tolist(), values.tolist()):
            assert value == p.evaluate(int(mask))


def test_evaluate_batch_exact_fallback_for_huge_coefficients():
    big = 1 << 70
    rng = random.Random(11)
    terms = {rng.getrandbits(12): rng.randint(-3, 3) for _ in range(300)}
    terms[0b101] = big
    for p in (big * v(1, 4) - (big - 1) * v(2, 4), Poly(12, terms)):
        assert not fits_int64(p)
        points = np.concatenate(sample_tuple_chunks(p.nvars, 700, random.Random(3)))
        values = evaluate_batch(p, points)
        assert values.tolist() == [p.evaluate(int(m)) for m in points.tolist()]


def _sparse_mask(nvars):
    """Masks of up to six variables, so terms share prefixes as in signatures."""
    if not nvars:
        return st.just(0)
    bit = st.integers(min_value=0, max_value=nvars - 1)
    return st.lists(bit, max_size=6).map(lambda bits: sum({1 << b for b in bits}))


_COEFF = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**62 - 1, 2**62, 2**62 + 1, -(2**62) - 1, -(2**62), -(2**62) + 1]),
    st.integers(min_value=-(2**200), max_value=2**200),
)


@st.composite
def _batch_cases(draw):
    nvars = draw(st.sampled_from([0, 1, 5, 32, 64]))
    # a list, not a dict, so terms reach Poly in arbitrary mask order
    items = draw(st.lists(st.tuples(_sparse_mask(nvars), _COEFF), max_size=24))
    npoints = draw(st.sampled_from([1, 7, 8, 513, 3000]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return Poly(nvars, dict(items)), npoints, seed


@settings(max_examples=60)
@given(_batch_cases())
@example((Poly.zero(0), 1, 0))
@example((Poly.zero(64), 3000, 1))
@example((Poly.const(-5, 0), 7, 2))
@example((Poly.const(2**62 - 1, 3), 8, 3))
@example((Poly.const(2**62, 3), 8, 3))
@example((Poly.const(-(2**62), 3), 8, 3))
@example((Poly.const(-(2**62) - 1, 3), 8, 3))
@example((Poly(6, {0b100000: -1, 0b10010: 2, 0b11: 3, 0: -1}), 513, 5))
@example((Poly(64, {1 << 63: 2**200, 3: -(2**62), 1: 2**62 - 1, 0: -1}), 513, 4))
def test_evaluate_batch_matches_pointwise_property(case):
    p, npoints, seed = case
    rng = random.Random(seed)
    points = np.array([rng.getrandbits(p.nvars) for _ in range(npoints)], dtype=np.uint64)
    values = evaluate_batch(p, points)
    assert values.tolist() == [p.evaluate(int(m)) for m in points.tolist()]
    # int64 exactly when every value fits in 63 two's-complement planes
    in_63_planes = all(-(2**62) <= x < 2**62 for x in values.tolist())
    assert values.dtype == (np.int64 if in_63_planes else object)


def test_evaluate_batch_peak_memory_stays_small():
    # a stack of prefix ANDs; a dict cache of every prefix peaks near 17 MB here
    rng = random.Random(21)
    terms = {}
    while len(terms) < 16000:
        mask = sum({1 << rng.randrange(32) for _ in range(rng.randint(1, 8))})
        terms[mask] = rng.choice((-3, -2, -1, 1, 2, 3))
    p = Poly(32, terms)
    points = np.concatenate(sample_tuple_chunks(32, 3000, random.Random(22)))
    tracemalloc.start()
    try:
        evaluate_batch(p, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


SUBCUBE_POLYS = [
    3 * v(1, 8) * v(2, 8) - v(3, 8) * v(8, 8) + 1 - 2 * v(5, 8) * v(6, 8) * v(7, 8),
    Poly.const(-7, 0),
    # the cube bound passes 2**62, forcing exact Python integers
    Poly(8, {0b11: INT64_SAFE_BOUND - 1, 0b10000100: -(INT64_SAFE_BOUND - 3), 0: 5}),
]


@pytest.mark.parametrize("p", SUBCUBE_POLYS)
def test_evaluate_batch_on_aligned_subcubes_matches_pointwise(p):
    total = 2 ** p.nvars
    for k in range(p.nvars + 1):
        for start in range(0, total, 2 ** k):
            block = range(start, start + 2 ** k)
            values = evaluate_batch(p, block)
            assert values.dtype == (np.int64 if fits_int64(p) else object)
            assert values.tolist() == [p.evaluate(x) for x in block]


@pytest.mark.parametrize("p", SUBCUBE_POLYS)
def test_evaluate_batch_rejects_other_ranges(p):
    total = 2 ** p.nvars
    # unaligned, not a power of two, strided, empty
    for block in (range(1, 3), range(4, 12), range(total // 2 + 1, total),
                  range(0, total, 3), range(0, 0)):
        block = range(min(block.start, total), min(block.stop, total), block.step)
        with pytest.raises(ValueError):
            evaluate_batch(p, block)


def test_fits_int64_bounds_values_on_the_cube_and_under_substitution():
    edge = Poly(4, {0b0001: INT64_SAFE_BOUND - 2, 0b0010: -1})
    assert fits_int64(edge)
    assert not fits_int64(edge + v(3, 4))
    big = (1 << 40) * v(1, 4) - (1 << 40) * v(2, 4)
    # linear terms keep each input's bound; a product multiplies them
    assert fits_int64(Poly.const(2, 2) + v(1, 2) - v(2, 2), [big, big])
    assert not fits_int64(v(1, 2) * v(2, 2), [big, big])
