import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubesign import counting
from cubesign.counting import (
    CUBE_BLOCK,
    EXACT_NVARS_LIMIT,
    GROUP_ROWS,
    ValueCounts,
    cube_walk,
    estimate_positive_proportion,
    evaluate_batch,
    exact_dtype,
    exact_value_counts,
    required_trials,
    sample_points,
    sample_tuple_chunks,
)
from cubesign.errors import CapacityError, DimensionError
from cubesign.poly import INT64_SAFE_BOUND, Poly, value_bound

from conftest import point_set, poly_strategy, wide_hostile_poly


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


def test_exact_counts_refuse_a_wide_polynomial_in_bounded_memory():
    # 4000-digit coefficients and a 4000-digit constant: every entry of the
    # 2**14-point block would be a 13,300-bit int, so the block is refused
    # before it is allocated
    p = wide_hostile_poly(14) + Poly.const(10 ** 3999, 14)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="below 2\\*\\*62"):
            exact_value_counts(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# (width, top, CUBE_BLOCK) -> (blocks, points per block, y blocks per block,
# points per y block)
CUBE_WALKS = {
    "14-15": ((14, 15, 1 << 18), (1, 1 << 14, 1, 1 << 15)),
    "8-20": ((8, 20, 1 << 18), (1, 1 << 8, 4, 1 << 18)),
    "18-19": ((18, 19, 1 << 18), (1, 1 << 18, 2, 1 << 18)),
    "20-21": ((20, 21, 1 << 18), (4, 1 << 18, 2, 1 << 18)),
    "24-25": ((24, 25, 1 << 18), (64, 1 << 18, 2, 1 << 18)),
    "6-6": ((6, 6, 1 << 18), (1, 1 << 6, 1, 1 << 6)),
    "18-18": ((18, 18, 1 << 18), (1, 1 << 18, 1, 1 << 18)),
    "20-20": ((20, 20, 1 << 18), (4, 1 << 18, 1, 1 << 18)),
    "14-15-small": ((14, 15, 1 << 12), (4, 1 << 12, 2, 1 << 12)),
    "8-20-small": ((8, 20, 1 << 12), (1, 1 << 8, 256, 1 << 12)),
    "15-15-small": ((15, 15, 1 << 12), (8, 1 << 12, 1, 1 << 12)),
}


@pytest.mark.parametrize("shape, expected", CUBE_WALKS.values(), ids=CUBE_WALKS.keys())
def test_cube_walk_lines_up_the_wider_cube_with_each_block(shape, expected, monkeypatch):
    # the block size is read from counting alone
    width, top, block_points = shape
    monkeypatch.setattr(counting, "CUBE_BLOCK", block_points)
    nblocks, size, nys, y_size = expected
    walk = cube_walk(width, top)
    assert [block for block, _ in walk] == [range(s, s + size) for s in range(0, 1 << width, size)]
    starts = []
    for block, ys in walk:
        assert len(ys) == nys
        for y in ys:
            assert len(y) == y_size and y.step == 1
            # each row of len(block) points has the block's low width bits
            rows = range(y.start, y.stop, size)
            assert all(row & ((1 << width) - 1) == block.start for row in rows)
            starts.append(y.start)
    assert len(walk) == nblocks
    assert sorted(starts) == list(range(0, 1 << top, y_size))  # the wider cube, once


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
    assert estimate_positive_proportion(v(1, 8), 3000, random.Random(5)) == 1504 / 3000


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


def test_estimator_handles_a_trial_count_off_a_byte_boundary():
    positive = estimate_positive_proportion(v(1, 6), 700, random.Random(2)) * 700
    assert positive == pytest.approx(round(positive))
    assert 0 < positive < 700


def test_sample_tuple_chunks_are_seed_deterministic():
    a = sample_tuple_chunks(10, 1100, random.Random(4))
    assert a == sample_tuple_chunks(10, 1100, random.Random(4))
    assert len(a) == 10
    assert all(0 <= column < 1 << 1100 for column in a)


def _assert_sampled(p, masks, points):
    """p's values at points, int64 and equal to a pointwise recount; None where p is refused.

    A point set refuses p exactly when its cube bound reaches INT64_SAFE_BOUND.
    """
    if value_bound(p) >= INT64_SAFE_BOUND:
        with pytest.raises(CapacityError, match="below 2\\*\\*62"):
            evaluate_batch(p, points)
        return None
    values = evaluate_batch(p, points)
    assert values.tolist() == [p.evaluate(m) for m in masks]
    assert values.dtype == np.int64
    return values


def test_evaluate_batch_matches_pointwise():
    p = 3 * v(1, 8) * v(2, 8) - v(3, 8) + 1
    rng = random.Random(7)
    masks = [rng.getrandbits(8) for _ in range(512)]
    values = evaluate_batch(p, point_set(masks, 8))
    assert values.tolist() == [p.evaluate(mask) for mask in masks]


def test_evaluate_batch_exact_fallback_for_huge_coefficients():
    # a point set evaluates exactly in int64 below INT64_SAFE_BOUND and
    # refuses a polynomial whose cube bound reaches it
    for big in (1 << 61, 1 << 70):
        rng = random.Random(11)
        terms = {rng.getrandbits(12): rng.randint(-3, 3) for _ in range(300)}
        terms[0b101] = big
        for p in (big * v(1, 4) - (big - 1) * v(2, 4), Poly(12, terms)):
            rng = random.Random(3)
            masks = [rng.getrandbits(p.nvars) for _ in range(700)]
            values = _assert_sampled(p, masks, point_set(masks, p.nvars))
            assert (values is None) == (big > 1 << 61)


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("bound", [INT64_SAFE_BOUND - 1, INT64_SAFE_BOUND],
                         ids=["below", "at"])
def test_sampled_values_reach_the_int64_bound_and_stop_there(bound, sign):
    # a constant, and two same-sign terms that sum to it where x1 = x2 = 1:
    # 2**62 - 1 needs 62 planes in a counter and 63 with the sign, the
    # widest int64 read; a cube bound of 2**62 is refused
    half = bound // 2
    masks = list(range(16))
    points = point_set(masks, 4)
    for p in (Poly.const(sign * bound, 4), Poly(4, {0b1: sign * half, 0b10: sign * (bound - half)})):
        assert value_bound(p) == bound
        values = _assert_sampled(p, masks, points)
        if bound < INT64_SAFE_BOUND:
            assert values[3] == sign * bound


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
    nvars = draw(st.sampled_from([0, 1, 5, 31, 32]))
    # a list, not a dict, so terms reach Poly in arbitrary mask order
    items = draw(st.lists(st.tuples(_sparse_mask(nvars), _COEFF), max_size=24))
    npoints = draw(st.sampled_from([1, 7, 8, 513, 3000]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return Poly(nvars, dict(items)), npoints, seed


@settings(max_examples=60)
@given(_batch_cases())
@example((Poly.zero(0), 1, 0))
@example((Poly.zero(32), 3000, 1))
@example((Poly.const(-5, 0), 7, 2))
@example((Poly.const(2**62 - 1, 3), 8, 3))
@example((Poly.const(2**62, 3), 8, 3))
@example((Poly.const(-(2**62), 3), 8, 3))
@example((Poly.const(-(2**62) - 1, 3), 8, 3))
@example((Poly(6, {0b100000: -1, 0b10010: 2, 0b11: 3, 0: -1}), 513, 5))
@example((Poly(32, {1 << 31: 2**200, 3: -(2**62), 1: 2**62 - 1, 0: -1}), 513, 4))
def test_evaluate_batch_matches_pointwise_property(case):
    p, npoints, seed = case
    rng = random.Random(seed)
    masks = [rng.getrandbits(p.nvars) for _ in range(npoints)]
    _assert_sampled(p, masks, point_set(masks, p.nvars))


def _grouped_poly(coeffs):
    """One term of degree at most two in 12 variables for each coefficient."""
    masks = sorted({0} | {(1 << i) | (1 << j) for i in range(12) for j in range(12)})
    return Poly(12, dict(zip(masks, coeffs)))


GROUP_CASES = {
    # r rows in the +4 group and r rows in the -1 group
    **{f"{r}-rows": _grouped_poly([4] * r + [-1] * r)
       for r in (0, 1, GROUP_ROWS - 1, GROUP_ROWS, GROUP_ROWS + 1, 2 * GROUP_ROWS + 1)},
    # coefficients of several set bits add their count once per bit, beside
    # power-of-two coefficients of those bits
    "multi-bit": _grouped_poly([3, -5, 2**40 + 3, 1, -4, 2, 4, -1] * 9),
    # cube bounds past INT64_SAFE_BOUND are refused
    "past-63-planes": _grouped_poly([2**62] * 17 + [-(2**62)] * 3),
    "constant": Poly.const(-(2**80) - 7, 12),
    "zero": Poly.zero(12),
}


@pytest.mark.parametrize("p", GROUP_CASES.values(), ids=GROUP_CASES.keys())
def test_evaluate_batch_carry_save_groups_match_pointwise(p):
    rng = random.Random(len(p.terms))
    masks = [rng.getrandbits(12) for _ in range(300)]
    for width in (12, 20):
        _assert_sampled(p, masks, point_set(masks, width))


@pytest.mark.parametrize("width", [7, 8, 9, 16, 17, 24, 25, 31, 32])
def test_evaluate_batch_on_each_byte_table_boundary(width):
    # terms on the top variable, on each byte's first and last variable and
    # across byte edges, inserted in descending mask order
    rng = random.Random(width)
    edges = [b for b in range(width) if b % 8 in (0, 7)] + [width - 1]
    masks = {0, (1 << width) - 1} | {1 << b for b in edges}
    masks |= {(1 << b) | (1 << (b + 1)) for b in edges if b + 1 < width}
    masks |= {rng.getrandbits(width) for _ in range(60)}
    coeffs = (1, -1, 2, -4, 3, -5, 2**40 + 1, 2**40 - 1)
    p = Poly(width, {m: coeffs[i % len(coeffs)] for i, m in enumerate(sorted(masks, reverse=True))})
    points = [rng.getrandbits(width) for _ in range(301)]
    assert _assert_sampled(p, points, point_set(points, width)) is not None


def test_one_point_set_serves_polynomials_of_several_widths():
    # the set's byte tables are built on the first call and reused; each
    # result must equal that of a fresh set of the same columns
    rng = random.Random(31)
    masks = [rng.getrandbits(32) for _ in range(200)]
    shared = point_set(masks, 32)
    polys = [Poly(w, {rng.getrandbits(w): rng.randint(-9, 9) or 1 for _ in range(50)})
             for w in (12, 0, 32, 25, 8, 32)]
    for p in polys:
        values = _assert_sampled(p, [m & ((1 << p.nvars) - 1) for m in masks], shared)
        fresh = evaluate_batch(p, counting.PointSet(len(shared), list(shared.columns)))
        assert values.tolist() == fresh.tolist() and values.dtype == fresh.dtype


def test_evaluate_batch_counts_groups_longer_than_a_chunk():
    # 2 * GROUP_CHUNK + 3 terms of -1, and more than a chunk of each of the
    # multi-bit coefficients 7 and 2**40 + 5
    chunk = counting.GROUP_CHUNK
    masks = random.Random(5).sample(range(1 << 14), 4 * chunk + 30)
    coeffs = [-1] * (2 * chunk + 3) + [7] * (chunk + 9) + [2**40 + 5] * (chunk + 18)
    for p in (Poly(14, dict(zip(masks, coeffs))), Poly(14, dict(zip(masks, coeffs[:-chunk - 18])))):
        rng = random.Random(6)
        points = [rng.getrandbits(14) for _ in range(150)]
        assert _assert_sampled(p, points, point_set(points, 16)) is not None


@pytest.mark.parametrize("n_trials", [1, 7, 1100, 3000])
@pytest.mark.parametrize("nvars", [0, 1, 31, 32, 64])
def test_sample_points_draw_one_column_per_variable_in_order(nvars, n_trials):
    rng = random.Random(9)
    points = sample_points(nvars, n_trials, random.Random(9))
    assert len(points) == n_trials
    assert points.columns == [rng.getrandbits(n_trials) for _ in range(nvars)]


def test_sample_points_need_a_trial():
    with pytest.raises(ValueError):
        sample_points(4, 0, random.Random(9))


def test_sample_points_fill_the_cube_uniformly():
    # 2**16 points in 4 variables: each of the 16 cells expects 4096, sigma ~ 62
    points = sample_points(4, 1 << 16, random.Random(0))
    cells = [0] * 16
    for j in range(len(points)):
        cells[sum(((column >> j) & 1) << i for i, column in enumerate(points.columns))] += 1
    assert sum(cells) == 1 << 16
    assert max(abs(count - 4096) for count in cells) <= 310


def test_evaluate_batch_takes_only_a_point_set_or_a_range():
    p = 3 * v(1, 8) - v(2, 8)
    masks = np.arange(16, dtype=np.uint64)
    for points in (masks, masks.tolist()):
        with pytest.raises(TypeError):
            evaluate_batch(p, points)


def test_evaluate_batch_rejects_a_narrower_point_set():
    points = point_set([0] * 10, 11)
    for p in (v(12, 12), Poly.zero(12)):
        with pytest.raises(DimensionError):
            evaluate_batch(p, points)


def test_evaluate_batch_peak_memory_stays_small():
    # the byte tables, GROUP_CHUNK covered sets at a time and one mask list
    # per coefficient; building every covered set at once peaks near 7 MiB
    # on the one-coefficient case
    for coeff in (
        lambda rng, j: rng.choice((-3, -2, -1, 1, 2, 3)),
        lambda rng, j: rng.choice((-1, 1)) * (j + 1),  # no coefficient repeats
        lambda rng, j: rng.choice((-1, 1)) << rng.randrange(40),
        lambda rng, j: 1,  # one group of 16,000 terms
    ):
        rng = random.Random(21)
        terms = {}
        for j in itertools.count():
            if len(terms) == 16000:
                break
            mask = sum({1 << rng.randrange(32) for _ in range(rng.randint(1, 8))})
            terms[mask] = coeff(rng, j)
        p = Poly(32, terms)
        tracemalloc.start()
        try:
            evaluate_batch(p, sample_points(32, 3000, random.Random(22)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


SUBCUBE_POLYS = [
    3 * v(1, 8) * v(2, 8) - v(3, 8) * v(8, 8) + 1 - 2 * v(5, 8) * v(6, 8) * v(7, 8),
    Poly.const(-7, 0),
    # the cube bound passes 2**62, so every block is refused
    Poly(8, {0b11: INT64_SAFE_BOUND - 1, 0b10000100: -(INT64_SAFE_BOUND - 3), 0: 5}),
    # cube bounds 2**b - 1 and 2**b for b = 31, 7, 15, each reached at the
    # all-ones point: the passes may run in int32, int8 or int16 for the
    # first of a pair only
    Poly(8, {0b1: 2**30, 0b110: 2**29, 0b10000000: 2**28, 0b1010000: 2**28 - 1}),
    Poly(8, {0b1: 2**30, 0b110: 2**29, 0b10000000: 2**28, 0b1010000: 2**28}),
    Poly(8, {0b1: 2**6, 0b110: 2**5, 0b10000000: 2**4, 0b1010000: 2**4 - 1}),
    Poly(8, {0b1: 2**6, 0b110: 2**5, 0b10000000: 2**4, 0b1010000: 2**4}),
    Poly(8, {0b1: 2**14, 0b110: 2**13, 0b10000000: 2**12, 0b1010000: 2**12 - 1}),
    Poly(8, {0b1: 2**14, 0b110: 2**13, 0b10000000: 2**12, 0b1010000: 2**12}),
]


@pytest.mark.parametrize("bound, dtype", [
    (0, np.int8), (2**7 - 1, np.int8), (2**7, np.int16), (2**15 - 1, np.int16),
    (2**15, np.int32), (2**31 - 1, np.int32), (2**31, np.int64),
    (INT64_SAFE_BOUND - 1, np.int64), (INT64_SAFE_BOUND, object), (1 << 70, object),
])
def test_exact_dtype_is_the_narrowest_type_holding_the_bound(bound, dtype):
    # object marks a bound past every integer type: it is refused
    if dtype is object:
        with pytest.raises(CapacityError, match="below 2\\*\\*62"):
            exact_dtype(bound)
        return
    assert exact_dtype(bound) is dtype
    assert np.iinfo(dtype).min < -bound and bound <= np.iinfo(dtype).max


@pytest.mark.parametrize("p", SUBCUBE_POLYS)
def test_evaluate_batch_on_aligned_subcubes_matches_pointwise(p):
    total = 2 ** p.nvars
    # k = 0 and k = 1 have h = k // 2 = 0: no transposed passes
    for k in range(p.nvars + 1):
        for start in range(0, total, 2 ** k):
            block = range(start, start + 2 ** k)
            if value_bound(p) >= INT64_SAFE_BOUND:
                with pytest.raises(CapacityError, match="below 2\\*\\*62"):
                    evaluate_batch(p, block)
                continue
            values = evaluate_batch(p, block)
            assert values.dtype == exact_dtype(value_bound(p))
            assert values.tolist() == [p.evaluate(x) for x in block]


def test_evaluate_batch_on_a_full_block_matches_numpy():
    # the third CUBE_BLOCK of a cube of four, so the high bits of each term
    # select the terms the block keeps
    rng = random.Random(31)
    nv = CUBE_BLOCK.bit_length() + 1
    terms = {}
    while len(terms) < 400:
        mask = sum({1 << rng.randrange(nv) for _ in range(rng.randint(0, 5))})
        terms[mask] = rng.randint(-9, 9) or 1
    p = Poly(nv, terms)
    start = 2 * CUBE_BLOCK
    block = range(start, start + CUBE_BLOCK)
    points = np.arange(start, start + CUBE_BLOCK, dtype=np.int64)
    expected = np.zeros(CUBE_BLOCK, dtype=np.int64)
    for mask, c in terms.items():
        expected += c * ((points & mask) == mask)
    values = evaluate_batch(p, block)
    assert values.dtype == exact_dtype(value_bound(p))
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("p", SUBCUBE_POLYS)
def test_evaluate_batch_rejects_other_ranges(p):
    total = 2 ** p.nvars
    # unaligned, not a power of two, strided, empty
    for block in (range(1, 3), range(4, 12), range(total // 2 + 1, total),
                  range(0, total, 3), range(0, 0)):
        block = range(min(block.start, total), min(block.stop, total), block.step)
        with pytest.raises(ValueError):
            evaluate_batch(p, block)


def test_value_bound_bounds_values_on_the_cube():
    edge = Poly(4, {0b0001: INT64_SAFE_BOUND - 2, 0b0010: -1})
    assert value_bound(edge) < INT64_SAFE_BOUND
    assert not value_bound(edge + v(3, 4)) < INT64_SAFE_BOUND
    assert value_bound(Poly(2, {0b11: 5, 0b01: -3})) == 8


class ValuesCounter(dict):
    """A term map that counts the calls of its values()."""

    calls = 0

    def values(self):
        self.calls += 1
        return super().values()


def test_counting_reads_a_stored_cube_bound_and_does_not_sum_it_again():
    # two equal polynomials whose term maps count their values() calls: the
    # one whose bound was taken first makes no more calls in all than the
    # other, on a cube block and on a point set
    terms = {0b0011: 3, 0b0101: -2, 0b1000: 1}
    for points in (range(0, 16), point_set(list(range(16)), 4)):
        given, fresh = (Poly._unchecked(4, ValuesCounter(terms)) for _ in range(2))
        assert value_bound(given) == 6
        assert np.array_equal(evaluate_batch(given, points), evaluate_batch(fresh, points))
        assert given.terms.calls == fresh.terms.calls


# Coefficient scales that put up to six terms of |c| <= 4 in int8, int16,
# int32 and int64 (a zero polynomial stays int8).
STACK_SCALES = (1, 1 << 8, 1 << 20, 1 << 40)


@given(st.lists(st.tuples(st.integers(0, 8).flatmap(poly_strategy), st.sampled_from(STACK_SCALES))
                .map(lambda pair: pair[1] * pair[0]), min_size=1, max_size=7),
       st.integers(0, 8), st.integers(0, 10))
def test_stacked_values_match_each_polynomial_alone(polys, k, block_bits):
    # polynomials of 0 to 8 variables, below, at and above k, on every
    # aligned 2**k block of the 2**8 cube, with stacks of at most
    # 2**block_bits entries: each array equals the polynomial's own
    # evaluate_batch and its pointwise values, in the type of the largest
    # bound among the height polynomials of its stack
    bounds = [value_bound(p) for p in polys]
    height = max(1, (1 << block_bits) >> k)
    pointwise = [[p.widen(8).evaluate(x) for x in range(1 << 8)] for p in polys]
    sizes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "CUBE_BLOCK", 1 << block_bits)
        passes = counting._zeta_passes

        def recorded_passes(values, lo, hi):
            sizes.append(values.size)
            passes(values, lo, hi)

        mp.setattr(counting, "_zeta_passes", recorded_passes)
        for start in range(0, 1 << 8, 1 << k):
            block = range(start, start + (1 << k))
            stacked = counting.evaluate_stack(polys, block)
            assert len(stacked) == len(polys)
            for i, (p, values, expected) in enumerate(zip(polys, stacked, pointwise)):
                assert values.dtype == exact_dtype(max(bounds[i - i % height:][:height]))
                assert np.array_equal(values, evaluate_batch(p, block))
                assert values.tolist() == expected[block.start:block.stop]
    assert max(sizes) <= max(1 << block_bits, 1 << k)


def test_a_stack_holding_a_wide_component_is_refused_in_bounded_memory():
    # three int64 polynomials and one whose cube bound passes 2**62 on a
    # CUBE_BLOCK-point block: any transform would hold 2 MiB, its transposed
    # copy 2 MiB more, so the stack is refused before one is allocated,
    # wherever the wide one stands
    nv = CUBE_BLOCK.bit_length() - 1
    rng = random.Random(26)
    narrow = [Poly(nv, {rng.getrandbits(nv): rng.choice((1, -1)) << 40 for _ in range(50)})
              for _ in range(3)]
    wide = wide_hostile_poly(nv) + Poly.const(10 ** 3999, nv)
    assert all(exact_dtype(value_bound(p)) is np.int64 for p in narrow)
    for position in range(len(narrow) + 1):
        polys = narrow[:position] + [wide] + narrow[position:]
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="below 2\\*\\*62"):
                counting.evaluate_stack(polys, range(0, CUBE_BLOCK))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
