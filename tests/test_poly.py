import gc
import random
from math import prod

import pytest
from hypothesis import example, given, strategies as st

from cubesign import poly
from cubesign.automorphisms import sample_indicator
from cubesign.errors import DimensionError, FormatError
from cubesign.params import SchemeParams
from cubesign.poly import (
    CHUNK_PAIRS,
    NVARS_MAX,
    VECTOR_PAIRS,
    Poly,
    _mul_terms,
    indices_of,
    mask_of,
    poly_from_block,
    poly_from_text,
    poly_to_text,
    split_blocks,
    value_bound,
)

from conftest import poly_strategy


def v(i, n=4):
    return Poly.variable(i, n)


def test_mask_round_trip():
    assert mask_of([1, 3, 4]) == 0b1101
    assert indices_of(0b1101) == (1, 3, 4)
    assert mask_of([]) == 0
    assert indices_of(0) == ()


def test_constructor_drops_zero_coefficients():
    p = Poly(3, {0b001: 1, 0b010: 0})
    assert p.terms == {0b001: 1}


def test_constructor_rejects_out_of_range_mask():
    with pytest.raises(ValueError):
        Poly(2, {0b100: 1})


def test_constructor_rejects_bad_nvars():
    with pytest.raises(ValueError):
        Poly(33, {})
    with pytest.raises(ValueError):
        Poly(-1, {})
    with pytest.raises(ValueError):
        mask_of([33])


@given(st.integers(0, NVARS_MAX).flatmap(poly_strategy))
@example(Poly(3, {0b011: 1, 0b100: -2}))
def test_repr_is_the_constructor_form(p):
    assert eval(repr(p), {"Poly": Poly}) == p


def test_add_inverse_is_zero():
    assert v(1) + (-1) * v(1) == Poly.zero(4)
    assert not (v(1) - v(1))


def test_add_disjoint_terms():
    assert (v(1) + v(2)).terms == {0b01: 1, 0b10: 1}


def test_add_cancels_constants():
    left = v(1, 2) * v(2, 2) + Poly.const(1, 2)
    right = v(1, 2) * v(2, 2) - Poly.const(1, 2)
    assert (left + right).terms == {0b11: 2}


def test_mul_variable_is_idempotent():
    assert v(1) * v(1) == v(1)


def test_mul_complement_annihilates():
    one = Poly.const(1, 4)
    assert (one - v(1)) * v(1) == Poly.zero(4)


def test_mul_difference_of_squares_collapses():
    # (x1 + x2)(x1 - x2) = x1^2 - x2^2 = x1 - x2 after reduction
    assert (v(1) + v(2)) * (v(1) - v(2)) == v(1) - v(2)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        v(1, 2) + v(1, 3)
    with pytest.raises(DimensionError):
        v(1, 2) * v(1, 3)


def test_int_operands_coerce():
    p = v(1) * 2 + 1
    assert p.terms == {0: 1, 0b1: 2}
    assert (1 - v(1)).terms == {0: 1, 0b1: -1}


def test_evaluate_direct_cases():
    p = v(1, 3) * v(2, 3) - v(3, 3)
    assert p.evaluate(0b011) == 1
    assert p.evaluate(0b100) == -1
    assert Poly.zero(3).evaluate(0b101) == 0
    q = 2 * v(1, 2) * v(2, 2) - 1
    assert q.evaluate(0b01) == -1


def test_evaluate_takes_a_mask_not_a_sequence():
    p = v(1, 3) * v(2, 3) - v(3, 3)
    assert p.evaluate(0b011) == 1
    for point in ((1, 0), (1, 1, 0), [1, 1, 0], True, 3.0):
        with pytest.raises(TypeError):
            p.evaluate(point)


def test_evaluate_width_mismatch():
    with pytest.raises(DimensionError):
        v(1, 2).evaluate(-1)
    with pytest.raises(DimensionError):
        v(1, 2).evaluate(0b100)


def test_substitute_identity_images():
    p = v(1) * v(2)
    images = [v(i) for i in range(1, 5)]
    assert p.substitute(images) == p


def test_substitute_single_variable_replacement():
    image = v(2, 2) + v(1, 2) - 2 * v(1, 2) * v(2, 2)
    assert v(2, 2).substitute([v(1, 2), image]) == image


def test_substitute_product_reduces():
    # x1*x2 under x2 -> x1 XOR x2 collapses to x1 - x1*x2
    image = v(2, 2) + v(1, 2) - 2 * v(1, 2) * v(2, 2)
    got = (v(1, 2) * v(2, 2)).substitute([v(1, 2), image])
    assert got == v(1, 2) - v(1, 2) * v(2, 2)


@given(st.integers(1, 8), st.integers(2, 8), st.integers(0, 2**32 - 1), st.data())
def test_substitute_matches_pointwise_composition(n, k, seed, data):
    # x1 and 1 - x1 among the images make some image products cancel to zero
    rng = random.Random(seed)
    x1 = Poly.variable(1, n)
    images = [x1, 1 - x1]
    images += [sample_indicator((), SchemeParams(n=8, r=2), n, rng) for _ in range(k - 2)]
    rng.shuffle(images)
    p = data.draw(poly_strategy(k, max_terms=8))
    got = p.substitute(images)
    assert all(got.terms.values())
    for x in range(1 << n):
        values = [img.evaluate(x) for img in images]
        assert set(values) <= {0, 1}
        assert got.evaluate(x) == p.evaluate(sum(b << i for i, b in enumerate(values)))


def test_substitute_frees_its_product_cache_on_return():
    # a cache held in a reference cycle stays alive until the next collection
    p = v(1) * v(2) + v(3) * v(4) - v(1) * v(2) * v(3)
    images = [v(2) + v(3), 1 - v(1), v(1) * v(4), v(2)]
    gc.collect()
    gc.disable()
    try:
        p.substitute(images)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_substitute_length_mismatch():
    with pytest.raises(DimensionError):
        v(1, 2).substitute([v(1, 2)])


def test_widen_preserves_terms_and_rejects_narrowing():
    p = v(1, 2) * v(2, 2)
    assert p.widen(5).terms == p.terms
    assert p.widen(5).nvars == 5
    with pytest.raises(DimensionError):
        p.widen(1)


def loop_product(a, b):
    """The product of two term maps summed pair by pair, zero sums dropped."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out[m1 | m2] = out.get(m1 | m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def expand_substitution(p, images):
    """p with images in place of its variables, one product of Polys per term."""
    nv = images[0].nvars
    out = Poly.zero(nv)
    for mask, c in p.terms.items():
        out = out + c * prod((images[i - 1] for i in indices_of(mask)), start=Poly.const(1, nv))
    return out


def random_terms(rng, size, nvars, coeffs=(1, -1, 2, -2)):
    return {rng.getrandbits(nvars): rng.choice(coeffs) for _ in range(size)}


def check_product(a, b):
    got = _mul_terms(a, b)
    assert got == loop_product(a, b)
    assert all(type(c) is int and c for c in got.values())
    return got


def test_vector_product_cancels_to_zero_terms():
    rng = random.Random(3)
    for _ in range(5):
        # few variables, so many pairs share a mask and some sums cancel
        a, b = random_terms(rng, 40, 7), random_terms(rng, 40, 7)
        assert len(a) * len(b) >= VECTOR_PAIRS
        got = check_product(a, b)
        assert len(got) < len({m1 | m2 for m1 in a for m2 in b})


def test_vector_product_keeps_bit_63():
    rng = random.Random(4)
    a = random_terms(rng, 40, NVARS_MAX)
    b = random_terms(rng, 40, NVARS_MAX) | {1 << 63: 3, (1 << 64) - 1: -1}
    got = check_product(a, b)
    assert any(m >> 63 for m in got)
    assert max(got) == (1 << 64) - 1


def test_vector_product_over_several_chunks():
    rng = random.Random(5)
    a, b = random_terms(rng, 400, 12), random_terms(rng, 800, 12)
    assert len(a) * len(b) > 3 * CHUNK_PAIRS
    check_product(a, b)


def spy_int64_product(monkeypatch):
    """Record the calls of the int64 product while it keeps working."""
    calls = []
    real = poly._mul_terms_int64

    def spy(a, b):
        calls.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(poly, "_mul_terms_int64", spy)
    return calls


@pytest.mark.parametrize("sign", [1, -1])
def test_vector_product_sums_up_to_just_below_2_62(monkeypatch, sign):
    # every pair lands on one mask, whose sum is sum|a| * sum|b| = 2**62 - 2**31
    calls = spy_int64_product(monkeypatch)
    a = {m: 1 << 21 for m in range(1 << 10)}
    b = {(1 << 10) - 1: sign * ((1 << 31) - 1)}
    assert len(a) * len(b) >= VECTOR_PAIRS
    assert check_product(a, b) == {(1 << 10) - 1: sign * ((1 << 62) - (1 << 31))}
    assert calls == [(1, 1 << 10)]


@pytest.mark.parametrize("scale", [1 << 21, 1 << 70], ids=["bound-2**62", "coefficient-2**70"])
def test_large_coefficients_take_the_dict_loop(monkeypatch, scale):
    calls = spy_int64_product(monkeypatch)
    a = {m: scale for m in range(1 << 10)}
    b = {(1 << 10) - 1: 1 << 31}
    assert len(a) * len(b) >= VECTOR_PAIRS
    assert sum(a.values()) * sum(b.values()) >= 1 << 62
    assert check_product(a, b) == {(1 << 10) - 1: scale << 41}
    assert calls == []


def test_substitute_through_vector_products_matches_the_dict_loop(monkeypatch):
    calls = spy_int64_product(monkeypatch)
    rng = random.Random(7)
    n = 12
    images = [Poly(n, random_terms(rng, 40, n)) for _ in range(n)]
    p = Poly(n, {rng.getrandbits(n) & rng.getrandbits(n): rng.choice((1, -1)) for _ in range(30)})
    got = p.substitute(images)
    assert calls and all(got.terms.values())
    monkeypatch.setattr(poly, "VECTOR_PAIRS", 1 << 62)
    assert got == p.substitute(images)


def test_substitute_monomial_images_match_the_term_expansion():
    rng = random.Random(8)
    n = 9
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    images = [Poly.variable(i, n) for i in perm]
    p = Poly(n, random_terms(rng, 60, n))
    got = p.substitute(images)
    assert got == expand_substitution(p, images)
    assert len(got) == len(p)
    # wider images of coefficient 1, a constant 1 among them
    images = [Poly(n + 3, {rng.getrandbits(n + 3): 1}) for _ in range(n - 1)] + [Poly.const(1, n + 3)]
    got = p.substitute(images)
    assert got == expand_substitution(p, images)
    assert all(got.terms.values())


def test_substitute_non_injective_monomial_images_cancel():
    # x1 -> x2, x2 -> x2: x1 - x2 vanishes and x1*x2 lands on x2
    x1, x2 = v(1, 2), v(2, 2)
    p = x1 - x2 + 3 * x1 * x2 + 5
    images = [x2, x2]
    got = p.substitute(images)
    assert got.terms == {0: 5, 0b10: 3}
    assert got == expand_substitution(p, images)
    assert not (x1 - x2).substitute(images).terms


WIDE_COEFFS = poly_strategy(4, max_coeff=1 << 70)


@given(WIDE_COEFFS, WIDE_COEFFS, st.permutations(range(1, 5)),
       st.lists(poly_strategy(4, max_terms=3), min_size=4, max_size=4))
def test_value_bound_is_the_coefficient_sum_stored_once(p, q, order, images):
    # each constructor leaves a bound equal to sum |c|, and a second call
    # returns the stored int; images[0] doubled never has coefficient 1, so
    # the second substitute takes the memo path, the first the relabel path
    images[0] = 2 * images[0]
    built = [
        Poly(4, p.terms), p + q, p - q, p * q,
        p.substitute([v(i) for i in order]), p.substitute(images),
        p.widen(6), poly_from_block(split_blocks(poly_to_text(p))[0]),
    ]
    for r in built:
        bound = value_bound(r)
        assert bound == sum(map(abs, r.terms.values()))
        assert value_bound(r) is bound


def test_degree_and_support():
    p = v(1) * v(3) + v(2)
    assert p.degree() == 2
    assert indices_of(p.support()) == (1, 2, 3)
    assert Poly.zero(4).degree() == 0


@given(poly_strategy(5), poly_strategy(5), st.integers(0, 31))
def test_evaluate_is_ring_homomorphism(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@given(poly_strategy(5), poly_strategy(5))
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(poly_strategy(4, max_terms=4), poly_strategy(4, max_terms=4), poly_strategy(4, max_terms=4))
def test_mul_associates_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@st.composite
def wide_polys(draw):
    """Polynomials in 0..NVARS_MAX variables whose masks reach every byte, the top bit included."""
    nvars = draw(st.integers(0, NVARS_MAX))
    top = 1 << (nvars - 1) if nvars else 0
    mask = st.builds(int.__or__, st.integers(0, (1 << nvars) - 1), st.sampled_from((0, top)))
    coeff = st.integers(-4, 4) | st.sampled_from((1, -1, 2**200, -(2**200)))
    return Poly(nvars, draw(st.dictionaries(mask, coeff, max_size=8)))


@given(wide_polys())
@example(Poly.zero(0))
@example(Poly.zero(NVARS_MAX))
@example(Poly.const(-(2**200), 0))
@example(Poly(NVARS_MAX, {0: 2**200, 1 << 31: -1, (1 << 32) - 1: -(2**200), 0x8001_0001: 2}))
# both sides of the edge of the parser's table of small coefficients
@example(Poly(3, {0: 64, 1: -64, 2: 65, 3: -65, 4: 2**200}))
# the top variable and a term across the first and last byte
@example(Poly(32, {1 << 31: 1, (1 << 24) | 1: -3, 0: 5}))
# a mask whose middle bytes are zero
@example(Poly(31, {(1 << 30) | 1: 7}))
def test_text_round_trip(p):
    text = poly_to_text(p)
    assert poly_from_text(text) == p
    lines = text.split("\n")
    assert lines[0] == f"nvars={p.nvars}"
    assert lines[1:] == [
        f"{p.terms[m]}:{','.join(map(str, indices_of(m)))}" for m in sorted(p.terms)
    ]


def test_text_format_shape():
    # ascending monomial mask order: constant, then x2 (mask 2), then x1x3 (mask 5)
    p = 2 * v(1, 3) * v(3, 3) - v(2, 3) + 7
    assert poly_to_text(p) == "nvars=3\n7:\n-1:2\n2:1,3"


def test_parse_rejects_malformed_blocks():
    for text in (
        "3:1,2",                      # missing header
        "nvars=3\n0:1",               # zero coefficient
        "nvars=3\n1:2,1",             # indices out of order
        "nvars=3\n1:2\n1:1",          # masks out of order
        "nvars=3\n1:1\n2:1",          # duplicate monomial
        "nvars=3\n1:4",               # index beyond nvars
        "nvars=up\n1:1",              # bad header value
        "nvars=3\nx:1",               # bad coefficient
        "nvars=3\n1:0",               # index 0
        "nvars=3\n1:-1",              # negative index
        "nvars=32\n1:33",             # index beyond NVARS_MAX
        "nvars=32\n1:64",             # index 64, far beyond NVARS_MAX
        "nvars=3\n1:1,1",             # repeated index
        "nvars=3\n1:1,",              # trailing comma
        "nvars=3\n1:1\n\n1:2",        # blank line inside a block
        "nvars=3\n1:1\n\nnvars=3\n1:2",  # two blocks
        "",                           # empty text
        "nvars=3\n+1:1",              # coefficient with a plus sign
        "nvars=3\n01:1",              # coefficient with a leading zero
        "nvars=3\n-01:1",             # negative coefficient with a leading zero
        "nvars=3\n-0:1",              # negative zero
        "nvars=12\n1_0:1",            # underscore in a coefficient
        "nvars=3\n１:1",               # full-width coefficient digit
        "nvars=3\n+64:1",             # plus sign on a coefficient in the small table
        "nvars=3\n064:1",             # leading zero on a coefficient in the small table
        "nvars=3\n-064:1",            # the same, negative
        "nvars=3\n٦٤:1",              # Arabic-Indic digits, which int() reads as 64
        "nvars=3\n1 :1",              # space after the coefficient
        "nvars=3\n1:01",              # index with a leading zero
        "nvars=3\n1:+1",              # index with a plus sign
        "nvars=12\n1:1_0",            # underscore in an index
        "nvars=3\n1:1, 2",            # space after a comma
        "nvars=3\n1:１",               # full-width index digit
        "nvars=03\n1:1",              # header with a leading zero
        "nvars=+3\n1:1",              # header with a plus sign
        "nvars= 3\n1:1",              # space in the header
        "nvars=1_0\n1:1",             # underscore in the header
        "nvars=３\n1:1",               # full-width header digit
        "nvars=-0",                   # negative zero header
        "nvars=33",                   # more than NVARS_MAX variables, no terms
        "nvars=33\n1:1",              # more than NVARS_MAX variables
        "nvars=64\n1:64",             # 64 variables, with a term on the 64th
        "nvars=3\n1:1\n-2:2,4",       # the last term's index beyond nvars
        "nvars=0\n1:1",               # no variables, yet a term with one
    ):
        with pytest.raises(FormatError):
            poly_from_text(text)


def test_split_blocks():
    blocks = split_blocks("a\n b \n\n\nc\n \t\nd\ne\n")
    assert blocks == [["a", "b"], ["c"], ["d", "e"]]
