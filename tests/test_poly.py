import pytest
from hypothesis import given, strategies as st

from cubesign.errors import DimensionError, FormatError
from cubesign.poly import (
    Poly,
    indices_of,
    mask_of,
    poly_from_text,
    poly_to_text,
    split_blocks,
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
        Poly(65, {})
    with pytest.raises(ValueError):
        Poly(-1, {})


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
    assert p.evaluate((1, 1, 0)) == 1
    assert p.evaluate((0, 0, 1)) == -1
    assert Poly.zero(3).evaluate((1, 0, 1)) == 0
    q = 2 * v(1, 2) * v(2, 2) - 1
    assert q.evaluate((1, 0)) == -1


def test_evaluate_accepts_mask_and_sequence():
    p = v(1, 3) * v(2, 3) - v(3, 3)
    assert p.evaluate(0b011) == p.evaluate((1, 1, 0)) == 1


def test_evaluate_width_mismatch():
    with pytest.raises(DimensionError):
        v(1, 2).evaluate((1, 0, 1))
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


def test_substitute_length_mismatch():
    with pytest.raises(DimensionError):
        v(1, 2).substitute([v(1, 2)])


def test_widen_preserves_terms_and_rejects_narrowing():
    p = v(1, 2) * v(2, 2)
    assert p.widen(5).terms == p.terms
    assert p.widen(5).nvars == 5
    with pytest.raises(DimensionError):
        p.widen(1)


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


@given(poly_strategy(6))
def test_text_round_trip(p):
    assert poly_from_text(poly_to_text(p)) == p


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
        "nvars=64\n1:65",             # index beyond NVARS_MAX
        "nvars=3\n1:1,1",             # repeated index
        "nvars=3\n1:1,",              # trailing comma
        "nvars=3\n1:1\n\n1:2",        # blank line inside a block
        "nvars=3\n1:1\n\nnvars=3\n1:2",  # two blocks
        "",                           # empty text
    ):
        with pytest.raises(FormatError):
            poly_from_text(text)


def test_split_blocks():
    blocks = split_blocks("a\n b \n\n\nc\n \t\nd\ne\n")
    assert blocks == [["a", "b"], ["c"], ["d", "e"]]
