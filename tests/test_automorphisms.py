import random

import pytest
from hypothesis import given, settings, strategies as st

from cubesign.automorphisms import (
    Automorphism,
    automorphism_from_blocks,
    automorphism_to_text,
    compose,
    elementary,
    extend_for_signing,
    is_indicator,
    permutation,
    random_permutation,
    sample_automorphism,
    sample_indicator,
    sample_sparse,
    triangular,
)
from cubesign.counting import exact_value_counts
from cubesign.errors import (
    DimensionError,
    FormatError,
    GeneratorError,
    PermutationError,
    SamplingError,
)
from cubesign.params import SchemeParams
from cubesign.poly import Poly, indices_of, mask_of, split_blocks

from conftest import poly_strategy


def v(i, n):
    return Poly.variable(i, n)


class ConstantCoin(random.Random):
    """random() always returns the same value; integer methods stay genuine."""

    def __init__(self, value):
        super().__init__(0)
        self._value = value

    def random(self):
        return self._value


# ---------------------------------------------------------------- indicators

def test_is_indicator_basics():
    assert is_indicator(v(1, 2))
    assert is_indicator(1 - v(1, 2))
    assert is_indicator(Poly.zero(2))
    assert is_indicator(Poly.const(1, 2))
    assert not is_indicator(v(1, 2) + v(2, 2))
    assert not is_indicator(Poly.const(2, 2))


def test_sample_indicator_golden():
    h = sample_indicator({1, 2}, SchemeParams(n=8), 8, random.Random(3))
    assert h.terms == {64: 1, 80: -1}  # x7 * (1 - x5)


def test_sample_indicator_is_idempotent():
    params = SchemeParams(n=12)
    for seed in range(200):
        h = sample_indicator({3, 4}, params, 12, random.Random(seed))
        assert h * h == h
        assert not h.support() & mask_of([3, 4])


def test_sample_indicator_never_zero():
    params = SchemeParams(n=6)
    for seed in range(200):
        h = sample_indicator(set(), params, 6, random.Random(seed))
        assert h


def test_sample_indicator_requires_a_free_variable():
    with pytest.raises(SamplingError):
        sample_indicator({1, 2, 3, 4}, SchemeParams(n=4), 4, random.Random(0))


def test_sample_indicator_respects_small_pools():
    # a single available variable still yields a legal indicator
    h = sample_indicator({1, 2, 3}, SchemeParams(n=4), 4, random.Random(1))
    assert is_indicator(h)
    assert indices_of(h.support()) in ((), (4,))


# --------------------------------------------------------------- sparse keys

def test_sample_sparse_golden():
    p = sample_sparse(SchemeParams(n=8), 8, random.Random(7))
    assert p.terms == {12: 1, 2: -1, 19: 1}


def test_sample_sparse_shape():
    params = SchemeParams(n=10)
    for seed in range(50):
        p = sample_sparse(params, 10, random.Random(seed))
        assert len(p) == params.t
        assert all(1 <= bin(m).count("1") <= params.b for m in p.terms)
        assert all(c in (-1, 1) for c in p.terms.values())


def test_sample_sparse_single_term():
    p = sample_sparse(SchemeParams(n=4, t=1, b=1), 4, random.Random(2))
    assert len(p) == 1
    assert p.degree() == 1


def test_sample_sparse_needs_enough_variables():
    with pytest.raises(DimensionError):
        sample_sparse(SchemeParams(n=8), 2, random.Random(0))


# ------------------------------------------------------------- constructions

def test_elementary_zero_indicator_is_identity():
    a = elementary(2, Poly.zero(2))
    assert a == Automorphism.identity(2)


def test_elementary_image_formula():
    a = elementary(2, v(1, 2))
    assert a.images[1] == v(2, 2) + v(1, 2) - 2 * v(1, 2) * v(2, 2)
    assert a.images[0] == v(1, 2)
    assert a.apply(v(2, 2)) == a.images[1]


def test_elementary_cube_action():
    # x2 picks up XOR with x1: flips the second coordinate exactly when x1 = 1
    a = elementary(2, v(1, 2))
    action = {t: a.cube_map(t) for t in range(4)}
    assert action == {0b00: 0b00, 0b01: 0b11, 0b10: 0b10, 0b11: 0b01}


def test_elementary_is_cube_involution():
    h = v(1, 3) * (1 - v(2, 3))
    a = elementary(3, h)
    for t in range(8):
        assert a.cube_map(a.cube_map(t)) == t


def test_elementary_rejects_bad_generators():
    with pytest.raises(GeneratorError):
        elementary(1, v(1, 2))  # h depends on the moved variable
    with pytest.raises(GeneratorError):
        elementary(2, v(1, 2) + v(1, 2))  # 2*x1 is not an indicator
    with pytest.raises(ValueError):
        elementary(5, v(1, 2))


def test_permutation_basics():
    ident = permutation((1, 2, 3))
    assert ident == Automorphism.identity(3)
    swap = permutation((2, 1, 3))
    assert swap.apply(v(1, 3)) == v(2, 3)
    assert compose(swap, swap) == Automorphism.identity(3)


def test_permutation_rejects_non_bijections():
    with pytest.raises(PermutationError):
        permutation((1, 1, 3))
    with pytest.raises(PermutationError):
        permutation((0, 1, 2))


def test_random_permutation_is_permutation():
    for seed in range(20):
        a = random_permutation(6, random.Random(seed))
        images = sorted(next(iter(im.terms)) for im in a.images)
        assert images == [1 << i for i in range(6)]


def test_compose_identity_laws():
    phi = sample_automorphism(SchemeParams(n=6), random.Random(4))
    ident = Automorphism.identity(6)
    assert compose(ident, phi) == phi
    assert compose(phi, ident) == phi


def test_compose_applies_inner_first():
    # inner sends x1 to x2, outer flips x2; composition routes x1 through both
    inner = permutation((2, 1))
    outer = elementary(2, v(1, 2))
    both = compose(outer, inner)
    assert both.apply(v(1, 2)) == outer.apply(inner.apply(v(1, 2)))


@given(poly_strategy(4, max_terms=4), st.integers(0, 10_000))
@settings(max_examples=40)
def test_compose_matches_sequential_application(p, seed):
    rng = random.Random(seed)
    params = SchemeParams(n=4, b=3)
    f = sample_automorphism(params, rng)
    g = sample_automorphism(params, rng)
    assert compose(g, f).apply(p) == g.apply(f.apply(p))


# ----------------------------------------------------------------- triangular

def test_triangular_all_fix_coins_give_identity():
    params = SchemeParams(n=6)
    assert triangular("up", params, ConstantCoin(0.0)) == Automorphism.identity(6)
    assert triangular("down", params, ConstantCoin(0.0)) == Automorphism.identity(6)


def test_triangular_support_constraints():
    params = SchemeParams(n=9)
    for seed in range(30):
        up = triangular("up", params, random.Random(seed))
        down = triangular("down", params, random.Random(1000 + seed))
        for k in range(1, 10):
            assert not up.images[k - 1].support() & (mask_of(range(1, k + 1)) ^ mask_of([k]))
            assert not down.images[k - 1].support() & (mask_of(range(k, 10)) ^ mask_of([k]))


def test_triangular_extremes_are_always_fixed():
    # the top upper position and bottom lower position have no allowed variables
    params = SchemeParams(n=5)
    for seed in range(30):
        up = triangular("up", params, random.Random(seed))
        down = triangular("down", params, random.Random(seed))
        assert up.images[-1] == v(5, 5)
        assert down.images[0] == v(1, 5)


def test_triangular_golden():
    tri = triangular("up", SchemeParams(n=5), random.Random(11))
    assert [im.terms for im in tri.images] == [
        {1: 1},
        {0: 1, 2: -1, 12: -1, 14: 2, 16: -1, 18: 2, 28: 1, 30: -2},
        {0: 1, 4: -1, 8: -1, 12: 2, 16: -1, 20: 2, 24: 1, 28: -2},
        {8: 1, 16: 1, 24: -2},
        {16: 1},
    ]


def test_triangular_rejects_unknown_direction():
    with pytest.raises(ValueError):
        triangular("sideways", SchemeParams(n=5), random.Random(0))


# ------------------------------------------------------------------ sampling

def test_sampled_automorphisms_act_bijectively_on_the_cube():
    params = SchemeParams(n=8)
    for seed in range(30):
        phi = sample_automorphism(params, random.Random(seed))
        image = {phi.cube_map(t) for t in range(256)}
        assert image == set(range(256))


def test_sampled_automorphisms_preserve_value_counts():
    params = SchemeParams(n=8)
    for seed in range(30):
        rng = random.Random(seed)
        phi = sample_automorphism(params, rng)
        p = sample_sparse(params, 8, rng)
        assert exact_value_counts(p) == exact_value_counts(phi.apply(p))


@given(poly_strategy(6, max_terms=5), st.integers(0, 10_000), st.integers(0, 63))
@settings(max_examples=60)
def test_apply_factors_through_the_cube_action(p, seed, point):
    phi = sample_automorphism(SchemeParams(n=6), random.Random(seed))
    assert phi.apply(p).evaluate(point) == p.evaluate(phi.cube_map(point))


def test_single_coordinate_flips_are_reachable():
    # for every coordinate and every setting of the others, one elementary
    # map flips exactly that vertex pair
    n = 3
    for k in (1, 2, 3):
        others = [j for j in range(1, n + 1) if j != k]
        for bits in range(4):
            h = Poly.const(1, n)
            for pos, j in enumerate(others):
                xj = v(j, n)
                h = h * (xj if (bits >> pos) & 1 else 1 - xj)
            a = elementary(k, h)
            for t in range(8):
                expected = t ^ (h.evaluate(t) << (k - 1))
                assert a.cube_map(t) == expected


# ------------------------------------------------------------------ extension

def test_extension_with_zero_tweak_fixes_new_variable():
    phi = sample_automorphism(SchemeParams(n=5), random.Random(3))
    ext = extend_for_signing(phi, Poly.zero(5))
    assert ext.nvars == 6
    assert ext.images[5] == v(6, 6)


def test_extension_acts_as_xor_on_new_coordinate():
    phi = sample_automorphism(SchemeParams(n=5), random.Random(8))
    tweak = sample_indicator(set(), SchemeParams(n=5), 5, random.Random(9))
    ext = extend_for_signing(phi, tweak)
    for t in range(64):
        flipped = (ext.cube_map(t) >> 5) & 1
        assert flipped == ((t >> 5) & 1) ^ tweak.evaluate(t & 0b11111)


def test_extension_agrees_with_base_map():
    params = SchemeParams(n=5)
    phi = sample_automorphism(params, random.Random(12))
    tweak = sample_indicator(set(), params, 5, random.Random(13))
    ext = extend_for_signing(phi, tweak)
    p = sample_sparse(params, 5, random.Random(14))
    assert ext.apply(p.widen(6)) == phi.apply(p).widen(6)


def test_extension_rejects_bad_tweaks():
    phi = sample_automorphism(SchemeParams(n=5), random.Random(1))
    with pytest.raises(GeneratorError):
        extend_for_signing(phi, v(6, 6))  # depends on the new variable
    with pytest.raises(GeneratorError):
        extend_for_signing(phi, Poly.const(2, 5))  # not an indicator


# -------------------------------------------------------------- serialization

def test_automorphism_text_round_trip():
    phi = sample_automorphism(SchemeParams(n=7), random.Random(21))
    assert automorphism_from_blocks(split_blocks(automorphism_to_text(phi))) == phi


def test_automorphism_text_rejects_malformed():
    phi = sample_automorphism(SchemeParams(n=4, b=3), random.Random(2))
    text = automorphism_to_text(phi)
    blocks = text.split("\n\n")
    with pytest.raises(FormatError):
        automorphism_from_blocks(split_blocks("\n\n".join(blocks[:-1])))  # image missing
    with pytest.raises(FormatError):
        automorphism_from_blocks(split_blocks("nvars=oops\n\n" + "\n\n".join(blocks[1:])))
