"""Key generation, signing, and verification.

A private key is a cube-preserving automorphism over n variables.  The
public key pairs three sparse polynomials with their images under that map.
A signature is the image of the message polynomial (which lives in n + 1
variables) under the private map extended by a fresh per-signature tweak on
the extra variable.

Verification never touches the private key: it draws a random 4-variable
combination, plugs in (public polynomials, message polynomial) on one side
and (their published images, signature) on the other, and compares the two
positive-value proportions over the cube.  An honest signature makes the
two combined polynomials images of one another, so their exact proportions
agree and the sampled ones agree up to Monte-Carlo noise.

Proportions are never computed through an explicit product polynomial:
evaluation at a cube point is a ring homomorphism, so each side's value at
a point is the 4-variable combination applied to the four component values
there.  The substitution route exists and is equal (the tests check this at
small n); the pointwise route just avoids materializing huge products.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import hashing
from .automorphisms import (
    Automorphism,
    automorphism_from_blocks,
    automorphism_to_text,
    extend_for_signing,
    sample_automorphism,
    sample_indicator,
    sample_sparse,
)
from .counting import (
    PointSet,
    cube_walk,
    evaluate_batch,
    evaluate_stack,
    exact_dtype,
    sample_points,
)
from .errors import DimensionError, FormatError
from .params import SchemeParams, params_from_line, params_to_line
from .poly import Poly, poly_from_block, poly_from_text, poly_to_text, split_blocks, value_bound

PUBLIC_POLY_COUNT = 3
# One challenge variable per public polynomial, plus the message polynomial or signature.
CHALLENGE_NVARS = PUBLIC_POLY_COUNT + 1


@dataclass(frozen=True)
class PublicKey:
    params: SchemeParams
    base: tuple[Poly, ...]
    mapped: tuple[Poly, ...]


@dataclass(frozen=True)
class PrivateKey:
    aut: Automorphism


@dataclass(frozen=True)
class Signature:
    poly: Poly


@dataclass(frozen=True)
class VerifyReport:
    accepted: bool
    reference_positive: int
    signed_positive: int
    trials: int
    allowed_gap: int
    challenge: Poly

    @property
    def reference_proportion(self) -> float:
        return self.reference_positive / self.trials

    @property
    def signed_proportion(self) -> float:
        return self.signed_positive / self.trials

    @property
    def count_gap(self) -> int:
        return abs(self.reference_positive - self.signed_positive)

    @property
    def proportion_gap(self) -> float:
        return self.count_gap / self.trials


def keygen(
    params: SchemeParams, rng: random.Random | None = None
) -> tuple[PrivateKey, PublicKey]:
    """Sample a private automorphism and publish the sparse polynomials with images."""
    if rng is None:
        rng = random.SystemRandom()
    base = tuple(sample_sparse(params, params.n, rng) for _ in range(PUBLIC_POLY_COUNT))
    aut = sample_automorphism(params, rng)
    mapped = tuple(aut.apply(p) for p in base)
    return PrivateKey(aut), PublicKey(params, base, mapped)


def sign_poly(
    priv: PrivateKey,
    params: SchemeParams,
    message_poly: Poly,
    rng: random.Random | None = None,
) -> Signature:
    """Sign an already-converted message polynomial in n + 1 variables.

    Each signature draws a fresh 0/1-valued tweak over x_1..x_n and applies
    the private map extended by it (``extend_for_signing``) to the message.
    """
    if rng is None:
        rng = random.SystemRandom()
    m = params.n + 1
    if message_poly.nvars != m:
        raise DimensionError(
            f"message polynomial must have {m} variables, got {message_poly.nvars}"
        )
    ext = extend_for_signing(priv.aut, sample_indicator({m}, params, m, rng))
    return Signature(ext.apply(message_poly))


def _message_poly(params: SchemeParams, message: bytes) -> Poly:
    """The message's polynomial, in the fixed hashing.POLY_NVARS = params.n + 1 variables."""
    if params.n + 1 != hashing.POLY_NVARS:
        raise ValueError(f"message conversion is fixed at {hashing.POLY_NVARS} variables;"
                         " use sign_poly or verify_poly for reduced profiles")
    return hashing.message_poly(message)


def sign(
    priv: PrivateKey,
    params: SchemeParams,
    message: bytes,
    rng: random.Random | None = None,
) -> Signature:
    """Hash the message, convert to a polynomial, and apply the extended map."""
    return sign_poly(priv, params, _message_poly(params, message), rng)


def sample_challenge(rng: random.Random) -> Poly:
    """Multilinear CHALLENGE_NVARS-variable combination, coefficients in -2..2, not all zero."""
    while True:
        p = Poly(CHALLENGE_NVARS, {m: rng.randint(-2, 2) for m in range(1 << CHALLENGE_NVARS)})
        if p:
            return p


def _nested_combine(coeffs: list[int], vals: list[np.ndarray | int]) -> np.ndarray | int:
    """Sum over masks of coeffs[mask] times the product of vals[i] for the bits i of mask.

    Nested as f0 + v * f1 over the halves of coeffs, in place on the new arrays
    it returns; vals are ints or arrays of one shape.  Zero halves are
    skipped, so a constant form gives coeffs[0].
    """
    if len(coeffs) == 1:
        return coeffs[0]
    half = len(coeffs) // 2
    low, high = _nested_combine(coeffs[:half], vals), _nested_combine(coeffs[half:], vals)
    v = vals[half.bit_length() - 1]
    if isinstance(high, np.ndarray):
        high *= v
    elif high:
        high = high * v
    else:
        return low
    if isinstance(low, np.ndarray) or low:
        high += low
    return high


def _magnitude(values: np.ndarray) -> int:
    """The largest |v| over the values, counted as at least 1."""
    return max(1, int(values.max()), -int(values.min()))


def _challenge_positive(challenge: Poly, components: list[Poly], points: PointSet | None) -> int:
    """Count points where the challenge of the component values is positive.

    ``points`` is a sample ``PointSet``, or None for the whole cube of the
    widest component.  The challenge is split on its last variable y as
    f0 + y * f1, where f0 and f1 combine the other components, the rest.
    Each block of the walk evaluates the rest, f0 and f1 once, and y on each
    of its y blocks, viewed as rows lined up with it.  A point set is one
    block and its own y block; the cube's walk is ``counting.cube_walk``.
    The rest go through ``counting.evaluate_stack``: on a cube block they
    share stacked transforms and come back in their stack's type, on a point
    set each is one ``evaluate_batch``; the cast below sets the combine type
    either way.  y is always one ``evaluate_batch`` call.  Each component's
    cube bound is its stored ``value_bound``, so none is summed again here.

    The combine type is chosen per block: ``exact_dtype`` of the challenge's
    bound sum |c_m| * prod b_i over its terms m, ``_nested_combine`` of its
    absolute coefficients over the largest magnitudes b_i, at least 1, that
    the components in its support take on the block.  The two halves of
    that nested sum, s0 over the terms without y and s1 over those with it,
    are computed once per block, so the bound for a y magnitude b is
    s0 + s1 * b.  f0 and f1 run in the type of s0 + s1, |y| taken as 1,
    which covers both; each y block is cast to the type of the bound with
    its own magnitude, which is never narrower.  So each component is cast
    once.  Every final value and every coefficient lies within the bound,
    and numpy arithmetic wraps, so the values are exact.  A bound at or
    past ``INT64_SAFE_BOUND`` raises ``CapacityError``.  Every component is
    evaluated, so one whose cube bound reaches it is refused whichever
    challenge is drawn.  The cast of a component outside
    the challenge's support may wrap, which is safe: the coefficients on it
    are zero halves, which ``_nested_combine`` skips, so it is never multiplied.
    """
    if len(components) != challenge.nvars:
        raise DimensionError("component count must match the challenge arity")
    coeffs = [challenge.terms.get(mask, 0) for mask in range(1 << challenge.nvars)]
    sizes = list(map(abs, coeffs))
    half = len(coeffs) // 2
    *rest, last = components
    width = max(p.nvars for p in rest)
    walk = cube_walk(width, max(width, last.nvars)) if points is None else [(points, [points])]
    count = 0
    for block, ys in walk:
        vals = evaluate_stack(rest, block)
        peaks = [_magnitude(v) for v in vals]
        s0, s1 = _nested_combine(sizes[:half], peaks), _nested_combine(sizes[half:], peaks)
        dtype = exact_dtype(s0 + s1)
        vals = [v.astype(dtype, copy=False) for v in vals]
        f0, f1 = _nested_combine(coeffs[:half], vals), _nested_combine(coeffs[half:], vals)
        for y_points in ys:
            y = evaluate_batch(last, y_points).reshape(-1, len(block))
            y = y.astype(exact_dtype(s0 + s1 * _magnitude(y)), copy=False)
            value = f1 * y
            value += f0
            count += int(np.count_nonzero(value > 0))
    return count


def verify_poly(
    pub: PublicKey,
    message_poly: Poly,
    sig: Signature,
    params: SchemeParams | None = None,
    rng: random.Random | None = None,
    *,
    exhaustive: bool = False,
) -> VerifyReport:
    """Compare positive proportions of the two challenge combinations.

    The reference side combines the public polynomials with the recomputed
    message polynomial; the signed side combines their published images with
    the signature.  Acceptance compares integer counts: the gap must stay
    within floor(threshold * trials).  The two sides use independently drawn
    sample points; ``exhaustive`` replaces sampling by full enumeration.
    Either mode raises ``CapacityError`` for any component whose cube bound
    reaches ``INT64_SAFE_BOUND`` (``counting.exact_dtype``) before either side
    is counted, and for a challenge bound that reaches it while counting.
    """
    if params is None:
        params = pub.params
    if rng is None:
        rng = random.SystemRandom()
    m = params.n + 1
    if sig.poly.nvars != m:
        raise DimensionError(f"signature must have {m} variables, got {sig.poly.nvars}")
    if message_poly.nvars != m:
        raise DimensionError(
            f"message polynomial must have {m} variables, got {message_poly.nvars}"
        )
    for p in (*pub.base, *pub.mapped):
        if p.nvars != params.n:
            raise DimensionError("public key polynomials disagree with the parameter set")
    # Every component's cube bound is checked before either side is counted;
    # value_bound stores it with the polynomial, and counting reads it there.
    sides = ([*pub.base, message_poly], [*pub.mapped, sig.poly])
    for p in (*sides[0], *sides[1]):
        exact_dtype(value_bound(p))
    challenge = sample_challenge(rng)
    total = 1 << m if exhaustive else params.trials
    # The reference side, then the signed side, each on its own sample points
    # shared by its four components.  Only terms are read, so the n-variable
    # public polynomials need no widening.
    counts = []
    for components in sides:
        points = None if exhaustive else sample_points(m, total, rng)
        counts.append(_challenge_positive(challenge, components, points))
    ref, signed = counts
    allowed = math.floor(params.threshold * total)
    return VerifyReport(
        accepted=abs(ref - signed) <= allowed,
        reference_positive=ref,
        signed_positive=signed,
        trials=total,
        allowed_gap=allowed,
        challenge=challenge,
    )


def verify(
    pub: PublicKey,
    message: bytes,
    sig: Signature,
    params: SchemeParams | None = None,
    rng: random.Random | None = None,
) -> VerifyReport:
    if params is None:
        params = pub.params
    return verify_poly(pub, _message_poly(params, message), sig, params, rng)


# --- file formats ---


def public_key_to_text(pub: PublicKey) -> str:
    parts = [params_to_line(pub.params)]
    parts += [poly_to_text(p) for p in (*pub.base, *pub.mapped)]
    return "\n\n".join(parts) + "\n"


def public_key_from_text(text: str) -> PublicKey:
    blocks = split_blocks(text)
    if len(blocks) != 1 + 2 * PUBLIC_POLY_COUNT:
        raise FormatError(
            f"public key needs a params line plus {2 * PUBLIC_POLY_COUNT} polynomial"
            f" blocks, found {len(blocks)}"
        )
    # A params block wrapped over several lines fails the canonical-line check.
    params = params_from_line("\n".join(blocks[0]))
    polys = [poly_from_block(b) for b in blocks[1:]]
    base = tuple(polys[:PUBLIC_POLY_COUNT])
    mapped = tuple(polys[PUBLIC_POLY_COUNT:])
    for p in base:
        if p.nvars != params.n:
            raise FormatError("base polynomial has the wrong variable count")
        if len(p.terms) != params.t:
            raise FormatError(f"base polynomial must have exactly t={params.t} terms")
        if p.degree() > params.b or 0 in p.terms:
            raise FormatError(f"base polynomial terms must have degree 1..{params.b}")
        if any(abs(c) != 1 for c in p.terms.values()):
            raise FormatError("base polynomial coefficients must be +1 or -1")
    for p in mapped:
        if p.nvars != params.n:
            raise FormatError("mapped polynomial has the wrong variable count")
    return PublicKey(params, base, mapped)


def private_key_to_text(params: SchemeParams, priv: PrivateKey) -> str:
    return params_to_line(params) + "\n\n" + automorphism_to_text(priv.aut) + "\n"


def private_key_from_text(text: str) -> tuple[SchemeParams, PrivateKey]:
    blocks = split_blocks(text)
    if len(blocks) < 2:
        raise FormatError("private key needs a params line and an automorphism")
    params = params_from_line("\n".join(blocks[0]))
    aut = automorphism_from_blocks(blocks[1:])
    if aut.nvars != params.n:
        raise FormatError(
            f"automorphism has {aut.nvars} variables but params say n={params.n}"
        )
    return params, PrivateKey(aut)


def signature_to_text(sig: Signature) -> str:
    return poly_to_text(sig.poly) + "\n"


def signature_from_text(text: str) -> Signature:
    return Signature(poly_from_text(text))
