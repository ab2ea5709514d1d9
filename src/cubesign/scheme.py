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
from .counting import cube_blocks, evaluate_batch, fits_int64, sample_tuple_chunks
from .errors import DimensionError, FormatError
from .params import SchemeParams, params_from_line, params_to_line
from .poly import Poly, indices_of, poly_from_block, poly_from_text, poly_to_text, split_blocks

PUBLIC_POLY_COUNT = 3
CHALLENGE_NVARS = 4


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
    *,
    tweak: Poly | None = None,
) -> Signature:
    """Sign an already-converted message polynomial in n + 1 variables.

    The tweak parameter exists for deterministic tests; normally a fresh
    0/1-valued polynomial over x_1..x_n is drawn per signature.
    """
    if rng is None:
        rng = random.SystemRandom()
    m = params.n + 1
    if message_poly.nvars != m:
        raise DimensionError(
            f"message polynomial must have {m} variables, got {message_poly.nvars}"
        )
    if tweak is None:
        tweak = sample_indicator({m}, params, m, rng)
    ext = extend_for_signing(priv.aut, tweak)
    return Signature(ext.apply(message_poly))


def sign(
    priv: PrivateKey,
    params: SchemeParams,
    message: bytes,
    rng: random.Random | None = None,
) -> Signature:
    """Hash the message, convert to a polynomial, and apply the extended map."""
    if params.n + 1 != hashing.POLY_NVARS:
        raise ValueError(
            f"message conversion is fixed at {hashing.POLY_NVARS} variables;"
            f" use sign_poly for reduced profiles"
        )
    return sign_poly(priv, params, hashing.message_poly(message), rng)


def sample_challenge(rng: random.Random) -> Poly:
    """Multilinear 4-variable combination with coefficients in -2..2, not all zero."""
    while True:
        p = Poly(CHALLENGE_NVARS, {mask: rng.randint(-2, 2) for mask in range(16)})
        if p:
            return p


def _challenge_positive(
    challenge: Poly, components: list[Poly], points: np.ndarray | range
) -> int:
    """Count points where the challenge applied to component values is positive."""
    if len(components) != challenge.nvars:
        raise DimensionError("component count must match the challenge arity")
    vals = [evaluate_batch(p, points) for p in components]
    dtype = np.int64
    if not fits_int64(challenge, components):
        vals = [v.astype(object) for v in vals]
        dtype = object
    acc = np.zeros(len(points), dtype=dtype)
    for mask, c in challenge.terms.items():
        term = np.full(len(points), c, dtype=dtype)
        for i in indices_of(mask):
            term = term * vals[i - 1]
        acc = acc + term
    return int((acc > 0).sum())


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
    challenge = sample_challenge(rng)
    reference_side = [p.widen(m) for p in pub.base] + [message_poly]
    signed_side = [p.widen(m) for p in pub.mapped] + [sig.poly]
    if exhaustive:
        total = 1 << m
        ref = signed = 0
        for block in cube_blocks(m):
            ref += _challenge_positive(challenge, reference_side, block)
            signed += _challenge_positive(challenge, signed_side, block)
    else:
        total = params.trials
        # Independent draws for the two sides.
        ref_points = np.concatenate(sample_tuple_chunks(m, total, rng))
        signed_points = np.concatenate(sample_tuple_chunks(m, total, rng))
        ref = _challenge_positive(challenge, reference_side, ref_points)
        signed = _challenge_positive(challenge, signed_side, signed_points)
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
    *,
    exhaustive: bool = False,
) -> VerifyReport:
    if params is None:
        params = pub.params
    if params.n + 1 != hashing.POLY_NVARS:
        raise ValueError(
            f"message conversion is fixed at {hashing.POLY_NVARS} variables;"
            f" use verify_poly for reduced profiles"
        )
    return verify_poly(
        pub, hashing.message_poly(message), sig, params, rng, exhaustive=exhaustive
    )


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
    params = params_from_line(" ".join(blocks[0]))
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
    params = params_from_line(" ".join(blocks[0]))
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
