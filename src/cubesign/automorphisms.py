"""Samplers and constructors for cube-preserving automorphisms.

Every map built here sends each variable to a polynomial that is 0/1-valued
on the Boolean cube, and the induced vertex map is a bijection.  Applying
such a map to a polynomial therefore permutes its values over the cube, so
the tallies of positive/zero/negative values are invariant -- that is the
property verification leans on.

The private map is composed from an "up" triangular map (image of x_k only
involves later variables), a "down" one (earlier variables), and a variable
permutation.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import (
    DimensionError,
    FormatError,
    GeneratorError,
    PermutationError,
    SamplingError,
)
from .params import SchemeParams
from .poly import Poly, mask_of, poly_from_block, poly_to_text, read_nvars

# Retry budget for rejection sampling; generous, hit only by bad configs.
_MAX_RESAMPLES = 1000


@dataclass(frozen=True)
class Automorphism:
    """Algebra endomorphism given by the images of x_1..x_nvars."""

    nvars: int
    images: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} images, got {len(self.images)}"
            )
        for img in self.images:
            if img.nvars != self.nvars:
                raise DimensionError("every image must live in the ambient variable set")

    @classmethod
    def identity(cls, nvars: int) -> Automorphism:
        return cls(nvars, tuple(Poly.variable(i, nvars) for i in range(1, nvars + 1)))

    def apply(self, p: Poly) -> Poly:
        if p.nvars != self.nvars:
            raise DimensionError(f"polynomial has {p.nvars} variables, map has {self.nvars}")
        return p.substitute(self.images)

    def cube_map(self, point: int) -> int:
        """Induced map on cube vertices (images must evaluate to 0/1)."""
        out = 0
        for i, img in enumerate(self.images):
            v = img.evaluate(point)
            if v not in (0, 1):
                raise ValueError(f"image of x{i + 1} is not 0/1-valued at {point:#x}")
            out |= v << i
        return out


def is_indicator(h: Poly) -> bool:
    """True when h is idempotent, i.e. 0/1-valued on the whole cube."""
    return h * h == h


def _xor(x: Poly, h: Poly) -> Poly:
    """x + h - 2*x*h: on the cube, the XOR of the 0/1 values of x and h."""
    return x + h - 2 * (x * h)


def elementary(k: int, indicator: Poly) -> Automorphism:
    """Map x_k to x_k + h - 2*x_k*h (value of x_k is XORed with h), fix the rest.

    h must be 0/1-valued and must not involve x_k; the map is then an
    involution on cube vertices.
    """
    n = indicator.nvars
    if not 1 <= k <= n:
        raise DimensionError(f"index {k} out of range for {n} variables")
    if (indicator.support() >> (k - 1)) & 1:
        raise GeneratorError(f"indicator may not involve x{k}")
    if not is_indicator(indicator):
        raise GeneratorError("polynomial is not 0/1-valued on the cube")
    images = [Poly.variable(i, n) for i in range(1, n + 1)]
    images[k - 1] = _xor(images[k - 1], indicator)
    return Automorphism(n, tuple(images))


def permutation(perm: Sequence[int]) -> Automorphism:
    """Variable relabeling x_i -> x_perm[i-1]; perm must be a bijection on 1..n."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise PermutationError(f"not a permutation of 1..{n}: {list(perm)!r}")
    return Automorphism(n, tuple(Poly.variable(perm[i], n) for i in range(n)))


def random_permutation(nvars: int, rng: random.Random) -> Automorphism:
    values = list(range(1, nvars + 1))
    rng.shuffle(values)
    return permutation(values)


def compose(outer: Automorphism, inner: Automorphism) -> Automorphism:
    """The map applying ``inner`` first, then ``outer``."""
    if outer.nvars != inner.nvars:
        raise DimensionError("cannot compose maps over different variable counts")
    return Automorphism(outer.nvars, tuple(outer.apply(img) for img in inner.images))


def sample_sparse(params: SchemeParams, nvars: int, rng: random.Random) -> Poly:
    """t distinct monomials of degree 1..b with coefficients +-1."""
    if nvars < params.b:
        raise DimensionError(f"need at least b={params.b} variables, got {nvars}")
    chosen: dict[int, int] = {}
    attempts = 0
    while len(chosen) < params.t:
        attempts += 1
        if attempts > params.t + _MAX_RESAMPLES:
            raise SamplingError(
                f"could not find {params.t} distinct monomials with degree <= {params.b}"
            )
        degree = rng.randint(1, params.b)
        mask = mask_of(rng.sample(range(1, nvars + 1), degree))
        if mask in chosen:
            continue  # resample collisions so the result has exactly t terms
        chosen[mask] = rng.choice((1, -1))
    return Poly(nvars, chosen)


def sample_indicator(
    excluded: Iterable[int],
    params: SchemeParams,
    nvars: int,
    rng: random.Random,
) -> Poly:
    """Random 0/1-valued polynomial avoiding the excluded variables.

    Start from a monomial of degree 1..d over the allowed variables, then r
    times: optionally replace the accumulated product P by 1 - P, and
    multiply by a fresh allowed variable or its complement.  Fresh factors
    have disjoint support, so the product cannot collapse to zero.
    """
    banned = set(excluded)
    pool = [i for i in range(1, nvars + 1) if i not in banned]
    if not pool:
        raise SamplingError("no variable available outside the excluded set")
    one = Poly.const(1, nvars)
    degree = rng.randint(1, min(params.d, len(pool)))
    seed_vars = rng.sample(pool, degree)
    acc = Poly(nvars, {mask_of(seed_vars): 1})
    used = set(seed_vars)
    for _ in range(params.r):
        if rng.random() < 0.5:
            acc = one - acc
        fresh = [i for i in pool if i not in used]
        if not fresh:
            break  # pool exhausted: stop multiplying early
        v = rng.choice(fresh)
        used.add(v)
        x = Poly.variable(v, nvars)
        acc = acc * (x if rng.random() < 0.5 else one - x)
    return acc


def triangular(direction: str, params: SchemeParams, rng: random.Random) -> Automorphism:
    """Random map where each x_k is fixed or XORed with an indicator.

    direction "up": the indicator for x_k involves only variables above k;
    "down": only variables below k.  At the extreme position no variable is
    available, so that coordinate is always fixed.  Each other coordinate is
    fixed with probability 1/2.
    """
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    n = params.n
    up = direction == "up"
    order = range(1, n + 1) if up else range(n, 0, -1)
    images: dict[int, Poly] = {}
    for k in order:
        xk = Poly.variable(k, n)
        available = n - k if up else k - 1
        if available == 0 or rng.random() < 0.5:
            images[k] = xk
        else:
            banned = range(1, k + 1) if up else range(k, n + 1)
            h = sample_indicator(banned, params, n, rng)
            images[k] = _xor(xk, h)
    return Automorphism(n, tuple(images[k] for k in range(1, n + 1)))


def sample_automorphism(params: SchemeParams, rng: random.Random) -> Automorphism:
    """Private-map recipe: up-triangular, then down-triangular, then a permutation."""
    up = triangular("up", params, rng)
    down = triangular("down", params, rng)
    perm = random_permutation(params.n, rng)
    return compose(perm, compose(down, up))


def extend_for_signing(aut: Automorphism, tweak: Poly) -> Automorphism:
    """Extend by one variable whose value gets XORed with a 0/1-valued tweak.

    The tweak must involve only the original variables, so the extension
    agrees with ``aut`` on them and stays a cube bijection.
    """
    n = aut.nvars
    if tweak.nvars == n:
        tweak = tweak.widen(n + 1)
    elif tweak.nvars != n + 1:
        raise DimensionError(
            f"tweak must have {n} or {n + 1} variables, got {tweak.nvars}"
        )
    if (tweak.support() >> n) & 1:
        raise GeneratorError("tweak may not involve the signing variable")
    if not is_indicator(tweak):
        raise GeneratorError("tweak is not 0/1-valued on the cube")
    images = [img.widen(n + 1) for img in aut.images]
    images.append(_xor(Poly.variable(n + 1, n + 1), tweak))
    return Automorphism(n + 1, tuple(images))


# --- canonical text form ---


def automorphism_to_text(aut: Automorphism) -> str:
    """Header line, then one canonical polynomial block per image."""
    parts = [f"nvars={aut.nvars}"]
    parts += [poly_to_text(img) for img in aut.images]
    return "\n\n".join(parts)


def automorphism_from_blocks(blocks: list[list[str]]) -> Automorphism:
    """Parse a lone ``nvars=`` header block followed by one block per image."""
    if not blocks or len(blocks[0]) != 1:
        raise FormatError("automorphism text must start with a lone nvars= header")
    nvars = read_nvars(blocks[0][0])
    if len(blocks) - 1 != nvars:
        raise FormatError(f"expected {nvars} image blocks, found {len(blocks) - 1}")
    images = [poly_from_block(b) for b in blocks[1:]]
    try:
        return Automorphism(nvars, tuple(images))
    except DimensionError as exc:
        raise FormatError(str(exc)) from None
