"""Counting positive values of a polynomial over the Boolean cube.

Production verification estimates the positive proportion by uniform
sampling.  The exact oracle and exhaustive verification enumerate the cube,
up to ``EXACT_NVARS_LIMIT`` variables, in aligned subcube blocks of at most
``CUBE_BLOCK`` points.  A block's values come from a subset-sum (zeta)
transform of the polynomial's coefficients: k passes over 2**k entries, so
a block costs O(k * 2**k) whatever the term count.

Sample points are drawn in fixed-size chunks, each from a child seed taken
from the caller's generator, so a run is reproducible for a given seed.
Callers concatenate the chunks and evaluate a polynomial over all of them
in one pass.  That pass is bit-sliced: the points are transposed into one
Python int per variable, a term's covered points are the AND of its
variables' ints, and coefficients are summed in bit-plane counters, so the
values are exact at any magnitude.  They come back as int64 when they fit
in 63 two's-complement bits and as an ``object`` array otherwise.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import CapacityError
from .poly import Poly, indices_of

EXACT_NVARS_LIMIT = 25
# Points per enumeration block: 2**16 int64 values are 512 KiB.
CUBE_BLOCK = 1 << 16
CHUNK_TRIALS = 512
# Value bound under which int64 arithmetic stays exact.
INT64_SAFE_BOUND = 1 << 62


@dataclass(frozen=True)
class ValueCounts:
    positive: int
    zero: int
    negative: int

    @property
    def total(self) -> int:
        return self.positive + self.zero + self.negative


def required_trials(epsilon: float, delta: float, c_const: float = 0.02) -> int:
    """Trial count c_const * 4 * log2(2/delta) / epsilon**2 for gap epsilon.

    c_const is an empirical constant, not a proven tail bound: the result
    does not guarantee failure probability at most delta.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c_const <= 0.0:
        raise ValueError(f"c_const must be positive, got {c_const}")
    return math.ceil(c_const * 4.0 * math.log2(2.0 / delta) / (epsilon * epsilon))


def cube_blocks(nvars: int) -> list[range]:
    """The 2**nvars cube points as aligned subcube ranges of at most CUBE_BLOCK points."""
    if nvars > EXACT_NVARS_LIMIT:
        raise CapacityError(
            f"cube enumeration supports at most {EXACT_NVARS_LIMIT} variables, got {nvars}"
        )
    total = 1 << nvars
    size = min(CUBE_BLOCK, total)
    return [range(start, start + size) for start in range(0, total, size)]


def exact_value_counts(p: Poly) -> ValueCounts:
    """Sign tallies of p over every cube point; O(nvars * 2**nvars), nvars <= 25 only."""
    pos = neg = 0
    for block in cube_blocks(p.nvars):
        values = evaluate_batch(p, block)
        pos += int(np.count_nonzero(values > 0))
        neg += int(np.count_nonzero(values < 0))
    return ValueCounts(pos, (1 << p.nvars) - pos - neg, neg)


def _cube_bound(p: Poly) -> int:
    return sum(abs(c) for c in p.terms.values())


def fits_int64(p: Poly, inputs: Sequence[Poly] | None = None) -> bool:
    """Whether int64 arithmetic gives exact values of p on the cube.

    With ``inputs``, the values are those of p with inputs[i-1] in place of
    x_i.  On the cube |q| <= sum |c| for any q, and a product is bounded by
    the product of its factors' bounds.  int64 sums and products wrap
    modulo 2**64, so only the final value has to stay in range.
    """
    if inputs is None:
        bound = _cube_bound(p)
    else:
        bounds = [_cube_bound(q) for q in inputs]
        bound = sum(
            abs(c) * math.prod(bounds[i - 1] for i in indices_of(mask))
            for mask, c in p.terms.items()
        )
    return bound < INT64_SAFE_BOUND


def _subcube_width(points: range) -> int:
    """k when points is range(s, s + 2**k) with s a multiple of 2**k."""
    size = len(points)
    if points.step != 1 or not size or size & (size - 1) or points.start % size:
        raise ValueError(f"{points!r} is not an aligned subcube")
    return size.bit_length() - 1


def _subcube_values(p: Poly, start: int, k: int) -> np.ndarray:
    """Values of p at start + j for j < 2**k, start a multiple of 2**k.

    A term contributes at start + j exactly when its bits above k lie inside
    start and its low k bits inside j.  The kept terms' coefficients are
    placed at their low bits, then k in-place passes add each entry into the
    entries whose index is a superset of its own (the zeta transform).
    """
    low = (1 << k) - 1
    top = np.uint64(start | low)
    dtype = np.int64 if fits_int64(p) else object
    masks = np.fromiter(p.terms, dtype=np.uint64, count=len(p.terms))
    coeffs = np.array(list(p.terms.values()), dtype=dtype)
    inside = (masks | top) == top
    values = np.zeros(1 << k, dtype=dtype)
    np.add.at(values, (masks[inside] & np.uint64(low)).astype(np.intp), coeffs[inside])
    for i in range(k):
        pairs = values.reshape(-1, 2, 1 << i)
        pairs[:, 1, :] += pairs[:, 0, :]
    return values


def _columns(masks: np.ndarray, width: int) -> list[int]:
    """Bit-sliced points: column i is an int whose bit j is bit i of masks[j]."""
    octets = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, bitorder="little")[:, :width]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _add_at(planes: list[int], covered: int, k: int) -> None:
    """Ripple-carry add covered * 2**k into an unsigned bit-plane counter."""
    while covered:
        if k >= len(planes):
            planes += [0] * (k - len(planes)) + [covered]
            return
        planes[k], covered = planes[k] ^ covered, planes[k] & covered
        k += 1


def _signed_values(planes: list[int], npoints: int) -> np.ndarray:
    """Per-point values of two's-complement planes; the last plane is the sign."""
    width = len(planes)
    nbytes = (npoints + 7) // 8
    raw = b"".join(plane.to_bytes(nbytes, "little") for plane in planes)
    octets = np.frombuffer(raw, dtype=np.uint8).reshape(width, nbytes)
    bits = np.unpackbits(octets, axis=1, count=npoints, bitorder="little")
    dtype = np.int64 if width <= 63 else object
    weights = np.array([1 << k for k in range(width - 1)] + [-(1 << (width - 1))], dtype=dtype)
    return weights @ bits.astype(dtype)


def evaluate_batch(p: Poly, masks: np.ndarray | range) -> np.ndarray:
    """Values of p at an array of cube-point masks, or on an aligned subcube.

    A range must be an aligned subcube ``range(s, s + 2**k)``, as from
    ``cube_blocks``; it goes through the zeta transform.

    Array input is bit-sliced (Biham, FSE 1997): the points become one
    Python int per variable, whose bit j is that variable at point j.  A
    term covers the AND of its variables' columns.  Terms are walked in
    ascending mask order with the ANDs of their high bits on a stack, so a
    shared prefix is computed once and at most nvars + 1 ANDs are live.
    Each covered set is added, once per set bit of |c|, into ripple-carry
    bit-plane counters for the positive and the negative coefficients.  One
    bit-sliced subtraction gives two's-complement planes, exact at any
    magnitude.  The result is int64 when the values need at most 63 planes,
    sign included, and an ``object`` array of Python ints otherwise.
    """
    if isinstance(masks, range):
        return _subcube_values(p, masks.start, _subcube_width(masks))
    npoints = len(masks)
    full = (1 << npoints) - 1
    order = sorted(p.terms)
    columns = _columns(masks, order[-1].bit_length()) if order else []
    positive: list[int] = []
    negative: list[int] = []
    # stack[d] is the AND of the columns of the d highest set bits of prev.
    stack = [full]
    prev = 0
    for mask in order:
        below = (1 << (prev ^ mask).bit_length()) - 1
        del stack[1 + (mask & ~below).bit_count():]
        covered = stack[-1]
        rest = mask & below
        while rest:
            top = rest.bit_length() - 1
            rest ^= 1 << top
            covered &= columns[top]
            stack.append(covered)
        prev = mask
        c = p.terms[mask]
        planes = positive if c > 0 else negative
        c = abs(c)
        while c:
            k = (c & -c).bit_length() - 1
            _add_at(planes, covered, k)
            c &= c - 1
    # positive - negative; the final borrow is the sign plane.
    planes = []
    borrow = 0
    for a, b in zip_longest(positive, negative, fillvalue=0):
        planes.append(a ^ b ^ borrow)
        borrow = (~a & (b | borrow)) | (b & borrow)
    planes.append(borrow)
    while len(planes) > 1 and planes[-1] == planes[-2]:
        planes.pop()
    return _signed_values(planes, npoints)


def sample_tuple_chunks(nvars: int, n_trials: int, rng: random.Random) -> list[np.ndarray]:
    """Uniform cube points in fixed-size chunks, each from a derived child seed."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    sizes = [CHUNK_TRIALS] * (n_trials // CHUNK_TRIALS)
    if n_trials % CHUNK_TRIALS:
        sizes.append(n_trials % CHUNK_TRIALS)
    chunks = []
    for size in sizes:
        child = random.Random(rng.getrandbits(64))
        if nvars:
            it = (child.getrandbits(nvars) for _ in range(size))
            chunks.append(np.fromiter(it, dtype=np.uint64, count=size))
        else:
            chunks.append(np.zeros(size, dtype=np.uint64))
    return chunks


def estimate_positive_proportion(
    p: Poly,
    n_trials: int,
    rng: random.Random | None = None,
) -> float:
    """Monte-Carlo estimate of the proportion of cube points where p > 0."""
    if rng is None:
        rng = random.SystemRandom()
    points = np.concatenate(sample_tuple_chunks(p.nvars, n_trials, rng))
    return int((evaluate_batch(p, points) > 0).sum()) / n_trials
