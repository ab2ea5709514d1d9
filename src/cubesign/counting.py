"""Counting positive values of a polynomial over the Boolean cube.

Exact enumeration costs 2**nvars evaluations, so production verification
estimates the positive proportion by uniform sampling.  The exact walker
stays available as the ground-truth oracle at desk scale.

Sample points are drawn in fixed-size chunks, each from a child seed taken
from the caller's generator, so a run is reproducible for a given seed.
Callers concatenate the chunks and evaluate a polynomial over all of them
in one pass.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .poly import Poly, indices_of

EXACT_NVARS_LIMIT = 25
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


@dataclass(frozen=True)
class McEstimate:
    positive: int
    trials: int

    @property
    def proportion(self) -> float:
        return self.positive / self.trials


def required_trials(epsilon: float, delta: float, c_const: float = 0.02) -> int:
    """Trial count for gap epsilon with failure probability at most delta."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c_const <= 0.0:
        raise ValueError(f"c_const must be positive, got {c_const}")
    return math.ceil(c_const * 4.0 * math.log2(2.0 / delta) / (epsilon * epsilon))


def exact_value_counts(p: Poly) -> ValueCounts:
    """Sign tallies of p over every cube point.  Exponential; nvars <= 25 only."""
    if p.nvars > EXACT_NVARS_LIMIT:
        raise CapacityError(
            f"exact enumeration supports at most {EXACT_NVARS_LIMIT} variables, got {p.nvars}"
        )
    pos = zero = neg = 0
    for mask in range(1 << p.nvars):
        v = p.evaluate(mask)
        if v > 0:
            pos += 1
        elif v < 0:
            neg += 1
        else:
            zero += 1
    return ValueCounts(pos, zero, neg)


def exact_positive_count(p: Poly) -> int:
    return exact_value_counts(p).positive


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


def evaluate_batch(p: Poly, masks: np.ndarray) -> np.ndarray:
    """Values of p at an array of cube-point masks.

    Uses an int64 fast path when ``fits_int64`` rules out overflow,
    otherwise falls back to exact Python integers.
    """
    if fits_int64(p):
        acc = np.zeros(len(masks), dtype=np.int64)
        for m, c in p.terms.items():
            mm = np.uint64(m)
            acc[(masks & mm) == mm] += c
        return acc
    return np.array([p.evaluate(int(v)) for v in masks], dtype=object)


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
) -> McEstimate:
    """Monte-Carlo estimate of the proportion of cube points where p > 0."""
    if rng is None:
        rng = random.SystemRandom()
    points = np.concatenate(sample_tuple_chunks(p.nvars, n_trials, rng))
    return McEstimate(int((evaluate_batch(p, points) > 0).sum()), n_trials)
