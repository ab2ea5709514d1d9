"""Counting positive values of a polynomial over the Boolean cube.

Production verification estimates the positive proportion by uniform
sampling.  The exact oracle and exhaustive verification enumerate the cube,
up to ``EXACT_NVARS_LIMIT`` variables, in aligned subcube blocks of at most
``CUBE_BLOCK`` points: ``cube_blocks`` cuts one cube, and ``cube_walk``
lines up the blocks of a narrower cube with those of a wider one, as
exhaustive verification walks them.  A block's values come from a
subset-sum (zeta) transform of the polynomial's coefficients: k passes over
2**k entries, so a block costs O(k * 2**k) whatever the term count.
``evaluate_stack`` evaluates several polynomials on one block, stacked in
their order into (rows, 2**k) transforms of at most ``CUBE_BLOCK`` entries,
so the passes and the transposing copy run once per stack;
``evaluate_batch`` on a block is the stack of one.

One rule picks the integer type of every value counted: ``exact_dtype``
of a bound on their magnitude, the narrowest of int8, int16, int32 and
int64 that holds it; a bound at or past ``INT64_SAFE_BOUND`` = 2**62
raises ``CapacityError``, as a cube past ``EXACT_NVARS_LIMIT`` variables
does.  The zeta passes run in, and a block comes back in, the type of the
largest cube bound sum |c|, ``value_bound``, among its stack's rows; the
verifier combines a block's component values in the type of the
challenge's own bound over the magnitudes they take there.  Each bound is
read from ``poly.value_bound``, which sums it once per polynomial.

Sample points are drawn as bit-sliced columns, one ``getrandbits`` per
variable from the caller's generator, so a seed fixes the run.
``sample_points`` wraps them in a ``PointSet``, shared by every polynomial
evaluated on those points, with the byte tables it builds from them once.
``evaluate_batch`` describes the kernel that counts on it: a term's covered
points from the tables, one carry-save count per coefficient; its values
are int64, under the same rule.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import CapacityError, DimensionError
from .poly import INT64_SAFE_BOUND, NVARS_MAX, Poly, value_bound

EXACT_NVARS_LIMIT = 25
# Points per enumeration block: 2**18 values are 256 KiB in int8, 2 MiB in int64.
CUBE_BLOCK = 1 << 18
# Rows one carry-save pass adds into a count's ones, twos and fours planes;
# the adder network in _fold is written for eight.
GROUP_ROWS = 8
# Covered sets of one coefficient built and counted at a time.
GROUP_CHUNK = 512
# Each integer dtype with the bound below which its values are exact.
_EXACT_DTYPES = ((1 << 7, np.int8), (1 << 15, np.int16), (1 << 31, np.int32),
                 (INT64_SAFE_BOUND, np.int64))


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


def cube_walk(width: int, top: int) -> list[tuple[range, list[range]]]:
    """Each block of the 2**width cube, with the blocks of the 2**top cube lined up with it.

    top >= width.  Each of ``cube_blocks(top)`` goes with the block holding
    its low width bits, so it is rows of that block's points shifted by
    multiples of 2**width.
    """
    wide = cube_blocks(top)
    cycle = (1 << width) - 1
    return [(block, [y for y in wide if y.start & cycle == block.start])
            for block in cube_blocks(width)]


def exact_value_counts(p: Poly) -> ValueCounts:
    """Sign tallies of p over every cube point; O(nvars * 2**nvars), nvars <= 25 only.

    A cube bound past int64 raises ``CapacityError`` before a block is allocated.
    """
    pos = neg = 0
    for block in cube_blocks(p.nvars):
        values = evaluate_batch(p, block)
        pos += int(np.count_nonzero(values > 0))
        neg += int(np.count_nonzero(values < 0))
    return ValueCounts(pos, (1 << p.nvars) - pos - neg, neg)


def exact_dtype(bound: int) -> type:
    """The narrowest integer dtype exact for values of magnitude up to bound.

    int8, int16 or int32 below 2**7, 2**15 or 2**31; int64 below
    ``INT64_SAFE_BOUND``.  A bound at or past it raises ``CapacityError``:
    this is the one place counting refuses a value too wide for int64.
    numpy integer sums and products wrap silently, so only the final
    values, not the partial ones, have to lie within the bound.
    """
    for limit, dtype in _EXACT_DTYPES:
        if bound < limit:
            return dtype
    raise CapacityError(
        f"counting needs a value bound below 2**62, got one of {bound.bit_length()} bits"
    )


def _zeta_passes(values: np.ndarray, lo: int, hi: int) -> None:
    """Add, for each bit i in lo..hi-1, every entry into the one with bit i set."""
    for i in range(lo, hi):
        pairs = values.reshape(-1, 2, 1 << i)
        pairs[:, 1, :] += pairs[:, 0, :]


def _subcube_values(polys: list[Poly], block: range) -> list[np.ndarray]:
    """Values of each polynomial on block, an aligned subcube range(s, s + 2**k).

    ``exact_dtype`` of the largest cube bound, ``value_bound``, refuses one
    at or past ``INT64_SAFE_BOUND`` before anything is allocated.  A range
    that is not an aligned subcube raises ``ValueError``.

    The polynomials are stacked in their order, ``CUBE_BLOCK >> k`` rows to
    a stack (one row if a block alone is larger), and each stack is one
    (rows, 2**k) transform whose passes and transposing copy run on the
    whole stack.  Every entry is a sum of some of a row's coefficients, so
    a stack runs in, and its rows come back in, ``exact_dtype`` of the
    largest bound among its rows; a stack of one is in its own type.  A
    term contributes at s + j exactly when its bits above k lie inside s
    and its low k bits inside j; every term of a polynomial in at most k
    variables lies in any aligned 2**k block, so only a wider one is
    filtered.  The kept terms' coefficients are placed at their low bits in
    their row, then one pass per bit adds each entry into the entry whose
    index also has that bit (the zeta transform).
    A pass over bit i adds rows of 2**i entries, and numpy is slow on short
    rows.  So with h = k // 2 each row starts transposed, as j's low h bits
    above its high k - h bits, and the low bits' passes run there as bits
    k-h..k-1.  One copy transposes every row back for the high bits' passes.
    """
    size = len(block)
    if block.step != 1 or not size or size & (size - 1) or block.start % size:
        raise ValueError(f"{block!r} is not an aligned subcube")
    exact_dtype(max(map(value_bound, polys), default=0))
    k = size.bit_length() - 1
    low = size - 1
    top = np.uint64(block.start | low)
    h = k // 2
    height = max(1, CUBE_BLOCK >> k)
    out = []
    for s in range(0, len(polys), height):
        stack = polys[s:s + height]
        work = exact_dtype(max(map(value_bound, stack)))
        swapped = np.zeros((len(stack), size), dtype=work)
        for row, p in zip(swapped, stack):
            masks = np.fromiter(p.terms, dtype=np.uint64, count=len(p.terms))
            coeffs = np.fromiter(p.terms.values(), dtype=work, count=len(p.terms))
            if p.nvars > k:
                inside = (masks | top) == top
                masks, coeffs = masks[inside] & np.uint64(low), coeffs[inside]
            j = masks.astype(np.intp)
            np.add.at(row, (j & ((1 << h) - 1)) << (k - h) | j >> h, coeffs)
        _zeta_passes(swapped, k - h, k)
        values = swapped.reshape(len(stack), 1 << h, 1 << (k - h)).transpose(0, 2, 1).copy()
        values = values.reshape(len(stack), size)
        _zeta_passes(values, h, k)
        out.extend(values)
    return out


class PointSet:
    """Cube points as bit-sliced columns, shared by every polynomial evaluated on them.

    ``columns[i]`` is an int whose bit j is x_{i+1} at point j; the set
    serves every polynomial in at most ``len(columns)`` variables.  ``len()``
    is the number of points, ``size``.  ``byte_tables`` builds the set's
    covered-set tables on first use and keeps them for later polynomials.
    """

    __slots__ = ("size", "columns", "_tables")

    def __init__(self, size: int, columns: list[int]) -> None:
        self.size = size
        self.columns = columns
        self._tables: list[list[int]] | None = None

    def __len__(self) -> int:
        return self.size

    def byte_tables(self) -> list[list[int]]:
        """Per byte k of a mask, the points each value b of that byte covers.

        Entry b of table k is the AND of the columns of b's set bits among
        x_{8k+1}..x_{8k+8}; entry 0 is every point.  Each table is built by
        doubling, one AND per entry.  There are four tables, one per byte of
        a mask; a byte past the width has only the entry 0.
        """
        if self._tables is None:
            self._tables = []
            for k in range(0, NVARS_MAX, 8):
                row = [(1 << self.size) - 1]
                for column in self.columns[k:k + 8]:
                    row += [r & column for r in row]
                self._tables.append(row)
        return self._tables


def _add_at(planes: list[int], covered: int, k: int) -> None:
    """Ripple-carry add covered * 2**k into an unsigned bit-plane counter."""
    while covered:
        if k >= len(planes):
            planes += [0] * (k - len(planes)) + [covered]
            return
        planes[k], covered = planes[k] ^ covered, planes[k] & covered
        k += 1


def _fold(planes: list[int], rows: list[int]) -> None:
    """Add rows into a counter whose first three planes are ones, twos, fours.

    Each GROUP_ROWS rows pass seven carry-save adders (Harley-Seal), which
    leave only the weight-8 carry to ripple; the last len(rows) % GROUP_ROWS
    rows ripple one by one.
    """
    ones, twos, fours = planes[0], planes[1], planes[2]
    octets = iter(rows)
    for r0, r1, r2, r3, r4, r5, r6, r7 in zip(*[octets] * GROUP_ROWS):
        # A carry-save adder of a, b, c: a ^ b ^ c stays, the majority carries.
        u = ones ^ r0
        twos_a, ones = (ones & r0) | (u & r1), u ^ r1
        u = ones ^ r2
        twos_b, ones = (ones & r2) | (u & r3), u ^ r3
        u = twos ^ twos_a
        fours_a, twos = (twos & twos_a) | (u & twos_b), u ^ twos_b
        u = ones ^ r4
        twos_a, ones = (ones & r4) | (u & r5), u ^ r5
        u = ones ^ r6
        twos_b, ones = (ones & r6) | (u & r7), u ^ r7
        u = twos ^ twos_a
        fours_b, twos = (twos & twos_a) | (u & twos_b), u ^ twos_b
        u = fours ^ fours_a
        eights, fours = (fours & fours_a) | (u & fours_b), u ^ fours_b
        _add_at(planes, eights, 3)
    planes[0], planes[1], planes[2] = ones, twos, fours
    for row in rows[len(rows) - len(rows) % GROUP_ROWS:]:
        _add_at(planes, row, 0)


def _signed_values(planes: list[int], npoints: int) -> np.ndarray:
    """Per-point int64 values of at most 63 two's-complement planes; the last is the sign."""
    nbytes = (npoints + 7) // 8
    raw = b"".join(plane.to_bytes(nbytes, "little") for plane in planes)
    octets = np.frombuffer(raw, dtype=np.uint8).reshape(len(planes), nbytes)
    bits = np.unpackbits(octets, axis=1, count=npoints, bitorder="little")
    weights = [1 << k for k in range(len(planes) - 1)] + [-(1 << (len(planes) - 1))]
    return np.array(weights, dtype=np.int64) @ bits.astype(np.int64)


def _sign_counters(p: Poly, points: PointSet) -> tuple[list[int], list[int]]:
    """Bit-plane counters of the positive and the negative part of p's values at points.

    ``exact_dtype`` of p's cube bound, ``value_bound``, refuses one at or
    past ``INT64_SAFE_BOUND`` first; then terms are grouped and counted by
    coefficient, as ``evaluate_batch`` describes.
    """
    exact_dtype(value_bound(p))
    groups: defaultdict[int, list[int]] = defaultdict(list)
    for mask, c in p.terms.items():
        groups[c].append(mask)
    t0, t1, t2, t3 = points.byte_tables()
    positive: list[int] = []
    negative: list[int] = []
    for c, masks in groups.items():
        count = [0, 0, 0]
        for i in range(0, len(masks), GROUP_CHUNK):
            _fold(count, [t0[m & 255] & t1[m >> 8 & 255] & t2[m >> 16 & 255] & t3[m >> 24]
                          for m in masks[i:i + GROUP_CHUNK]])
        counter = negative if c < 0 else positive
        for k, bit in enumerate(bin(abs(c))[:1:-1]):
            if bit == "1":
                for j, plane in enumerate(count):
                    _add_at(counter, plane, k + j)
    return positive, negative


def evaluate_batch(p: Poly, points: PointSet | range) -> np.ndarray:
    """Values of p at a point set, or on an aligned subcube.

    A range must be an aligned subcube ``range(s, s + 2**k)``, as from
    ``cube_blocks``; it goes through the zeta transform as a stack of one
    (``_subcube_values``), and its values come back in ``exact_dtype`` of
    p's cube bound, int8 to int64.  On either form, p's cube bound sum |c|
    at or past ``INT64_SAFE_BOUND`` raises ``CapacityError`` before
    anything is allocated or counted.  A ``PointSet`` narrower than p raises
    ``DimensionError``; any other input raises ``TypeError``.

    Points are bit-sliced (Biham, FSE 1997): one Python int per variable,
    whose bit j is that variable at point j.  A term covers the AND of its
    variables' columns, read as the AND of its mask bytes' entries in the
    point set's ``byte_tables``: three ANDs per term.

    Terms are grouped by coefficient.  A group's covered sets are built
    ``GROUP_CHUNK`` at a time and counted by ``_fold`` into bit planes:
    Harley-Seal carry-save adders, GROUP_ROWS rows at a pass.  The count,
    shifted by k, is added into the positive or the negative counter once
    per set bit k of |c|.  Below the bound each counter holds at most 62
    planes, so one bit-sliced subtraction gives at most 63 two's-complement
    planes, read as int64.
    """
    if isinstance(points, range):
        return _subcube_values([p], points)[0]
    if not isinstance(points, PointSet):
        raise TypeError(f"points must be a PointSet or a range, not {type(points).__name__}")
    if p.nvars > len(points.columns):
        raise DimensionError(
            f"a point set of width {len(points.columns)} cannot evaluate"
            f" a polynomial in {p.nvars} variables"
        )
    positive, negative = _sign_counters(p, points)
    # positive - negative; the final borrow is the sign plane.
    planes = []
    borrow = 0
    for a, b in zip_longest(positive, negative, fillvalue=0):
        planes.append(a ^ b ^ borrow)
        borrow = (~a & (b | borrow)) | (b & borrow)
    planes.append(borrow)
    while len(planes) > 1 and planes[-1] == planes[-2]:
        planes.pop()
    return _signed_values(planes, len(points))


def evaluate_stack(polys: list[Poly], points: PointSet | range) -> list[np.ndarray]:
    """Values of each polynomial at points, each as ``evaluate_batch`` gives it.

    On an aligned subcube the polynomials share stacked transforms, and each
    comes back in its stack's type, never narrower than its own, as
    ``_subcube_values`` describes; on a ``PointSet`` each one goes through
    ``evaluate_batch``.  Either way each one's cube bound is its stored ``value_bound``.
    """
    if isinstance(points, range):
        return _subcube_values(polys, points)
    return [evaluate_batch(p, points) for p in polys]


def sample_tuple_chunks(nvars: int, n_trials: int, rng: random.Random) -> list[int]:
    """Columns of n_trials uniform cube points: column i is x_{i+1}, drawn in variable order.

    Every bit is an independent uniform draw.  The name is older than the
    column form; benchmark traces time sampling under it.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    return [rng.getrandbits(n_trials) for _ in range(nvars)]


def sample_points(nvars: int, n_trials: int, rng: random.Random) -> PointSet:
    """n_trials uniform cube points in nvars variables, from ``sample_tuple_chunks``."""
    return PointSet(n_trials, sample_tuple_chunks(nvars, n_trials, rng))


def estimate_positive_proportion(
    p: Poly,
    n_trials: int,
    rng: random.Random | None = None,
) -> float:
    """Monte-Carlo estimate of the proportion of cube points where p > 0."""
    if rng is None:
        rng = random.SystemRandom()
    values = evaluate_batch(p, sample_points(p.nvars, n_trials, rng))
    return int((values > 0).sum()) / n_trials
