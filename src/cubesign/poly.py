"""Sparse multilinear integer polynomials with the reduction x_i**2 = x_i.

A monomial is a bitmask over variable indices: bit (i - 1) set means x_i
is a factor.  Masks fit in one 32-bit word (at most 32 variables, the
width of a hashed message), so the product of two monomials is the bitwise
OR of their masks; squares collapse on their own and no monomial ever
carries a repeated variable.

A polynomial is a mapping {mask: coefficient} plus the ambient variable
count ``nvars``.  Coefficients are plain Python ints, so arithmetic stays
exact at any magnitude.  Zero coefficients are never stored: equality is
term-map equality, and the serialized form (terms in ascending mask order)
is canonical.

    x1*x2 - 2*x3  ->  Poly(3, {0b011: 1, 0b100: -2})

Points of the Boolean cube are encoded the same way: bit (i - 1) of the
point is the value assigned to x_i.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .errors import CapacityError, DimensionError, FormatError

# Monomial masks (and cube points) must fit in one 32-bit word.
NVARS_MAX = 32
# Pair count from which a product of term maps is summed in numpy (``_times``).
VECTOR_PAIRS = 1 << 8
# Pairs per chunk of the vectorised product's outer arrays.
CHUNK_PAIRS = 1 << 16
# Value bound under which int64 arithmetic stays exact.
INT64_SAFE_BOUND = 1 << 62


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of 1-based variable indices."""
    mask = 0
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= NVARS_MAX:
            raise ValueError(f"variable index {i!r} out of range 1..{NVARS_MAX}")
        mask |= 1 << (i - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Ascending 1-based variable indices present in a monomial mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class Poly:
    """Immutable-by-convention sparse polynomial; do not mutate ``terms``.

    Its cube bound, ``value_bound``, is summed on first use and stored with it.
    """

    __slots__ = ("nvars", "terms", "_bound")

    def __init__(self, nvars: int, terms: Mapping[int, int]):
        _check_nvars(nvars)
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        limit = 1 << nvars
        acc: dict[int, int] = {}
        for mask, coeff in terms.items():
            if isinstance(mask, bool) or not isinstance(mask, int):
                raise TypeError("monomial masks must be plain ints")
            if not 0 <= mask < limit:
                raise DimensionError(f"monomial mask {mask} does not fit in {nvars} variables")
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise TypeError("coefficients must be plain ints")
            if coeff:
                acc[mask] = coeff
        self.terms = acc
        self.nvars = nvars
        self._bound: int | None = None

    # --- constructors ---

    @classmethod
    def _unchecked(cls, nvars: int, terms: dict[int, int]) -> Poly:
        """Wrap a term map the caller owns and has checked, with no copy.

        Its masks must lie below 2**nvars and its coefficients must be
        nonzero plain ints; ``Poly(...)`` checks both.
        """
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._bound = None
        return p

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        return cls(nvars, {})

    @classmethod
    def const(cls, value: int, nvars: int) -> Poly:
        return cls(nvars, {0: value} if value else {})

    @classmethod
    def variable(cls, index: int, nvars: int) -> Poly:
        """The polynomial x_index (1-based)."""
        if not 1 <= index <= nvars:
            raise DimensionError(f"variable x{index} does not exist with {nvars} variables")
        return cls(nvars, {1 << (index - 1): 1})

    # --- ring structure ---

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DimensionError(
                    f"mixed variable counts: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Poly.const(other, self.nvars)
        return None

    def __add__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in rhs.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly._unchecked(self.nvars, _drop_zeros(out))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._unchecked(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + -rhs

    def __rsub__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + -self

    def __mul__(self, other) -> Poly:
        if isinstance(other, int) and not isinstance(other, bool):
            terms = {m: c * other for m, c in self.terms.items()} if other else {}
            return Poly._unchecked(self.nvars, terms)
        if not isinstance(other, Poly):
            return NotImplemented
        rhs = self._coerce(other)
        return Poly._unchecked(self.nvars, _mul_terms(self.terms, rhs.terms))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.terms})"

    # --- queries ---

    def support(self) -> int:
        """Mask of all variables that occur in some term."""
        out = 0
        for m in self.terms:
            out |= m
        return out

    def degree(self) -> int:
        """Largest number of variables in a term (0 for constants and zero)."""
        return max((m.bit_count() for m in self.terms), default=0)

    # --- evaluation and substitution ---

    def evaluate(self, point: int) -> int:
        """Value at a Boolean cube point, given as an nvars-bit mask."""
        if isinstance(point, bool) or not isinstance(point, int):
            raise TypeError(f"a cube point is an int mask, not {type(point).__name__}")
        if not 0 <= point < (1 << self.nvars):
            raise DimensionError(f"point {point} is not a {self.nvars}-bit mask")
        total = 0
        for m, c in self.terms.items():
            if m & point == m:
                total += c
        return total

    def substitute(self, images: Sequence[Poly]) -> Poly:
        """Replace x_i by images[i-1]; all images must share one variable count.

        Image products that ``_times`` sums in numpy stay array pairs, in the
        cache and in later products, until ``_add_parts`` adds them all at once.
        """
        if len(images) != self.nvars:
            raise DimensionError(f"expected {self.nvars} images, got {len(images)}")
        if not images:
            raise DimensionError("cannot substitute into a polynomial with no variables")
        nv = images[0].nvars
        for img in images:
            if img.nvars != nv:
                raise DimensionError("images disagree on variable count")
        acc: dict[int, int] = {}
        if all(len(img.terms) == 1 and 1 in img.terms.values() for img in images):
            # Images are monomials of coefficient 1, as for a variable
            # relabelling: a mask maps to the OR of its bits' image masks.
            bits = [next(iter(img.terms)) for img in images]
            for mask, coeff in self.terms.items():
                m = 0
                while mask:
                    low = mask & -mask
                    m |= bits[low.bit_length() - 1]
                    mask ^= low
                acc[m] = acc.get(m, 0) + coeff
            return Poly._unchecked(nv, _drop_zeros(acc))
        # Memoize the products of image subsets (``_times``): monomials often
        # share factors.  The product for a mask is the one for the mask
        # without its lowest bit times that bit's image.  Only the result is
        # built as a Poly, and the cache is freed on return (a recursive
        # closure would hold it in a reference cycle until the next collection).
        cache: dict[int, dict[int, int] | tuple] = {0: {0: 1}}
        parts = []
        for mask, coeff in self.terms.items():
            missing = []
            m = mask
            while m not in cache:
                missing.append(m)
                m ^= m & -m
            prod = cache[m]
            for m in reversed(missing):
                img = images[(m & -m).bit_length() - 1]
                prod = cache[m] = _times(prod, img.terms, value_bound(img))
            if isinstance(prod, dict):
                for m2, c2 in prod.items():
                    acc[m2] = acc.get(m2, 0) + coeff * c2
            elif len(prod[0]):  # an empty one adds nothing, and its coefficient may pass int64
                parts.append((coeff, prod))
        if parts:
            acc = _add_parts(acc, parts)
        return Poly._unchecked(nv, _drop_zeros(acc))

    def widen(self, nvars: int) -> Poly:
        """Reinterpret in a larger variable set; existing terms are unchanged."""
        _check_nvars(nvars)
        if nvars < self.nvars:
            raise DimensionError(f"cannot widen from {self.nvars} to {nvars} variables")
        return Poly._unchecked(nvars, dict(self.terms))


def value_bound(p: Poly) -> int:
    """A bound on |p| over the cube: sum |c|, summed once per polynomial."""
    if p._bound is None:
        p._bound = sum(map(abs, p.terms.values()))
    return p._bound


def _check_nvars(nvars: int) -> None:
    if isinstance(nvars, bool) or not isinstance(nvars, int):
        raise TypeError("nvars must be an int")
    if nvars > NVARS_MAX:
        raise CapacityError(f"at most {NVARS_MAX} variables supported, got {nvars}")


def _drop_zeros(terms: dict[int, int]) -> dict[int, int]:
    """Delete the zero coefficients of a term map in place and return it."""
    for m in [m for m, c in terms.items() if not c]:
        del terms[m]
    return terms


def _mul_terms(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Term map of the product of two term maps, with no zero coefficients (see ``_times``)."""
    prod = _times(a, b, sum(map(abs, b.values())))
    return prod if isinstance(prod, dict) else dict(zip(prod[0].tolist(), prod[1].tolist()))


def _times(a, b: Mapping[int, int], b_bound: int):
    """The product of a, a term map or an array pair, and the term map b of sum|b| = b_bound.

    sum|a| * sum|b| bounds every coefficient and partial sum of the product.  Below
    INT64_SAFE_BOUND, ``_mul_arrays`` sums it in int64 as an array pair if a is one or
    reaches ``VECTOR_PAIRS`` pairs with b.  Otherwise a dict loop sums Python ints.
    """
    if isinstance(a, tuple):
        if int(abs(a[1]).sum()) * b_bound < INT64_SAFE_BOUND:
            return _mul_arrays(a, _as_arrays(b)) if len(a[0]) else a
        a = dict(zip(a[0].tolist(), a[1].tolist()))
    elif len(a) * len(b) >= VECTOR_PAIRS and sum(map(abs, a.values())) * b_bound < INT64_SAFE_BOUND:
        return _mul_arrays(_as_arrays(a), _as_arrays(b))
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, int] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 | m2
            out[m] = out.get(m, 0) + c1 * c2
    return _drop_zeros(out)


def _as_arrays(terms: Mapping[int, int]) -> tuple:
    """A term map as an array pair: uint64 masks and int64 coefficients."""
    import numpy as np

    return (np.fromiter(terms, dtype=np.uint64, count=len(terms)),
            np.fromiter(terms.values(), dtype=np.int64, count=len(terms)))


def _sum_by_mask(*pairs) -> tuple:
    """The array pairs as one, with one entry per mask: masks ascending, zero sums dropped.

    One sort of the keys mask << 32 | position orders both arrays: masks fit
    in 32 bits, and no array holds 2**32 entries.
    """
    import numpy as np

    masks, coeffs = pairs[0] if len(pairs) == 1 else map(np.concatenate, zip(*pairs))
    keys = np.sort(masks << 32 | np.arange(len(masks), dtype=np.uint64))
    masks = keys >> 32
    first = np.ones(min(len(masks), 1), bool)  # the first mask, if any, starts a run
    starts = np.flatnonzero(np.concatenate((first, masks[1:] != masks[:-1])))
    sums = np.add.reduceat(coeffs[keys & 0xFFFFFFFF], starts)
    return masks[starts][sums != 0], sums[sums != 0]


def _mul_arrays(a: tuple, b: tuple) -> tuple:
    """The product of two array pairs by outer OR and outer product in numpy.

    The caller guarantees sum|a| * sum|b| < INT64_SAFE_BOUND.  Each chunk of
    ``CHUNK_PAIRS // len(longer)`` shorter-side rows is summed per mask, then the chunks.
    """
    (a_masks, a_coeffs), (b_masks, b_coeffs) = sorted((a, b), key=lambda pair: len(pair[0]))
    if not len(a_masks):
        return a_masks, a_coeffs
    rows = max(1, CHUNK_PAIRS // len(b_masks))
    chunks = [_sum_by_mask(((a_masks[i:i + rows, None] | b_masks).ravel(),
                            (a_coeffs[i:i + rows, None] * b_coeffs).ravel()))
              for i in range(0, len(a_masks), rows)]
    return chunks[0] if len(chunks) == 1 else _sum_by_mask(*chunks)


def _add_parts(acc: dict[int, int], parts: list) -> dict[int, int]:
    """The term map acc plus each (coeff, array product) of parts, times coeff.

    If sum|acc| plus each |coeff| * sum|product| is below INT64_SAFE_BOUND,
    all are concatenated and summed once in int64; otherwise in Python ints.
    """
    bound = sum(abs(c) * int(abs(p[1]).sum()) for c, p in parts)
    if bound + sum(map(abs, acc.values())) < INT64_SAFE_BOUND:
        masks, coeffs = _sum_by_mask(_as_arrays(acc), *((p[0], c * p[1]) for c, p in parts))
        return dict(zip(masks.tolist(), coeffs.tolist()))
    for c, (masks, coeffs) in parts:
        for m, x in zip(masks.tolist(), coeffs.tolist()):
            acc[m] = acc.get(m, 0) + c * x
    return acc


# --- canonical text form ---


def _byte_indices(k: int) -> tuple[str, ...]:
    """The written indices of each byte value at byte offset k of a mask, each with a comma after.

    Entry 0 is empty.  Entry b is entry b without its top bit, then that bit's
    index and a comma, so the row costs one short string per entry to build.
    """
    row = [""]
    for b in range(1, 256):
        top = b.bit_length()
        row.append(f"{row[b ^ (1 << (top - 1))]}{8 * k + top},")
    return tuple(row)


# _BYTE_INDICES[k][b]: the written indices of byte value b at byte offset k
# of a mask, each with a comma after, e.g. _BYTE_INDICES[1][0b1011] == "9,10,12,".
_BYTE_INDICES = tuple(_byte_indices(k) for k in range(NVARS_MAX // 8))


def poly_to_text(p: Poly) -> str:
    """Canonical block: ``nvars=<k>`` then one ``<coeff>:<indices>`` line per term.

    Terms are written in ascending mask order, each as one f-string over the
    ``_BYTE_INDICES`` entries of its mask's four bytes.  Each line's last comma
    is then dropped from the joined text.
    """
    terms = p.terms
    r0, r1, r2, r3 = _BYTE_INDICES
    lines = [f"nvars={p.nvars}"]
    lines += [f"{terms[m]}:{r0[m & 255]}{r1[m >> 8 & 255]}{r2[m >> 16 & 255]}{r3[m >> 24]}"
              for m in sorted(terms)]
    # Only a line's last comma can come before a newline; the header has none.
    return "\n".join(lines).replace(",\n", "\n").rstrip(",")


def split_blocks(text: str) -> list[list[str]]:
    """Blank-line-separated blocks of serialized text, each a list of stripped lines."""
    blocks: list[list[str]] = []
    current: list[str] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln:
            current.append(ln)
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return blocks


def read_nvars(line: str) -> int:
    """The variable count of an ``nvars=<k>`` header, k <= NVARS_MAX in plain ASCII decimal."""
    if not line.startswith("nvars="):
        raise FormatError(f"expected nvars= header, got {line!r}")
    digits = line[len("nvars="):]
    try:
        nvars = int(digits)
    except ValueError:
        nvars = -1
    if nvars < 0 or str(nvars) != digits:
        raise FormatError(f"bad variable count in {line!r}")
    if nvars > NVARS_MAX:
        raise FormatError(f"at most {NVARS_MAX} variables supported, got {nvars}")
    return nvars


def poly_from_text(text: str) -> Poly:
    """Parse text holding exactly one canonical polynomial block."""
    blocks = split_blocks(text)
    if len(blocks) != 1:
        raise FormatError(f"expected one polynomial block, found {len(blocks)}")
    return poly_from_block(blocks[0])


# The written form of each variable index, mapped to its bit.
_INDEX_BITS = {str(i): 1 << (i - 1) for i in range(1, NVARS_MAX + 1)}
# The written form of each small nonzero coefficient, mapped to its value.
_SMALL_COEFFS = {str(c): c for c in range(-64, 65) if c}


def poly_from_block(lines: Sequence[str]) -> Poly:
    """Parse one block from ``split_blocks`` in the canonical form of ``poly_to_text``.

    Each term line holds a nonzero coefficient written as ``-?[1-9][0-9]*``
    and strictly ascending indices in 1..nvars written as ``[1-9][0-9]*``,
    and the terms' masks strictly ascend.  Anything else raises ``FormatError``.
    Since every term is checked here, the result is built unchecked.
    """
    nvars = read_nvars(lines[0])
    terms: dict[int, int] = {}
    prev = -1
    for ln in lines[1:]:
        coeff_s, sep, idx_s = ln.partition(":")
        if not sep:
            raise FormatError(f"malformed term line {ln!r}")
        coeff = _SMALL_COEFFS.get(coeff_s)
        if coeff is None:
            try:
                coeff = int(coeff_s)
            except ValueError:
                coeff = 0
            if not coeff or str(coeff) != coeff_s:
                raise FormatError(f"coefficient is not a nonzero plain decimal in {ln!r}")
        mask = last = 0
        for tok in idx_s.split(",") if idx_s else ():
            bit = _INDEX_BITS.get(tok, 0)
            if bit <= last:
                raise FormatError(
                    f"variable indices must be plain decimals strictly ascending"
                    f" within 1..{NVARS_MAX}: {ln!r}"
                )
            mask |= bit
            last = bit
        if mask <= prev:
            raise FormatError(f"terms out of canonical order at {ln!r}")
        prev = mask
        terms[mask] = coeff
    if prev >= 1 << nvars:  # the largest mask, since masks ascend
        raise FormatError(f"a variable index exceeds nvars={nvars}")
    return Poly._unchecked(nvars, terms)
