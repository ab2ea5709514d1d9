"""Sparse multilinear integer polynomials with the reduction x_i**2 = x_i.

A monomial is a bitmask over variable indices: bit (i - 1) set means x_i
is a factor.  Masks fit in one machine word (at most 64 variables), so the
product of two monomials is the bitwise OR of their masks; squares collapse
on their own and no monomial ever carries a repeated variable.

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

# Monomial masks (and cube points) must fit in one machine word.
NVARS_MAX = 64


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of 1-based variable indices."""
    mask = 0
    for i in indices:
        if not isinstance(i, int) or not 1 <= i <= NVARS_MAX:
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
    """Immutable-by-convention sparse polynomial; do not mutate ``terms``."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(nvars, bool) or not isinstance(nvars, int):
            raise TypeError("nvars must be an int")
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        if nvars > NVARS_MAX:
            raise CapacityError(f"at most {NVARS_MAX} variables supported, got {nvars}")
        limit = 1 << nvars
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mask, coeff in items:
            if isinstance(mask, bool) or not isinstance(mask, int):
                raise TypeError("monomial masks must be plain ints")
            if not 0 <= mask < limit:
                raise DimensionError(f"monomial mask {mask} does not fit in {nvars} variables")
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise TypeError("coefficients must be plain ints")
            if coeff:
                v = acc.get(mask, 0) + coeff
                if v:
                    acc[mask] = v
                elif mask in acc:
                    del acc[mask]
        self.terms = acc
        self.nvars = nvars

    # --- constructors ---

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        return cls(nvars)

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
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in rhs.terms.items():
            out[m] = out.get(m, 0) - c
        return Poly(self.nvars, out)

    def __rsub__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other) -> Poly:
        if isinstance(other, int) and not isinstance(other, bool):
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        rhs = self._coerce(other)
        a, b = self.terms, rhs.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 | m2
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(self.nvars, out)

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
        return f"Poly({self.nvars}, {self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            name = "*".join(f"x{i}" for i in indices_of(mask))
            if mask == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = name
            else:
                body = f"{abs(c)}*{name}"
            parts.append(f"{'-' if c < 0 else '+'} {body}")
        head = parts[0]
        head = f"-{head[2:]}" if head[0] == "-" else head[2:]
        return " ".join([head] + parts[1:])

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

    def evaluate(self, point: int | Sequence[int]) -> int:
        """Value at a Boolean cube point (mask or 0/1 sequence of width nvars)."""
        mask = _point_to_mask(point, self.nvars)
        total = 0
        for m, c in self.terms.items():
            if m & mask == m:
                total += c
        return total

    def substitute(self, images: Sequence[Poly]) -> Poly:
        """Replace x_i by images[i-1]; all images must share one variable count."""
        if len(images) != self.nvars:
            raise DimensionError(f"expected {self.nvars} images, got {len(images)}")
        if not images:
            raise DimensionError("cannot substitute into a polynomial with no variables")
        nv = images[0].nvars
        for img in images:
            if img.nvars != nv:
                raise DimensionError("images disagree on variable count")
        # Memoize products of image subsets: monomials often share factors.
        cache: dict[int, Poly] = {0: Poly.const(1, nv)}

        def product(mask: int) -> Poly:
            got = cache.get(mask)
            if got is not None:
                return got
            low = mask & -mask
            p = product(mask ^ low) * images[low.bit_length() - 1]
            cache[mask] = p
            return p

        acc: dict[int, int] = {}
        for mask, coeff in self.terms.items():
            for m2, c2 in product(mask).terms.items():
                acc[m2] = acc.get(m2, 0) + coeff * c2
        return Poly(nv, acc)

    def widen(self, nvars: int) -> Poly:
        """Reinterpret in a larger variable set; existing terms are unchanged."""
        if nvars < self.nvars:
            raise DimensionError(f"cannot widen from {self.nvars} to {nvars} variables")
        return Poly(nvars, self.terms)


def _point_to_mask(point: int | Sequence[int], nvars: int) -> int:
    if isinstance(point, bool):
        raise TypeError("cube points must be int masks or 0/1 sequences")
    if isinstance(point, int):
        if not 0 <= point < (1 << nvars):
            raise DimensionError(f"point {point} is not a {nvars}-bit mask")
        return point
    bits = list(point)
    if len(bits) != nvars:
        raise DimensionError(f"point has width {len(bits)}, expected {nvars}")
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"cube point entries must be 0 or 1, got {b!r}")
        if b:
            mask |= 1 << i
    return mask


# --- canonical text form ---


def poly_to_text(p: Poly) -> str:
    """Canonical block: ``nvars=<k>`` then one ``<coeff>:<indices>`` line per term."""
    lines = [f"nvars={p.nvars}"]
    for mask in sorted(p.terms):
        idxs = ",".join(str(i) for i in indices_of(mask))
        lines.append(f"{p.terms[mask]}:{idxs}")
    return "\n".join(lines)


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
    """The variable count of an ``nvars=<k>`` header line."""
    if not line.startswith("nvars="):
        raise FormatError(f"expected nvars= header, got {line!r}")
    try:
        return int(line[len("nvars="):])
    except ValueError:
        raise FormatError(f"bad variable count in {line!r}") from None


def poly_from_text(text: str) -> Poly:
    """Parse text holding exactly one canonical polynomial block."""
    blocks = split_blocks(text)
    if len(blocks) != 1:
        raise FormatError(f"expected one polynomial block, found {len(blocks)}")
    return poly_from_block(blocks[0])


def poly_from_block(lines: Sequence[str]) -> Poly:
    """Parse one block from ``split_blocks`` in the canonical form of ``poly_to_text``.

    Each term line holds a nonzero coefficient and strictly ascending indices
    in 1..NVARS_MAX, and the terms' masks strictly ascend.  Anything else
    raises ``FormatError``.
    """
    nvars = read_nvars(lines[0])
    terms: dict[int, int] = {}
    prev = -1
    for ln in lines[1:]:
        coeff_s, sep, idx_s = ln.partition(":")
        if not sep:
            raise FormatError(f"malformed term line {ln!r}")
        try:
            coeff = int(coeff_s)
        except ValueError:
            raise FormatError(f"bad coefficient in {ln!r}") from None
        if coeff == 0:
            raise FormatError(f"zero coefficient in canonical form: {ln!r}")
        mask = last = 0
        for tok in idx_s.split(",") if idx_s else ():
            try:
                i = int(tok)
            except ValueError:
                raise FormatError(f"bad variable list in {ln!r}") from None
            if not last < i <= NVARS_MAX:
                raise FormatError(
                    f"variable indices must strictly ascend within 1..{NVARS_MAX}: {ln!r}"
                )
            mask |= 1 << (i - 1)
            last = i
        if mask <= prev:
            raise FormatError(f"terms out of canonical order at {ln!r}")
        prev = mask
        terms[mask] = coeff
    try:
        return Poly(nvars, terms)
    except ValueError as exc:  # negative nvars, CapacityError, DimensionError
        raise FormatError(str(exc)) from None
