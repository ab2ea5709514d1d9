"""Scheme parameter sets and their one-line text form."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import FormatError
from .poly import NVARS_MAX


@dataclass(frozen=True)
class SchemeParams:
    """Knobs for key generation, signing, and verification.

    n          variables in the key algebra (signatures live in n + 1)
    t          terms in each public sparse polynomial
    b          maximum degree of those terms
    d          maximum degree of the seed monomial in indicator sampling
    r          multiplication rounds in indicator sampling
    trials     Monte-Carlo sample count per verification side
    threshold  accepted gap between the two positive proportions

    Defaults are the recommended production profile; tests use reduced
    profiles (small n) so exact enumeration stays cheap.
    """

    n: int = 31
    t: int = 3
    b: int = 3
    d: int = 2
    r: int = 1
    trials: int = 3000
    threshold: float = 0.03

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"n must be at least 4, got {self.n}")
        if self.n + 1 > NVARS_MAX:
            raise ValueError(f"n + 1 must fit in {NVARS_MAX} variables, got n={self.n}")
        if not 1 <= self.b <= self.n:
            raise ValueError(f"b must be in 1..n, got {self.b}")
        if not 1 <= self.d <= 2:
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.t < 1:
            raise ValueError(f"t must be positive, got {self.t}")
        if self.r < 1:
            raise ValueError(f"r must be positive, got {self.r}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be strictly between 0 and 1, got {self.threshold}")


# Each field's name and value type, in field order; a default's type is its field's.
_FIELD_TYPES = {f.name: type(f.default) for f in fields(SchemeParams)}


def _read_fields(items) -> dict[str, int | float]:
    """Typed values of ``key=value`` items; a repeated key keeps its last value."""
    fields = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise FormatError(f"expected key=value, got {item!r}")
        key = key.strip()
        kind = _FIELD_TYPES.get(key)
        if kind is None:
            raise FormatError(f"unknown parameter {key!r}")
        try:
            fields[key] = kind(value.strip())
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise FormatError(f"parameter {key} needs {what}, got {value!r}") from None
    return fields


def parse_param_overrides(spec: str | None) -> SchemeParams:
    """The default profile with comma- or semicolon-separated ``key=value`` overrides."""
    items = (spec or "").replace(";", ",").split(",")
    return SchemeParams(**_read_fields(item for item in items if item.strip()))


def params_to_line(p: SchemeParams) -> str:
    """``params`` then ``name=value`` for every field in field order, values by ``repr``."""
    return " ".join(["params", *(f"{name}={getattr(p, name)!r}" for name in _FIELD_TYPES)])


def params_from_line(line: str) -> SchemeParams:
    """Parse a params line; it must be exactly the line ``params_to_line`` writes."""
    tokens = line.split()
    if not tokens or tokens[0] != "params":
        raise FormatError(f"expected a params line, got {line!r}")
    fields = _read_fields(tokens[1:])
    missing = set(_FIELD_TYPES) - set(fields)
    if missing:
        raise FormatError(f"params line is missing {sorted(missing)}")
    try:
        params = SchemeParams(**fields)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if params_to_line(params) != line:
        raise FormatError(f"params line is not in canonical form: {line!r}")
    return params
