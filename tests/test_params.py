import pytest

from cubesign.errors import FormatError
from cubesign.params import (
    SchemeParams,
    params_from_line,
    params_to_line,
    parse_param_overrides,
)


def test_default_profile():
    p = SchemeParams()
    assert (p.n, p.t, p.b, p.d, p.r) == (31, 3, 3, 2, 1)
    assert p.trials == 3000
    assert p.threshold == 0.03


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 3},            # too few variables
        {"n": 32},           # n + 1 must fit the 32-bit monomial word
        {"t": 0},
        {"b": 0},
        {"n": 8, "b": 9},    # monomial degree above nvars
        {"d": 0},
        {"d": 3},
        {"r": 0},
        {"trials": 0},
        {"threshold": 0.0},
        {"threshold": 1.0},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        SchemeParams(**kwargs)


def test_boundary_n():
    assert SchemeParams(n=31).n == 31
    assert SchemeParams(n=4, b=3).n == 4


def test_parse_overrides():
    p = parse_param_overrides("n=8, trials=64;threshold=0.1")
    assert (p.n, p.trials, p.threshold) == (8, 64, 0.1)
    # untouched fields keep their defaults
    assert (p.t, p.b, p.d, p.r) == (3, 3, 2, 1)


def test_parse_overrides_empty_is_identity():
    assert parse_param_overrides("") == SchemeParams()
    assert parse_param_overrides(None) == SchemeParams()


def test_parse_overrides_rejects_garbage():
    with pytest.raises(ValueError):
        parse_param_overrides("n")
    with pytest.raises(ValueError):
        parse_param_overrides("bogus=1")
    with pytest.raises(ValueError):
        parse_param_overrides("n=eight")


def test_params_line_round_trip():
    p = SchemeParams(n=10, trials=800, threshold=0.05)
    line = params_to_line(p)
    assert line.startswith("params ")
    assert params_from_line(line) == p


def test_params_line_rejects_malformed():
    with pytest.raises(ValueError):
        params_from_line("n=31 t=3")
    with pytest.raises(ValueError):
        params_from_line("params n=31")
    line = params_to_line(SchemeParams(n=10, trials=800, threshold=0.05))
    for spelling in (
        line.replace("n=10", "n=010"),
        line.replace("n=10", "n=+10"),
        line.replace("trials=800", "trials=8_00"),
        line.replace("trials=800", "trials=８00"),
        line.replace("threshold=0.05", "threshold=0.050"),
        line.replace("threshold=0.05", "threshold=5e-2"),
        line.replace(" t=", "  t="),
        line + " ",
        line + " n=10",                                   # repeated field
        line.replace("n=10 t=3", "t=3 n=10"),             # fields out of order
    ):
        with pytest.raises(FormatError):
            params_from_line(spelling)
