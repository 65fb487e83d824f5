import math

import pytest
from hypothesis import given, strategies as st

from jamag import rootfind
from jamag.errors import InvalidBracket, NoConvergence, NoSignChange
from jamag.rootfind import expand_bracket, find_root

TIGHT = {"abs_tol": 1e-14, "rel_tol": 1e-14}


def test_config_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        find_root(lambda v: v, (-1.0, 1.0), abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        find_root(lambda v: v, (-1.0, 1.0), abs_tol=1e-12, rel_tol=-1.0)


def test_quadratic_root():
    x = find_root(lambda v: v * v - 4.0, (0.0, 10.0), **TIGHT)
    assert math.isclose(x, 2.0, rel_tol=1e-12)


def test_exact_zero_at_endpoint():
    assert find_root(lambda v: v - 2.0, (2.0, 5.0), **TIGHT) == 2.0
    assert find_root(lambda v: v - 5.0, (2.0, 5.0), **TIGHT) == 5.0


def test_same_sign_bracket_rejected():
    with pytest.raises(InvalidBracket):
        find_root(lambda v: v * v + 1.0, (-1.0, 1.0), **TIGHT)


def test_iteration_budget_enforced(monkeypatch):
    monkeypatch.setattr(rootfind, "_MAX_ITER", 2)
    with pytest.raises(NoConvergence):
        find_root(lambda v: math.cos(v) - v, (0.0, 10.0), abs_tol=1e-300, rel_tol=0.0)


def test_transcendental_root():
    x = find_root(lambda v: math.cos(v) - v, (0.0, 1.0), **TIGHT)
    assert math.isclose(math.cos(x), x, rel_tol=1e-12)


def test_steep_flat_mix():
    # flat near the root, steep away from it
    f = lambda v: math.tanh(50.0 * (v - 0.3))
    x = find_root(f, (-10.0, 10.0), **TIGHT)
    assert math.isclose(x, 0.3, abs_tol=1e-10)


@given(
    root=st.floats(min_value=-100.0, max_value=100.0),
    scale=st.floats(min_value=0.01, max_value=100.0),
)
def test_cubic_roots_recovered(root, scale):
    f = lambda v: scale * (v - root) ** 3 + scale * (v - root)
    x = find_root(f, (root - 50.0, root + 50.0), abs_tol=1e-12, rel_tol=1e-12)
    assert math.isclose(x, root, rel_tol=1e-9, abs_tol=1e-9)


def test_expand_bracket_right():
    lo, hi = expand_bracket(lambda v: v - 5.0, 1.0)
    assert lo <= 5.0 <= hi
    x = find_root(lambda v: v - 5.0, (lo, hi), **TIGHT)
    assert math.isclose(x, 5.0, rel_tol=1e-12)


def test_expand_bracket_left():
    lo, hi = expand_bracket(lambda v: v + 7.0, -1.0)
    assert lo <= -7.0 <= hi


def test_expand_bracket_respects_lo_limit():
    # f > 0 on [0, inf); with the domain floored at 0 no sign change exists
    with pytest.raises(NoSignChange):
        expand_bracket(lambda v: v + 0.5, 1.0, lo_limit=0.0)


def test_expand_bracket_zero_at_start():
    lo, hi = expand_bracket(lambda v: v - 1.0, 1.0)
    assert lo <= 1.0 <= hi
