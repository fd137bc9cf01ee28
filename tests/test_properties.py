"""Property tests: the closed form against its independent oracles.

Hypothesis draws small (d, n, m, k, r, seed) and checks that the
symbolic chaos-arithmetic oracle reproduces the closed-form E det, and
that the squared-minor form of T_r reproduces the table's T_r (and T_0
at r = 0).  Derandomized with a bounded example count, so every run
checks the same cases in bounded time; the seeded sweeps elsewhere
stay as they are.
"""

import pytest

pytest.importorskip("hypothesis")  # not a declared dependency of chaoskit
from hypothesis import given, settings, strategies as st  # noqa: E402

from chaoskit.malliavin import (  # noqa: E402
    expected_det,
    expected_det_chaos,
    random_pair,
    t0_term,
    tr_term,
    tr_term_direct,
)
from chaoskit.verify import _det_scale  # noqa: E402

_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100, database=None)


@st.composite
def cases(draw, max_dim=3, max_order=4):
    """(pair, k, r) with d, n, m small and r in [0, min(n, m) - k]."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_order))
    m = draw(st.integers(1, max_order))
    k = draw(st.integers(1, min(n, m)))
    r = draw(st.integers(0, min(n, m) - k))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_pair(d, n, m, seed), k, r


def _close(got, want, pair):
    # relative, with an absolute floor at the determinant's natural scale
    # n!^2 m!^2 ||f||^2 ||g||^2 for values that cancel to ~0 (d = 1 pairs)
    return abs(got - want) <= 1e-10 * abs(want) + 1e-12 * _det_scale(pair)


@_SETTINGS
@given(cases())
def test_symbolic_oracle_matches_closed_form(case):
    pair, k, _ = case
    assert _close(expected_det_chaos(pair, k), expected_det(pair, k), pair)


@_SETTINGS
@given(cases())
def test_direct_term_matches_table_term(case):
    pair, k, r = case
    want = t0_term(pair, k) if r == 0 else tr_term(pair, k, r)
    assert _close(tr_term_direct(pair, k, r), want, pair)
