"""Property tests: the closed form against its independent oracles, and
the tensor and chaos identities it rests on.

Hypothesis draws small (d, n, m, k, r, seed) and checks that the
symbolic chaos-arithmetic oracle reproduces the closed-form E det, that
the squared-minor form of T_r reproduces the table's T_r (from terms(k))
for every r >= 0, and that the contraction swap, the hat expansion and the
product formula (pointwise) hold.  Derandomized with a bounded example
count, so every run checks the same cases in bounded time; the seeded
sweeps elsewhere stay as they are.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # not a declared dependency of chaoskit
from hypothesis import given, settings, strategies as st  # noqa: E402

from chaoskit.chaos import ChaosExpansion, evaluate, multiply  # noqa: E402
from chaoskit.malliavin import (  # noqa: E402
    ContractionTable,
    expected_det,
    expected_det_chaos,
    random_pair,
    tr_term_direct,
)
from chaoskit.tensor import (  # noqa: E402
    contract,
    hat_contract,
    inner,
    norm,
    random_symmetric,
    symmetrize,
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
    t0, tr = ContractionTable(pair).terms(k)
    assert _close(tr_term_direct(pair, k, r), (t0, *tr)[r], pair)


@st.composite
def four_tensors(draw, max_dim=3, max_order=4):
    """(f, h, g, ell) of orders (n, n, m, m) and r in [0, min(n, m) - 1]."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_order))
    m = draw(st.integers(1, max_order))
    r = draw(st.integers(0, min(n, m) - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    orders = (n, n, m, m)
    return tuple(random_symmetric(d, o, [seed, j]) for j, o in enumerate(orders)), r


def _close_to_norms(lhs, rhs, tensors):
    # both sides are bounded by the product of the four norms (Cauchy-Schwarz)
    return abs(lhs - rhs) <= 1e-12 * math.prod(norm(t) for t in tensors)


@_SETTINGS
@given(four_tensors())
def test_contraction_swap(case):
    # <f x_{n-r} h, g x_{m-r} ell> = <f x_r g, h x_r ell>
    (f, h, g, ell), r = case
    n, m = f.order, g.order
    lhs = inner(contract(f, h, n - r), contract(g, ell, m - r))
    rhs = inner(contract(f, g, r), contract(h, ell, r))
    assert _close_to_norms(lhs, rhs, (f, h, g, ell))


@_SETTINGS
@given(four_tensors())
def test_hat_expansion(case):
    # <sym(f x_r g), sym(ell x_r h)> = (n-r)! (m-r)! / (n+m-2r)!
    #     * sum_s C(n-r, s) C(m-r, s) hat(f, g, ell, h; r, s)
    (f, h, g, ell), r = case
    n, m = f.order, g.order
    lhs = inner(symmetrize(contract(f, g, r)), symmetrize(contract(ell, h, r)))
    total = sum(
        math.comb(n - r, s) * math.comb(m - r, s) * hat_contract(f, g, ell, h, r, s)
        for s in range(min(n - r, m - r) + 1)
    )
    weight = math.factorial(n - r) * math.factorial(m - r) / math.factorial(n + m - 2 * r)
    assert _close_to_norms(lhs, weight * total, (f, h, g, ell))


@_SETTINGS
@given(cases())
def test_product_formula_pointwise(case):
    # I_n(f) I_m(g) = sum_r r! C(n,r) C(m,r) I_{n+m-2r}(f x_r g), at every point
    pair, _, _ = case
    F, G = (ChaosExpansion.integral(t) for t in (pair.f, pair.g))
    pts = np.random.default_rng(pair.n + 10 * pair.m).standard_normal((20, pair.dim))
    lhs = evaluate(multiply(F, G), pts)
    rhs = evaluate(F, pts) * evaluate(G, pts)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)
