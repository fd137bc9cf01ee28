"""Unit tests for chaos-expansion arithmetic."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from chaoskit.chaos import (
    ChaosExpansion,
    CoefficientCapError,
    derivative,
    divergence,
    evaluate,
    expectation,
    hermite,
    l2_inner,
    multiply,
)
from chaoskit.tensor import (
    Tensor,
    basis_tensor,
    random_symmetric,
    symmetrize,
)


def I(t):
    return ChaosExpansion.integral(t)


@pytest.fixture
def e1():
    return basis_tensor(2, (0,))


@pytest.fixture
def e2():
    return basis_tensor(2, (1,))


class TestConstruction:
    def test_drops_zero_terms(self):
        F = ChaosExpansion(2, {1: Tensor.zeros(2, 1), 0: Tensor.scalar(2, 1.0)})
        assert list(F.terms) == [0]

    def test_rejects_asymmetric_terms(self):
        raw = Tensor(2, 2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            ChaosExpansion(2, {2: raw})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_coefficients(self, bad):
        # evaluate would otherwise return nan or inf at every point; the
        # coefficient tensors refuse such values when they are built
        with pytest.raises(ValueError, match="^order 1 tensor has non-finite"):
            I(Tensor(2, 1, [bad, 1.0], symmetric=True))
        with pytest.raises(ValueError, match="^order 0 tensor has non-finite"):
            ChaosExpansion.constant(2, bad)
        good = random_symmetric(2, 2, 1)
        with pytest.raises(ValueError, match="^order 3 tensor has non-finite"):
            ChaosExpansion(2, {2: good, 3: Tensor(2, 3, np.full((2,) * 3, bad), True)})

    def test_rejects_order_above_cap(self):
        with pytest.raises(CoefficientCapError):
            ChaosExpansion(2, {21: Tensor.zeros(2, 21)})

    def test_linear_ops(self, e1):
        F = I(e1)
        zero = ChaosExpansion(2, {})
        assert (F + zero).terms == F.terms
        assert not F.scale(0.0).terms
        G = F.scale(2.0)
        np.testing.assert_allclose(G.terms[1].coeffs, e1.scaled(2.0).coeffs, rtol=1e-9)


class TestMultiply:
    def test_square_of_first_chaos(self, e1):
        # H_1(x)^2 = H_2(x) + 1
        out = multiply(I(e1), I(e1))
        assert set(out.terms) == {0, 2}
        assert out.terms[0].item() == pytest.approx(1.0)
        want = basis_tensor(2, (0, 0))
        np.testing.assert_allclose(out.terms[2].coeffs, want.coeffs, rtol=1e-9)

    def test_orthogonal_first_chaos(self, e1, e2):
        out = multiply(I(e1), I(e2))
        assert set(out.terms) == {2}
        want = symmetrize(basis_tensor(2, (0, 1)))
        np.testing.assert_allclose(out.terms[2].coeffs, want.coeffs, rtol=1e-9)

    def test_second_chaos_product(self):
        # (xi1^2 - 1) * (xi1 xi2): no constant term, order-2 part 2*sym(e1 x e2)
        f = basis_tensor(2, (0, 0))
        g = symmetrize(basis_tensor(2, (0, 1)))
        out = multiply(I(f), I(g))
        assert set(out.terms) == {2, 4}
        assert expectation(out) == 0.0
        np.testing.assert_allclose(out.terms[2].coeffs, g.scaled(2.0).coeffs, rtol=1e-9)

    def test_commutative(self):
        F = I(random_symmetric(3, 2, 1))
        G = I(random_symmetric(3, 3, 2))
        left, right = multiply(F, G), multiply(G, F)
        assert set(left.terms) == set(right.terms)
        for k in left.terms:
            np.testing.assert_allclose(
                left.terms[k].coeffs, right.terms[k].coeffs, rtol=1e-12
            )

    def test_associative(self):
        F = I(random_symmetric(2, 2, 3))
        G = I(random_symmetric(2, 1, 4))
        H = I(random_symmetric(2, 2, 5))
        a = multiply(multiply(F, G), H)
        b = multiply(F, multiply(G, H))
        assert set(a.terms) == set(b.terms)
        for k in a.terms:
            np.testing.assert_allclose(
                a.terms[k].coeffs, b.terms[k].coeffs, rtol=1e-10, atol=1e-12
            )

    def test_cap(self):
        F = I(random_symmetric(2, 11, 1))
        with pytest.raises(CoefficientCapError):
            multiply(F, F)

    def test_dim_mismatch(self, e1):
        with pytest.raises(ValueError):
            multiply(I(e1), I(basis_tensor(3, (0,))))

    def test_oversized_product_refused(self):
        # the r = 0 term would hold 100^6 doubles (8 TB): refused before allocating
        F = I(random_symmetric(100, 3, 1))
        with pytest.raises(ValueError, match="product: dim 100 and order 6 need 8000000000000"):
            multiply(F, F)


class TestExpectation:
    def test_centered(self):
        for n in (1, 2, 3):
            assert expectation(I(random_symmetric(2, n, n))) == 0.0

    def test_constant(self):
        assert expectation(ChaosExpansion.constant(2, 4.5)) == 4.5

    def test_isometry_first_chaos(self, e1):
        assert expectation(multiply(I(e1), I(e1))) == pytest.approx(1.0)


class TestL2Inner:
    def test_diagonal(self):
        f = basis_tensor(2, (0, 0))
        assert l2_inner(I(f), I(f)) == pytest.approx(2.0)

    def test_cross_order_vanishes(self, e1):
        F = I(e1)
        G = I(random_symmetric(2, 2, 6))
        assert l2_inner(F, G) == 0.0

    def test_matches_product_expectation(self):
        rng = np.random.default_rng(7)
        f = random_symmetric(2, 2, 10)
        g = random_symmetric(2, 1, 11)
        F = I(f) + I(g) + ChaosExpansion.constant(2, float(rng.standard_normal()))
        assert l2_inner(F, F) == pytest.approx(expectation(multiply(F, F)), rel=1e-12)


class TestDerivative:
    def test_first_chaos(self, e1):
        dF = derivative(I(e1), 1)
        assert expectation(dF[(0,)]) == pytest.approx(1.0)
        assert not dF[(1,)].terms

    def test_second_chaos(self):
        # d/dxi1 of H_2(xi1) = 2 xi1
        dF = derivative(I(basis_tensor(2, (0, 0))), 1)
        entry = dF[(0,)]
        assert set(entry.terms) == {1}
        want = basis_tensor(2, (0,)).scaled(2.0)
        np.testing.assert_allclose(entry.terms[1].coeffs, want.coeffs, rtol=1e-9)

    def test_constant_has_zero_derivative(self):
        dF = derivative(ChaosExpansion.constant(2, 3.0), 1)
        assert all(not e.terms for e in dF.entries.values())

    def test_requires_positive_order(self, e1):
        with pytest.raises(ValueError):
            derivative(I(e1), 0)

    def test_entries_shared_within_orbit(self):
        dF = derivative(I(random_symmetric(2, 3, 12)), 2)
        assert dF[(0, 1)] is dF[(1, 0)]


class TestDivergence:
    def test_constant_field(self):
        entries = {
            (0,): ChaosExpansion.constant(2, 2.0),
            (1,): ChaosExpansion.constant(2, -1.0),
        }
        from chaoskit.chaos import HValuedChaos

        u = HValuedChaos(2, 1, entries)
        out = divergence(u)
        assert set(out.terms) == {1}
        assert np.allclose(out.terms[1].coeffs, [2.0, -1.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_recovers_scaled_integral(self, n):
        f = random_symmetric(2, n, 20 + n)
        F = I(f)
        out = divergence(derivative(F, 1))
        assert set(out.terms) == {n}
        np.testing.assert_allclose(out.terms[n].coeffs, n * f.coeffs, rtol=1e-12)

    def test_rejects_higher_tensor_order(self):
        u = derivative(I(random_symmetric(2, 2, 1)), 2)
        with pytest.raises(ValueError):
            divergence(u)


def hermite_reference(F, x):
    """Oracle: sum over every multi-index j of f_j prod_i H_{m_i(j)}(x_i)."""
    total = 0.0
    for k, t in F.terms.items():
        for j in itertools.product(range(F.dim), repeat=k):
            term = t.coeffs[j]
            for i in range(F.dim):
                term *= hermite(j.count(i), x[i])
            total += term
    return total


def _mixed_expansion(d, orders, seed):
    F = ChaosExpansion.constant(d, 0.25 + seed)
    for q in orders:
        F = F + I(random_symmetric(d, q, 10 * seed + q))
    return F


class TestEvaluate:
    @pytest.mark.parametrize("d, orders", [(1, (1, 4)), (2, (1, 2, 5)), (3, (2, 3)), (4, (1, 3))])
    def test_matches_hermite_reference(self, d, orders):
        F = _mixed_expansion(d, orders, d)
        pts = np.random.default_rng(d).standard_normal((6, d))
        out = evaluate(F, pts)
        for x, v in zip(pts, out):
            assert v == pytest.approx(hermite_reference(F, x), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("d, orders", [(1, (3,)), (2, (1, 2, 5)), (3, (2, 4))])
    def test_rows_independent_of_batch(self, d, orders):
        F = _mixed_expansion(d, orders, d + 1)
        pts = np.random.default_rng(d + 1).standard_normal((11, d))
        out = evaluate(F, pts)
        for i in range(len(pts)):
            assert out[i] == evaluate(F, pts[i])
        assert np.array_equal(out[2:9], evaluate(F, pts[2:9]))

    def test_hermite_second_order(self):
        F = I(basis_tensor(2, (0, 0)))
        assert evaluate(F, np.array([2.0, 0.0])) == pytest.approx(3.0)  # 4 - 1

    def test_mixed_term(self):
        F = I(symmetrize(basis_tensor(2, (0, 1))))
        assert evaluate(F, np.array([1.5, -2.0])) == pytest.approx(-3.0)

    def test_constant(self):
        assert evaluate(ChaosExpansion.constant(3, 7.5), np.zeros(3)) == 7.5

    def test_empty_expansion_is_zero(self):
        zero = ChaosExpansion(3, {})
        assert evaluate(zero, np.ones(3)) == 0.0
        out = evaluate(zero, np.ones((4, 3)))
        assert out.shape == (4,) and out.tobytes() == np.zeros(4).tobytes()

    def test_batch_shape(self):
        F = I(random_symmetric(2, 2, 30))
        pts = np.random.default_rng(0).standard_normal((17, 2))
        out = evaluate(F, pts)
        assert out.shape == (17,)
        assert out[3] == pytest.approx(evaluate(F, pts[3]))

    def test_length_mismatch(self):
        F = I(random_symmetric(2, 2, 31))
        with pytest.raises(ValueError):
            evaluate(F, np.zeros(3))

    @pytest.mark.parametrize("seed", range(6))
    def test_product_formula_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        F = I(random_symmetric(d, n, 40 + seed))
        G = I(random_symmetric(d, m, 50 + seed))
        pts = rng.standard_normal((25, d))
        lhs = evaluate(multiply(F, G), pts)
        rhs = evaluate(F, pts) * evaluate(G, pts)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_derivative_matches_finite_difference(self):
        F = I(random_symmetric(3, 3, 60)) + ChaosExpansion.constant(3, 0.7)
        dF = derivative(F, 1)
        xi = np.array([0.3, -1.2, 0.8])
        h = 1e-5
        for j in range(3):
            up, down = xi.copy(), xi.copy()
            up[j] += h
            down[j] -= h
            fd = (evaluate(F, up) - evaluate(F, down)) / (2 * h)
            assert evaluate(dF[(j,)], xi) == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestHermite:
    def test_small_cases(self):
        x = 1.7
        assert hermite(0, x) == 1.0
        assert hermite(1, x) == x
        assert hermite(2, x) == pytest.approx(x * x - 1.0)
        assert hermite(3, 0.0) == 0.0
        assert hermite(4, 1.0) == pytest.approx(-2.0)  # 1 - 6 + 3

    @pytest.mark.parametrize("n", range(8))
    def test_matches_reference_series(self, n):
        xs = np.linspace(-3, 3, 11)
        coef = [0.0] * n + [1.0]
        assert np.allclose(hermite(n, xs), hermeval(xs, coef), rtol=1e-12, atol=1e-12)

    def test_isometry_scaling(self):
        # E[I_n(h^{x n})^2] = n! for a unit h forces this normalization
        nodes_w = np.polynomial.hermite_e.hermegauss(24)
        nodes, w = nodes_w
        w = w / math.sqrt(2 * math.pi)
        for n in range(6):
            vals = np.asarray(hermite(n, nodes))
            assert float(np.sum(w * vals * vals)) == pytest.approx(
                math.factorial(n), rel=1e-10
            )

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)
