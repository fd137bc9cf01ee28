"""Unit tests for the iterated Malliavin matrix machinery.

The worked pair used throughout: d = 2, F = I_2(e1 x e1) = xi1^2 - 1 and
G = I_2(sym(e1 x e2)) = xi1 xi2, whose determinant at k = 1 is 4 xi1^4
with expectation 12, and whose covariance determinant is 2.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from chaoskit import malliavin, tensor, verify
from chaoskit.chaos import (
    FACTORIAL_CAP,
    ChaosExpansion,
    derivative,
    evaluate,
    expectation,
    multiply,
)
from chaoskit.malliavin import (
    ContractionTable,
    MalliavinPair,
    Verdict,
    _alpha,
    cov_det,
    covariance_inequality,
    density_check,
    det_chaos,
    expected_det,
    expected_det_chaos,
    expected_det_closed_form,
    expected_dets,
    gram_chaos,
    random_pair,
    sum_of_squares_eval,
    t0_term,
    tr_term,
    tr_term_direct,
)
from chaoskit.tensor import (
    Tensor,
    basis_tensor,
    contract,
    hat_contract,
    inner,
    orbit_info,
    random_symmetric,
    slice_tensor,
    symmetrize,
)


@pytest.fixture
def worked_pair():
    f = basis_tensor(2, (0, 0))
    g = symmetrize(basis_tensor(2, (0, 1)))
    return MalliavinPair(f, g)


def quadrature_expected_det(pair, k, nodes=11):
    """Independent oracle: Gauss-Hermite quadrature of the pointwise
    determinant, exact for polynomials of the sizes used here."""
    x, w = hermegauss(nodes)
    w = w / math.sqrt(2 * math.pi)
    d = pair.dim
    grid = np.array(list(itertools.product(x, repeat=d)))
    weights = np.prod(np.array(list(itertools.product(w, repeat=d))), axis=1)
    vals = sum_of_squares_eval(pair, k, grid)
    return float(np.sum(weights * vals))


class TestPairValidation:
    def test_requires_symmetric(self):
        from chaoskit.tensor import Tensor

        raw = Tensor(2, 2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            MalliavinPair(raw, raw)

    def test_requires_positive_order(self):
        from chaoskit.tensor import Tensor

        with pytest.raises(ValueError):
            MalliavinPair(Tensor.scalar(2, 1.0), basis_tensor(2, (0,)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            MalliavinPair(basis_tensor(2, (0,)), basis_tensor(3, (0,)))

    @pytest.mark.parametrize("side", ["f", "g"])
    def test_rejects_non_finite(self, side):
        from chaoskit.tensor import Tensor

        # a component cannot hold nan: its Tensor refuses it
        good = basis_tensor(2, (1,))
        with pytest.raises(ValueError, match="^order 1 tensor has non-finite"):
            bad = Tensor(2, 1, [1, float("nan")], symmetric=True)
            MalliavinPair(*((bad, good) if side == "f" else (good, bad)))

    def test_non_finite_pair_gets_no_verdict(self):
        # used to return ABSOLUTELY_CONTINUOUS with cov_det = nan
        from chaoskit.tensor import Tensor

        with pytest.raises(ValueError):
            density_check(
                MalliavinPair(
                    Tensor(2, 1, [1, float("nan")], symmetric=True), basis_tensor(2, (1,))
                )
            )

    @pytest.mark.parametrize("side", ["f", "g"])
    def test_rejects_order_above_the_factorial_cap(self, side):
        # every route needs n! and m! exactly; an order-21 pair is refused
        # when it is built, not by whichever route first reads it
        from chaoskit.chaos import CoefficientCapError

        big, small = basis_tensor(1, (0,) * 21), basis_tensor(1, (0,))
        f, g = (big, small) if side == "f" else (small, big)
        with pytest.raises(CoefficientCapError, match="factorial argument 21 exceeds cap 20"):
            MalliavinPair(f, g)
        assert MalliavinPair(basis_tensor(1, (0,) * 20), small).n == 20

    def test_random_pair_reproducible(self):
        a = random_pair(2, 2, 3, 99)
        b = random_pair(2, 2, 3, 99)
        assert np.array_equal(a.f.coeffs, b.f.coeffs)
        assert np.array_equal(a.g.coeffs, b.g.coeffs)


# -- the random draws against the bodies they replaced ---------------------------


def reference_random_symmetric(dim, order, seed):
    """random_symmetric before it built one Tensor per draw, the bit-for-bit
    reference."""
    rng = np.random.default_rng(seed)
    arr = np.asarray(rng.standard_normal((dim,) * order))
    return symmetrize(Tensor(dim, order, arr))


def reference_random_pair(dim, n, m, seed):
    """random_pair before it built its two child seeds directly."""
    sf, sg = np.random.SeedSequence(seed).spawn(2)
    return MalliavinPair(
        reference_random_symmetric(dim, n, sf), reference_random_symmetric(dim, m, sg)
    )


class TestRandomDrawReference:
    SEEDS = [0, 1, 12345, 2**63 - 1, 2**128 - 1]

    @pytest.mark.parametrize("dim", range(1, 5))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_symmetric_bit_identical(self, dim, seed):
        for order in range(0, 7):
            got = random_symmetric(dim, order, seed)
            ref = reference_random_symmetric(dim, order, seed)
            assert got.symmetric and ref.symmetric
            assert got.coeffs.shape == ref.coeffs.shape
            assert got.coeffs.tobytes() == ref.coeffs.tobytes()

    @pytest.mark.parametrize("dim", range(1, 5))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_pair_bit_identical(self, dim, seed):
        for n, m in [(1, 1), (2, 3), (4, 4), (6, 2), (5, 6)]:
            got, ref = random_pair(dim, n, m, seed), reference_random_pair(dim, n, m, seed)
            assert got.f.coeffs.tobytes() == ref.f.coeffs.tobytes()
            assert got.g.coeffs.tobytes() == ref.g.coeffs.tobytes()


class TestGramChaos:
    def test_first_derivative_energy(self):
        # E ||D I_n(f)||^2 = n * E F^2 = n * n! * ||f||^2
        for n, seed in [(1, 1), (2, 2), (3, 3)]:
            f = random_symmetric(2, n, seed)
            pair = MalliavinPair(f, f)
            a, b, c = gram_chaos(pair, 1)
            target = n * math.factorial(n) * inner(f, f)
            assert expectation(a) == pytest.approx(target, rel=1e-12)

    def test_worked_value(self):
        f = basis_tensor(2, (0, 0))
        pair = MalliavinPair(f, f)
        a, _, _ = gram_chaos(pair, 1)
        assert expectation(a) == pytest.approx(4.0)

    def test_equal_components_collapse(self):
        f = random_symmetric(2, 3, 5)
        pair = MalliavinPair(f, f)
        a, b, c = gram_chaos(pair, 2)
        for k in a.terms:
            assert np.allclose(a.terms[k].coeffs, b.terms[k].coeffs)
            assert np.allclose(a.terms[k].coeffs, c.terms[k].coeffs)

    def test_first_chaos_gradient_is_constant(self):
        f = basis_tensor(3, (0,)) + basis_tensor(3, (2,)).scaled(2.0)
        pair = MalliavinPair(f, f)
        a, _, _ = gram_chaos(pair, 1)
        assert set(a.terms) == {0}
        assert expectation(a) == pytest.approx(inner(f, f))

    def test_k_range(self, worked_pair):
        with pytest.raises(ValueError):
            gram_chaos(worked_pair, 0)
        with pytest.raises(ValueError):
            gram_chaos(worked_pair, 3)


class TestSymbolicDeterminant:
    def test_proportional_components_vanish(self):
        f = random_symmetric(2, 2, 8)
        pair = MalliavinPair(f, f.scaled(1.5))
        for k in (1, 2):
            assert expected_det_chaos(pair, k) == pytest.approx(0.0, abs=1e-10)

    def test_worked_value(self, worked_pair):
        assert expected_det_chaos(worked_pair, 1) == pytest.approx(12.0)

    def test_first_chaos_is_gram_determinant(self):
        f = basis_tensor(2, (0,))
        g = basis_tensor(2, (0,)) + basis_tensor(2, (1,)).scaled(2.0)
        pair = MalliavinPair(f, g)
        det = det_chaos(pair, 1)
        assert set(det.terms) == {0}
        want = inner(f, f) * inner(g, g) - inner(f, g) ** 2
        assert expectation(det) == pytest.approx(want)

    def test_expected_matches_constant_term(self):
        pair = random_pair(2, 2, 3, 17)
        for k in (1, 2):
            full = expectation(det_chaos(pair, k))
            assert expected_det_chaos(pair, k) == pytest.approx(full, rel=1e-12)


class TestSumOfSquares:
    def test_equal_components_zero(self):
        f = random_symmetric(2, 2, 9)
        pair = MalliavinPair(f, f)
        pts = np.random.default_rng(0).standard_normal((50, 2))
        assert np.allclose(sum_of_squares_eval(pair, 1, pts), 0.0)

    def test_worked_point(self, worked_pair):
        assert sum_of_squares_eval(worked_pair, 1, np.array([1.0, 0.0])) == pytest.approx(4.0)
        assert sum_of_squares_eval(worked_pair, 1, np.array([2.0, -1.0])) == pytest.approx(64.0)

    def test_matches_symbolic_polynomial(self):
        pair = random_pair(2, 2, 2, 23)
        pts = np.random.default_rng(1).standard_normal((100, 2))
        sos = sum_of_squares_eval(pair, 1, pts)
        sym = evaluate(det_chaos(pair, 1), pts)
        assert np.allclose(sos, sym, rtol=1e-9, atol=1e-9)
        assert np.all(sos >= 0)

    def test_gram_determinant_path_agrees(self):
        pair = random_pair(3, 2, 3, 29)
        pts = np.random.default_rng(2).standard_normal((40, 3))
        a = sum_of_squares_eval(pair, 1, pts)
        b = full_gram_form(pair, 1, pts)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


def full_coordinates(pair, k, pts):
    """D^k F and D^k G at pts, (N, d^k) each, over all d^k multi-indices."""
    idx = list(itertools.product(range(pair.dim), repeat=k))
    dF, dG = (derivative(ChaosExpansion.integral(t), k) for t in (pair.f, pair.g))
    return (np.stack([evaluate(dX[i], pts) for i in idx], axis=1) for dX in (dF, dG))


def full_minor_form(pair, k, pts):
    """Oracle: 1/2 sum_{i,l} (A_i B_l - A_l B_i)^2 over all d^k multi-indices."""
    A, B = full_coordinates(pair, k, pts)
    minors = A[:, :, None] * B[:, None, :] - A[:, None, :] * B[:, :, None]
    return 0.5 * np.einsum("nij,nij->n", minors, minors)


def full_gram_form(pair, k, pts):
    """Oracle: the 2x2 Gram determinant |A|^2 |B|^2 - <A, B>^2 of the
    evaluated coordinates (equal to the minor form by Lagrange's identity,
    but not nonnegative under rounding)."""
    A, B = full_coordinates(pair, k, pts)
    return np.sum(A * A, 1) * np.sum(B * B, 1) - np.sum(A * B, 1) ** 2


# (d, n, m, k): d = 1 (one orbit, no pairs), unequal orders, k = 1, and
# k = min(n, m), where one side's coordinates are order-0 constants
_ORBIT_CASES = [
    (1, 3, 2, 1), (1, 2, 2, 2), (2, 4, 2, 2), (3, 3, 1, 1), (2, 5, 3, 3),
    (3, 3, 3, 3), (3, 4, 4, 2), (3, 6, 6, 3), (4, 2, 3, 1), (4, 4, 4, 2),
]


class TestOrbitWeightedRoute:
    @pytest.mark.parametrize("d, n, m, k", _ORBIT_CASES)
    def test_matches_full_minor_form(self, d, n, m, k):
        pair = random_pair(d, n, m, 1000 + 100 * d + 10 * n + m)
        pts = np.random.default_rng(k).standard_normal((25, d))
        sos = sum_of_squares_eval(pair, k, pts)
        assert np.all(sos >= 0)
        if d == 1:
            assert np.all(sos == 0.0)
        else:
            np.testing.assert_allclose(sos, full_minor_form(pair, k, pts), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d, n, m, k", _ORBIT_CASES)
    def test_rows_independent_of_batch(self, d, n, m, k):
        pair = random_pair(d, n, m, 2000 + d + n + m)
        pts = np.random.default_rng(5).standard_normal((9, d))
        sos = sum_of_squares_eval(pair, k, pts)
        for i in range(len(pts)):
            assert sos[i] == sum_of_squares_eval(pair, k, pts[i])
        assert np.array_equal(sos[3:7], sum_of_squares_eval(pair, k, pts[3:7]))

    @pytest.mark.parametrize("d, n, m, k", _ORBIT_CASES)
    def test_gram_form_agrees(self, d, n, m, k):
        pair = random_pair(d, n, m, 3000 + d + n + m)
        pts = np.random.default_rng(6).standard_normal((25, d))
        sos = sum_of_squares_eval(pair, k, pts)
        gram = full_gram_form(pair, k, pts)
        np.testing.assert_allclose(gram, sos, rtol=1e-9, atol=1e-9 * max(1.0, float(np.max(sos))))


class TestClosedFormTerms:
    def test_t0_vanishes_at_top_order_for_equal_components(self):
        f = random_symmetric(2, 3, 31)
        pair = MalliavinPair(f, f)
        assert t0_term(pair, 3) == pytest.approx(0.0, abs=1e-10)

    def test_t0_worked_value(self, worked_pair):
        assert t0_term(worked_pair, 1) == pytest.approx(8.0)

    def test_t0_matches_direct_form(self):
        for seed in range(4):
            pair = random_pair(2, 2, 3, 40 + seed)
            for k in (1, 2):
                assert t0_term(pair, k) == pytest.approx(
                    tr_term_direct(pair, k, 0), rel=1e-10
                )

    def test_tr_worked_value(self, worked_pair):
        assert tr_term(worked_pair, 1, 1) == pytest.approx(4.0)

    def test_tr_proportional_vanishes(self):
        f = random_symmetric(2, 3, 51)
        pair = MalliavinPair(f, f.scaled(-2.0))
        for r in (1, 2):
            assert tr_term(pair, 1, r) == pytest.approx(0.0, abs=1e-9)

    def test_tr_matches_direct_form(self):
        for seed in range(3):
            pair = random_pair(2, 3, 3, 60 + seed)
            for k in (1, 2):
                for r in range(1, 3 - k + 1):
                    assert tr_term(pair, k, r) == pytest.approx(
                        tr_term_direct(pair, k, r), rel=1e-10
                    )

    def test_tr_top_value_formula(self):
        from chaoskit.tensor import contract

        pair = random_pair(2, 3, 3, 71)
        f, g, n = pair.f, pair.g, 3
        for k in (1, 2):
            r = n - k
            c_fg = contract(f, g, r)
            c_gf = contract(g, f, r)
            want = (
                math.factorial(n) ** 4
                / math.factorial(n - k) ** 2
                * (inner(c_fg, c_fg) - inner(c_fg, c_gf))
            )
            assert tr_term(pair, k, r) == pytest.approx(want, rel=1e-12)

    def test_r_range_errors(self, worked_pair):
        with pytest.raises(ValueError):
            tr_term(worked_pair, 1, 0)
        with pytest.raises(ValueError):
            tr_term(worked_pair, 1, 2)
        with pytest.raises(ValueError):
            tr_term_direct(worked_pair, 1, 2)


class TestExpectedDet:
    def test_worked_breakdown(self, worked_pair):
        b = expected_det_closed_form(worked_pair, 1)
        assert b.t0 == pytest.approx(8.0)
        assert b.tr == pytest.approx((4.0,))
        assert b.remainder == pytest.approx(4.0)
        assert b.closed_form == pytest.approx(12.0)
        assert b.symbolic == pytest.approx(12.0)
        assert b.mc is None

    def test_proportional_zero_for_all_k(self):
        f = random_symmetric(3, 3, 81)
        pair = MalliavinPair(f, f.scaled(4.0))
        scale = math.factorial(3) ** 4 * inner(f, f) * inner(pair.g, pair.g)
        for k in (1, 2, 3):
            assert abs(expected_det(pair, k)) <= 1e-12 * scale

    def test_top_order_reduces_to_covariance(self):
        for seed in range(3):
            pair = random_pair(2, 3, 3, 90 + seed)
            want = math.factorial(3) ** 2 * cov_det(pair)
            assert expected_det(pair, 3) == pytest.approx(want, rel=1e-10)

    def test_against_quadrature_oracle(self):
        cases = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 4, 4)]
        for i, (d, n, m) in enumerate(cases):
            pair = random_pair(d, n, m, 100 + i)
            for k in range(1, min(n, m) + 1):
                oracle = quadrature_expected_det(pair, k, nodes=13)
                assert expected_det(pair, k) == pytest.approx(oracle, rel=1e-9)

    def test_closed_matches_symbolic_including_unequal_orders(self):
        for i, (d, n, m) in enumerate([(2, 2, 3), (3, 1, 4), (2, 4, 3)]):
            pair = random_pair(d, n, m, 120 + i)
            for k in range(1, min(n, m) + 1):
                sym = expected_det_chaos(pair, k)
                assert abs(expected_det(pair, k) - sym) <= 1e-8 * (1 + abs(sym))


def _table_cases():
    cases = [random_pair(d, n, n, 300 + 10 * n + d) for n in range(1, 6) for d in (2, 3)]
    cases += [random_pair(3, n, m, 350 + n) for n, m in ((4, 2), (5, 3), (3, 1), (2, 4))]
    cases += [
        MalliavinPair(f, f.scaled(c))
        for f, c in ((random_symmetric(2, 4, 360), -1.5), (random_symmetric(3, 3, 361), 2.0))
    ]
    return cases


class TestContractionTable:
    """The table against the contraction and four-tensor hat oracles."""

    @pytest.mark.parametrize("pair", _table_cases())
    def test_entries_match_oracles(self, pair):
        f, g = pair.f, pair.g
        top = min(pair.n, pair.m)
        table = ContractionTable(pair)
        # the r = 0 row holds the contraction norms: hat(f,g,g,f; 0,s) = ||f x_s g||^2
        want = {(r, s) for r in range(top + 1) for s in range(top - r + 1)}
        assert set(table.hats) == want
        for (r, s), value in table.hats.items():
            assert value == pytest.approx(hat_contract(f, g, g, f, r, s), rel=1e-12)

    @pytest.mark.parametrize("pair", _table_cases())
    def test_expected_dets_is_expected_det(self, pair):
        dets = expected_dets(pair)
        assert len(dets) == min(pair.n, pair.m)
        for k, value in enumerate(dets, start=1):
            assert value == expected_det(pair, k)
            assert value == expected_det_closed_form(pair, k).closed_form

    def test_density_check_never_builds_the_outer_product(self):
        # d = 4, n = 6: f x_0 g would be 4^12 doubles (134 MB) and the dense
        # C_1 4^10 (8.4 MB)
        pair = random_pair(4, 6, 6, 3)
        tracemalloc.start()
        try:
            density_check(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# (d, n, m, seed) -> float.hex() of expected_dets and of hats[(r, s)] for
# r <= s in key order, taken when the table gathered F_r and G_r from the
# dense coefficients; reading them from the orbit vectors moves no bit
TABLE_REFERENCE = {
    (1, 3, 2, 1): (
        ["0x0.0p+0", "0x0.0p+0"],
        ["0x1.44426a16786acp+1"] * 4,
    ),
    (2, 6, 3, 2): (
        ["0x1.016bb80b17602p+22", "0x1.5673e5d636a92p+23", "0x1.4bc5e778c0523p+23"],
        ["0x1.1ac536bc7f74ap+2", "0x1.0ef2f302fd65bp+1", "0x1.6c7340f1aa293p+0",
         "0x1.d89bebbac36d2p-1", "0x1.cfa992592a5f6p-1", "0x1.ce478a6c7b6c0p-2"],
    ),
    (3, 2, 4, 3): (
        ["0x1.db31816f0cad4p+14", "0x1.d94ac6310563ep+15"],
        ["0x1.e896bc7836c4ap+5", "0x1.cd8d315d0f371p+3", "0x1.0f89f84f00cbcp+3",
         "0x1.30608b98bcd40p+3"],
    ),
    (3, 3, 3, 4): (
        ["0x1.77a71074a6adbp+17", "0x1.7fbca4a0e179ap+18", "0x1.0ce50534ec960p+18"],
        ["0x1.ce97b9a6ebf2bp+7", "0x1.136e88062d6cap+6", "0x1.65708a74d9f3ap+5",
         "0x1.2d61e3e2ffae7p+4", "0x1.93170fd536f5ap+4", "0x1.25eeea0f8e3d4p+1"],
    ),
    # the swap hats with s >= 2: (2, 2) and up to (3, 3)
    (3, 6, 6, 5): (
        ["0x1.0a3cc9eee4b55p+40", "0x1.063649bff8d27p+43", "0x1.1c7e5544189b4p+45",
         "0x1.7630608d146d6p+46", "0x1.12ab10e6dec62p+47", "0x1.43d13d8a3d004p+46"],
        ["0x1.4bf96840e8939p+8", "0x1.d0b3a3a016835p+6", "0x1.d3c9121302681p+5",
         "0x1.06c59f0e2d908p+5", "0x1.fda3d45c6cae4p+3", "0x1.b08b542688501p+1",
         "0x1.84bff3e7fefb8p-1", "0x1.7aecd1759af1cp+5", "0x1.9012f6ea650f8p+4",
         "0x1.942fc7e5debc1p+3", "0x1.b30c28847608ep+1", "-0x1.b3125542a28dep+0",
         "0x1.75f12185e86f0p+3", "0x1.cbd4fd8fc55c2p+1", "-0x1.4ceeb0c16e16ap-3",
         "-0x1.f4d5a745891e7p-3"],
    ),
    (2, 5, 4, 6): (
        ["0x1.f3a931f66f2ebp+23", "0x1.1e1c895797876p+26", "0x1.17aa2d615be9cp+27",
         "0x1.9289b2abdf70dp+26"],
        ["0x1.ed021dfc26291p+3", "0x1.0070a1a1d02eap+3", "0x1.427e534ff54a2p+2",
         "0x1.79ab5a716a4d2p+1", "0x1.5797e9a80a47ap+1", "0x1.92d19fbcd898cp+1",
         "0x1.dfff6b0a6b214p+0", "0x1.e4c1dc4f678d8p+0", "0x1.0c6a37b80061ep+1"],
    ),
}


@pytest.mark.parametrize("case", TABLE_REFERENCE, ids=str)
def test_table_bit_identical_to_reference(case):
    pair = random_pair(*case)
    dets, upper = TABLE_REFERENCE[case]
    hats = ContractionTable(pair).hats
    assert [v.hex() for v in expected_dets(pair)] == dets
    assert [hats[key].hex() for key in sorted(hats) if key[0] <= key[1]] == upper
    assert all(hats[(r, s)] == hats[(s, r)] for r, s in hats)


def gram_chaos_loop(pair, k):
    """Oracle: one chaos product per orbit representative, weighted by
    orbit size (the per-representative form of gram_chaos)."""
    d = pair.dim
    dF = derivative(ChaosExpansion.integral(pair.f), k)
    dG = derivative(ChaosExpansion.integral(pair.g), k)
    info = orbit_info(d, k)
    a, b, c = (ChaosExpansion(d, {}) for _ in range(3))
    for rep, count in zip(info.reps, info.counts):
        idx = tuple(int(j) for j in rep)
        eF, eG, w = dF[idx], dG[idx], float(count)
        a = a + multiply(eF, eF).scale(w)
        b = b + multiply(eF, eG).scale(w)
        c = c + multiply(eG, eG).scale(w)
    return a, b, c


def reference_norms(pair):
    """||f||^2 ||g||^2, then ||f x_s g||^2 for s = 1..min(n, m), each C_s once."""
    f, g = pair.f, pair.g
    norms = [inner(f, f) * inner(g, g)]
    for s in range(1, min(pair.n, pair.m) + 1):
        c = contract(f, g, s).coeffs
        norms.append(float(np.vdot(c, c)))
    return norms


def reference_t0(norms, n, m, k):
    """T_0 from the contraction norms with its lead computed by hand, as the
    table computed it before T_0 became its r = 0 term."""
    lead = math.factorial(m) ** 2 * math.factorial(n) ** 2 // (
        math.factorial(m - k) * math.factorial(n - k)
    )
    total = 0.0
    for s in range(min(m - k, n - k) + 1):
        w = math.comb(m - k, s) * math.comb(n - k, s)
        total += w * (norms[s] - norms[s + k])
    return float(lead) * total


def reference_tr(hats, n, m, k, r):
    """T_r for r >= 1 from the hat contractions, the separate T_r body, with
    beta(k, r) = n!^2 m!^2 / ((n-k-r)! (m-k-r)! r!^2) as a factorial quotient."""
    total = 0.0
    for s in range(min(n - k - r, m - k - r) + 1):
        w = math.comb(n - k - r, s) * math.comb(m - k - r, s)
        total += w * (hats[(r, s)] - hats[(r, s + k)])
    beta = math.factorial(n) ** 2 * math.factorial(m) ** 2 // (
        math.factorial(n - k - r) * math.factorial(m - k - r) * math.factorial(r) ** 2
    )
    return float(beta) * total


def reference_t0_scale(norms, n, m, k):
    """The absolute-term scale of reference_t0: its sum with every norm
    difference replaced by the sum of the two norms."""
    lead = math.factorial(m) ** 2 * math.factorial(n) ** 2 // (
        math.factorial(m - k) * math.factorial(n - k)
    )
    total = sum(
        math.comb(m - k, s) * math.comb(n - k, s) * (norms[s] + norms[s + k])
        for s in range(min(m - k, n - k) + 1)
    )
    return float(lead) * total


class TestOneTermFormula:
    """terms(k) is the separate T_0 and T_r bodies: bit for bit where the
    formula is shared, and within rounding of the dense contraction norms."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_the_separate_bodies(self, d):
        for n, m in itertools.product(range(1, 7), repeat=2):
            pair = random_pair(d, n, m, 1000 * d + 10 * n + m)
            table = ContractionTable(pair)
            norms = reference_norms(pair)
            # the orbit sums round differently from the dense norms
            np.testing.assert_allclose(
                [table.hats[(0, s)] for s in range(len(norms))], norms, rtol=1e-13, atol=0
            )
            for k in range(1, min(n, m) + 1):
                t0, tr = table.terms(k)
                assert t0.hex() == t0_term(pair, k).hex()
                assert abs(t0 - reference_t0(norms, n, m, k)) <= 1e-13 * reference_t0_scale(
                    norms, n, m, k
                )
                want = [reference_tr(table.hats, n, m, k, r) for r in range(1, len(tr) + 1)]
                assert [v.hex() for v in tr] == [v.hex() for v in want]


def tr_term_direct_loop(pair, k, r):
    """Oracle: the squared-minor form of T_r, one slice pair (i, l) at a time."""
    f, g = pair.f, pair.g
    alpha = _alpha(pair.n, pair.m, k, r)
    indices = list(itertools.product(range(pair.dim), repeat=k))
    total = 0.0
    for i in indices:
        fi, gi = slice_tensor(f, i), slice_tensor(g, i)
        for l in indices:
            fl, gl = slice_tensor(f, l), slice_tensor(g, l)
            a = symmetrize(contract(fi, gl, r)).coeffs
            diff = a - symmetrize(contract(fl, gi, r)).coeffs
            total += float(np.vdot(diff, diff))
    return 0.5 * float(alpha) * total


# d = 1..4, equal and unequal orders, every k (so k = min(n, m), where
# one side's coordinates are order-0 constants), plus proportional pairs
_STACKED_CASES = [
    random_pair(d, n, m, 400 + 100 * d + 10 * n + m)
    for d, n, m in (
        (1, 2, 3), (1, 4, 4), (2, 1, 1), (2, 2, 2), (2, 3, 5), (2, 5, 5),
        (3, 2, 4), (3, 3, 3), (3, 4, 4), (3, 4, 1), (4, 2, 2), (4, 3, 2), (4, 4, 4),
    )
] + [
    MalliavinPair(f, f.scaled(c))
    for f, c in ((random_symmetric(2, 3, 470), -0.75), (random_symmetric(3, 4, 471), 2.5))
]


_STACKED_IDS = [f"d{p.dim}_n{p.n}_m{p.m}" for p in _STACKED_CASES[:-2]] + [
    "proportional_d2_n3",
    "proportional_d3_n4",
]


class TestStackedOracles:
    """The stacked gram_chaos and tr_term_direct against their loop forms."""

    @pytest.mark.parametrize("pair", _STACKED_CASES, ids=_STACKED_IDS)
    def test_gram_chaos_matches_loop(self, pair):
        for k in range(1, min(pair.n, pair.m) + 1):
            for got, want in zip(gram_chaos(pair, k), gram_chaos_loop(pair, k)):
                assert set(got.terms) == set(want.terms)
                for q, t in want.terms.items():
                    # entries that cancel to ~0 are held to the array's scale
                    np.testing.assert_allclose(
                        got.terms[q].coeffs, t.coeffs, rtol=1e-12,
                        atol=1e-12 * float(np.max(np.abs(t.coeffs))),
                    )

    # the loop visits d^(2k) slice pairs: keep d^(n+m) <= 3^8
    @pytest.mark.parametrize(
        "pair",
        [
            pytest.param(p, id=i)
            for p, i in zip(_STACKED_CASES, _STACKED_IDS)
            if p.dim ** (p.n + p.m) <= 3**8
        ],
    )
    def test_tr_term_direct_matches_loop(self, pair):
        scale = verify._det_scale(pair)
        for k in range(1, min(pair.n, pair.m) + 1):
            for r in range(min(pair.n - k, pair.m - k) + 1):
                assert tr_term_direct(pair, k, r) == pytest.approx(
                    tr_term_direct_loop(pair, k, r), rel=1e-12, abs=1e-12 * scale
                )


def _term_nonnegativity_loop(cfg):
    """check_term_nonnegativity's worst deviation and failures read through
    expected_det_closed_form, one breakdown per k."""
    rec = verify._Recorder(1e-10)
    for i in range(cfg.trials):
        seed, _, d, n, m = verify._draw(cfg, 23, i, (1, cfg.max_order), (1, cfg.max_order))
        pair = random_pair(d, n, m, seed)
        scale = verify._det_scale(pair)
        for k in range(1, min(n, m) + 1):
            b = expected_det_closed_form(pair, k)
            for r, v in enumerate(b.tr, start=1):
                rec.add(max(-v, 0.0) / scale, f"T_{r} d={d} n={n} m={m} k={k} seed={seed}")
            rec.add(max(-b.t0, 0.0) / scale, f"T_0 d={d} n={n} m={m} k={k} seed={seed}")
            rec.add(
                max(-b.closed_form, 0.0) / scale,
                f"closed d={d} n={n} m={m} k={k} seed={seed}",
            )
    return rec.worst, rec.failures


class TestTermNonnegativityCheck:
    def test_never_runs_the_symbolic_oracle(self, monkeypatch):
        def refuse(pair, k):
            raise AssertionError("expected_det_chaos called")

        monkeypatch.setattr("chaoskit.malliavin.expected_det_chaos", refuse)
        assert verify.check_term_nonnegativity(verify.VerifyConfig(seed=7)).passed

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_observed_matches_breakdown_route(self, seed):
        cfg = verify.VerifyConfig(seed=seed)
        res = verify.check_term_nonnegativity(cfg)
        worst, failures = _term_nonnegativity_loop(cfg)
        assert res.observed.hex() == worst.hex()
        assert res.failures == failures[:10]


class TestCovDet:
    def test_equal_components(self):
        f = random_symmetric(2, 2, 130)
        assert cov_det(MalliavinPair(f, f)) == pytest.approx(0.0, abs=1e-12)

    def test_worked_value(self, worked_pair):
        assert cov_det(worked_pair) == pytest.approx(2.0)

    def test_orthonormal_first_chaos(self):
        pair = MalliavinPair(basis_tensor(2, (0,)), basis_tensor(2, (1,)))
        assert cov_det(pair) == pytest.approx(1.0)

    def test_rejects_unequal_orders(self):
        pair = random_pair(2, 2, 3, 131)
        with pytest.raises(ValueError):
            cov_det(pair)


class TestCovarianceInequality:
    @pytest.mark.parametrize("kind", ["generic", "proportional", "dim_one"])
    def test_degenerate_follows_the_density_verdict(self, kind):
        pair = {
            "generic": lambda: random_pair(3, 3, 3, 142),
            "proportional": lambda: MalliavinPair(random_symmetric(2, 3, 143),
                                                  random_symmetric(2, 3, 143).scaled(-2.0)),
            "dim_one": lambda: random_pair(1, 3, 3, 144),
        }[kind]()
        res = covariance_inequality(pair)
        assert res.degenerate == (density_check(pair).verdict is Verdict.DEGENERATE)
        assert res.degenerate == (kind != "generic")

    def test_worked_pair(self, worked_pair):
        res = covariance_inequality(worked_pair)
        assert res.lhs == pytest.approx(12.0)
        assert res.rhs == pytest.approx(8.0)
        assert res.holds

    def test_proportional_pair(self):
        f = random_symmetric(2, 2, 140)
        res = covariance_inequality(MalliavinPair(f, f.scaled(0.5)))
        assert res.holds
        assert res.lhs == pytest.approx(0.0, abs=1e-9)
        assert res.rhs == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n,const", [(2, 4.0), (3, 9.0 / 4.0), (4, 16.0 / 9.0)])
    def test_direct_constants(self, n, const):
        for seed in range(10):
            pair = random_pair(2, n, n, 150 + seed)
            e1 = expected_det(pair, 1)
            bound = const * cov_det(pair)
            assert e1 >= bound - 1e-9 * max(1.0, e1, bound)

    def test_higher_order_term_participates(self):
        # from n = 5 on, the second iterated determinant enters the bound
        pair = random_pair(2, 5, 5, 160)
        res = covariance_inequality(pair)
        expected_lhs = 16.0 * expected_det(pair, 1) + (5 * 1 / 4.0) * expected_det(pair, 2)
        assert res.lhs == pytest.approx(expected_lhs, rel=1e-12)
        assert res.holds

    def test_rejects_first_order(self):
        pair = MalliavinPair(basis_tensor(2, (0,)), basis_tensor(2, (1,)))
        with pytest.raises(ValueError):
            covariance_inequality(pair)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tol_must_be_finite_and_positive(self, tol):
        # an inf tolerance would make every bound hold
        with pytest.raises(ValueError, match="tol_rel must be finite and > 0"):
            covariance_inequality(random_pair(2, 3, 3, 141), tol_rel=tol)


class TestDensityCheck:
    def test_proportional_is_degenerate(self):
        f = random_symmetric(2, 3, 170)
        report = density_check(MalliavinPair(f, f.scaled(3.0)))
        assert report.verdict is Verdict.DEGENERATE
        assert report.consistent
        assert max(abs(v) for v in report.expected_dets) <= report.tol_abs

    def test_worked_pair_has_density(self, worked_pair):
        report = density_check(worked_pair)
        assert report.verdict is Verdict.ABSOLUTELY_CONTINUOUS
        assert report.consistent
        assert report.expected_dets == pytest.approx((12.0, 8.0))

    def test_independent_components(self):
        for n in (1, 2, 3):
            f = basis_tensor(2, (0,) * n)
            g = basis_tensor(2, (1,) * n)
            pair = MalliavinPair(f, g)
            report = density_check(pair)
            assert report.verdict is Verdict.ABSOLUTELY_CONTINUOUS
            assert report.cov_det == pytest.approx(float(math.factorial(n) ** 2))

    def test_rejects_unequal_orders(self):
        with pytest.raises(ValueError):
            density_check(random_pair(2, 2, 3, 171))

    def test_tol_must_be_positive(self, worked_pair):
        with pytest.raises(ValueError):
            density_check(worked_pair, tol_abs=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tol_must_be_finite(self, worked_pair, tol):
        # an inf threshold calls every pair DEGENERATE; a nan one passes no test
        with pytest.raises(ValueError, match="tol_abs must be finite and > 0"):
            density_check(worked_pair, tol_abs=tol)


def rotated(t, q):
    """t with the orthogonal matrix q applied on every axis."""
    c = t.coeffs
    for axis in range(t.order):
        c = np.moveaxis(np.tensordot(q, c, axes=(1, axis)), 0, axis)
    return symmetrize(Tensor(t.dim, t.order, c))


_ROTATION_CASES = [(d, n, m) for d in (2, 3) for n in range(1, 5) for m in range(1, 5)]


class TestRotationInvariance:
    """The law of (I_n(f), I_m(g)) is unchanged when one orthogonal Q acts on
    every axis of f and g (the basis is rotated), so every E det, det C and
    the density verdict are too."""

    @pytest.mark.parametrize("d, n, m", _ROTATION_CASES)
    def test_invariants_unchanged(self, d, n, m):
        seed = 4000 + 100 * d + 10 * n + m
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        pair = random_pair(d, n, m, seed)
        turned = MalliavinPair(rotated(pair.f, q), rotated(pair.g, q))
        np.testing.assert_allclose(expected_dets(turned), expected_dets(pair),
                                   rtol=1e-12, atol=0)
        if n != m:
            return
        assert cov_det(turned) == pytest.approx(cov_det(pair), rel=1e-12, abs=0)
        # a proportional pair too, so both verdicts are exercised; its values
        # are rounding noise around 0, so only the verdict is compared
        prop = MalliavinPair(pair.f, pair.f.scaled(-1.5))
        prop_turned = MalliavinPair(rotated(prop.f, q), rotated(prop.g, q))
        for before, after in ((pair, turned), (prop, prop_turned)):
            b, a = density_check(before), density_check(after)
            assert (a.verdict, a.consistent) == (b.verdict, b.consistent)
        assert density_check(prop).verdict is Verdict.DEGENERATE
        assert density_check(pair).verdict is Verdict.ABSOLUTELY_CONTINUOUS


# every order up to 6 at d = 2, 3, 4 (d^max(n, m) <= 4096 coefficients)
_FAMILY_CASES = [(d, n, m) for d in (2, 3, 4) for n in range(1, 7) for m in range(1, 7)]


class TestExactFamily:
    """F = I_n(a u^n) and G = I_m(b v^m) with orthonormal u, v: D^k F and D^k G
    lie along u^k and v^k, so det Lambda_k is the product of their squared
    norms, (n!/(n-k)!)^2 a^2 H_{n-k}(W(u))^2 (m!/(m-k)!)^2 b^2 H_{m-k}(W(v))^2,
    and E det = a^2 b^2 n!^2 m!^2 / ((n-k)! (m-k)!) at every k, exactly."""

    @staticmethod
    def _check(pair, scale):
        n, m = pair.n, pair.m
        want = [
            scale * math.factorial(n) ** 2 * math.factorial(m) ** 2
            / (math.factorial(n - k) * math.factorial(m - k))
            for k in range(1, min(n, m) + 1)
        ]
        np.testing.assert_allclose(expected_dets(pair), want, rtol=1e-12, atol=0)
        if n == m:
            report = density_check(pair)
            assert report.verdict is Verdict.ABSOLUTELY_CONTINUOUS and report.consistent

    @pytest.mark.parametrize("d, n, m", _FAMILY_CASES)
    def test_basis_directions(self, d, n, m):
        self._check(MalliavinPair(basis_tensor(d, (0,) * n), basis_tensor(d, (1,) * m)), 1.0)

    @pytest.mark.parametrize("d, n, m", _FAMILY_CASES)
    def test_rotated_and_scaled(self, d, n, m):
        # u, v = q e_0, q e_1 for an orthogonal q, so q on every axis of e_0^n
        # gives u^n
        for seed in range(5):
            rng = np.random.default_rng([seed, d, n, m])
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a, b = rng.uniform(0.5, 2.0, 2)
            f = rotated(basis_tensor(d, (0,) * n), q).scaled(a)
            g = rotated(basis_tensor(d, (1,) * m), q).scaled(b)
            self._check(MalliavinPair(f, g), (a * b) ** 2)

    # the dense table needed 923 MB at (6, 6, 6) and refused (4, 8, 8) (a 4^14
    # double C_1); the orbit table holds N(d, n-r) x N(d, m-r) values per r
    @pytest.mark.parametrize("d, n, m", [(6, 6, 6), (4, 8, 8)])
    def test_reach_beyond_the_dense_table(self, d, n, m):
        rng = np.random.default_rng([d, n, m])
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        f, g = basis_tensor(d, (0,) * n), basis_tensor(d, (1,) * m)
        turned = MalliavinPair(rotated(f, q).scaled(0.5), rotated(g, q).scaled(1.5))
        tracemalloc.start()
        try:
            self._check(MalliavinPair(f, g), 1.0)
            self._check(turned, 0.75**2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestTableSizeCap:
    def test_refuses_an_oversized_plan_before_building_it(self, monkeypatch):
        # at (6, 6, 6) the r = 1, s = 1 swap plan holds 6^2 * 126^2 indices
        # (4.57 MB); the pair and its orbit grid are built under the real cap
        pair = random_pair(6, 6, 6, 5)
        malliavin._table_plan.cache_clear()
        monkeypatch.setattr(tensor, "MAX_ARRAY_BYTES", 2**21)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^contraction table: dim 6 and orders "
                                                 r"\(6, 6\) need 4572288 bytes, above "
                                                 r"the cap of 2097152 bytes$"):
                expected_dets(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**21
        assert malliavin._table_plan.cache_info().currsize == 0

    @pytest.mark.parametrize("cap, nbytes", [(200, 288), (600, 648)])
    def test_refuses_a_cached_plan_under_a_lowered_cap(self, monkeypatch, cap, nbytes):
        # at (3, 3, 3) the arrays need 288, 648, 144, 72 and 80 bytes in the
        # order checked: the first one over the cap is named, not the largest
        pair = random_pair(3, 3, 3, 4)
        expected_dets(pair)  # caches the plan under the real cap
        monkeypatch.setattr(tensor, "MAX_ARRAY_BYTES", cap)
        hits = malliavin._table_plan.cache_info().hits
        with pytest.raises(ValueError, match=rf"^contraction table: dim 3 and orders \(3, 3\) "
                                             rf"need {nbytes} bytes, above the cap of {cap} "
                                             r"bytes$"):
            expected_dets(pair)
        assert malliavin._table_plan.cache_info().hits == hits + 1


class TestOracleSizeCap:
    def test_tr_term_direct_refuses_an_oversized_slice_product(self):
        # S[i, l] holds 100^6 doubles (7.28 TiB) at k = 1, r = 0
        with pytest.raises(ValueError, match=r"^tr_term_direct: dim 100 and order 6 need "
                                             r"8000000000000 bytes, above the cap"):
            tr_term_direct(random_pair(100, 3, 3, 0), 1, 0)


class TestCombinatorialCoeffs:
    def test_alpha_worked_value(self):
        assert _alpha(2, 2, 1, 0) == 32  # (2! 2! / 1! 1! 0!)^2 * 2!

    def test_beta_is_exact(self):
        # terms(k) forms beta(k, r) as n! m! perm(n, k+r) perm(m, k+r) // r!^2;
        # over every valid (n, m, k, r) the floor division never truncates
        cases = 0
        for n, m in itertools.product(range(1, FACTORIAL_CAP + 1), repeat=2):
            nm = math.factorial(n) * math.factorial(m)
            for k in range(1, min(n, m) + 1):
                for r in range(min(n, m) - k + 1):
                    got = nm * math.perm(n, k + r) * math.perm(m, k + r) // math.factorial(r) ** 2
                    want = Fraction(
                        math.factorial(n) ** 2 * math.factorial(m) ** 2,
                        math.factorial(n - k - r) * math.factorial(m - k - r)
                        * math.factorial(r) ** 2,
                    )
                    assert got == want, (n, m, k, r)
                    cases += 1
        assert cases == 16170

    def test_cap(self):
        from chaoskit.chaos import CoefficientCapError

        with pytest.raises(CoefficientCapError):
            _alpha(15, 15, 1, 0)


class TestOrderEquivalence:
    """All iterated determinants vanish together or are positive together."""

    def test_random_pairs(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            pair = random_pair(d, n, n, 200 + seed)
            dets = [expected_det(pair, k) for k in range(1, n + 1)]
            assert min(dets) > 0

    def test_proportional_pairs(self):
        for seed in range(5):
            f = random_symmetric(2, 3, 220 + seed)
            pair = MalliavinPair(f, f.scaled(2.0))
            scale = math.factorial(3) ** 4 * inner(f, f) * inner(pair.g, pair.g)
            dets = [expected_det(pair, k) for k in (1, 2, 3)]
            assert max(abs(v) for v in dets) <= 1e-12 * scale
