"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass lines and runtimes.  Every random instance is seeded, and the seeds
are printed on failure.
"""

import math
import time

import numpy as np
import pytest

from chaoskit import verify
from chaoskit.chaos import (
    ChaosExpansion,
    derivative,
    divergence,
    evaluate,
    multiply,
)
from chaoskit.malliavin import (
    MalliavinPair,
    Verdict,
    cov_det,
    covariance_inequality,
    density_check,
    det_chaos,
    expected_det,
    expected_det_chaos,
    random_pair,
    sum_of_squares_eval,
)
from chaoskit.mc import estimate_expected_det
from chaoskit.tensor import (
    Tensor,
    contract,
    hat_contract,
    inner,
    random_symmetric,
    slice_tensor,
)
from chaoskit.verify import VerifyConfig, anchor_pair, instance_seed


def report(number: int, title: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"criterion {number} ({title}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def draw_sizes(rng, max_order=4):
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, max_order + 1))
    m = int(rng.integers(1, max_order + 1))
    return d, n, m


# verify's tensor checks at these settings draw criterion 1's instances:
# instance_seed(101, salt 1..5, i), d in [2, 3], orders in [1, 4]
CRITERION_1 = VerifyConfig(seed=101, dim=3, max_order=4, trials=20, tol_rel=1e-9)
CRITERION_1_CHECKS = (
    verify.check_slice_reassembly,
    verify.check_contraction_swap,
    verify.check_symmetrized_product_inner,
    verify.check_hat_expansion,
    verify.check_hat_swap,
)


def test_criterion_1_tensor_identities():
    """Slice reassembly, contraction swap, symmetrized-product expansion,
    quadruple-contraction expansion, and the hat swap, at 1e-9 relative."""
    started = time.time()
    for check in CRITERION_1_CHECKS:
        result = check(CRITERION_1)
        assert result.passed, f"{result.check} failed: {result.failures}"
    report(1, "tensor identities", started, 30.0)


def _shifted_contract(f, g, r):
    c = contract(f, g, r)
    return Tensor(c.dim, c.order, c.coeffs + 1.0)


# one broken primitive per check; a uniform rescale would leave these
# homogeneous identities true, so none of the breaks is one
CRITERION_1_BREAKS = {
    "slice_reassembly": ("slice_tensor", lambda t, idx: slice_tensor(t, (0,) * len(idx))),
    "contraction_swap": ("contract", _shifted_contract),
    "symmetrized_product_inner": ("symmetrize", lambda t: t),
    "hat_expansion": ("hat_contract", lambda f, g, l, h, r, s: hat_contract(f, g, l, h, r, 0)),
    "hat_swap": ("hat_contract", lambda f, g, l, h, r, s: hat_contract(f, g, l, h, 0, s)),
}


@pytest.mark.parametrize("check", CRITERION_1_CHECKS, ids=lambda c: c.__name__)
def test_criterion_1_detects_broken_primitive(check, monkeypatch):
    name = check.__name__.removeprefix("check_")
    primitive, broken = CRITERION_1_BREAKS[name]
    monkeypatch.setattr(verify, primitive, broken)
    result = check(CRITERION_1)
    assert result.check == name
    assert not result.passed and result.failures


def test_criterion_2_product_formula_pointwise():
    """evaluate(F G) equals evaluate(F) evaluate(G) at 50 points, 20 instances."""
    started = time.time()
    for i in range(20):
        seed = instance_seed(102, 1, i)
        rng = np.random.default_rng(seed)
        d, n, m = draw_sizes(rng)
        F = ChaosExpansion.integral(random_symmetric(d, n, seed))
        G = ChaosExpansion.integral(random_symmetric(d, m, seed + 1))
        pts = rng.standard_normal((50, d))
        lhs = evaluate(multiply(F, G), pts)
        rhs = evaluate(F, pts) * evaluate(G, pts)
        dev = np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs))))
        assert dev <= 1e-9, f"pointwise product failed: d={d} n={n} m={m} seed={seed} dev={dev}"
    report(2, "product formula pointwise", started, 10.0)


def test_criterion_3_divergence_of_derivative():
    """divergence(derivative(I_n(f), 1)) = n I_n(f), coefficientwise, n <= 5."""
    started = time.time()
    for n in range(1, 6):
        for i in range(10):
            seed = instance_seed(103, n, i)
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 4))
            f = random_symmetric(d, n, seed)
            out = divergence(derivative(ChaosExpansion.integral(f), 1))
            assert set(out.terms) == {n}, f"extra orders: n={n} seed={seed}"
            got = out.terms[n].coeffs
            want = n * f.coeffs
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(got - want))) <= 1e-12 * scale, (
                f"divergence identity failed: d={d} n={n} seed={seed}"
            )
    report(3, "divergence of derivative", started, 5.0)


def test_criterion_4_closed_form_vs_symbolic_oracle():
    """Closed-form E det vs the chaos-arithmetic oracle, 25 pairs per
    (d, n, m, k) with d <= 3 and n, m <= 4, plus the worked anchor."""
    started = time.time()

    pair = anchor_pair()
    assert expected_det(pair, 1) == pytest.approx(12.0, rel=1e-12)
    assert expected_det_chaos(pair, 1) == pytest.approx(12.0, rel=1e-12)
    assert cov_det(pair) == pytest.approx(2.0, rel=1e-12)

    for d in (2, 3):
        for n in range(1, 5):
            for m in range(1, 5):
                for k in range(1, min(n, m) + 1):
                    for i in range(25):
                        seed = instance_seed(104, d * 1000 + n * 100 + m * 10 + k, i)
                        p = random_pair(d, n, m, seed)
                        closed = expected_det(p, k)
                        symbolic = expected_det_chaos(p, k)
                        assert abs(closed - symbolic) <= 1e-8 * (1 + abs(symbolic)), (
                            f"oracle mismatch: d={d} n={n} m={m} k={k} seed={seed} "
                            f"closed={closed} symbolic={symbolic}"
                        )
    report(4, "closed form vs symbolic oracle", started, 60.0)


def test_criterion_5_sum_of_squares_identity():
    """Pointwise squared-minor value equals the evaluated symbolic
    determinant at 100 random points per instance."""
    started = time.time()
    cases = [
        (2, 1, 1), (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 4, 2), (2, 4, 4),
        (3, 1, 2), (3, 2, 2), (3, 2, 3), (3, 3, 3),
    ]
    for i, (d, n, m) in enumerate(cases):
        seed = instance_seed(105, 1, i)
        pair = random_pair(d, n, m, seed)
        pts = np.random.default_rng(seed).standard_normal((100, d))
        for k in range(1, min(n, m) + 1):
            sos = sum_of_squares_eval(pair, k, pts)
            sym = evaluate(det_chaos(pair, k), pts)
            # relative to the polynomial's magnitude on the sample: a
            # per-point quotient is meaningless at the roots of a
            # high-degree determinant, where the symbolic side cancels
            scale = max(1.0, float(np.max(np.abs(sym))))
            assert np.allclose(sos, sym, rtol=1e-9, atol=1e-9 * scale), (
                f"pointwise det failed: d={d} n={n} m={m} k={k} seed={seed}"
            )
            assert np.all(sos >= 0.0), f"negative value: d={d} n={n} m={m} k={k} seed={seed}"
    report(5, "sum of squares identity", started, 10.0)


def test_criterion_6_covariance_inequality_sweep():
    """1000 random pairs for each n in 2..6 and d in {2, 3}; the direct
    constants 4, 9/4, 16/9 for n = 2, 3, 4."""
    started = time.time()
    constants = {2: 4.0, 3: 9.0 / 4.0, 4: 16.0 / 9.0}
    for n in range(2, 7):
        for d in (2, 3):
            for i in range(1000):
                seed = instance_seed(106, n * 10 + d, i)
                pair = random_pair(d, n, n, seed)
                res = covariance_inequality(pair, tol_rel=1e-9)
                assert res.holds, (
                    f"inequality violated: d={d} n={n} seed={seed} lhs={res.lhs} rhs={res.rhs}"
                )
                if n in constants:
                    e1 = expected_det(pair, 1)
                    bound = constants[n] * cov_det(pair)
                    assert e1 >= bound - 1e-9 * max(1.0, abs(e1), abs(bound)), (
                        f"direct bound violated: d={d} n={n} seed={seed}"
                    )
    report(6, "covariance inequality sweep", started, 300.0)


def test_criterion_7_degeneracy_characterization():
    """Proportional pairs zero every iterated determinant and are flagged
    DEGENERATE; generic pairs keep all of them positive; the all-or-none
    pattern across k is never violated."""
    started = time.time()

    for i in range(20):
        seed = instance_seed(107, 1, i)
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        c = float(rng.uniform(-3.0, 3.0)) or 1.0
        f = random_symmetric(d, n, seed)
        pair = MalliavinPair(f, f.scaled(c))
        scale = max(
            1.0,
            math.factorial(n) ** 4 * inner(f, f) * inner(pair.g, pair.g),
        )
        report_ = density_check(pair)
        assert report_.verdict is Verdict.DEGENERATE, f"verdict: d={d} n={n} seed={seed}"
        assert report_.consistent, f"consistency: d={d} n={n} seed={seed}"
        for k, v in enumerate(report_.expected_dets, start=1):
            assert abs(v) <= 1e-12 * scale, f"nonzero det: d={d} n={n} k={k} seed={seed}"

    for i in range(200):
        seed = instance_seed(107, 2, i)
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        pair = random_pair(d, n, n, seed)
        report_ = density_check(pair)
        assert report_.verdict is Verdict.ABSOLUTELY_CONTINUOUS, (
            f"verdict: d={d} n={n} seed={seed}"
        )
        assert report_.consistent, f"consistency: d={d} n={n} seed={seed}"
        assert min(report_.expected_dets) > 0.0, f"vanishing det: d={d} n={n} seed={seed}"

    report(7, "degeneracy characterization", started, 60.0)


def test_criterion_8_monte_carlo_consistency():
    """With 1e5 samples the Monte Carlo mean lies within 4 standard errors
    of the closed form 12 in at least 95 of 100 seeded repetitions."""
    started = time.time()
    pair = anchor_pair()
    target = expected_det(pair, 1)
    assert target == pytest.approx(12.0, rel=1e-12)
    hits = 0
    misses = []
    for rep in range(100):
        seed = instance_seed(108, 1, rep)
        est = estimate_expected_det(pair, 1, n_samples=100_000, seed=seed)
        if abs(est.mean - target) <= 4 * est.stderr:
            hits += 1
        else:
            misses.append(seed)
    assert hits >= 95, f"only {hits}/100 within 4 stderr; missing seeds: {misses}"
    report(8, "Monte Carlo consistency", started, 120.0)
