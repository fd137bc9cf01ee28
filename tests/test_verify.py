"""Tests of the verify suites' plumbing: instance draws, table reuse, the
suite runner, and the chaos and Monte Carlo checks with their negative
controls."""

import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from chaoskit import malliavin as mal
from chaoskit import mc, verify
from chaoskit.chaos import ChaosExpansion, derivative, l2_inner, multiply
from chaoskit.tensor import inner
from chaoskit.verify import VerifyConfig


@pytest.fixture
def table_count(monkeypatch):
    """Number of ContractionTable constructions since the fixture was made."""
    count = [0]
    build = mal.ContractionTable.__init__

    def counted(self, pair):
        count[0] += 1
        build(self, pair)

    monkeypatch.setattr(mal.ContractionTable, "__init__", counted)
    return count


class TestDraw:
    @pytest.mark.parametrize("dim", [None, 2, 4])
    def test_dim_then_each_order_range_in_turn(self, dim):
        cfg = VerifyConfig(dim=5, trials=5, seed=11)
        drawn = list(verify._instances(cfg, 7, (0, 3), (2, 6), (1, 1), dim=dim))
        assert len(drawn) == cfg.trials
        for i, (seed, rng, d, n, m, q) in enumerate(drawn):
            assert seed == verify.instance_seed(11, 7, i)
            ref = np.random.default_rng(seed)
            assert d == int(ref.integers(2, (dim or 5) + 1))
            assert (n, m, q) == tuple(int(ref.integers(lo, hi + 1)) for lo, hi in
                                      ((0, 3), (2, 6), (1, 1)))
            # the generator is handed on where the draws left it
            assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("dim", [1, 0, -3])
    def test_config_refuses_dim_below_two(self, dim):
        with pytest.raises(ValueError, match="dim must be >= 2"):
            VerifyConfig(dim=dim)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("inf"), float("nan")])
    def test_config_refuses_non_finite_or_non_positive_tolerance(self, tol):
        # an inf tolerance would pass every check
        with pytest.raises(ValueError, match="tol_rel must be finite and > 0"):
            VerifyConfig(tol_rel=tol)


class TestOneTablePerPair:
    @pytest.mark.parametrize(
        "check, per_instance",
        [
            (verify.check_orthogonal_rank_one, 1),
            (verify.check_closed_vs_symbolic, 1),
            (verify.check_direct_term_agreement, 1),
            (verify.check_top_term_formula, 1),
            (verify.check_term_nonnegativity, 1),
            (verify.check_covariance_inequality, 1),
            (verify.check_degeneracy, 2),  # a proportional and a generic pair
        ],
    )
    @pytest.mark.parametrize("seed", [7, 101])
    def test_tables_per_instance(self, check, per_instance, seed, table_count):
        cfg = VerifyConfig(seed=seed, trials=6)
        assert check(cfg).passed
        assert table_count[0] == per_instance * cfg.trials

    def test_malliavin_suite(self, table_count):
        # 3 for the anchor's three public calls, 8 pairs per trial in all
        cfg = VerifyConfig(seed=2024, trials=4)
        assert all(r.passed for r in verify.run_suites(cfg, ["malliavin"]))
        assert table_count[0] == 3 + 8 * cfg.trials


# seeds that failed the sample-stderr bands: VerifyConfig seeds in [0, 5000)
# (moments 2854, 3993, 4276; stderr_scaling 574, 962, 1540, 4333) and the
# verify seeds of failed benchmark runs (moments 1703451837, 734209359;
# stderr_scaling 508642984)
REPLAY_SEEDS = [2854, 3993, 4276, 574, 962, 1540, 4333, 1703451837, 734209359, 508642984]


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_mc_suite_passes_former_false_failures(seed):
    results = verify.run_suites(VerifyConfig(seed=seed), ["mc"])
    assert [r.failures for r in results if not r.passed] == []


def _with_estimate(monkeypatch, name, change):
    """Make verify's estimator `name` return change(estimate, *args)."""
    real = getattr(verify, name)

    def broken(*args, **kwargs):
        return change(real(*args, **kwargs), *args)

    monkeypatch.setattr(verify, name, broken)


class TestStderrScalingControls:
    def test_passes_to_rounding(self):
        res = verify.check_mc_stderr_scaling(VerifyConfig(seed=7))
        assert res.passed and res.observed < 1e-13

    def test_stderr_like_one_over_n(self, monkeypatch):
        _with_estimate(monkeypatch, "estimate_expected_det",
                       lambda e, *_: replace(e, stderr=e.stderr / math.sqrt(e.samples)))
        assert not verify.check_mc_stderr_scaling(VerifyConfig(seed=7)).passed

    def test_stderr_missing_the_square_root(self, monkeypatch):
        # var / n instead of sqrt(var / n)
        _with_estimate(monkeypatch, "estimate_expected_det",
                       lambda e, *_: replace(e, stderr=e.stderr**2))
        assert not verify.check_mc_stderr_scaling(VerifyConfig(seed=7)).passed

    def test_chan_merge_without_its_delta_term(self, monkeypatch):
        # the estimator's own code with the between-chunk term of M2 deleted
        src = inspect.getsource(mc._run_estimator)
        term = " + delta * delta * (count - size) * size / count"
        assert src.count(term) == 1
        namespace = dict(vars(mc))
        exec(src.replace(term, ""), namespace)
        monkeypatch.setattr(mc, "_run_estimator", namespace["_run_estimator"])
        res = verify.check_mc_stderr_scaling(VerifyConfig(seed=7))
        assert not res.passed
        assert all(f.startswith("stderr") for f in res.failures)


def _exact_sigma(F, power):
    """Exact standard deviation of F^power from chaos arithmetic."""
    F2 = multiply(F, F)
    second = l2_inner(F, F)
    return math.sqrt(l2_inner(F2, F2) - second**2) if power == 2 else math.sqrt(second)


class TestMomentsControls:
    @pytest.mark.parametrize("seed", [7, 2854])
    def test_mean_shifted_six_sigma(self, seed, monkeypatch):
        def shift(est, F, power):
            exact = l2_inner(F, F) if power == 2 else 0.0
            step = 6 * _exact_sigma(F, power) / math.sqrt(est.samples)
            return replace(est, mean=est.mean + math.copysign(step, est.mean - exact))

        _with_estimate(monkeypatch, "estimate_moment", shift)
        res = verify.check_mc_moments(VerifyConfig(seed=seed))
        assert not res.passed and len(res.failures) == 2

    @pytest.mark.parametrize("seed", [7, 2854])
    def test_target_missing_its_factorial(self, seed, monkeypatch):
        # n! ||f||^2 read as ||f||^2: halve the one inner product the target uses
        real = verify.inner
        monkeypatch.setattr(verify, "inner", lambda a, b: real(a, b) / 2)
        res = verify.check_mc_moments(VerifyConfig(seed=seed))
        assert not res.passed
        assert any(f.startswith("second moment") for f in res.failures)

    def test_z_uses_the_exact_sigma(self):
        # the second moment's z is -4.35 against the sample stderr at this
        # seed and -3.66 against the exact sigma
        res = verify.check_mc_moments(VerifyConfig(seed=3993))
        assert res.passed and 3.6 < res.observed < 3.7


class TestRunSuites:
    def test_chaos_suite_passes(self):
        results = verify.run_suites(VerifyConfig(seed=7), ["chaos"])
        assert [r.check for r in results] == [
            c.__name__.removeprefix("check_") for c in verify.SUITES["chaos"]
        ]
        assert [r.failures for r in results if not r.passed] == []

    def test_all_runs_every_check_in_suite_order(self):
        results = verify.run_suites(VerifyConfig(seed=7), ["all"])
        # a check is named after its function, less the suite prefix of mc's
        order = [(suite, c.__name__.removeprefix("check_").removeprefix(f"{suite}_"))
                 for suite, checks in verify.SUITES.items() for c in checks]
        assert len(order) == 24
        assert [(r.suite, r.check) for r in results] == order
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("suites", [["all", "bogus"], ["bogus", "all"], ["mc", "bogus"]])
    def test_unknown_name_refused_beside_all(self, suites, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "SUITES", {s: [ran.append] for s in ("tensor", "mc")})
        with pytest.raises(ValueError) as exc:
            verify.run_suites(VerifyConfig(seed=7), suites)
        assert str(exc.value) == "unknown suite(s) ['bogus']; choose from ['mc', 'tensor'] or 'all'"
        assert ran == []  # refused before any check runs

    @pytest.mark.parametrize("suites, order", [
        (["b", "b"], ["b"]),
        (["c", "a", "c", "a"], ["c", "a"]),
        (["c", "all", "a", "b"], ["c", "a", "b"]),  # 'all' adds the rest in suite order
        (["all", "all"], ["a", "b", "c"]),
    ])
    def test_each_suite_once_in_order_of_first_mention(self, suites, order, monkeypatch):
        monkeypatch.setattr(verify, "SUITES", {s: [lambda cfg, s=s: s] for s in "abc"})
        assert verify.run_suites(VerifyConfig(seed=7), suites) == order

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_passes_at_max_order_one(self, seed):
        # check_top_term_formula needs n >= 2 and draws it from [2, max(max_order, 2)]
        cfg = VerifyConfig(max_order=1, trials=3, samples=2000, seed=seed)
        results = verify.run_suites(cfg, ["all"])
        assert len(results) == 24
        assert [r.failures for r in results if not r.passed] == []


def _product_without_top_r(F, G):
    """The product formula missing its lowest-order (largest r) term."""
    P = multiply(F, G)
    return ChaosExpansion(P.dim, {k: t for k, t in P.terms.items() if k != min(P.terms)})


def _l2_inner_without_factorial(F, G):
    """sum_k <f_k, g_k>: E[F G] without its k! weights."""
    return sum(inner(f, G.terms[k]) for k, f in F.terms.items() if k in G.terms)


def _derivative_without_falling_factorial(F, k):
    """D^k with the coordinate weight n!/(n-k)! left out."""
    unscaled = {n: t.scaled(1.0 / math.perm(n, k)) for n, t in F.terms.items() if n >= k}
    return derivative(ChaosExpansion(F.dim, {**F.terms, **unscaled}), k)


# one broken primitive in verify's namespace per chaos check
CHAOS_BREAKS = {
    "product_pointwise": ("multiply", _product_without_top_r),
    "isometry": ("l2_inner", _l2_inner_without_factorial),
    "divergence_identity": ("derivative", _derivative_without_falling_factorial),
    "derivative_finite_difference": ("derivative", _derivative_without_falling_factorial),
    "hermite_orthonormality": ("hermite", lambda n, x: np.asarray(x, dtype=float) ** n),
}


@pytest.mark.parametrize("check", verify.SUITES["chaos"], ids=lambda c: c.__name__)
def test_chaos_check_detects_broken_primitive(check, monkeypatch):
    name = check.__name__.removeprefix("check_")
    primitive, broken = CHAOS_BREAKS[name]
    cfg = VerifyConfig(seed=7)
    assert check(cfg).passed
    monkeypatch.setattr(verify, primitive, broken)
    result = check(cfg)
    assert result.check == name
    assert not result.passed and result.failures


def _broken(owner, name, change):
    """(owner, name, owner.name with its result passed through change)."""
    real = getattr(owner, name)
    return owner, name, lambda *args, **kwargs: change(real(*args, **kwargs))


def _negated_terms(terms):
    """ContractionTable.terms' (T_0, (T_1, ...)) with every term negated."""
    t0, tr = terms
    return -t0, tuple(-v for v in tr)


def _flipped(verdict):
    return (mal.Verdict.ABSOLUTELY_CONTINUOUS if verdict is mal.Verdict.DEGENERATE
            else mal.Verdict.DEGENERATE)


# check -> (owner, name, broken) that breaks one primitive of verify's or
# malliavin's namespace, made when the test runs; the tensor and chaos
# checks have theirs in test_acceptance.py and CHAOS_BREAKS, and
# stderr_scaling and moments theirs above
BREAKS = {
    verify.check_symmetrize_projection: lambda: _broken(
        verify, "symmetrize", lambda t: t.scaled(1.5)),
    verify.check_anchor_values: lambda: _broken(
        mal, "expected_det_closed_form", lambda b: replace(b, t0=2 * b.t0)),
    verify.check_orthogonal_rank_one: lambda: _broken(
        mal, "expected_dets", lambda dets: tuple(v * (1 + 1e-6) for v in dets)),
    verify.check_closed_vs_symbolic: lambda: _broken(
        mal, "expected_dets", lambda dets: tuple(v * (1 + 1e-6) for v in dets)),
    verify.check_sum_of_squares_pointwise: lambda: _broken(
        mal, "sum_of_squares_eval", lambda v: 1.001 * v),
    verify.check_direct_term_agreement: lambda: _broken(
        mal, "tr_term_direct", lambda v: 1.001 * v),
    verify.check_term_nonnegativity: lambda: _broken(
        mal.ContractionTable, "terms", _negated_terms),
    verify.check_top_term_formula: lambda: _broken(
        mal.ContractionTable, "terms", _negated_terms),
    verify.check_degeneracy: lambda: _broken(
        mal, "density_check", lambda rep: replace(rep, verdict=_flipped(rep.verdict))),
    verify.check_covariance_inequality: lambda: _broken(
        mal, "covariance_inequality",
        lambda res: replace(res, lhs=0.1 * res.lhs)),
    # each single draw one index ahead of the block
    verify.check_mc_reproducibility: lambda: (
        verify, "sample_gaussian", lambda d, seed, i: mc.sample_gaussian(d, seed, i + 1)),
    verify.check_mc_consistency: lambda: _broken(
        verify, "estimate_expected_det", lambda e: replace(e, mean=e.mean + 6 * e.stderr)),
}


@pytest.mark.parametrize("check", BREAKS, ids=lambda c: c.__name__)
def test_check_detects_broken_primitive(check, monkeypatch):
    monkeypatch.setattr(*BREAKS[check]())
    result = check(VerifyConfig(seed=7))
    assert not result.passed and result.failures


def test_report_counts_every_failure_and_lists_the_first_ten(monkeypatch):
    # all 40 single draws are one index ahead of the block, so all 40 fail
    monkeypatch.setattr(*BREAKS[verify.check_mc_reproducibility]())
    result = verify.check_mc_reproducibility(VerifyConfig(seed=7))
    assert result.failed == 40
    assert result.failures == [
        f"index {17 + i} differs between block and single draws" for i in range(10)
    ]


class TestBranchControls:
    """Each check's second failure branch, reached with its main
    comparison left passing or told apart by its context."""

    def test_divergence_with_an_extra_chaos_order(self, monkeypatch):
        # the order-n term stays exact, so only the extra order 0 fails
        monkeypatch.setattr(*_broken(
            verify, "divergence", lambda F: F + ChaosExpansion.constant(F.dim, 1.0)))
        result = verify.check_divergence_identity(VerifyConfig(seed=7))
        assert not result.passed and result.observed == 1.0
        assert result.failed == result.trials
        assert all(re.fullmatch(r"d=\d+ n=\d+ seed=\d+", f) for f in result.failures)

    def test_negative_sum_of_squares(self, monkeypatch):
        monkeypatch.setattr(*_broken(mal, "sum_of_squares_eval", lambda v: -v))
        result = verify.check_sum_of_squares_pointwise(VerifyConfig(seed=7))
        assert not result.passed
        negative = [f for f in result.failures if f.startswith("negative sos ")]
        assert negative and all(
            re.fullmatch(r"negative sos d=\d+ n=\d+ m=\d+ k=\d+ seed=\d+", f) for f in negative)

    def test_estimate_not_reproducible(self, monkeypatch):
        # each call's mean one more than the last; the draws stay as they are
        calls = []

        def drift(estimate, *args):
            calls.append(None)
            return replace(estimate, mean=estimate.mean + len(calls))

        _with_estimate(monkeypatch, "estimate_expected_det", drift)
        result = verify.check_mc_reproducibility(VerifyConfig(seed=7))
        assert not result.passed
        assert result.failures == ["estimate not reproducible"]


def test_every_check_function_is_registered_in_one_suite():
    # a check_ function without its @_check line would leave every report
    # without anything failing
    defined = [f for name, f in vars(verify).items()
               if name.startswith("check_") and inspect.isfunction(f)]
    registered = [c for checks in verify.SUITES.values() for c in checks]
    assert len(defined) == len(registered) == 24
    assert sorted(map(id, defined)) == sorted(map(id, registered))


class TestOrthogonalRankOne:
    def test_exact_to_rounding(self):
        for seed in (7, 11, 2024):
            res = verify.check_orthogonal_rank_one(VerifyConfig(seed=seed, max_order=6))
            assert res.passed and res.observed < 1e-13

    def test_detects_one_missing_factorial(self, monkeypatch):
        # E det^(k) read with (n-k)!^2 in place of (n-k)! (m-k)!: wrong only
        # where n != m, so the failures name unequal orders alone
        real = mal.expected_dets

        def broken(pair):
            n, m = pair.n, pair.m
            return tuple(v * math.factorial(m - k) / math.factorial(n - k)
                         for k, v in enumerate(real(pair), start=1))

        monkeypatch.setattr(mal, "expected_dets", broken)
        res = verify.check_orthogonal_rank_one(VerifyConfig(seed=7))
        assert not res.passed
        for failure in res.failures:
            n, m = (int(x) for x in re.search(r"n=(\d+) m=(\d+)", failure).groups())
            assert n != m
