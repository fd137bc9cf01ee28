"""Randomized invariant suites behind the ``verify`` command.

Each check draws seeded random instances, measures the worst deviation
from an identity that holds exactly in the algebra, and passes when that
deviation is within tolerance.  Every instance seed is an integer that
reproduces the instance via the public constructors, and failing
instances are listed in the report.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from . import malliavin as mal
from .chaos import (
    ChaosExpansion,
    derivative,
    divergence,
    evaluate,
    expectation,
    hermite,
    l2_inner,
    multiply,
)
from .mc import estimate_expected_det, estimate_moment, sample_gaussian, sample_gaussian_block
from .tensor import (
    Tensor,
    basis_tensor,
    contract,
    hat_contract,
    inner,
    norm,
    random_symmetric,
    slice_tensor,
    symmetrize,
    tensor_product,
)

__all__ = ["CheckResult", "VerifyConfig", "SUITES", "run_suites", "anchor_pair"]


@dataclass(frozen=True)
class VerifyConfig:
    dim: int = 3
    max_order: int = 4
    trials: int = 20
    samples: int = 20000
    seed: int = 0
    tol_rel: float = 1e-9

    def __post_init__(self) -> None:
        if self.dim < 2:  # every check draws d from [2, dim]
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        mal._check_tol("tol_rel", self.tol_rel)


@dataclass
class CheckResult:
    suite: str
    check: str
    seed: int
    trials: int
    observed: float
    tolerance: float
    passed: bool
    failed: int = 0
    failures: list = field(default_factory=list)


def instance_seed(base: int, salt: int, i: int) -> int:
    """Deterministic per-instance seed, loggable and replayable as an int."""
    ss = np.random.SeedSequence([base, salt, i])
    return int(ss.generate_state(1, np.uint64)[0])


def anchor_pair() -> mal.MalliavinPair:
    """The worked d=2, n=m=2 pair with E det = 12 at k=1 and det C = 2."""
    f = basis_tensor(2, (0, 0))
    g = symmetrize(basis_tensor(2, (0, 1)))
    return mal.MalliavinPair(f, g)


def _instances(cfg: VerifyConfig, salt: int, *orders: tuple[int, int], dim: int | None = None):
    """Yield the cfg.trials instances of the check with this salt: seed,
    generator, d in [2, dim or cfg.dim], then one order from each inclusive
    (lo, hi) range in turn."""
    for trial in range(cfg.trials):
        seed = instance_seed(cfg.seed, salt, trial)
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, (dim or cfg.dim) + 1))
        yield (seed, rng, d, *(int(rng.integers(lo, hi + 1)) for lo, hi in orders))


def _four_tensors(d: int, n: int, m: int, seed: int):
    """Random symmetric (f, h, g, ell) of orders (n, n, m, m)."""
    return tuple(random_symmetric(d, o, seed + j) for j, o in enumerate((n, n, m, m)))


def _rel_err(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _max_rel_dev(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want|, relative to max(1, max |want|)."""
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


class _Recorder:
    """Tracks the worst deviation and which instances exceeded tolerance."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.worst = 0.0
        self.failures: list[str] = []

    def add(self, deviation: float, context: str) -> None:
        if deviation > self.worst:
            self.worst = deviation
        if not deviation <= self.tolerance:
            self.failures.append(context)


# suite -> its checks, in definition order; each @_check line adds one
SUITES: dict[str, list] = {}


def _check(suite: str, tol: float | None = None):
    """Register a check body ``fn(cfg, rec)`` in ``SUITES[suite]``.

    The check is named after the function, less ``check_`` and the suite
    prefix, and records at ``tol`` (``cfg.tol_rel`` when None).  The body
    returns its instance count, or None when it ran ``cfg.trials``.
    """

    def register(body):
        name = body.__name__.removeprefix("check_").removeprefix(f"{suite}_")

        @functools.wraps(body)
        def check(cfg: VerifyConfig) -> CheckResult:
            rec = _Recorder(cfg.tol_rel if tol is None else tol)
            trials = body(cfg, rec)
            return CheckResult(
                suite=suite,
                check=name,
                seed=cfg.seed,
                trials=cfg.trials if trials is None else trials,
                observed=rec.worst,
                tolerance=rec.tolerance,
                passed=not rec.failures,
                failed=len(rec.failures),
                failures=rec.failures[:10],
            )

        SUITES.setdefault(suite, []).append(check)
        return check

    return register


# -- tensor suite -------------------------------------------------------------


@_check("tensor")
def check_slice_reassembly(cfg: VerifyConfig, rec: _Recorder):
    """Summing sliced contractions over a shared multi-index collapses the
    slices back into a deeper contraction of the full tensors."""
    for seed, _, d, n, m in _instances(cfg, 1, (1, cfg.max_order), (1, cfg.max_order)):
        f = random_symmetric(d, n, seed)
        g = random_symmetric(d, m, seed + 1)
        for k in range(0, min(n, m) + 1):
            for r in range(0, min(n, m) - k + 1):
                total = Tensor.zeros(d, n + m - 2 * k - 2 * r, symmetric=False)
                for idx in itertools.product(range(d), repeat=k):
                    total = total + contract(
                        slice_tensor(f, idx), slice_tensor(g, idx), r
                    )
                direct = contract(f, g, r + k)
                rec.add(
                    _max_rel_dev(total.coeffs, direct.coeffs),
                    f"d={d} n={n} m={m} k={k} r={r} seed={seed}",
                )


@_check("tensor")
def check_contraction_swap(cfg: VerifyConfig, rec: _Recorder):
    """<f x_{n-r} h, g x_{m-r} l> = <f x_r g, h x_r l>."""
    for seed, _, d, n, m in _instances(cfg, 2, (1, cfg.max_order), (1, cfg.max_order)):
        f, h, g, ell = _four_tensors(d, n, m, seed)
        for r in range(0, min(n - 1, m - 1) + 1):
            lhs = inner(contract(f, h, n - r), contract(g, ell, m - r))
            rhs = inner(contract(f, g, r), contract(h, ell, r))
            rec.add(_rel_err(lhs, rhs), f"d={d} n={n} m={m} r={r} seed={seed}")


@_check("tensor")
def check_symmetrized_product_inner(cfg: VerifyConfig, rec: _Recorder):
    """<sym(f x g), sym(l x h)> expands over contractions of the four tensors."""
    for seed, _, d, n, m in _instances(cfg, 3, (1, cfg.max_order), (1, cfg.max_order)):
        f, h, g, ell = _four_tensors(d, n, m, seed)
        lhs = inner(symmetrize(tensor_product(f, g)), symmetrize(tensor_product(ell, h)))
        total = 0.0
        for r in range(0, min(n, m) + 1):
            total += (
                math.comb(n, r)
                * math.comb(m, r)
                * inner(contract(f, ell, r), contract(h, g, r))
            )
        rhs = math.factorial(m) * math.factorial(n) / math.factorial(m + n) * total
        rec.add(_rel_err(lhs, rhs), f"d={d} n={n} m={m} seed={seed}")


@_check("tensor")
def check_hat_expansion(cfg: VerifyConfig, rec: _Recorder):
    """<sym(f x_r g), sym(l x_r h)> expands over the quadruple contractions."""
    for seed, _, d, n, m in _instances(cfg, 4, (1, cfg.max_order), (1, cfg.max_order)):
        f, h, g, ell = _four_tensors(d, n, m, seed)
        for r in range(0, min(n - 1, m - 1) + 1):
            lhs = inner(symmetrize(contract(f, g, r)), symmetrize(contract(ell, h, r)))
            total = 0.0
            for s in range(0, min(n - r, m - r) + 1):
                total += (
                    math.comb(n - r, s)
                    * math.comb(m - r, s)
                    * hat_contract(f, g, ell, h, r, s)
                )
            rhs = (
                math.factorial(n - r)
                * math.factorial(m - r)
                / math.factorial(m + n - 2 * r)
                * total
            )
            rec.add(_rel_err(lhs, rhs), f"d={d} n={n} m={m} r={r} seed={seed}")


@_check("tensor")
def check_hat_swap(cfg: VerifyConfig, rec: _Recorder):
    """Exchanging the roles (g, r) <-> (l, s) leaves the hat contraction fixed."""
    for seed, _, d, n, m in _instances(cfg, 5, (1, cfg.max_order), (1, cfg.max_order)):
        f, h, g, ell = _four_tensors(d, n, m, seed)
        for r in range(0, min(n, m) + 1):
            for s in range(0, min(n, m) - r + 1):
                lhs = hat_contract(f, g, ell, h, r, s)
                rhs = hat_contract(f, ell, g, h, s, r)
                rec.add(_rel_err(lhs, rhs), f"d={d} n={n} m={m} r={r} s={s} seed={seed}")


@_check("tensor")
def check_symmetrize_projection(cfg: VerifyConfig, rec: _Recorder):
    """symmetrize is idempotent and norm non-increasing."""
    for seed, rng, d, n in _instances(cfg, 6, (0, cfg.max_order)):
        raw = Tensor(d, n, rng.standard_normal((d,) * n))
        s1 = symmetrize(raw)
        s2 = symmetrize(Tensor(d, n, s1.coeffs))
        dev = float(np.max(np.abs(s1.coeffs - s2.coeffs))) if n else 0.0
        rec.add(dev / max(1.0, norm(s1)), f"d={d} n={n} seed={seed} idempotence")
        excess = norm(s1) - norm(raw)
        rec.add(max(excess, 0.0) / max(1.0, norm(raw)), f"d={d} n={n} seed={seed} norm")


# -- chaos suite --------------------------------------------------------------


@_check("chaos")
def check_product_pointwise(cfg: VerifyConfig, rec: _Recorder):
    """The product formula is a polynomial identity: it holds at every point."""
    for seed, rng, d, n, m in _instances(cfg, 11, (1, cfg.max_order), (1, cfg.max_order)):
        F = ChaosExpansion.integral(random_symmetric(d, n, seed))
        G = ChaosExpansion.integral(random_symmetric(d, m, seed + 1))
        pts = rng.standard_normal((50, d))
        lhs = evaluate(multiply(F, G), pts)
        rhs = evaluate(F, pts) * evaluate(G, pts)
        dev = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))
        rec.add(dev, f"d={d} n={n} m={m} seed={seed}")


@_check("chaos", tol=1e-12)
def check_isometry(cfg: VerifyConfig, rec: _Recorder):
    """E[I_n(f) I_m(g)] is 0 for n != m and n! <f, g> for n = m."""
    for seed, _, d, n, m in _instances(cfg, 12, (1, cfg.max_order), (1, cfg.max_order)):
        f = random_symmetric(d, n, seed)
        g = random_symmetric(d, m, seed + 1)
        F, G = ChaosExpansion.integral(f), ChaosExpansion.integral(g)
        observed = expectation(multiply(F, G))
        target = math.factorial(n) * inner(f, g) if n == m else 0.0
        rec.add(_rel_err(observed, target), f"d={d} n={n} m={m} seed={seed}")
        cross = l2_inner(F, G)
        rec.add(_rel_err(cross, target), f"l2 d={d} n={n} m={m} seed={seed}")


@_check("chaos", tol=1e-12)
def check_divergence_identity(cfg: VerifyConfig, rec: _Recorder):
    """divergence(derivative(I_n(f), 1)) = n I_n(f), tensor by tensor."""
    for seed, _, d, n in _instances(cfg, 13, (1, max(cfg.max_order, 5))):
        f = random_symmetric(d, n, seed)
        F = ChaosExpansion.integral(f)
        back = divergence(derivative(F, 1))
        target = n * f.coeffs
        got = back.terms[n].coeffs if n in back.terms else np.zeros_like(target)
        dev = _max_rel_dev(got, target)
        extra = [k for k in back.terms if k != n]
        if extra:
            dev = max(dev, 1.0)
        rec.add(dev, f"d={d} n={n} seed={seed}")


@_check("chaos", tol=1e-5)
def check_derivative_finite_difference(cfg: VerifyConfig, rec: _Recorder):
    """First-derivative coordinates match central differences of evaluate."""
    step = 1e-5
    for seed, rng, d, n in _instances(cfg, 14, (1, cfg.max_order)):
        F = ChaosExpansion.integral(random_symmetric(d, n, seed)) + ChaosExpansion.constant(
            d, float(rng.standard_normal())
        )
        dF = derivative(F, 1)
        xi = rng.standard_normal(d)
        for j in range(d):
            up, down = xi.copy(), xi.copy()
            up[j] += step
            down[j] -= step
            fd = (evaluate(F, up) - evaluate(F, down)) / (2 * step)
            an = evaluate(dF[(j,)], xi)
            rec.add(_rel_err(an, fd), f"d={d} n={n} j={j} seed={seed}")


@_check("chaos", tol=1e-9)
def check_hermite_orthonormality(cfg: VerifyConfig, rec: _Recorder):
    """Quadrature: E[H_a(xi) H_b(xi)] = delta_ab a! under the standard normal."""
    nodes, weights = hermegauss(24)
    weights = weights / math.sqrt(2 * math.pi)
    top = max(cfg.max_order, 6)
    for a in range(top + 1):
        for b in range(a, top + 1):
            ha = np.asarray(hermite(a, nodes))
            hb = np.asarray(hermite(b, nodes))
            observed = float(np.sum(weights * ha * hb))
            target = math.factorial(a) if a == b else 0.0
            rec.add(
                abs(observed - target) / max(1.0, abs(target)), f"a={a} b={b}"
            )
    return (top + 1) ** 2


# -- malliavin suite -----------------------------------------------------------


@_check("malliavin", tol=1e-12)
def check_anchor_values(cfg: VerifyConfig, rec: _Recorder):
    """Hand-verified values of the worked pair: terms 8 + 4, E det 12, det C 2."""
    pair = anchor_pair()
    b = mal.expected_det_closed_form(pair, 1)
    rec.add(_rel_err(b.t0, 8.0), "t0")
    rec.add(_rel_err(b.tr[0], 4.0), "t1")
    rec.add(_rel_err(b.closed_form, 12.0), "closed_form")
    rec.add(_rel_err(b.symbolic, 12.0), "symbolic")
    rec.add(_rel_err(mal.cov_det(pair), 2.0), "cov_det")
    rec.add(_rel_err(mal.expected_det(pair, 2), 8.0), "k=n reduces to n!^2 det C")
    ineq = mal.covariance_inequality(pair)
    rec.add(_rel_err(ineq.lhs, 12.0), "inequality lhs")
    rec.add(_rel_err(ineq.rhs, 8.0), "inequality rhs")
    rec.add(
        _rel_err(mal.sum_of_squares_eval(pair, 1, np.array([1.0, 0.0])), 4.0),
        "pointwise value at (1, 0)",
    )
    return 1


def _rank_one(c: float, u: np.ndarray, n: int) -> Tensor:
    """c u^n, symmetrized so that it is exactly symmetric in floating point."""
    return symmetrize(Tensor(len(u), n, c * functools.reduce(np.multiply.outer, [u] * n)))


@_check("malliavin")
def check_orthogonal_rank_one(cfg: VerifyConfig, rec: _Recorder):
    """For orthonormal u, v, D^k I_n(a u^n) and D^k I_m(b v^m) are orthogonal,
    so E det^(k) = a^2 b^2 n!^2 m!^2 / ((n-k)! (m-k)!) at every k."""
    for seed, rng, d, n, m in _instances(cfg, 28, (1, cfg.max_order), (1, cfg.max_order)):
        # u, v: the Q of a Gaussian d x 2 matrix's QR, by Gram-Schmidt
        x, y = rng.standard_normal((2, d))
        u = x / np.linalg.norm(x)
        v = y - (u @ y) * u
        v /= np.linalg.norm(v)
        a, b = rng.uniform(0.5, 2.0, 2)
        pair = mal.MalliavinPair(_rank_one(a, u, n), _rank_one(b, v, m))
        for k, got in enumerate(mal.expected_dets(pair), start=1):
            want = (a * b) ** 2 * (
                math.factorial(n) ** 2 * math.factorial(m) ** 2
                / (math.factorial(n - k) * math.factorial(m - k))
            )
            rec.add(_rel_err(got, want), f"d={d} n={n} m={m} k={k} seed={seed}")


@_check("malliavin", tol=1e-8)
def check_closed_vs_symbolic(cfg: VerifyConfig, rec: _Recorder):
    """Closed form against the chaos-arithmetic oracle at every valid k."""
    top = (1, min(cfg.max_order, 4))
    for seed, _, d, n, m in _instances(cfg, 21, top, top):
        pair = mal.random_pair(d, n, m, seed)
        for k, closed in enumerate(mal.expected_dets(pair), start=1):
            symbolic = mal.expected_det_chaos(pair, k)
            dev = abs(closed - symbolic) / (1.0 + abs(symbolic))
            rec.add(dev, f"d={d} n={n} m={m} k={k} seed={seed}")


@_check("malliavin")
def check_sum_of_squares_pointwise(cfg: VerifyConfig, rec: _Recorder):
    """The squared-minor evaluation equals the evaluated symbolic determinant."""
    top = (1, min(cfg.max_order, 3))
    for seed, rng, d, n, m in _instances(cfg, 22, top, top):
        pair = mal.random_pair(d, n, m, seed)
        pts = rng.standard_normal((20, d))
        for k in range(1, min(n, m) + 1):
            sos = mal.sum_of_squares_eval(pair, k, pts)
            sym = evaluate(mal.det_chaos(pair, k), pts)
            # compare against the polynomial's magnitude on the sample;
            # per-point quotients degenerate at roots of the determinant
            rec.add(_max_rel_dev(sos, sym), f"sos d={d} n={n} m={m} k={k} seed={seed}")
            if np.any(sos < 0):
                rec.add(1.0, f"negative sos d={d} n={n} m={m} k={k} seed={seed}")


@_check("malliavin", tol=1e-10)
def check_term_nonnegativity(cfg: VerifyConfig, rec: _Recorder):
    """Each correction term is a sum of squares, so never meaningfully negative."""
    for seed, _, d, n, m in _instances(cfg, 23, (1, cfg.max_order), (1, cfg.max_order)):
        pair = mal.random_pair(d, n, m, seed)
        scale = _det_scale(pair)
        table = mal.ContractionTable(pair)
        for k in range(1, min(n, m) + 1):
            t0, tr = table.terms(k)
            for r, v in enumerate(tr, start=1):
                rec.add(max(-v, 0.0) / scale, f"T_{r} d={d} n={n} m={m} k={k} seed={seed}")
            rec.add(max(-t0, 0.0) / scale, f"T_0 d={d} n={n} m={m} k={k} seed={seed}")
            rec.add(
                max(-mal._edet(table, k), 0.0) / scale,
                f"closed d={d} n={n} m={m} k={k} seed={seed}",
            )


def _det_scale(pair: mal.MalliavinPair) -> float:
    return max(
        1.0,
        math.factorial(pair.n) ** 2
        * math.factorial(pair.m) ** 2
        * pair.norms[0]
        * pair.norms[1],
    )


@_check("malliavin")
def check_direct_term_agreement(cfg: VerifyConfig, rec: _Recorder):
    """Each term T_r of the pair's table, T_0 included, matches its defining
    squared-minor form (tr_term_direct)."""
    top = (1, min(cfg.max_order, 3))
    for seed, _, d, n, m in _instances(cfg, 24, top, top, dim=min(cfg.dim, 3)):
        pair = mal.random_pair(d, n, m, seed)
        table = mal.ContractionTable(pair)
        for k in range(1, min(n, m) + 1):
            t0, tr = table.terms(k)
            for r, term in enumerate((t0, *tr)):
                rec.add(
                    _rel_err(mal.tr_term_direct(pair, k, r), term),
                    f"r={r} d={d} n={n} m={m} k={k} seed={seed}",
                )


@_check("malliavin")
def check_top_term_formula(cfg: VerifyConfig, rec: _Recorder):
    """For n = m the top correction term reduces to two contraction pairings,
    and at k = n the whole determinant reduces to n!^2 det C."""
    for seed, _, d, n in _instances(cfg, 25, (2, max(cfg.max_order, 2))):
        pair = mal.random_pair(d, n, n, seed)
        f, g = pair.f, pair.g
        table = mal.ContractionTable(pair)
        for k in range(1, n):
            r = n - k
            got = table.terms(k)[1][-1]  # T_r at its top index r = n - k
            lead = math.factorial(n) ** 4 / math.factorial(n - k) ** 2
            c_fg = contract(f, g, r)
            c_gf = contract(g, f, r)
            want = lead * (inner(c_fg, c_fg) - inner(c_fg, c_gf))
            rec.add(_rel_err(got, want), f"top r d={d} n={n} k={k} seed={seed}")
        rec.add(  # at k = n there are no correction terms: E det = T_0
            _rel_err(table.terms(n)[0], math.factorial(n) ** 2 * mal.cov_det(pair)),
            f"k=n d={d} n={n} seed={seed}",
        )


@_check("malliavin", tol=1e-12)
def check_degeneracy(cfg: VerifyConfig, rec: _Recorder):
    """Proportional components zero out every k; generic pairs zero none."""
    for seed, rng, d, n in _instances(cfg, 26, (1, cfg.max_order)):
        f = random_symmetric(d, n, seed)
        c = float(rng.uniform(0.5, 3.0))
        prop = mal.MalliavinPair(f, f.scaled(c))
        scale = _det_scale(prop)
        report = mal.density_check(prop)
        if report.verdict is not mal.Verdict.DEGENERATE or not report.consistent:
            rec.add(1.0, f"verdict d={d} n={n} seed={seed}")
        for k, v in enumerate(report.expected_dets, start=1):
            rec.add(abs(v) / scale, f"prop k={k} d={d} n={n} seed={seed}")
        generic = mal.random_pair(d, n, n, seed)
        greport = mal.density_check(generic)
        if (
            greport.verdict is not mal.Verdict.ABSOLUTELY_CONTINUOUS
            or not greport.consistent
            or min(greport.expected_dets) <= 0
        ):
            rec.add(1.0, f"generic d={d} n={n} seed={seed}")


@_check("malliavin")
def check_covariance_inequality(cfg: VerifyConfig, rec: _Recorder):
    """The determinant inequality, for n <= 4 E det^(1) >= c_n det C with
    c_n = 4, 9/4, 16/9."""
    for seed, _, d, n in _instances(cfg, 27, (2, max(cfg.max_order, 5))):
        pair = mal.random_pair(d, n, n, seed)
        res = mal.covariance_inequality(pair, tol_rel=cfg.tol_rel)
        margin = res.lhs - res.rhs
        scale = max(1.0, abs(res.lhs), abs(res.rhs))
        rec.add(max(-margin, 0.0) / scale, f"d={d} n={n} seed={seed}")


# -- mc suite -------------------------------------------------------------------


@_check("mc", tol=0.0)
def check_mc_reproducibility(cfg: VerifyConfig, rec: _Recorder):
    """Same (seed, n_samples) gives bit-identical results; blocks agree with
    single draws."""
    pair = anchor_pair()
    a = estimate_expected_det(pair, 1, n_samples=5000, seed=cfg.seed)
    b = estimate_expected_det(pair, 1, n_samples=5000, seed=cfg.seed)
    if (a.mean, a.stderr) != (b.mean, b.stderr):
        rec.add(1.0, "estimate not reproducible")
    block = sample_gaussian_block(3, cfg.seed, 17, 40)
    for i in range(40):
        single = sample_gaussian(3, cfg.seed, 17 + i)
        if not np.array_equal(single, block[i]):
            rec.add(1.0, f"index {17 + i} differs between block and single draws")
    return 2


@_check("mc", tol=0.05)
def check_mc_consistency(cfg: VerifyConfig, rec: _Recorder):
    """MC means fall within four standard errors of the closed form."""
    reps = 20
    pairs = [anchor_pair(), mal.random_pair(2, 2, 2, instance_seed(cfg.seed, 31, 0))]
    for idx, pair in enumerate(pairs):
        closed = mal.expected_det(pair, 1)
        misses = 0
        for rep in range(reps):
            est = estimate_expected_det(
                pair, 1, n_samples=cfg.samples, seed=instance_seed(cfg.seed, 32, rep)
            )
            if abs(est.mean - closed) > 4 * est.stderr:
                misses += 1
        rec.add(misses / reps, f"pair {idx}: {misses}/{reps} outside 4 stderr")
    return reps * len(pairs)


@_check("mc")
def check_mc_stderr_scaling(cfg: VerifyConfig, rec: _Recorder):
    """The estimate is the sample mean, and its stderr sqrt(var / samples).

    At one derived seed and 1e4 and 4e4 samples of the anchor pair, the
    samples are recomputed point by point (a sample's value depends only
    on its point) and the chunk-merged mean and stderr are compared with
    a two-pass mean and sqrt(var(ddof=1) / n) at relative tolerance
    tol_rel.  No sampling band: the 1/sqrt(samples) scaling is checked
    exactly, not through a ratio of two noisy stderrs.
    """
    pair = anchor_pair()
    seed = instance_seed(cfg.seed, 34, 0)
    for n in (10_000, 40_000):
        est = estimate_expected_det(pair, 1, n_samples=n, seed=seed)
        vals = mal.sum_of_squares_eval(pair, 1, sample_gaussian_block(pair.dim, seed, 0, n))
        mean, stderr = float(np.mean(vals)), math.sqrt(float(np.var(vals, ddof=1)) / n)
        rec.add(abs(est.mean - mean) / abs(mean), f"mean n={n} seed={seed}")
        rec.add(abs(est.stderr - stderr) / stderr, f"stderr n={n} seed={seed}")
    return 2


@_check("mc", tol=5.33)  # P(|z| > 5.33) = 1e-7 for a standard normal z
def check_mc_moments(cfg: VerifyConfig, rec: _Recorder):
    """Moment estimator recovers E[F] = 0 and E[F^2] = n! ||f||^2 for F = I_2(f).

    Each mean is tested as a z-score against the exact standard deviation
    from chaos arithmetic, sigma^2 = E F^2 for F and E F^4 - (E F^2)^2 for
    F^2 with E F^4 = <F^2, F^2>, not against the sample stderr (which is
    small exactly when the quartic F^2 draws a low mean).  Passes when
    |z| <= 5.33, a false-failure rate of 1e-7 per mean for a normal z.
    """
    seed = instance_seed(cfg.seed, 33, 0)
    f = random_symmetric(2, 2, seed)
    F = ChaosExpansion.integral(f)
    second = 2.0 * inner(f, f)
    F2 = multiply(F, F)
    # (power, E F^power, Var F^power)
    for power, target, var in ((2, second, l2_inner(F2, F2) - second**2), (1, 0.0, second)):
        est = estimate_moment(F, power, n_samples=cfg.samples, seed=seed)
        z = (est.mean - target) / math.sqrt(var / est.samples)
        label = "second" if power == 2 else "first"
        rec.add(abs(z), f"{label} moment z={z:.2f} seed={seed}")
    return 2


def run_suites(cfg: VerifyConfig, suites: list[str]) -> list[CheckResult]:
    if not suites:  # no check run is no evidence, and a report with no row
        raise ValueError(f"no suite named; choose from {sorted(SUITES)} or 'all'")
    # each suite once, in order of first mention; 'all' names every suite in place
    selected = dict.fromkeys(n for s in suites for n in (SUITES if s == "all" else [s]))
    unknown = [s for s in selected if s not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s) {unknown}; choose from {sorted(SUITES)} or 'all'"
        )
    return [check(cfg) for name in selected for check in SUITES[name]]
