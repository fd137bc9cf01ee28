"""Iterated Malliavin matrices of a pair of multiple integrals.

For (F, G) = (I_n(f), I_m(g)) the k-th iterated Malliavin matrix is the
2x2 Gram matrix of the k-th derivatives,

    [ ||D^k F||^2       <D^k F, D^k G> ]
    [ <D^k F, D^k G>    ||D^k G||^2    ],

and this module computes its determinant three independent ways:

* symbolically, as exact chaos arithmetic on the Gram entries: the
  derivative coordinates at the permutation-orbit representatives are
  stacked and multiplied by the product formula (one contraction over
  the representative axis per r), and E det is read off by chaos
  orthogonality;
* pointwise, as half the sum of squared 2x2 minors of the derivative
  coordinates (manifestly nonnegative), summed over permutation-orbit
  representatives with orbit-size weights from one Hermite table per
  batch of points;
* in closed form, as E det = T_0 + sum_{r>=1} T_r, every T_r one
  weighted difference of quadruple (hat) contractions, whose r = 0 row
  is the contraction norms ||f x_s g||^2, all read for every k from one
  :class:`ContractionTable` of the C_r = f x_r g, each held as the
  matrix of its permutation-orbit values (the symmetric-tensor <->
  polynomial correspondence: a symmetric tensor of order q is fixed by
  its C(d+q-1, q) orbit values).  This is the production route;
  :func:`tr_term_direct` and ``tensor.hat_contract`` are dense oracles
  for the tests and ``verify`` only.

The oracles are batched but stay independent of the closed form: the
symbolic route is chaos arithmetic on derivative coordinates, and
:func:`tr_term_direct` contracts dense slices of f with slices of g;
neither reads the table's orbit coordinates, hat contractions or term
formula.

It also provides the covariance determinant
det C = n!^2 (||f||^2 ||g||^2 - <f, g>^2), the inequality bounding
n^2 det C by a positive combination of expected determinants, and the
density/degeneracy verdict for equal orders: the pair admits a density
iff its components are not proportional, iff every E det of the iterated
matrices is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from operator import add
from typing import Optional

import numpy as np

from . import tensor
from .chaos import (
    ChaosExpansion,
    _accumulate,
    _expansion,
    _hermite_table,
    _product,
    as_points,
    checked_factorial,
    l2_inner,
    multiply,
)
from .tensor import (
    Tensor,
    _orbit_average,
    _orbit_sums,
    _require_array_size,
    _require_bytes,
    inner,
    orbit_info,
    random_symmetric,
)

__all__ = [
    "ContractionTable",
    "DensityReport",
    "DetBreakdown",
    "InequalityResult",
    "MalliavinPair",
    "Verdict",
    "cov_det",
    "covariance_inequality",
    "density_check",
    "det_chaos",
    "expected_det",
    "expected_det_chaos",
    "expected_det_closed_form",
    "expected_dets",
    "gram_chaos",
    "random_pair",
    "sum_of_squares_eval",
    "t0_term",
    "tr_term",
    "tr_term_direct",
]


@dataclass(frozen=True, eq=False, slots=True)
class MalliavinPair:
    """The pair (F, G) = (I_n(f), I_m(g)) over a shared d-dimensional basis.

    ``norms`` = (||f||^2, ||g||^2), computed once when the pair is built;
    the scale check, det C, the contraction table and ``verify`` read it.
    """

    f: Tensor
    g: Tensor
    norms: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.f.dim != self.g.dim:
            raise ValueError(f"dimension mismatch: {self.f.dim} != {self.g.dim}")
        if self.f.order < 1 or self.g.order < 1:
            raise ValueError("component orders must be >= 1")
        # every route's coefficients need n! and m! exactly
        checked_factorial(self.f.order)
        checked_factorial(self.g.order)
        if not (self.f.symmetric and self.g.symmetric):
            raise ValueError("components must be symmetric tensors")
        # det C and every E det grow like this scale: below 1e-300 or past a double
        # they cannot be told from zero or from overflow.  It is exactly 0 for a
        # zero component (det C = 0, allowed) or through underflow (refused)
        f, g = self.f, self.g
        object.__setattr__(self, "norms", (inner(f, f), inner(g, g)))
        scale = math.factorial(self.n) * math.factorial(self.m) * self.norms[0] * self.norms[1]
        zero_component = scale == 0 and not (np.any(f.coeffs) and np.any(g.coeffs))
        if not (zero_component or 1e-300 <= scale < math.inf):
            raise ValueError(
                f"the pair's scale n! m! ||f||^2 ||g||^2 = {scale:g} is outside"
                " [1e-300, inf), where det C cannot be resolved; rescale f and g"
            )

    @property
    def dim(self) -> int:
        return self.f.dim

    @property
    def n(self) -> int:
        return self.f.order

    @property
    def m(self) -> int:
        return self.g.order


def random_pair(dim: int, n: int, m: int, seed: int) -> MalliavinPair:
    """Pair with independent random symmetric components, reproducible by seed.

    f and g are drawn from the first two children of SeedSequence(seed),
    the seeds that SeedSequence(seed).spawn(2) gives.
    """
    sf, sg = (np.random.SeedSequence(seed, spawn_key=(i,)) for i in (0, 1))
    return MalliavinPair(random_symmetric(dim, n, sf), random_symmetric(dim, m, sg))


def _check_k(pair: MalliavinPair, k: int) -> None:
    kmax = min(pair.n, pair.m)
    if not 1 <= k <= kmax:
        raise ValueError(f"k = {k} out of range [1, {kmax}]")


# -- exact combinatorial coefficients ---------------------------------------


def _alpha(n: int, m: int, k: int, r: int) -> int:
    # scales the squared-minor form of T_r:
    # (n! m! / ((n-k-r)! (m-k-r)! r!))^2 * (n+m-2k-2r)!
    # perm(n, j) = C(n, j) j! is divisible by r! for r <= j, so the quotient is exact
    q = math.perm(n, k + r) * math.perm(m, k + r) // math.factorial(r)
    return q**2 * checked_factorial(n + m - 2 * k - 2 * r)


# -- symbolic route: Gram entries as chaos expansions ------------------------


def gram_chaos(
    pair: MalliavinPair, k: int
) -> tuple[ChaosExpansion, ChaosExpansion, ChaosExpansion]:
    """(||D^k F||^2, <D^k F, D^k G>, ||D^k G||^2) as exact chaos expansions.

    The coordinate of D^k I_n(f) at multi-index j is n!/(n-k)! I_{n-k}(f_j),
    f_j the slice of f at j, and coordinates are equal within a
    permutation orbit.  So the coordinates at the p orbit representatives
    are stacked, (p, d, ..., d) per component, one side is weighted by
    orbit size, and each Gram entry is the product formula summed over
    the representative axis: for every r one contraction over that axis
    plus r slots, then one symmetrization.  Independent of the closed
    form: it is chaos arithmetic on the coordinates, with no contraction
    norm, hat contraction or T_r identity.
    """
    _check_k(pair, k)
    info = orbit_info(pair.dim, k)
    reps = tuple(info.reps.T)
    x, y = (float(math.perm(t.order, k)) * t.coeffs[reps] for t in (pair.f, pair.g))
    qx, qy = pair.n - k, pair.m - k
    w = info.counts.astype(np.float64)
    entries = []
    for u, qu, v, qv in ((x, qx, x, qx), (x, qx, y, qy), (y, qy, y, qy)):
        acc: dict[int, np.ndarray] = {}
        _product(acc, w.reshape((-1,) + (1,) * qu) * u, v, qu, qv, 1)
        entries.append(_expansion(pair.dim, acc))
    return tuple(entries)


def det_chaos(pair: MalliavinPair, k: int) -> ChaosExpansion:
    """det of the k-th iterated Malliavin matrix as a chaos expansion."""
    a, b, c = gram_chaos(pair, k)
    return multiply(a, c) - multiply(b, b)


def expected_det_chaos(pair: MalliavinPair, k: int) -> float:
    """Constant term of :func:`det_chaos`, computed without materializing it.

    E[a c - b^2] is evaluated by chaos orthogonality on the Gram entries,
    which avoids product tensors of order up to 2(n+m-2k).
    """
    a, b, c = gram_chaos(pair, k)
    return l2_inner(a, c) - l2_inner(b, b)


# -- pointwise route: sum of squared minors ----------------------------------


def sum_of_squares_eval(pair: MalliavinPair, k: int, xi):
    """det of the k-th Malliavin matrix at xi via the squared-minor form.

    1/2 sum_{i, l} (A_i B_l - A_l B_i)^2 over all pairs of k-multi-indices,
    with A, B the derivative coordinates of F, G at xi.  Coordinates are
    equal within a permutation orbit, so this is evaluated as
    sum_{i < l} w_i w_l (a_i b_l - a_l b_i)^2 over orbit representatives
    with orbit sizes w.  The coordinate of D^k I_n(f) at rep j is
    n!/(n-k)! I_{n-k}(f_j), f_j the slice of f at j: the slices at every
    rep are stacked, their orbit sums taken in one batch (one row per rep)
    and scaled after summing, then applied by ``chaos._accumulate``, which
    forms each orbit's monomial once for f and g when n = m.

    Each point's operations are fixed: every coordinate adds its orbits'
    terms in orbit order, each monomial multiplying its H_{m_i} factors
    with m_i > 0 in axis order (the H_0 factors are exactly 1.0 and are
    skipped); then, for i < l in order, the minor is a_i b_l - a_l b_i,
    squared, scaled by w_i w_l and added.  So a point's value does not
    depend on the batch it is in.  Nonnegative pointwise by construction,
    and equal as a polynomial to the evaluated symbolic determinant.
    Accepts one point (d,) or a batch (N, d).
    """
    _check_k(pair, k)
    pts, single = as_points(xi, pair.dim)
    table = _hermite_table(max(pair.n, pair.m) - k, pts)
    info_k = orbit_info(pair.dim, k)
    reps = tuple(info_k.reps.T)
    a, b = coords = np.zeros((2, len(info_k.reps), pts.shape[0]))
    blocks: dict[int, list] = {}  # at n = m, f and g read one order's monomials
    for f, out in zip((pair.f, pair.g), coords):
        q = f.order - k
        sums, _ = _orbit_sums(f.coeffs[reps], orbit_info(pair.dim, q))
        blocks.setdefault(q, []).append((out, float(math.perm(f.order, k)) * sums))
    for q, block in blocks.items():
        _accumulate(table, q, block)
    w = info_k.counts.astype(np.float64)
    out = np.zeros(pts.shape[0])
    minor, other = np.empty((2, pts.shape[0]))
    for i in range(len(w)):
        for l in range(i + 1, len(w)):
            # (w_i w_l) (a_i b_l - a_l b_i)^2, one operation at a time in place
            np.multiply(a[i], b[l], out=minor)
            np.multiply(a[l], b[i], out=other)
            minor -= other
            minor *= minor
            minor *= w[i] * w[l]
            out += minor
    return float(out[0]) if single else out


# -- closed-form route: one contraction table per pair -----------------------

def _merge(dim: int, p: int, q: int) -> np.ndarray:
    """(N(p), N(q)) orbit ids in orbit_info(dim, p + q) of the multisets a + b,
    a and b the representatives of orders p and q: the inverse map read at
    the flat position of the concatenated representatives.  So F[a, b] =
    f[a + b] is the orbit vector of f read at _merge(dim, p, q)."""
    a, b = (orbit_info(dim, o).positions for o in (p, q))
    return orbit_info(dim, p + q).inverse[a[:, None] * dim**q + b]


@lru_cache(maxsize=128)  # plans kept for this many keys (d, n, m, cap)
def _table_plan(d: int, n: int, m: int, cap: int) -> tuple[tuple, ...]:
    """What a ContractionTable of shape (d, n, m) reads besides the values
    of f and g: per r >= 1 the row (r, F_r gather, G_r gather, orbit sizes
    of r, n-r and m-r, ((s, ix, iy, w) per s >= 1)).  With c the flat
    orbit matrix of C_r, w @ (c[ix] * c[iy]) is C_r against itself with s
    f-slots and s g-slots swapped: ix reads x[a1, a2, b1, b2] = c[a1 + a2,
    b1 + b2], a1 and b1 of size s, iy is that gather with a1 and b1
    transposed, and w weights each orbit tuple by its size.  cap is
    MAX_ARRAY_BYTES at the call, so a lowered cap builds its own plan:
    each array size is checked against it before the array is built, and
    a refusal caches nothing."""
    what = f"contraction table: dim {d} and orders ({n}, {m})"
    rows = []
    orbits = [math.comb(d + o - 1, o) for o in range(max(n, m) + 1)]  # N(d, o)
    for r in range(1, min(n, m) + 1):
        p, q = n - r, m - r
        # F_r, G_r and C_r, then each swap of C_r
        _require_bytes(what, 8 * max(max(orbits[p], orbits[q]) * orbits[r], orbits[p] * orbits[q]))
        row = (r, _merge(d, p, r), _merge(d, q, r), *(orbit_info(d, o).counts for o in (r, p, q)))
        swaps = []
        for s in range(1, min(r, p, q) + 1):
            _require_bytes(what, 8 * orbits[s] ** 2 * orbits[p - s] * orbits[q - s])
            ix = _merge(d, s, p - s)[:, :, None, None] * orbits[q] + _merge(d, s, q - s)
            cs, ca, cb = (orbit_info(d, o).counts.astype(np.float64) for o in (s, p - s, q - s))
            w = np.multiply.outer(np.multiply.outer(cs, ca), np.multiply.outer(cs, cb))
            swaps.append((s, ix.ravel(), ix.transpose(2, 1, 0, 3).ravel(), w.ravel()))
        rows.append((*row, tuple(swaps)))
    return tuple(rows)


class ContractionTable:
    """The closed form's hat contractions, each C_r = f x_r g once, in orbit
    coordinates.

    ``hats[(r, s)]`` = hat(f,g,g,f; r,s) for r, s >= 0, r + s <= min(n, m):
    C_r against itself with its first s f-slots and first s g-slots
    swapped.  C_r is symmetric within its f block and within its g block,
    so it is held as the N(d, n-r) x N(d, m-r) matrix of its orbit values,
    where N(d, q) = C(d+q-1, q): C_r = (F_r * M_r) @ G_r^T, with
    F_r[a, c] = f[a + c] over the multisets a of size n-r and c of size r,
    gathered from the orbit vector of f (its values at the
    representatives, read once), and M_r the orbit sizes of the c.  Every
    hat is then a sum over orbits weighted by orbit sizes: ||C_r||^2 =
    w_a @ (C_r * C_r) @ w_b, and for s >= 1 one weighted dot of two
    gathers of C_r, the second the first with the swapped slots
    transposed.  hats[(r, s)] = hats[(s, r)] (the swap identity) is read
    off the smaller contraction, so the r = 0 row is the norms ||C_s||^2,
    with ||C_0||^2 = ||f||^2 ||g||^2 read from ``pair.norms``, so the outer
    product is never built.
    The gathers and orbit sizes depend only on the shape (d, n, m) and are
    cached as one plan per shape and cap (_table_plan), whose array sizes
    are checked against MAX_ARRAY_BYTES as it is built, before any C_r is
    formed; a lowered cap builds (and refuses) a plan of its own.  No
    array is larger than the dense array it stands for (f, g, or the
    d^(n+m-2r) entries of C_r).  A table lives for one call; the pair
    holds only its squared norms, never the table.
    """

    def __init__(self, pair: MalliavinPair):
        d, n, m = pair.dim, pair.n, pair.m
        self.n, self.m = n, m
        self.hats = hats = {(0, 0): pair.norms[0] * pair.norms[1]}
        # each component's orbit vector: its value at every representative
        f, g = (t.coeffs.ravel()[orbit_info(d, t.order).positions] for t in (pair.f, pair.g))
        for r, fr, gr, mr, mp, mq, swaps in _table_plan(d, n, m, tensor.MAX_ARRAY_BYTES):
            c = (f[fr] * mr) @ g[gr].T
            hats[(r, 0)] = hats[(0, r)] = float(mp @ (c * c) @ mq)
            c = c.ravel()
            for s, ix, iy, w in swaps:
                hats[(r, s)] = hats[(s, r)] = float(w @ (c[ix] * c[iy]))

    def terms(self, k: int) -> tuple[float, tuple[float, ...]]:
        """(T_0, (T_1, ..., T_rmax)) for the k-th iterated matrix, rmax =
        min(n, m) - k, in one pass over r: T_r = beta(k, r) * sum_s
        C(n-k-r,s) C(m-k-r,s) (hats[(r,s)] - hats[(r,s+k)]), with the exact
        integer beta(k, r) = n!^2 m!^2 / ((n-k-r)! (m-k-r)! r!^2)."""
        n, m, hats = self.n, self.m, self.hats
        nm = math.factorial(n) * math.factorial(m)
        out = []
        for r in range(min(n, m) - k + 1):
            total = 0.0
            for s in range(min(n - k - r, m - k - r) + 1):
                w = math.comb(n - k - r, s) * math.comb(m - k - r, s)
                total += w * (hats[(r, s)] - hats[(r, s + k)])
            # beta = n! m! perm(n, k+r) perm(m, k+r) / r!^2, and r! divides
            # each perm(., k+r) = C(., k+r) (k+r)!, so the quotient is exact
            beta = nm * math.perm(n, k + r) * math.perm(m, k + r) // math.factorial(r) ** 2
            out.append(float(beta) * total)
        return out[0], tuple(out[1:])


def t0_term(pair: MalliavinPair, k: int) -> float:
    """Leading term of E det: weighted contraction-norm differences.

    m!^2 n!^2 / ((m-k)! (n-k)!) * sum_s C(m-k,s) C(n-k,s)
    (||f x_s g||^2 - ||f x_{s+k} g||^2), the r = 0 term of the pair's
    :class:`ContractionTable`.
    """
    _check_k(pair, k)
    return ContractionTable(pair).terms(k)[0]


def tr_term(pair: MalliavinPair, k: int, r: int) -> float:
    """Correction term T_r for r >= 1, via quadruple contractions.

    beta(k, r) * sum_s C(n-k-r,s) C(m-k-r,s)
    (hat(f,g,g,f; r,s) - hat(f,g,g,f; r,s+k)), with the hat contractions
    read from the pair's :class:`ContractionTable`.  Nonnegative up to
    rounding: it equals a sum of squared norms (see tr_term_direct).
    """
    _check_k(pair, k)
    if not 1 <= r <= min(pair.n - k, pair.m - k):
        raise ValueError(f"r = {r} out of range [1, {min(pair.n - k, pair.m - k)}]")
    return ContractionTable(pair).terms(k)[1][r - 1]


def tr_term_direct(pair: MalliavinPair, k: int, r: int) -> float:
    """T_r from its defining squared-minor form (independent of tr_term).

    1/2 alpha(k, r) * sum over all pairs (i, l) of k-multi-indices of
    || sym(f_i x_r g_l) - sym(f_l x_r g_i) ||^2, where f_i is the slice
    of f at i.  Every S[i, l] = sym(f_i x_r g_l) comes from one tensordot
    of f and g reshaped to (d^k, d, ..., d) and one batched
    symmetrization, and the sum is 1/2 alpha ||S - S^T||^2 with S^T
    swapping i and l.  Independent of tr_term: the slices are contracted
    with each other, never reduced to the norms and hat contractions of
    the table.  Valid for r = 0 too, where it equals t0_term.  An oracle
    for the tests and ``verify`` only; no production route uses it.
    """
    _check_k(pair, k)
    n, m, d = pair.n, pair.m, pair.dim
    if not 0 <= r <= min(n - k, m - k):
        raise ValueError(f"r = {r} out of range [0, {min(n - k, m - k)}]")
    qf, qg = n - k - r, m - k - r
    _require_array_size("tr_term_direct", d, n + m - 2 * r)  # S holds d^(n+m-2r)
    fs, gs = (t.coeffs.reshape((d**k,) + t.coeffs.shape[k:]) for t in (pair.f, pair.g))
    axes = tuple(range(1, r + 1))
    # (i, f slots, l, g slots) -> (i, l, f slots, g slots)
    s = np.moveaxis(np.tensordot(fs, gs, axes=(axes, axes)), 1 + qf, 1)
    if min(qf, qg) > 0:  # both slices keep free slots: not symmetric yet
        s = _orbit_average(s, d, qf + qg)
    diff = s - s.swapaxes(0, 1)
    return 0.5 * float(_alpha(n, m, k, r)) * float(np.vdot(diff, diff))


def _edet(table: ContractionTable, k: int) -> float:
    """E det = T_0 + sum_r T_r of the k-th iterated matrix, read from table:
    t0 plus the T_r added left to right from 0.0, the same bits on every
    Python version (the builtin ``sum`` of floats compensates from 3.12 on)."""
    t0, tr = table.terms(k)
    return t0 + reduce(add, tr, 0.0)


def expected_dets(pair: MalliavinPair) -> tuple[float, ...]:
    """Closed-form E det of the k-th iterated Malliavin matrix at index k-1,
    for k = 1..min(n, m), from one ContractionTable."""
    table = ContractionTable(pair)
    return tuple(_edet(table, k) for k in range(1, min(pair.n, pair.m) + 1))


def expected_det(pair: MalliavinPair, k: int) -> float:
    """``expected_dets(pair)[k-1]``, with the terms of this k alone summed
    from the pair's table."""
    _check_k(pair, k)
    return _edet(ContractionTable(pair), k)


@dataclass(frozen=True)
class DetBreakdown:
    """Per-k report: closed-form terms, symbolic oracle, optional MC estimate.

    remainder is the T_r in ``tr`` added left to right from 0.0 and
    closed_form = t0 + remainder, as :func:`expected_dets` adds them, so
    both have the same bits on every Python version.  Each tr is a sum of
    squared norms and so nonnegative up to rounding.
    """

    k: int
    t0: float
    tr: tuple[float, ...]
    remainder: float
    closed_form: float
    symbolic: float
    mc: Optional[object] = None  # mc.Estimate when requested


def expected_det_closed_form(pair: MalliavinPair, k: int) -> DetBreakdown:
    """Full closed-form breakdown of E det, with the symbolic oracle value."""
    return _breakdown(pair, ContractionTable(pair), k)


def _breakdown(pair: MalliavinPair, table: ContractionTable, k: int) -> DetBreakdown:
    """:func:`expected_det_closed_form` read from the pair's table, so a
    caller reporting several k builds the table once."""
    _check_k(pair, k)
    t0, tr = table.terms(k)
    remainder = reduce(add, tr, 0.0)
    return DetBreakdown(
        k=k,
        t0=t0,
        tr=tr,
        remainder=remainder,
        closed_form=t0 + remainder,
        symbolic=expected_det_chaos(pair, k),
    )


# -- covariance determinant, inequality, density verdict ---------------------


def _require_equal_orders(pair: MalliavinPair) -> int:
    if pair.n != pair.m:
        raise ValueError(
            f"equal chaos orders required, got n = {pair.n}, m = {pair.m}"
        )
    return pair.n


def _covariance(pair: MalliavinPair) -> tuple[float, float]:
    """(det C, its default zero threshold) from the pair's squared norms
    and <f, g>, the one inner product computed here.

    det C = n!^2 (||f||^2 ||g||^2 - <f, g>^2) grows like n!^2 ||f||^2
    ||g||^2, the scale MalliavinPair keeps resolvable, so det C is called
    zero at or below 1e-10 of that scale (0 for a zero component, whose
    det C is exactly 0).
    """
    n = _require_equal_orders(pair)
    nf2, ng2 = pair.norms
    fg = inner(pair.f, pair.g)
    fac2 = math.factorial(n) ** 2
    return fac2 * (nf2 * ng2 - fg * fg), 1e-10 * (fac2 * nf2 * ng2)


def cov_det(pair: MalliavinPair) -> float:
    """det of the covariance matrix: n!^2 (||f||^2 ||g||^2 - <f, g>^2).

    Nonnegative by Cauchy-Schwarz; zero exactly when f and g are
    linearly dependent.
    """
    return _covariance(pair)[0]


def _check_tol(name: str, value: float) -> None:
    # a nan tolerance fails every comparison and an inf one passes every check
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class InequalityResult:
    """lhs >= rhs, with rhs = n^2 cov_det and edet1 = E det^(1).

    degenerate means cov_det is at most the default zero threshold of
    :func:`density_check`, so rhs is rounding noise and lhs / rhs undefined.
    """

    lhs: float
    rhs: float
    holds: bool
    edet1: float
    cov_det: float
    degenerate: bool


def covariance_inequality(pair: MalliavinPair, tol_rel: float = 1e-9) -> InequalityResult:
    """Check the bound on n^2 det C by expected iterated determinants.

    lhs = sum_{s=2}^{floor((n-1)/2)} n(n-2s)/s!^2 * E det^(s)
          + (n-1)^2 * E det^(1),
    rhs = n^2 det C, and holds means lhs >= rhs - tol_rel * scale.
    tol_rel must be finite and > 0.  The sum is empty for n <= 4, where
    the bound is E det^(1) >= n^2 / (n-1)^2 det C (4, 9/4, 16/9).  Every
    E det comes from one table, whose terms are summed only for the k the
    bound reads.
    """
    n = _require_equal_orders(pair)
    if n < 2:
        raise ValueError(f"the inequality requires order n >= 2, got {n}")
    _check_tol("tol_rel", tol_rel)
    c, zero = _covariance(pair)
    table = ContractionTable(pair)
    edet1 = _edet(table, 1)
    lhs = (n - 1) ** 2 * edet1
    for s in range(2, (n - 1) // 2 + 1):
        # int / int true division rounds the exact rational weight correctly
        lhs += n * (n - 2 * s) / math.factorial(s) ** 2 * _edet(table, s)
    rhs = n**2 * c
    holds = lhs >= rhs - tol_rel * max(1.0, abs(lhs), abs(rhs))
    return InequalityResult(lhs, rhs, holds, edet1, c, c <= zero)


class Verdict(str, Enum):
    DEGENERATE = "DEGENERATE"
    ABSOLUTELY_CONTINUOUS = "ABSOLUTELY_CONTINUOUS"


@dataclass(frozen=True)
class DensityReport:
    """Density verdict for equal-order pairs, plus the all-k determinant table.

    DEGENERATE means the law of (F, G) has no two-dimensional density,
    which for equal orders happens exactly when the components are
    proportional.  ``expected_dets[k-1]`` is E det of the k-th iterated
    matrix; ``consistent`` records that they are all at most tol_abs or
    all above it, as the theory requires.
    """

    verdict: Verdict
    cov_det: float
    tol_abs: float
    expected_dets: tuple[float, ...]
    consistent: bool


def density_check(pair: MalliavinPair, tol_abs: Optional[float] = None) -> DensityReport:
    """Degeneracy verdict from det C, cross-tabulated with every E det.

    An explicit tol_abs must be finite and > 0.
    """
    c, zero = _covariance(pair)
    if tol_abs is None:
        tol_abs = zero
    else:
        _check_tol("tol_abs", tol_abs)
    dets = expected_dets(pair)
    degenerate = c <= tol_abs
    consistent = all(v <= tol_abs for v in dets) or all(v > tol_abs for v in dets)
    return DensityReport(
        verdict=Verdict.DEGENERATE if degenerate else Verdict.ABSOLUTELY_CONTINUOUS,
        cov_det=c,
        tol_abs=tol_abs,
        expected_dets=dets,
        consistent=consistent,
    )
