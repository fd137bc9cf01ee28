"""Arithmetic of random variables in a finite sum of Wiener chaoses.

A random variable F = sum_k I_k(f_k) is represented by its symmetric
coefficient tensors, one per chaos order k (order 0 is the mean).  Over a
d-dimensional basis the underlying Gaussians are d iid standard normals
xi_1, ..., xi_d, and I_n(f) is the polynomial

    sum_{j1..jn} f_{j1..jn} * prod_i H_{m_i}(xi_i),

where m_i counts occurrences of i among (j1, ..., jn) and H_p are
probabilists' Hermite polynomials (E H_n(xi)^2 = n!, consistent with
I_n(h^{x n}) = H_n(W(h)) for unit h).

Multiplication follows the product formula

    I_n(f) I_m(g) = sum_r r! C(n,r) C(m,r) I_{n+m-2r}(sym(f x_r g)),

with all combinatorial coefficients computed in exact integer arithmetic
and converted to float only when applied to coefficient arrays.
Operations refuse inputs whose formulas would need a factorial argument
above 20, keeping every coefficient exactly representable on entry to
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Mapping

import numpy as np

from .tensor import (
    Tensor,
    _contract_leading,
    _orbit_average,
    _orbit_sums,
    _require_array_size,
    _require_same_dim,
    inner,
    orbit_info,
    slice_tensor,
    symmetrize,
)

__all__ = [
    "BLOCK_POINTS",
    "ChaosExpansion",
    "CoefficientCapError",
    "FACTORIAL_CAP",
    "HValuedChaos",
    "as_points",
    "checked_factorial",
    "derivative",
    "divergence",
    "evaluate",
    "expectation",
    "hermite",
    "l2_inner",
    "multiply",
]

FACTORIAL_CAP = 20

# Batches of points are walked in blocks of this many, so pointwise scratch
# is O(BLOCK_POINTS) beyond the result; read at each call, and no result bit
# depends on it
BLOCK_POINTS = 8192


class CoefficientCapError(ValueError):
    """A formula would need a factorial argument above FACTORIAL_CAP."""


def checked_factorial(k: int) -> int:
    if k < 0:
        raise ValueError(f"factorial argument must be >= 0, got {k}")
    if k > FACTORIAL_CAP:
        raise CoefficientCapError(
            f"factorial argument {k} exceeds cap {FACTORIAL_CAP}"
        )
    return math.factorial(k)


@dataclass(frozen=True, eq=False)
class ChaosExpansion:
    """Finite chaos sum F = sum_k I_k(f_k) over a d-dimensional basis.

    ``terms`` maps chaos order k to the symmetric order-k coefficient
    tensor; absent orders are zero.  Immutable; all-zero tensors are
    dropped at construction (a Tensor never holds non-finite values).
    """

    dim: int
    terms: Mapping[int, Tensor]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        clean: dict[int, Tensor] = {}
        for k, t in self.terms.items():
            if k < 0:
                raise ValueError(f"chaos order must be >= 0, got {k}")
            if k > FACTORIAL_CAP:
                raise CoefficientCapError(
                    f"chaos order {k} exceeds cap {FACTORIAL_CAP}"
                )
            if t.dim != self.dim or t.order != k:
                raise ValueError(
                    f"term at order {k} has dim {t.dim}, order {t.order}; "
                    f"expected dim {self.dim}, order {k}"
                )
            if not t.symmetric:
                raise ValueError(f"term at order {k} is not flagged symmetric")
            if np.any(t.coeffs):
                clean[int(k)] = t
        object.__setattr__(self, "terms", clean)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def integral(f: Tensor) -> "ChaosExpansion":
        """The multiple integral I_n(f) of a symmetric tensor."""
        if not f.symmetric:
            raise ValueError("multiple integrals require a symmetric tensor")
        return ChaosExpansion(f.dim, {f.order: f})

    @staticmethod
    def constant(dim: int, value: float) -> "ChaosExpansion":
        return ChaosExpansion(dim, {0: Tensor.scalar(dim, value)})

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        _require_same_dim(self, other)
        terms = dict(self.terms)
        for k, t in other.terms.items():
            terms[k] = terms[k] + t if k in terms else t
        return ChaosExpansion(self.dim, terms)

    def __neg__(self) -> "ChaosExpansion":
        return self.scale(-1.0)

    def __sub__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        return self + (-other)

    def scale(self, c: float) -> "ChaosExpansion":
        c = float(c)
        return ChaosExpansion(self.dim, {k: t.scaled(c) for k, t in self.terms.items()})

    def max_order(self) -> int:
        return max(self.terms, default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        orders = sorted(self.terms)
        return f"ChaosExpansion(dim={self.dim}, orders={orders})"


@dataclass(frozen=True, eq=False)
class HValuedChaos:
    """A tensor-valued chaos element, e.g. an iterated Malliavin derivative.

    ``entries`` maps every multi-index of length ``tensor_order`` to the
    chaos expansion of the corresponding coordinate.
    """

    dim: int
    tensor_order: int
    entries: Mapping[tuple, ChaosExpansion]

    def __post_init__(self) -> None:
        if self.tensor_order < 0:
            raise ValueError("tensor_order must be >= 0")
        expected = self.dim**self.tensor_order
        if len(self.entries) != expected:
            raise ValueError(
                f"expected {expected} entries for tensor_order {self.tensor_order}, "
                f"got {len(self.entries)}"
            )
        for idx, e in self.entries.items():
            if len(idx) != self.tensor_order:
                raise ValueError(f"entry index {idx} has wrong length")
            if e.dim != self.dim:
                raise ValueError("entry dimension mismatch")

    def __getitem__(self, idx) -> ChaosExpansion:
        return self.entries[tuple(idx)]


# -- product, expectation, inner product -----------------------------------


def _product(
    acc: dict[int, np.ndarray], x: np.ndarray, y: np.ndarray, n: int, m: int, lead: int
) -> None:
    """Add the product formula of order-n x by order-m y into acc.

    ``x`` and ``y`` are symmetric in their trailing n and m axes and share
    ``lead`` leading axes, which are summed over: acc[n+m-2r] gains
    r! C(n,r) C(m,r) sym(sum over the leading axes of x x_r y) for every r.
    With lead = 0 this is the product I_n(x) I_m(y).
    """
    if n + m > FACTORIAL_CAP:
        raise CoefficientCapError(
            f"product of orders {n} and {m} needs factorial arguments "
            f"up to {n + m}, above the cap {FACTORIAL_CAP}"
        )
    slots = x.shape[lead:] + y.shape[lead:]  # the r = 0 term is the largest
    if slots:
        _require_array_size("product", slots[0], len(slots))
    for r in range(min(n, m) + 1):
        coeff = math.factorial(r) * math.comb(n, r) * math.comb(m, r)
        term = _contract_leading(x, y, lead + r)
        k = n + m - 2 * r
        if min(n, m) > r:  # both operands keep free slots: not symmetric yet
            term = _orbit_average(term, x.shape[-1], k)
        acc[k] = acc[k] + float(coeff) * term if k in acc else float(coeff) * term


def _expansion(dim: int, acc: Mapping[int, np.ndarray]) -> ChaosExpansion:
    """The chaos expansion with the coefficient arrays of acc."""
    terms = {k: Tensor(dim, k, arr, symmetric=True) for k, arr in acc.items()}
    return ChaosExpansion(dim, terms)


def multiply(F: ChaosExpansion, G: ChaosExpansion) -> ChaosExpansion:
    """Product of two chaos expansions via the multiple-integral product formula."""
    _require_same_dim(F, G)
    acc: dict[int, np.ndarray] = {}
    for n, f in F.terms.items():
        for m, g in G.terms.items():
            _product(acc, f.coeffs, g.coeffs, n, m, 0)
    return _expansion(F.dim, acc)


def expectation(F: ChaosExpansion) -> float:
    """The constant term; all higher chaoses are centered."""
    t = F.terms.get(0)
    return t.item() if t is not None else 0.0


def l2_inner(F: ChaosExpansion, G: ChaosExpansion) -> float:
    """E[F G] via chaos orthogonality: sum_k k! <f_k, g_k>."""
    _require_same_dim(F, G)
    total = 0.0
    for k, f in F.terms.items():
        g = G.terms.get(k)
        if g is not None:
            total += math.factorial(k) * inner(f, g)
    return total


# -- Malliavin derivative and divergence ------------------------------------


def derivative(F: ChaosExpansion, k: int) -> HValuedChaos:
    """k-th iterated Malliavin derivative as a tensor-valued chaos element.

    The coordinate at multi-index j of I_n(f) is
    ``n!/(n-k)! * I_{n-k}(f sliced at j)``; orders below k vanish.
    Coordinates are permutation-symmetric in j, and equal coordinates
    share one ChaosExpansion object.
    """
    if k < 1:
        raise ValueError(f"derivative order must be >= 1, got {k}")
    d = F.dim
    info = orbit_info(d, k)
    per_orbit: list[ChaosExpansion] = []
    for rep in info.reps:
        terms: dict[int, Tensor] = {}
        for n, f in F.terms.items():
            if n < k:
                continue
            coeff = math.perm(n, k)
            terms[n - k] = slice_tensor(f, tuple(rep)).scaled(float(coeff))
        per_orbit.append(ChaosExpansion(d, terms))
    entries = {
        idx: per_orbit[info.inverse[t]]
        for t, idx in enumerate(iter_product(range(d), repeat=k))
    }
    return HValuedChaos(d, k, entries)


def divergence(u: HValuedChaos) -> ChaosExpansion:
    """Divergence (Skorohod integral) of a vector field of finite chaos sums.

    For u_j = sum_m I_m(g_j) the result is
    sum_m I_{m+1}(sym(sum_j g_j x e_j)).  Implemented for tensor_order 1
    only, which covers first derivatives: divergence(derivative(I_n(f), 1))
    equals n I_n(f).
    """
    if u.tensor_order != 1:
        raise ValueError("divergence is implemented for tensor_order 1 fields")
    d = u.dim
    orders = sorted({k for e in u.entries.values() for k in e.terms})
    terms: dict[int, Tensor] = {}
    for m in orders:
        stacked = np.zeros((d,) * (m + 1))
        for j in range(d):
            t = u.entries[(j,)].terms.get(m)
            if t is not None:
                stacked[..., j] = t.coeffs
        terms[m + 1] = symmetrize(Tensor(d, m + 1, stacked))
    return ChaosExpansion(d, terms)


# -- pointwise evaluation ----------------------------------------------------


def hermite(n: int, x):
    """Probabilists' Hermite polynomial H_n at x (scalar or array).

    H_0 = 1, H_1 = x, H_{k+1} = x H_k - k H_{k-1}.
    """
    if n < 0:
        raise ValueError(f"Hermite degree must be >= 0, got {n}")
    x = np.asarray(x, dtype=np.float64)
    h = _hermite_table(n, x.reshape(-1, 1))[0, n].reshape(x.shape)
    return h if h.ndim else float(h)


def _hermite_table(max_degree: int, pts: np.ndarray) -> np.ndarray:
    """H_0..H_max at pts of shape (N, d), laid out (d, max_degree + 1, N)."""
    x = pts.T
    table = np.empty((x.shape[0], max_degree + 1, x.shape[1]))
    table[:, 0] = 1.0
    if max_degree >= 1:
        table[:, 1] = x
    for p in range(1, max_degree):
        table[:, p + 1] = x * table[:, p] - p * table[:, p - 1]
    return table


def _accumulate(table: np.ndarray, order: int, blocks) -> None:
    """out += coeffs . prod_i H_{m_i}(xi_i) over the orbits of one order,
    for every (out, coeffs) in blocks.

    ``table`` is a Hermite table (d, deg + 1, N); each coeffs is
    (p, n_orbits) and every out has one shape (p, N).  The orbits are
    walked once, in orbit id order.  An orbit's monomial row, m_i its
    multiplicity of index i, is formed once for all blocks: the factors
    with m_i > 0 are multiplied left to right in axis order into one
    reused row (a skipped H_0 factor is exactly 1.0, so no bit changes),
    one factor is read as its table row, and order 0 reads the all-ones
    H_0 row.  Then each block's out gains coeffs[:, o] times that row.
    This fixed elementwise sequence (no BLAS) makes every point's value
    independent of the batch it is in.
    """
    row = np.empty(table.shape[2])
    scaled = np.empty_like(blocks[0][0])
    for o, mult in enumerate(orbit_info(table.shape[0], order).multiplicities.tolist()):
        factors = [table[i, p] for i, p in enumerate(mult) if p] or [table[0, 0]]
        mono = factors[0] if len(factors) == 1 else np.multiply(*factors[:2], out=row)
        for h in factors[2:]:
            row *= h
        for out, coeffs in blocks:
            np.multiply(coeffs[:, o, None], mono, out=scaled)
            out += scaled


def as_points(xi, dim: int) -> tuple[np.ndarray, bool]:
    """Points of shape (d,) or (N, d) as an (N, d) batch, and whether xi
    was a single point."""
    pts = np.asarray(xi, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(
            f"points must have shape (d,) or (N, d) with d = {dim}, got {np.shape(xi)}"
        )
    return pts, single


def _point_blocks(count: int) -> list[slice]:
    """[0, count) as consecutive slices of at most BLOCK_POINTS points."""
    step = BLOCK_POINTS
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


def evaluate(F: ChaosExpansion, xi):
    """Evaluate F at the Gaussian coordinates xi.

    ``xi`` is one point of shape (d,) or a batch of shape (N, d); returns
    a float or an array of N values.  Evaluation is exact polynomial
    arithmetic over permutation orbits: each order-k tensor contributes
    sum_o S_o prod_i H_{m_i(o)}(xi_i), with S_o the sum of its
    coefficients over orbit o of [0,d)^k and m_i(o) the multiplicity of
    i in the orbit.  One Hermite table serves every order.  Each point's
    operations are fixed: the orders are added in term order, each
    order's orbits in orbit order, and each monomial multiplies its
    H_{m_i} factors with m_i > 0 in axis order (the H_0 factors are
    exactly 1.0 and are skipped), so a point's value does not depend on
    the batch it is in.  The orbit sums are taken once; a batch larger
    than BLOCK_POINTS is walked in blocks, each with its own Hermite
    table, so scratch is O(BLOCK_POINTS) beyond the result, whose bits do
    not depend on the block size.
    """
    pts, single = as_points(xi, F.dim)
    orders = [(k, _orbit_sums(t.coeffs, orbit_info(F.dim, k))[0]) for k, t in F.terms.items()]
    out = np.zeros((1, pts.shape[0]))
    for b in _point_blocks(pts.shape[0]):
        table = _hermite_table(F.max_order(), pts[b])
        for k, sums in orders:
            _accumulate(table, k, [(out[:, b], sums)])
    return float(out[0, 0]) if single else out[0]
