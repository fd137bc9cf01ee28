"""Dense tensor algebra over a finite orthonormal basis of R^d.

An order-n tensor is stored as a dense array of d**n coefficients in
row-major multi-index order; order 0 is a single scalar.  All operations
are pure and every :class:`Tensor` is immutable, so values can be shared
freely across threads.

Indices are 0-based.  Classical treatments of Wiener chaos number the
orthonormal basis from 1, so entry ``(j1, ..., jk)`` here corresponds to
``(j1+1, ..., jk+1)`` there.

A tensor is read through its read-only ``coeffs`` array, so values are
compared there too; its own operations are ``item``, ``scaled``, ``+``
and the ``zeros``/``scalar`` constructors.

Contractions pair the *first* r slots of each operand.  For r > 0 this is
only well defined for symmetric operands, which is enforced; symmetry of
an input is tracked by a flag set by the constructions that guarantee it
(:func:`symmetrize`, :func:`random_symmetric`, slicing, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MAX_ARRAY_BYTES",
    "Tensor",
    "basis_tensor",
    "contract",
    "hat_contract",
    "inner",
    "is_symmetric",
    "norm",
    "random_symmetric",
    "slice_tensor",
    "symmetrize",
    "tensor_product",
]


# the largest dense array that a builder of d**n entries (a random or loaded
# tensor, a contraction, a product formula term, an orbit grid, an oracle's
# outer product) or one array of the closed form's contraction table may
# allocate; a larger one is refused up front, not found as an out-of-memory
# error
MAX_ARRAY_BYTES = 2**30


def _require_array_size(
    what: str, dim: int, order: int, error=ValueError, entry_bytes: int = 8
) -> None:
    """Refuse a dense array of dim**order entries of entry_bytes each (a
    double by default) above MAX_ARRAY_BYTES.

    Checked in integer arithmetic, before anything is allocated.  An order
    whose 2**order alone passes the cap is refused before dim**order is
    formed, so a huge order costs no huge power.
    """
    if dim > 1 and order > MAX_ARRAY_BYTES.bit_length():
        raise error(
            f"{what}: dim {dim} and order {order} need more than the cap of "
            f"{MAX_ARRAY_BYTES} bytes"
        )
    _require_bytes(f"{what}: dim {dim} and order {order}", entry_bytes * dim**order, error)


def _require_orbit_grid(dim: int, order: int, error=ValueError) -> None:
    """Refuse the index grid of orbit_info(dim, order), order int64 indices
    for each of its dim**order rows, above MAX_ARRAY_BYTES."""
    _require_array_size("orbit grid", dim, order, error, entry_bytes=8 * order)


def _require_bytes(what: str, nbytes: int, error=ValueError) -> None:
    """Refuse an array of nbytes bytes above MAX_ARRAY_BYTES; what names it."""
    if nbytes > MAX_ARRAY_BYTES:
        raise error(f"{what} need {nbytes} bytes, above the cap of {MAX_ARRAY_BYTES} bytes")


@dataclass(frozen=True, eq=False, slots=True)
class Tensor:
    """Dense order-n coefficient array over a d-dimensional basis.

    Equality is identity; compare values through ``coeffs``.

    Parameters
    ----------
    dim : int
        Basis dimension d, at least 1.
    order : int
        Tensor order n, at least 0.
    coeffs : array_like
        d**n finite coefficients with shape ``(d,) * n``.
    symmetric : bool
        Whether the coefficients are invariant under index permutation.
        Trusted by contraction preconditions; see :func:`is_symmetric`
        for an explicit check.
    """

    dim: int
    order: int
    coeffs: np.ndarray
    symmetric: bool = False

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        arr = np.array(self.coeffs, dtype=np.float64, copy=True)
        expected = (self.dim,) * self.order
        if arr.shape != expected:
            raise ValueError(
                f"coeffs shape {arr.shape} does not match (dim,)*order {expected}"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"order {self.order} tensor has non-finite coefficients")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- conveniences ---------------------------------------------------

    def item(self) -> float:
        """Value of an order-0 tensor."""
        if self.order != 0:
            raise ValueError(f"item() requires order 0, got order {self.order}")
        return float(self.coeffs)

    def scaled(self, c: float) -> "Tensor":
        return Tensor(self.dim, self.order, c * self.coeffs, symmetric=self.symmetric)

    def __add__(self, other: "Tensor") -> "Tensor":
        _require_same_shape(self, other)
        return Tensor(
            self.dim,
            self.order,
            self.coeffs + other.coeffs,
            symmetric=self.symmetric and other.symmetric,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "symmetric" if self.symmetric else "general"
        return f"Tensor(dim={self.dim}, order={self.order}, {tag})"

    @staticmethod
    def zeros(dim: int, order: int, symmetric: bool = True) -> "Tensor":
        return Tensor(dim, order, np.zeros((dim,) * order), symmetric=symmetric)

    @staticmethod
    def scalar(dim: int, value: float) -> "Tensor":
        return Tensor(dim, 0, np.asarray(float(value)), symmetric=True)


def basis_tensor(dim: int, indices: Sequence[int]) -> Tensor:
    """Elementary tensor e_{j1} x ... x e_{jk} (not symmetrized)."""
    idx = tuple(int(j) for j in indices)
    for j in idx:
        if not 0 <= j < dim:
            raise ValueError(f"basis index {j} out of range [0, {dim})")
    arr = np.zeros((dim,) * len(idx))
    arr[idx] = 1.0
    sym = len(idx) <= 1 or len(set(idx)) == 1
    return Tensor(dim, len(idx), arr, symmetric=sym)


def _require_same_dim(f: Tensor, g: Tensor) -> None:
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} != {g.dim}")


def _require_same_shape(f: Tensor, g: Tensor) -> None:
    _require_same_dim(f, g)
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} != {g.order}")


# -- permutation-orbit machinery -----------------------------------------
#
# Symmetrization, symmetry checks, and Hermite evaluation all reduce to
# grouping the d**n multi-indices into orbits under index permutation.
# The grouping depends only on (dim, order) and is cached.


class OrbitInfo(NamedTuple):
    inverse: np.ndarray  # flat position -> orbit id, shape (dim**order,)
    counts: np.ndarray  # orbit id -> orbit size, int64
    reps: np.ndarray  # orbit id -> sorted representative index, (n_orbits, order)
    multiplicities: np.ndarray  # orbit id -> per-axis index counts, (n_orbits, dim)
    positions: np.ndarray  # orbit id -> flat row-major position of its rep, int64


@lru_cache(maxsize=None)
def orbit_info(dim: int, order: int) -> OrbitInfo:
    """Orbit decomposition of the multi-index set [0,d)^n under permutation."""
    _require_orbit_grid(dim, order)
    # (d**n, n), C order; an explicit d**n (not -1) makes order 0 one empty row
    grid = np.indices((dim,) * order).reshape(order, dim**order).T
    key = np.sort(grid, axis=1)
    powers = dim ** np.arange(order, dtype=np.int64)
    codes = key @ powers
    # C order reaches each orbit first at its non-decreasing index, so the
    # first occurrence is the representative's flat position
    _, first, inverse, counts = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    reps = key[first]
    mult = np.stack([(reps == i).sum(axis=1) for i in range(dim)], axis=1)
    return OrbitInfo(
        inverse=inverse.astype(np.int64),
        counts=counts.astype(np.int64),
        reps=reps.astype(np.int64),
        multiplicities=mult.astype(np.int64),
        positions=first.astype(np.int64),
    )


def _orbit_sums(arr: np.ndarray, info: OrbitInfo) -> tuple[np.ndarray, np.ndarray]:
    """Sums of arr over each permutation orbit of its trailing axes.

    ``info`` is the ``orbit_info`` of the trailing axes; leading axes are
    a batch, each row summed on its own in the same order as an
    unbatched call, so a batch row equals the sums of that row alone.
    Returns the (rows, n_orbits) sums and the flat bin of each entry of
    arr, which gathers per-orbit values back to arr's layout.
    """
    n_rows, n_orbits = arr.size // len(info.inverse), len(info.counts)
    # one bin per (row, orbit): the orbit id plus the row's offset
    bins = (info.inverse + np.arange(0, n_rows * n_orbits, n_orbits)[:, None]).ravel()
    sums = np.bincount(bins, weights=arr.ravel(), minlength=n_rows * n_orbits)
    return sums.reshape(n_rows, n_orbits), bins


def _orbit_average(arr: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Average over index permutations of the trailing ``order`` axes of arr.

    Leading axes are a batch, averaged row by row (see ``_orbit_sums``).
    """
    info = orbit_info(dim, order)
    sums, bins = _orbit_sums(arr, info)
    return (sums / info.counts).ravel()[bins].reshape(arr.shape)


def symmetrize(f: Tensor) -> Tensor:
    """Average of f over all permutations of its indices.

    A projection: idempotent, linear, norm non-increasing, and the
    identity on symmetric inputs.
    """
    if f.symmetric:
        return f
    return Tensor(f.dim, f.order, _orbit_average(f.coeffs, f.dim, f.order), symmetric=True)


def is_symmetric(f: Tensor, tol: float = 1e-12) -> bool:
    """Exhaustive numeric symmetry check (relative to the largest entry)."""
    c = f.coeffs
    scale = max(1.0, float(np.max(np.abs(c))))
    return bool(np.max(np.abs(c - _orbit_average(c, f.dim, f.order))) <= tol * scale)


# -- products and contractions --------------------------------------------


def tensor_product(f: Tensor, g: Tensor) -> Tensor:
    """Outer product f x g of order f.order + g.order."""
    return contract(f, g, 0)


def _contract_leading(x: np.ndarray, y: np.ndarray, r: int) -> np.ndarray:
    """Sum over the first r axes of C-ordered x and y, x's remaining axes
    first: np.tensordot(x, y, axes=(range(r), range(r))), bit for bit,
    without its axis bookkeeping.  The transposed view stays F-ordered, as
    it is the matrix np.tensordot hands to np.dot; a C-ordered copy would
    change the rounding."""
    k = math.prod(x.shape[:r])
    return np.dot(x.reshape(k, -1).T, y.reshape(k, -1)).reshape(x.shape[r:] + y.shape[r:])


def contract(f: Tensor, g: Tensor, r: int) -> Tensor:
    """Contraction of order r: sum over the first r slots of each operand.

    The result has order ``f.order + g.order - 2r`` with the remaining f
    slots first.  It is generally not symmetric as a whole, but is
    symmetric within the f block and within the g block.
    """
    _require_same_dim(f, g)
    if not 0 <= r <= min(f.order, g.order):
        raise ValueError(
            f"contraction order {r} out of range [0, {min(f.order, g.order)}]"
        )
    if r > 0 and not (f.symmetric and g.symmetric):
        raise ValueError("contraction with r > 0 requires symmetric operands")
    order = f.order + g.order - 2 * r
    _require_array_size("contraction", f.dim, order)
    out = _contract_leading(f.coeffs, g.coeffs, r)
    if order <= 1:
        sym = True
    elif f.order - r == 0:
        sym = g.symmetric
    elif g.order - r == 0:
        sym = f.symmetric
    else:
        sym = False
    return Tensor(f.dim, order, out, symmetric=sym)


def inner(f: Tensor, g: Tensor) -> float:
    """Euclidean inner product of the coefficient arrays."""
    _require_same_shape(f, g)
    return float(np.vdot(f.coeffs, g.coeffs))


def norm(f: Tensor) -> float:
    return math.sqrt(max(inner(f, f), 0.0))


def slice_tensor(f: Tensor, indices: Sequence[int]) -> Tensor:
    """Fix the first k indices of a symmetric tensor.

    Returns the order n-k tensor ``f[j1, ..., jk, :, ..., :]``, which is
    symmetric in the remaining slots.  Composes: slicing by i then by j
    equals slicing by the concatenation i + j.
    """
    idx = tuple(int(j) for j in indices)
    if not f.symmetric:
        raise ValueError("slice requires a symmetric tensor")
    if len(idx) > f.order:
        raise ValueError(f"slice length {len(idx)} exceeds order {f.order}")
    for j in idx:
        if not 0 <= j < f.dim:
            raise ValueError(f"slice index {j} out of range [0, {f.dim})")
    if not idx:
        return f
    return Tensor(f.dim, f.order - len(idx), f.coeffs[idx], symmetric=True)


def hat_contract(
    f: Tensor, g: Tensor, ell: Tensor, h: Tensor, r: int, s: int
) -> float:
    """Scalar quadruple contraction of (f x_r g) with (ell x_r h).

    With n = f.order = h.order and m = g.order = ell.order, pairs r slots
    between f and g and between ell and h, s slots between f and ell and
    between g and h, n-r-s slots between f and h, and m-r-s slots between
    g and ell.  Satisfies the swap identity: exchanging (g, r) with
    (ell, s) leaves the value unchanged.  An oracle for the tests and
    ``verify``, dense on purpose: the closed form reads hat(f,g,g,f; r,s)
    from the orbit values of f x_r g instead, one N(d, n-r) x N(d, m-r)
    matrix per r (see malliavin.ContractionTable).
    """
    n, m = f.order, g.order
    if h.order != n or ell.order != m:
        raise ValueError(
            f"order mismatch: expected orders (n, m, m, n) = ({n}, {m}, {m}, {n}), "
            f"got ({f.order}, {g.order}, {ell.order}, {h.order})"
        )
    for t in (g, ell, h):
        _require_same_dim(f, t)
    for t in (f, g, ell, h):
        if not t.symmetric:
            raise ValueError("hat contraction requires symmetric operands")
    if r < 0 or s < 0 or r + s > min(n, m):
        raise ValueError(f"(r, s) = ({r}, {s}) out of range: need r + s <= {min(n, m)}")
    _require_array_size("hat contraction", f.dim, n + m - 2 * r)
    a = _contract_leading(f.coeffs, g.coeffs, r)  # slots f: s | n-r-s, g: s | m-r-s
    b = _contract_leading(ell.coeffs, h.coeffs, r)  # ell: s | m-r-s, h: s | n-r-s
    p = m - r  # ell slots of b; put b's slots in a's order
    perm = (*range(s), *range(p + s, n + m - 2 * r), *range(p, p + s), *range(s, p))
    return float(np.vdot(a, b.transpose(perm)))


def random_symmetric(dim: int, order: int, seed) -> Tensor:
    """Symmetrization of an array of iid standard normal coefficients.

    Deterministic for a given seed (any value accepted by
    ``numpy.random.default_rng``).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    _require_array_size("random tensor", dim, order)
    rng = np.random.default_rng(seed)
    arr = np.asarray(rng.standard_normal((dim,) * order))
    return Tensor(dim, order, _orbit_average(arr, dim, order), symmetric=True)
