"""Unit tests for the dense tensor kernel."""

import itertools
import math

import numpy as np
import pytest

from chaoskit.tensor import (
    Tensor,
    _contract_leading,
    basis_tensor,
    contract,
    hat_contract,
    inner,
    is_symmetric,
    norm,
    orbit_info,
    random_symmetric,
    slice_tensor,
    symmetrize,
    tensor_product,
)


def sym_pair(d, n, m, seed):
    return random_symmetric(d, n, seed), random_symmetric(d, m, seed + 1)


class TestTensorBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Tensor(2, 2, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            Tensor(0, 1, np.zeros(0))
        with pytest.raises(ValueError):
            Tensor(2, -1, np.zeros(2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="^order 1 tensor has non-finite coefficients$"):
            Tensor(2, 1, [bad, 1.0])
        with pytest.raises(ValueError, match="^order 0 tensor has non-finite"):
            Tensor.scalar(2, bad)
        with pytest.raises(ValueError, match="^order 3 tensor has non-finite"):
            Tensor(2, 3, np.full((2,) * 3, bad), symmetric=True)

    def test_order_zero_is_scalar(self):
        t = Tensor.scalar(3, 2.5)
        assert t.item() == 2.5
        assert t.coeffs.shape == ()

    def test_coeffs_are_immutable(self):
        t = basis_tensor(2, (0,))
        with pytest.raises(ValueError):
            t.coeffs[0] = 5.0

    def test_basis_tensor_entry(self):
        t = basis_tensor(3, (1, 2))
        assert t.coeffs[1, 2] == 1.0
        assert np.sum(np.abs(t.coeffs)) == 1.0


class TestTensorProduct:
    def test_elementary(self):
        e1, e2 = basis_tensor(2, (0,)), basis_tensor(2, (1,))
        p = tensor_product(e1, e2)
        assert p.order == 2
        assert p.coeffs[0, 1] == 1.0
        assert np.sum(np.abs(p.coeffs)) == 1.0

    def test_scalar_factor(self):
        g = random_symmetric(2, 2, 7)
        p = tensor_product(Tensor.scalar(2, 3.0), g)
        np.testing.assert_allclose(p.coeffs, g.scaled(3.0).coeffs, rtol=1e-9)
        assert p.symmetric

    def test_mixed_symmetric_product(self):
        f = basis_tensor(2, (0, 0))
        g = symmetrize(basis_tensor(2, (0, 1)))
        p = tensor_product(f, g)
        assert p.order == 4
        assert p.coeffs[0, 0, 0, 1] == pytest.approx(0.5)
        assert p.coeffs[0, 0, 1, 0] == pytest.approx(0.5)
        assert np.sum(np.abs(p.coeffs)) == pytest.approx(1.0)

    def test_equals_contract_zero(self):
        f, g = sym_pair(3, 2, 3, 11)
        p = tensor_product(f, g)
        np.testing.assert_array_equal(p.coeffs, contract(f, g, 0).coeffs)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            tensor_product(basis_tensor(2, (0,)), basis_tensor(3, (0,)))

    @pytest.mark.parametrize("n, m", [(0, 2), (1, 1), (2, 3), (3, 0)])
    def test_contract_zero_is_the_outer_product_bit_for_bit(self, n, m):
        f, g = sym_pair(3, n, m, 13)
        want = np.multiply.outer(f.coeffs, g.coeffs)
        assert contract(f, g, 0).coeffs.tobytes() == want.tobytes()


class TestContract:
    def test_elementary_r1(self):
        f = basis_tensor(2, (0, 0))
        out = contract(f, f, 1)
        np.testing.assert_allclose(out.coeffs, f.coeffs, rtol=1e-9)

    def test_full_contraction_is_norm(self):
        f = basis_tensor(2, (0, 0))
        assert contract(f, f, 2).item() == pytest.approx(1.0)

    def test_hand_value(self):
        f = basis_tensor(2, (0, 0))
        g = symmetrize(basis_tensor(2, (0, 1)))
        out = contract(f, g, 1)
        assert out.coeffs[0, 1] == pytest.approx(0.5)
        assert np.sum(np.abs(out.coeffs)) == pytest.approx(0.5)

    def test_r_out_of_range(self):
        f, g = sym_pair(2, 2, 2, 3)
        with pytest.raises(ValueError):
            contract(f, g, 3)
        with pytest.raises(ValueError):
            contract(f, g, -1)

    def test_requires_symmetry_for_positive_r(self):
        raw = Tensor(2, 2, np.arange(4.0).reshape(2, 2))
        with pytest.raises(ValueError):
            contract(raw, raw, 1)
        contract(raw, raw, 0)  # r = 0 works on anything

    def test_oversized_result_refused(self):
        # 100^6 doubles (8 TB): refused before numpy is asked to allocate
        f, g = sym_pair(100, 3, 3, 6)
        with pytest.raises(ValueError, match="dim 100 and order 6 need 8000000000000 bytes"):
            contract(f, g, 0)
        assert contract(f, g, 2).order == 2  # 100^2 doubles: within the cap

    def test_block_symmetry_of_result(self):
        f, g = sym_pair(2, 3, 3, 5)
        out = contract(f, g, 1)
        # symmetric within the f block and within the g block
        c = out.coeffs
        assert np.allclose(c, c.transpose(1, 0, 2, 3))
        assert np.allclose(c, c.transpose(0, 1, 3, 2))


def _leading_cases():
    """(x, y, r) over d 1-4, orders 0-5 and every r, plain and with a leading
    batch axis of 3 contracted too (as chaos._product contracts its lead)."""
    rng = np.random.default_rng(26)
    for d, n, m, batch in itertools.product(range(1, 5), range(6), range(6), (False, True)):
        lead = (3,) if batch else ()
        x = rng.standard_normal(lead + (d,) * n)
        y = rng.standard_normal(lead + (d,) * m)
        for r in range(min(n, m) + 1):
            yield x, y, len(lead) + r


class TestContractLeading:
    def test_matches_tensordot_bit_for_bit(self):
        # a C-ordered copy of the transposed matrix is the negative control:
        # np.dot rounds it differently, and the comparison must see that
        def c_ordered(x, y, r):
            k = math.prod(x.shape[:r])
            xt = np.ascontiguousarray(x.reshape(k, -1).T)
            return np.dot(xt, y.reshape(k, -1)).reshape(x.shape[r:] + y.shape[r:])

        cases = control_misses = 0
        for x, y, r in _leading_cases():
            want = np.tensordot(x, y, axes=(tuple(range(r)), tuple(range(r))))
            got = _contract_leading(x, y, r)
            assert got.shape == want.shape, (x.shape, y.shape, r)
            assert got.tobytes() == want.tobytes(), (x.shape, y.shape, r)
            control_misses += c_ordered(x, y, r).tobytes() != want.tobytes()
            cases += 1
        assert cases == 728
        assert control_misses > 0


class TestSymmetrize:
    def test_transposition(self):
        p = basis_tensor(2, (0, 1))
        s = symmetrize(p)
        assert s.coeffs[0, 1] == pytest.approx(0.5)
        assert s.coeffs[1, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("order", [0, 1])
    def test_orders_below_two_keep_their_bytes(self, order):
        raw = Tensor(3, order, np.random.default_rng(order).standard_normal((3,) * order))
        s = symmetrize(raw)
        assert s.symmetric and s.coeffs.tobytes() == raw.coeffs.tobytes()
        assert is_symmetric(raw)

    def test_idempotent(self):
        raw = Tensor(3, 3, np.random.default_rng(0).standard_normal((3, 3, 3)))
        s = symmetrize(raw)
        np.testing.assert_array_equal(symmetrize(Tensor(3, 3, s.coeffs)).coeffs, s.coeffs)
        assert s.symmetric

    def test_three_index_example(self):
        t = basis_tensor(2, (0, 0, 1))
        s = symmetrize(t)
        for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            assert s.coeffs[idx] == pytest.approx(1.0 / 3.0)
        assert np.sum(np.abs(s.coeffs)) == pytest.approx(1.0)

    def test_matches_permutation_average(self):
        rng = np.random.default_rng(42)
        raw = Tensor(3, 4, rng.standard_normal((3,) * 4))
        s = symmetrize(raw)
        ref = np.zeros_like(raw.coeffs)
        for p in itertools.permutations(range(4)):
            ref = ref + raw.coeffs.transpose(p)
        ref /= math.factorial(4)
        assert np.allclose(s.coeffs, ref, rtol=1e-13, atol=1e-15)

    def test_norm_nonincreasing(self):
        rng = np.random.default_rng(9)
        raw = Tensor(2, 4, rng.standard_normal((2,) * 4))
        assert norm(symmetrize(raw)) <= norm(raw) + 1e-12


class TestInnerNorm:
    def test_unit(self):
        t = basis_tensor(2, (0, 1))
        assert inner(t, t) == pytest.approx(1.0)

    def test_nonnegative(self):
        f = random_symmetric(3, 3, 1)
        assert inner(f, f) >= 0.0
        assert norm(f) == pytest.approx(math.sqrt(inner(f, f)))

    def test_orthogonal_example(self):
        f = basis_tensor(2, (0, 0))
        g = symmetrize(basis_tensor(2, (0, 1)))
        assert inner(f, g) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(basis_tensor(2, (0,)), basis_tensor(2, (0, 0)))


class TestSlice:
    def test_elementary(self):
        f = basis_tensor(2, (0, 0))
        s = slice_tensor(f, (0,))
        np.testing.assert_allclose(s.coeffs, basis_tensor(2, (0,)).coeffs, rtol=1e-9)

    def test_empty_index_is_identity(self):
        f = random_symmetric(2, 3, 4)
        assert slice_tensor(f, ()) is f

    def test_symmetrized_value(self):
        g = symmetrize(basis_tensor(2, (0, 1)))
        s = slice_tensor(g, (0,))
        assert s.coeffs[1] == pytest.approx(0.5)
        assert s.coeffs[0] == pytest.approx(0.0)

    def test_composition(self):
        f = random_symmetric(3, 4, 8)
        a = slice_tensor(slice_tensor(f, (1,)), (2, 0))
        b = slice_tensor(f, (1, 2, 0))
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_errors(self):
        f = random_symmetric(2, 2, 1)
        with pytest.raises(ValueError):
            slice_tensor(f, (2,))
        with pytest.raises(ValueError):
            slice_tensor(f, (0, 0, 0))
        raw = Tensor(2, 2, np.arange(4.0).reshape(2, 2))
        with pytest.raises(ValueError):
            slice_tensor(raw, (0,))


class TestHatContract:
    def test_full_norm_case(self):
        # contracting all remaining slots against the same pair gives the
        # squared contraction norm
        for n, k in [(2, 1), (3, 1), (3, 2)]:
            f = random_symmetric(2, n, 21)
            g = random_symmetric(2, n, 22)
            r = n - k
            c_fg = contract(f, g, r)
            c_gf = contract(g, f, r)
            assert hat_contract(f, g, g, f, r, 0) == pytest.approx(inner(c_fg, c_fg))
            assert hat_contract(f, g, g, f, r, k) == pytest.approx(inner(c_fg, c_gf))

    def test_r_zero_reduces_to_inner(self):
        f, h = sym_pair(2, 3, 3, 31)
        g, ell = sym_pair(2, 2, 2, 33)
        for s in range(3):
            expected = inner(contract(f, ell, s), contract(h, g, s))
            assert hat_contract(f, g, ell, h, 0, s) == pytest.approx(expected)

    def test_swap_identity(self):
        f, h = sym_pair(3, 3, 3, 41)
        g, ell = sym_pair(3, 4, 4, 43)
        for r in range(4):
            for s in range(3 - r + 1):
                a = hat_contract(f, g, ell, h, r, s)
                b = hat_contract(f, ell, g, h, s, r)
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_errors(self):
        f = random_symmetric(2, 2, 1)
        g = random_symmetric(2, 3, 2)
        with pytest.raises(ValueError):
            hat_contract(f, g, g, f, 2, 1)  # r + s > min(n, m)
        with pytest.raises(ValueError):
            hat_contract(f, g, f, g, 1, 0)  # wrong order pattern
        raw = Tensor(2, 2, np.arange(4.0).reshape(2, 2))
        with pytest.raises(ValueError):
            hat_contract(raw, raw, raw, raw, 1, 0)

    def test_oversized_contraction_refused(self):
        # at r = 0 each side is 100^6 doubles (7.28 TiB): refused before allocating
        f, g, ell, h = (random_symmetric(100, 3, seed) for seed in range(4))
        with pytest.raises(ValueError, match=r"^hat contraction: dim 100 and order 6 need "
                                             r"8000000000000 bytes, above the cap"):
            hat_contract(f, g, ell, h, 0, 0)
        assert math.isfinite(hat_contract(f, g, ell, h, 2, 0))  # 100^2 doubles: within the cap


class TestRandomSymmetric:
    def test_scalar_order(self):
        t = random_symmetric(3, 0, 5)
        assert t.order == 0 and t.coeffs.shape == ()

    def test_deterministic(self):
        a = random_symmetric(3, 3, 123)
        b = random_symmetric(3, 3, 123)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_symmetry(self):
        t = random_symmetric(4, 3, 9)
        assert t.symmetric and is_symmetric(t)

    def test_oversized_draw_refused(self):
        # 1000^4 doubles (7.28 TiB): refused before the generator draws
        with pytest.raises(ValueError, match=r"^random tensor: dim 1000 and order 4 need "
                                             r"8000000000000 bytes, above the cap"):
            random_symmetric(1000, 4, 0)


class TestOrbitInfo:
    def test_oversized_grid_refused(self):
        # the grid holds 6 x 100^6 int64 (43.7 TiB), not 100^6
        with pytest.raises(ValueError, match=r"^orbit grid: dim 100 and order 6 need "
                                             r"48000000000000 bytes, above the cap"):
            orbit_info(100, 6)

    def test_grid_counts_its_index_width(self, monkeypatch):
        # the 7^5 grid rows of 5 int64 indices fit a cap of exactly their
        # size and are refused one byte below it, where 7^5 doubles would fit
        from chaoskit import tensor

        orbit_info.cache_clear()  # a cached table would skip the check
        grid = 5 * 8 * 7**5
        monkeypatch.setattr(tensor, "MAX_ARRAY_BYTES", grid - 1)
        with pytest.raises(ValueError, match=f"^orbit grid: dim 7 and order 5 need {grid} bytes"):
            orbit_info(7, 5)
        monkeypatch.setattr(tensor, "MAX_ARRAY_BYTES", grid)
        assert len(orbit_info(7, 5).inverse) == 7**5

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_order_zero_is_one_empty_orbit(self, dim):
        info = orbit_info(dim, 0)
        want = {
            "inverse": np.zeros(1), "counts": np.ones(1), "reps": np.zeros((1, 0)),
            "multiplicities": np.zeros((1, dim)), "positions": np.zeros(1),
        }
        for name, value in want.items():
            got = getattr(info, name)
            assert got.dtype == np.int64 and got.shape == value.shape, name
            assert np.array_equal(got, value), name

    @pytest.mark.parametrize("dim", range(1, 5))
    def test_positions_are_the_row_major_positions_of_the_reps(self, dim):
        assert orbit_info(dim, 0).positions.tolist() == [0]
        for order in range(1, 7):
            info = orbit_info(dim, order)
            assert info.positions.dtype == np.int64
            want = info.reps @ dim ** np.arange(order - 1, -1, -1)
            assert np.array_equal(info.positions, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_positions_gather_the_orbit_values(self, seed):
        for dim, order in [(1, 3), (2, 4), (3, 3), (4, 2), (2, 6)]:
            t = random_symmetric(dim, order, seed)
            info = orbit_info(dim, order)
            got = t.coeffs.ravel()[info.positions]
            assert got.tobytes() == t.coeffs[tuple(info.reps.T)].tobytes()


class TestIsSymmetric:
    def test_detects_asymmetry(self):
        raw = Tensor(2, 2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not is_symmetric(raw)
        assert is_symmetric(symmetrize(raw))


# -- algebraic identities on random instances ---------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_slice_reassembly_identity(seed):
    """Summing contractions of matching slices deepens the contraction."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    f, g = sym_pair(d, n, m, 100 + seed)
    for k in range(min(n, m) + 1):
        for r in range(min(n, m) - k + 1):
            total = np.zeros((d,) * (n + m - 2 * k - 2 * r))
            for idx in itertools.product(range(d), repeat=k):
                total = total + contract(slice_tensor(f, idx), slice_tensor(g, idx), r).coeffs
            direct = contract(f, g, r + k).coeffs
            assert np.allclose(total, direct, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_contraction_swap_identity(seed):
    rng = np.random.default_rng(1000 + seed)
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    f, h = sym_pair(d, n, n, 200 + seed)
    g, ell = sym_pair(d, m, m, 300 + seed)
    for r in range(min(n - 1, m - 1) + 1):
        lhs = inner(contract(f, h, n - r), contract(g, ell, m - r))
        rhs = inner(contract(f, g, r), contract(h, ell, r))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("seed", range(5))
def test_symmetrized_product_inner_identity(seed):
    rng = np.random.default_rng(2000 + seed)
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    f, h = sym_pair(d, n, n, 400 + seed)
    g, ell = sym_pair(d, m, m, 500 + seed)
    lhs = inner(symmetrize(tensor_product(f, g)), symmetrize(tensor_product(ell, h)))
    total = sum(
        math.comb(n, r) * math.comb(m, r) * inner(contract(f, ell, r), contract(h, g, r))
        for r in range(min(n, m) + 1)
    )
    rhs = math.factorial(m) * math.factorial(n) / math.factorial(m + n) * total
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_hat_expansion_identity(seed):
    rng = np.random.default_rng(3000 + seed)
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    f, h = sym_pair(d, n, n, 600 + seed)
    g, ell = sym_pair(d, m, m, 700 + seed)
    for r in range(min(n - 1, m - 1) + 1):
        lhs = inner(symmetrize(contract(f, g, r)), symmetrize(contract(ell, h, r)))
        total = sum(
            math.comb(n - r, s) * math.comb(m - r, s) * hat_contract(f, g, ell, h, r, s)
            for s in range(min(n - r, m - r) + 1)
        )
        rhs = (
            math.factorial(n - r)
            * math.factorial(m - r)
            / math.factorial(m + n - 2 * r)
            * total
        )
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)
