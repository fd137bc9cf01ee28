"""Unit tests for the counter-based Monte Carlo layer."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

from chaoskit import chaos, mc
from chaoskit.chaos import ChaosExpansion, _hermite_table, as_points, evaluate
from chaoskit.malliavin import MalliavinPair, expected_det, random_pair, sum_of_squares_eval
from chaoskit.mc import (
    CHUNK_SAMPLES,
    Estimate,
    estimate_expected_det,
    estimate_moment,
    sample_gaussian,
    sample_gaussian_block,
)
from chaoskit.tensor import _orbit_sums, basis_tensor, orbit_info, random_symmetric, symmetrize


def worked_pair():
    return MalliavinPair(basis_tensor(2, (0, 0)), symmetrize(basis_tensor(2, (0, 1))))


class TestSampler:
    def test_deterministic(self):
        a = sample_gaussian(3, 42, 7)
        b = sample_gaussian(3, 42, 7)
        assert np.array_equal(a, b)

    def test_index_changes_value(self):
        a = sample_gaussian(3, 42, 7)
        b = sample_gaussian(3, 42, 8)
        assert not np.array_equal(a, b)

    def test_seed_changes_value(self):
        a = sample_gaussian(3, 1, 0)
        b = sample_gaussian(3, 2, 0)
        assert not np.array_equal(a, b)

    def test_block_equals_singles(self):
        block = sample_gaussian_block(5, 9, 100, 64)
        for i in (0, 13, 63):
            assert np.array_equal(block[i], sample_gaussian(5, 9, 100 + i))

    def test_block_split_invariance(self):
        whole = sample_gaussian_block(3, 5, 0, 200)
        parts = np.vstack(
            [sample_gaussian_block(3, 5, 0, 77), sample_gaussian_block(3, 5, 77, 123)]
        )
        assert np.array_equal(whole, parts)

    def test_odd_dimension_packing(self):
        # odd d consumes one padding slot per sample; rows must still match
        block = sample_gaussian_block(3, 11, 0, 10)
        assert block.shape == (10, 3)
        assert np.array_equal(block[4], sample_gaussian(3, 11, 4))

    def test_moments(self):
        # mean of xi_1 over 1e5 draws within 4 / sqrt(1e5)
        block = sample_gaussian_block(2, 123, 0, 100_000)
        assert abs(float(block[:, 0].mean())) <= 4.0 / math.sqrt(100_000)
        assert abs(float(block[:, 0].std() - 1.0)) <= 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian(0, 1, 0)
        with pytest.raises(ValueError):
            sample_gaussian(2, -1, 0)
        with pytest.raises(ValueError):
            sample_gaussian(2, 1, -1)

    def test_seed_must_fit_the_128_bit_key(self):
        # Philox keeps 128 key bits: 2**128 would alias seed 0
        with pytest.raises(ValueError, match="2\\*\\*128"):
            sample_gaussian_block(2, 2**128, 0, 4)
        top = sample_gaussian_block(2, 2**128 - 1, 0, 4)
        assert top.shape == (4, 2) and np.all(np.isfinite(top))
        assert not np.array_equal(top, sample_gaussian_block(2, 0, 0, 4))

    def test_estimators_reject_aliasing_seed(self):
        F = ChaosExpansion.integral(basis_tensor(2, (0,)))
        with pytest.raises(ValueError):
            estimate_expected_det(worked_pair(), 1, n_samples=100, seed=2**128)
        with pytest.raises(ValueError):
            estimate_moment(F, 1, n_samples=100, seed=2**128)
        assert estimate_expected_det(worked_pair(), 1, n_samples=100, seed=2**128 - 1).samples == 100
        assert estimate_moment(F, 1, n_samples=100, seed=2**128 - 1).samples == 100


class TestEstimateExpectedDet:
    def test_equal_components_give_zero(self):
        f = random_symmetric(2, 2, 3)
        pair = MalliavinPair(f, f)
        est = estimate_expected_det(pair, 1, n_samples=5000, seed=1)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_worked_pair_hits_target(self):
        est = estimate_expected_det(worked_pair(), 1, n_samples=100_000, seed=11)
        assert est.samples == 100_000
        assert abs(est.mean - 12.0) <= 4 * est.stderr

    def test_first_chaos_is_exact(self):
        pair = MalliavinPair(basis_tensor(2, (0,)), basis_tensor(2, (1,)))
        est = estimate_expected_det(pair, 1, n_samples=1000, seed=2)
        assert est.mean == pytest.approx(1.0, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_reproducible_and_chunk_independent(self, tmp_path):
        pair = random_pair(3, 4, 4, 41)
        n = CHUNK_SAMPLES + 1234  # spans a chunk boundary
        path = tmp_path / "samples.csv"
        a = estimate_expected_det(pair, 2, n_samples=n, seed=7, dump_path=path)
        b = estimate_expected_det(pair, 2, n_samples=n, seed=7)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)
        rows = path.read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(n))
        dumped = np.array([float(r.split(",")[1]) for r in rows])  # %.17g round-trips
        xi = sample_gaussian_block(pair.dim, 7, 0, n)
        # each sample's value is the same however the samples are cut into batches
        for cuts in ([], [1, 777], [CHUNK_SAMPLES - 1, CHUNK_SAMPLES + 5]):
            vals = np.concatenate([sum_of_squares_eval(pair, 2, part)
                                   for part in np.split(xi, cuts)])
            assert vals.tobytes() == dumped.tobytes()
        # one writerows per chunk writes the bytes of one writerow per sample
        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(("index", "value"))
        for i, v in enumerate(sum_of_squares_eval(pair, 2, xi)):
            writer.writerow((i, f"{v:.17g}"))
        assert path.read_bytes() == ref.getvalue().encode()

    def test_nonnegative_mean(self):
        pair = random_pair(2, 2, 2, 31)
        est = estimate_expected_det(pair, 1, n_samples=4000, seed=3)
        assert est.mean >= 0.0

    def test_consistency_with_closed_form(self):
        for d, n, seed in [(2, 2, 37), (3, 3, 38), (2, 3, 39)]:
            pair = random_pair(d, n, n, seed)
            closed = expected_det(pair, 1)
            est = estimate_expected_det(pair, 1, n_samples=50_000, seed=5)
            assert abs(est.mean - closed) <= 4 * est.stderr

    def test_stderr_scaling(self):
        pair = worked_pair()
        ratios = []
        for seed in (1, 2, 3, 4, 5):
            small = estimate_expected_det(pair, 1, n_samples=10_000, seed=seed)
            large = estimate_expected_det(pair, 1, n_samples=40_000, seed=seed)
            ratios.append(small.stderr / large.stderr)
        assert 1.8 <= sum(ratios) / len(ratios) <= 2.2

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            estimate_expected_det(worked_pair(), 1, n_samples=1, seed=0)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            estimate_expected_det(worked_pair(), 3, n_samples=100, seed=0)

    def test_sample_dump(self, tmp_path):
        path = tmp_path / "samples.csv"
        est = estimate_expected_det(worked_pair(), 1, n_samples=250, seed=4, dump_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 251
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert float(values.mean()) == pytest.approx(est.mean, rel=1e-12)

    @pytest.mark.parametrize(
        "k, n_samples, seed",
        [(5, 100, 0), (0, 100, 0), (1, 1, 0), (1, 100, 2**128), (1, 100, -1)],
        ids=["k_above_order", "k_zero", "one_sample", "seed_2_128", "negative_seed"],
    )
    def test_bad_arguments_leave_dump_untouched(self, tmp_path, k, n_samples, seed):
        # the file used to be truncated to its header before the arguments were checked
        path = tmp_path / "samples.csv"
        path.write_bytes(b"earlier run\n0,1.5\n")
        with pytest.raises(ValueError):
            estimate_expected_det(
                worked_pair(), k, n_samples=n_samples, seed=seed, dump_path=path
            )
        assert path.read_bytes() == b"earlier run\n0,1.5\n"


class TestEstimateMoment:
    def test_centered_first_moment(self):
        F = ChaosExpansion.integral(random_symmetric(2, 2, 8))
        est = estimate_moment(F, 1, n_samples=50_000, seed=6)
        assert abs(est.mean) <= 4 * est.stderr

    def test_second_moment_isometry(self):
        F = ChaosExpansion.integral(basis_tensor(2, (0, 0)))
        est = estimate_moment(F, 2, n_samples=100_000, seed=7)
        assert abs(est.mean - 2.0) <= 4 * est.stderr

    def test_constant_is_exact(self):
        F = ChaosExpansion.constant(2, 3.25)
        est = estimate_moment(F, 1, n_samples=100, seed=8)
        assert est.mean == pytest.approx(3.25, rel=1e-15)
        assert est.stderr == pytest.approx(0.0, abs=1e-13)

    def test_stderr_with_large_mean(self):
        # the one-pass sum(x^2) - n mean^2 reported 3.6e-3 here, 1000x too big
        F = ChaosExpansion.constant(1, 1e8) + ChaosExpansion.integral(
            basis_tensor(1, (0,)).scaled(1e-3)
        )
        n = 100_000
        est = estimate_moment(F, 1, n_samples=n, seed=3)
        vals = evaluate(F, sample_gaussian_block(1, 3, 0, n))
        assert est.stderr == pytest.approx(np.std(vals, ddof=1) / math.sqrt(n), rel=1e-6)
        assert est.stderr == pytest.approx(1e-3 / math.sqrt(n), rel=0.05)

    def test_power_validation(self):
        F = ChaosExpansion.constant(2, 1.0)
        with pytest.raises(ValueError):
            estimate_moment(F, 3, n_samples=100, seed=0)


class TestEstimateType:
    def test_fields(self):
        est = Estimate(mean=1.0, stderr=0.1, samples=10, seed=3)
        assert est.samples == 10 and est.seed == 3


# -- the in-place sampler against the one it replaced ---------------------------


def reference_sample_gaussian_block(dim, seed, start, count):
    """The sampler body before the in-place rewrite, the bit-for-bit reference."""
    if count == 0:
        return np.empty((0, dim))
    uniforms_per_sample = 2 * ((dim + 1) // 2)
    words = mc._raw_words(
        seed, start * uniforms_per_sample, count * uniforms_per_sample
    ).reshape(count, uniforms_per_sample)
    u1 = ((words[:, 0::2] >> np.uint64(11)) + 1.0) * 2.0**-53
    u2 = (words[:, 1::2] >> np.uint64(11)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    z = np.empty((count, uniforms_per_sample))
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    return z[:, :dim]


# the benchmark's Monte Carlo cells (d, n, k, samples)
MC_CELLS = [(2, 2, 1, 65536), (3, 4, 2, 16384), (3, 6, 1, 16384), (3, 6, 3, 8192),
            (4, 4, 2, 8192)]


class TestSamplerReference:
    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    @pytest.mark.parametrize("start", [0, 10**12])
    def test_bit_identical(self, dim, seed, start):
        for count in (0, 1, 7, 8192):
            got = sample_gaussian_block(dim, seed, start, count)
            ref = reference_sample_gaussian_block(dim, seed, start, count)
            assert got.shape == ref.shape == (count, dim)
            assert got.tobytes() == ref.tobytes()
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("d, n, k, samples", MC_CELLS)
    def test_estimates_bit_identical(self, d, n, k, samples, monkeypatch):
        pair = random_pair(d, n, n, 500 + 10 * d + n)
        got = estimate_expected_det(pair, k, n_samples=samples, seed=17)
        monkeypatch.setattr(mc, "sample_gaussian_block", reference_sample_gaussian_block)
        ref = estimate_expected_det(pair, k, n_samples=samples, seed=17)
        assert (got.mean.hex(), got.stderr.hex()) == (ref.mean.hex(), ref.stderr.hex())


# -- the pointwise evaluators against the orbit-at-a-time ones they replaced -----


def reference_monomials(table, order):
    """prod_i H_{m_i}(xi_i) for every orbit, (n_orbits, N), H_0 factors included."""
    mult = orbit_info(table.shape[0], order).multiplicities
    out = table[0, mult[:, 0]]
    for i in range(1, table.shape[0]):
        out *= table[i, mult[:, i]]
    return out


def reference_accumulate(out, coeffs, monomials):
    for o in range(monomials.shape[0]):
        out += coeffs[..., o, None] * monomials[o]
    return out


def reference_sum_of_squares_eval(pair, k, xi):
    """The squared-minor form over a (n_orbits, N) monomial array, the
    bit-for-bit reference."""
    pts, single = as_points(xi, pair.dim)
    table = _hermite_table(max(pair.n, pair.m) - k, pts)
    info_k = orbit_info(pair.dim, k)
    reps = tuple(info_k.reps.T)
    monomials = {q: reference_monomials(table, q) for q in {pair.n - k, pair.m - k}}
    coords = []
    for f in (pair.f, pair.g):
        q = f.order - k
        sums, _ = _orbit_sums(f.coeffs[reps], orbit_info(pair.dim, q))
        out = np.zeros((len(info_k.reps), pts.shape[0]))
        coords.append(
            reference_accumulate(out, float(math.perm(f.order, k)) * sums, monomials[q]))
    a, b = coords
    w = info_k.counts.astype(np.float64)
    out = np.zeros(pts.shape[0])
    for i in range(len(w)):
        for l in range(i + 1, len(w)):
            minor = a[i] * b[l] - a[l] * b[i]
            out += (w[i] * w[l]) * (minor * minor)
    return float(out[0]) if single else out


def reference_evaluate(F, xi):
    """evaluate over a (n_orbits, N) monomial array, the bit-for-bit reference."""
    pts, single = as_points(xi, F.dim)
    out = np.zeros(pts.shape[0])
    table = _hermite_table(F.max_order(), pts)
    for k, t in F.terms.items():
        sums, _ = _orbit_sums(t.coeffs, orbit_info(F.dim, k))
        reference_accumulate(out, sums[0], reference_monomials(table, k))
    return float(out[0]) if single else out


def _bits(x):
    return np.float64(x).tobytes() if isinstance(x, float) else x.tobytes()


# (d, n, m): the MC cells' shapes, then n != m both ways, d = 1, and an order-1 side
EVAL_SHAPES = [(d, n, n) for d, n, _, _ in MC_CELLS] + [
    (3, 5, 3), (3, 2, 4), (2, 6, 1), (4, 3, 2), (1, 3, 3), (1, 4, 2), (2, 1, 1)]


def _points(d, count, seed):
    """Standard normal points, then points of norm up to 8 and the origin."""
    rng = np.random.default_rng(seed)
    far = rng.standard_normal((count, d))
    far *= np.linspace(0.5, 8.0, count)[:, None] / np.linalg.norm(far, axis=1)[:, None]
    return np.vstack([rng.standard_normal((count, d)), far, np.zeros((1, d))])


class TestEvaluatorReference:
    @pytest.mark.parametrize("d, n, m", EVAL_SHAPES)
    def test_sum_of_squares_bit_identical(self, d, n, m):
        pair = random_pair(d, n, m, 600 + 10 * d + n + m)
        pts = _points(d, 40, d + n + m)
        for k in range(1, min(n, m) + 1):  # k = min(n, m) reads the order-0 block
            got = sum_of_squares_eval(pair, k, pts)
            assert _bits(got) == _bits(reference_sum_of_squares_eval(pair, k, pts))
            for x in (pts[0], pts[-2]):  # one point, and the farthest
                one = sum_of_squares_eval(pair, k, x)
                assert isinstance(one, float)
                assert _bits(one) == _bits(reference_sum_of_squares_eval(pair, k, x))

    @pytest.mark.parametrize("d, orders", [(1, (0, 3)), (2, (0, 1, 2, 5)), (3, (2, 4)),
                                           (3, (0, 6)), (4, (1, 3, 4))])
    def test_evaluate_bit_identical(self, d, orders):
        F = ChaosExpansion.constant(d, 0.75) if 0 in orders else ChaosExpansion(d, {})
        for q in orders:
            if q:
                F = F + ChaosExpansion.integral(random_symmetric(d, q, 70 + 10 * d + q))
        pts = _points(d, 40, 90 + d)
        assert _bits(evaluate(F, pts)) == _bits(reference_evaluate(F, pts))
        for x in (pts[0], pts[-2], pts[-1]):
            one = evaluate(F, x)
            assert isinstance(one, float)
            assert _bits(one) == _bits(reference_evaluate(F, x))

    @pytest.mark.parametrize("d, n, k, samples", MC_CELLS)
    def test_estimates_bit_identical(self, d, n, k, samples, monkeypatch):
        pair = random_pair(d, n, n, 500 + 10 * d + n)
        got = estimate_expected_det(pair, k, n_samples=samples, seed=17)
        monkeypatch.setattr(mc, "sum_of_squares_eval", reference_sum_of_squares_eval)
        ref = estimate_expected_det(pair, k, n_samples=samples, seed=17)
        assert (got.mean.hex(), got.stderr.hex()) == (ref.mean.hex(), ref.stderr.hex())


# -- the Philox words against the hand-assembled counter they replaced ----------


def reference_raw_words(seed, first_word, n_words):
    """Words [first_word, first_word + n_words) from a Philox built on the
    hand-assembled 4-word counter and 2-word key, which drops the carry past
    block 2**128.  The words go in as uint64 arrays: a list of Python ints
    holding words both below and at or above 2**63 is read through float64."""
    mask = 2**64 - 1
    first_block, offset = divmod(first_word, 4)
    n_blocks = (offset + n_words + 3) // 4
    counter = np.array([first_block & mask, (first_block >> 64) & mask, 0, 0], dtype=np.uint64)
    key = np.array([seed & mask, seed >> 64], dtype=np.uint64)
    words = np.random.Philox(counter=counter, key=key).random_raw(n_blocks * 4)
    return words[offset : offset + n_words]


class TestRawWords:
    @pytest.mark.parametrize("seed", [0, 2**63 + 1, 2**64 + 1, 2**128 - 1])
    @pytest.mark.parametrize("first_word", [0, 10**12, 2**66 + 3])
    def test_matches_the_counter_assembly(self, seed, first_word):
        for n_words in (0, 1, 7, 9):
            got = mc._raw_words(seed, first_word, n_words)
            assert got.tobytes() == reference_raw_words(seed, first_word, n_words).tobytes()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_no_alias_past_block_2_128(self, dim):
        # a sample reads 2 * ceil(dim / 2) words, four to a block: without the
        # carry, sample i and sample i + 2**130 / words were the same draw
        words = 2 * ((dim + 1) // 2)
        far = 5 + 2**128 * 4 // words
        assert not np.array_equal(sample_gaussian(dim, 7, 5), sample_gaussian(dim, 7, far))

    @pytest.mark.parametrize("seed, step", [(2**63, 1), (2**127, 2**64)])
    def test_neighbouring_seeds_past_2_63_differ(self, seed, step):
        # a key word at or above 2**63 in a Python list went through float64, so
        # seed + 1 (low word) or seed + 2**64 (high word) drew seed's samples
        assert not np.array_equal(sample_gaussian(3, seed, 0), sample_gaussian(3, seed + step, 0))

    @pytest.mark.parametrize("dim, bound", [(2, 2**257), (3, 2**256)])
    def test_refuses_words_past_block_2_256(self, dim, bound):
        # Philox's 256-bit counter wraps: advance(2**256) lands on block 0, so
        # index 2**257 at dim 2 (two words a sample) drew index 0's sample
        last = sample_gaussian(dim, 7, bound - 1)
        assert last.shape == (dim,) and np.isfinite(last).all()
        # its words come from the last block, 2**256 - 1
        top = np.random.Philox(counter=[np.uint64(2**64 - 1)] * 4, key=[7, 0]).random_raw(4)
        assert mc._raw_words(7, 4 * 2**256 - 4, 4).tobytes() == top.tobytes()
        with pytest.raises(ValueError, match=rf"^sample indices \[{bound}, {bound + 1}\) at dim "
                                             rf"{dim} need Philox words past block 2\*\*256: "
                                             rf"indices must lie below {bound}$"):
            sample_gaussian(dim, 7, bound)
        with pytest.raises(ValueError, match=r"past block 2\*\*256"):
            sample_gaussian_block(dim, 7, bound - 1, 2)


# -- large batches walked in blocks of chaos.BLOCK_POINTS ------------------------


@pytest.fixture(params=[7, 1000, chaos.BLOCK_POINTS])
def block(request, monkeypatch):
    """chaos.BLOCK_POINTS lowered to 7, to 1000, or left at its default."""
    monkeypatch.setattr(chaos, "BLOCK_POINTS", request.param)
    return request.param


def _blocked_points(d, block, seed):
    """3 * block + 5 points: three full blocks and a partial one."""
    return _points(d, 2 * block + 3, seed)[: 3 * block + 5]


class TestBlocking:
    """Each routine's result, walked in blocks, equals the unblocked
    reference bit for bit, at every block size."""

    def test_block_is_one_estimator_chunk(self):
        # every estimator chunk runs as one block, in one Hermite table
        assert chaos.BLOCK_POINTS == CHUNK_SAMPLES

    @pytest.mark.parametrize("d, n, m", EVAL_SHAPES)
    def test_sum_of_squares_bit_identical(self, d, n, m, block):
        pair = random_pair(d, n, m, 700 + 10 * d + n + m)
        pts = _blocked_points(d, block, d + n + m)
        for k in range(1, min(n, m) + 1):  # k = min(n, m) reads the order-0 block
            got = sum_of_squares_eval(pair, k, pts)
            assert got.shape == (3 * block + 5,)
            assert _bits(got) == _bits(reference_sum_of_squares_eval(pair, k, pts))
            one = sum_of_squares_eval(pair, k, pts[-1])
            assert _bits(one) == _bits(reference_sum_of_squares_eval(pair, k, pts[-1]))

    @pytest.mark.parametrize("d, orders", [(1, (0, 3)), (2, (0, 1, 2, 5)), (3, (0, 6)),
                                           (4, (1, 3, 4))])
    def test_evaluate_bit_identical(self, d, orders, block):
        F = ChaosExpansion.constant(d, 0.75) if 0 in orders else ChaosExpansion(d, {})
        for q in orders:
            if q:
                F = F + ChaosExpansion.integral(random_symmetric(d, q, 80 + 10 * d + q))
        pts = _blocked_points(d, block, 95 + d)
        assert _bits(evaluate(F, pts)) == _bits(reference_evaluate(F, pts))
        assert _bits(evaluate(F, pts[-1])) == _bits(reference_evaluate(F, pts[-1]))

    @pytest.mark.parametrize("dim", range(1, 6))
    @pytest.mark.parametrize("start", [0, 10**12 + 3])
    def test_sampler_bit_identical(self, dim, start, block):
        for count in (3 * block + 5, 1):
            got = sample_gaussian_block(dim, 11, start, count)
            assert got.flags.c_contiguous
            assert got.tobytes() == reference_sample_gaussian_block(dim, 11, start, count).tobytes()

    def test_empty_batch(self, block):
        pair = random_pair(3, 2, 2, 1)
        assert sum_of_squares_eval(pair, 1, np.empty((0, 3))).shape == (0,)
        assert evaluate(ChaosExpansion.integral(pair.f), np.empty((0, 3))).shape == (0,)
        assert sample_gaussian_block(3, 0, 5, 0).shape == (0, 3)


def _traced_peak(fn):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockScratch:
    """Scratch beyond the result is O(BLOCK_POINTS), not O(batch)."""

    # 200 000 points: 25 blocks, a 1.6 MB result; the unblocked routines traced
    # 68.8 MB (sum_of_squares_eval at (4, 4, 2)) and 44.8 MB (evaluate of I_6 at
    # d = 3), and the blocked ones about 5.2 and 5.0 MB
    POINTS = 200_000
    SCRATCH_BOUND = 8_000_000

    def test_sum_of_squares_eval(self):
        pair = random_pair(4, 4, 4, 1)
        pts = sample_gaussian_block(4, 3, 0, self.POINTS)
        vals, peak = _traced_peak(lambda: sum_of_squares_eval(pair, 2, pts))
        assert peak < vals.nbytes + self.SCRATCH_BOUND

    def test_evaluate(self):
        F = ChaosExpansion.integral(random_symmetric(3, 6, 1))
        pts = sample_gaussian_block(3, 3, 0, self.POINTS)
        vals, peak = _traced_peak(lambda: evaluate(F, pts))
        assert peak < vals.nbytes + self.SCRATCH_BOUND

    def test_sampler_below_twice_its_output(self):
        # the unblocked sampler traced 22.4 MB for its 6.4 MB output
        z, peak = _traced_peak(lambda: sample_gaussian_block(4, 5, 0, self.POINTS))
        assert peak < 2 * z.nbytes


class TestSampleCount:
    """Each sample is drawn by one call of the public sampler: the blocks are
    filled by a private helper, so a traced call counts its samples once."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        count = {"calls": 0, "samples": 0}
        real = mc.sample_gaussian_block

        def counted(dim, seed, start, n):
            count["calls"] += 1
            count["samples"] += n
            return real(dim, seed, start, n)

        monkeypatch.setattr(mc, "sample_gaussian_block", counted)
        return count

    def test_one_call_for_a_large_request(self, drawn):
        assert mc.sample_gaussian_block(2, 0, 0, 40_000).shape == (40_000, 2)
        assert drawn == {"calls": 1, "samples": 40_000}

    def test_estimate_draws_each_sample_once(self, drawn):
        estimate_expected_det(worked_pair(), 1, n_samples=40_000, seed=3)
        assert drawn == {"calls": math.ceil(40_000 / CHUNK_SAMPLES), "samples": 40_000}

