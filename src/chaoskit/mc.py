"""Monte Carlo verification of expected Malliavin determinants.

Sampling is counter based: the j-th uniform of sample ``index`` always
comes from Philox word ``index * words_per_sample + j`` under the given
key, and normals are produced by the Box-Muller transform (a fixed two
uniforms per pair of normals).  Results are therefore bit-identical for
a given (seed, index) no matter how samples are sharded or ordered.

A sample's value depends only on its point, never on the chunk it is
evaluated in: pointwise evaluation applies a fixed elementwise sequence
to each point, without BLAS.  Each orbit's monomial multiplies its
nonzero-degree Hermite factors in axis order (the H_0 factors are
exactly 1.0 and are skipped), orbits are added in orbit order, and the
squared minors in (i, l) order (see ``malliavin.sum_of_squares_eval``).
Reductions accumulate fixed-size chunks in index order, so an estimate
depends only on (seed, n_samples); the variance merges per-chunk means
and squared deviations, which stays accurate when the mean is large
against the spread.  Seeds must lie in [0, 2**128): the Philox key holds
128 bits, so larger seeds would repeat smaller ones.  Word w is read
from block w // 4 of Philox's 256-bit counter, carried across all four
of its 64-bit words, so sample words are exact up to 2**256 blocks,
with no wrap at 2**128.  Samples that would read words past block 2**256
are refused, not wrapped back to block 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .chaos import ChaosExpansion, evaluate
from .malliavin import MalliavinPair, _check_k, sum_of_squares_eval

__all__ = [
    "CHUNK_SAMPLES",
    "DEFAULT_SAMPLES",
    "Estimate",
    "estimate_expected_det",
    "estimate_moment",
    "sample_gaussian",
    "sample_gaussian_block",
]

DEFAULT_SAMPLES = 100_000

# Fixed reduction granularity; changing it changes rounding, so it is a
# constant, not a parameter.
CHUNK_SAMPLES = 8192

# Philox keys hold 128 bits: seeds s and s + 2**128 would draw the same samples
_SEED_BOUND = 1 << 128
_WORDS_PER_BLOCK = 4  # Philox-4x64
# the 256-bit block counter wraps after this many words
_WORD_BOUND = _WORDS_PER_BLOCK << 256


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error.

    stderr is the sample standard deviation divided by sqrt(samples).
    """

    mean: float
    stderr: float
    samples: int
    seed: int


def _raw_words(seed: int, first_word: int, n_words: int) -> np.ndarray:
    """Philox output words [first_word, first_word + n_words) under seed."""
    first_block, offset = divmod(first_word, _WORDS_PER_BLOCK)
    n_blocks = (offset + n_words + _WORDS_PER_BLOCK - 1) // _WORDS_PER_BLOCK
    # int key and delta, split into 64-bit words exactly: a list holding words both
    # below and at or above 2**63 is read through float64, so nearby seeds alias
    bg = np.random.Philox(key=seed).advance(first_block)
    words = bg.random_raw(n_blocks * _WORDS_PER_BLOCK)
    return words[offset : offset + n_words]


def _check_seed(seed: int) -> None:
    if not 0 <= seed < _SEED_BOUND:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")


def _check_run(n_samples: int, seed: int) -> None:
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    _check_seed(seed)


def sample_gaussian_block(dim: int, seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal vectors for sample indices [start, start + count).

    Shape (count, dim).  Row i equals sample_gaussian(dim, seed, start + i)
    exactly, independent of the blocking used to obtain it.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    _check_seed(seed)
    if start < 0 or count < 0:
        raise ValueError("start and count must be >= 0")
    pairs = (dim + 1) // 2  # two uniforms per pair of normals
    if (start + count) * 2 * pairs > _WORD_BOUND:
        raise ValueError(
            f"sample indices [{start}, {start + count}) at dim {dim} need Philox "
            f"words past block 2**256: indices must lie below {_WORD_BOUND // (2 * pairs)}"
        )
    words = _raw_words(seed, start * 2 * pairs, count * 2 * pairs)
    words >>= np.uint64(11)  # 53-bit mantissas
    # rows (u1, u2) of shape (pairs, count): every log/cos/sin reads contiguous memory
    u = words.reshape(count, pairs, 2).transpose(2, 1, 0).astype(np.float64, order="C")
    radius, angle = u
    radius += 1.0  # u1 in (0, 1] keeps the log finite, u2 in [0, 1)
    u *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    z = np.empty((count, dim))
    np.multiply(radius, np.cos(angle), out=z[:, 0::2].T)
    half = dim // 2  # an odd dim draws no sine for its last pair
    np.multiply(radius[:half], np.sin(angle[:half]), out=z[:, 1::2].T)
    return z


def sample_gaussian(dim: int, seed: int, index: int) -> np.ndarray:
    """The d standard normal coordinates of sample ``index``."""
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    return sample_gaussian_block(dim, seed, index, 1)[0]


def _run_estimator(values_for_block, n_samples: int, seed: int, dump) -> Estimate:
    _check_run(n_samples, seed)
    total = 0.0
    # (count, mean, M2) merged chunk by chunk in index order (Chan, Golub &
    # LeVeque): sum(x^2) - n mean^2 cancels when the mean dwarfs the spread
    count = 0
    run_mean = 0.0
    m2 = 0.0
    for start in range(0, n_samples, CHUNK_SAMPLES):
        size = min(CHUNK_SAMPLES, n_samples - start)
        vals = values_for_block(start, size)
        chunk_sum = float(np.sum(vals))
        total += chunk_sum
        dev = vals - chunk_sum / size
        delta = chunk_sum / size - run_mean
        count += size
        run_mean += delta * size / count
        m2 += float(np.dot(dev, dev)) + delta * delta * (count - size) * size / count
        if dump is not None:
            for i, v in enumerate(vals):
                dump.writerow((start + i, f"{v:.17g}"))
    mean = total / n_samples
    var = m2 / (n_samples - 1)
    return Estimate(
        mean=mean,
        stderr=math.sqrt(var / n_samples),
        samples=n_samples,
        seed=seed,
    )


def estimate_expected_det(
    pair: MalliavinPair,
    k: int,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    dump_path: Optional[Union[str, Path]] = None,
) -> Estimate:
    """Monte Carlo estimate of E det of the k-th iterated Malliavin matrix.

    Averages the pointwise squared-minor form, whose samples are all
    nonnegative, so the mean is too.  ``dump_path`` optionally writes the
    raw samples as CSV rows (index, value); the file is opened only
    after k, n_samples and seed are checked.
    """
    _check_k(pair, k)
    _check_run(n_samples, seed)

    def block(start: int, count: int) -> np.ndarray:
        xi = sample_gaussian_block(pair.dim, seed, start, count)
        return sum_of_squares_eval(pair, k, xi)

    if dump_path is None:
        return _run_estimator(block, n_samples, seed, None)
    with open(dump_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("index", "value"))
        return _run_estimator(block, n_samples, seed, writer)


def estimate_moment(
    F: ChaosExpansion, power: int, n_samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> Estimate:
    """Monte Carlo estimate of E[F^power] for power 1 or 2."""
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")

    def block(start: int, count: int) -> np.ndarray:
        xi = sample_gaussian_block(F.dim, seed, start, count)
        vals = evaluate(F, xi)
        return vals if power == 1 else vals * vals

    return _run_estimator(block, n_samples, seed, None)
