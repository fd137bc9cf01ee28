"""The benchmark's three workloads, each driving chaoskit's public API.

A workload builds its inputs from the workload seed in its constructor
(the set-up), then serves one *deck* per pass: a fixed multiset of ops,
one per cell share, in a seeded shuffled order.  Runs consist of whole
decks, so every run holds each cell in exactly its designed share and
the latency quantiles sit at fixed places in the mix.  ``run`` is the
timed call; ``check`` is untimed and returns a failure reason or None.

Cell shares are chosen so that the median and the tail percentile fall
in the middle of one cell's block of sorted latencies, not in the gap
between two cells (see perfbench/README.md for the numbers).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from chaoskit import cli, malliavin as mal, mc


def derive_seed(*words: int) -> int:
    """A 63-bit seed derived from integer words, stable across platforms."""
    state = np.random.SeedSequence([int(w) for w in words]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


@dataclass(frozen=True)
class Op:
    cell: str
    args: tuple
    expect: Any = None


class Workload:
    """Set-up in the constructor; ``deck(pass_no)`` serves the ops of one
    pass, and ``deck(-1)`` the warm-up deck, one op per cell."""

    name = ""
    tail_pct = 99.0  # fixed per workload; see README.md

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed

    def deck(self, pass_no: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> Optional[str]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run one op of every cell, untimed, so lazy caches are filled."""
        for op in self.deck(-1):
            self.run(op)

    def _shuffled(self, ops: list[Op], pass_no: int) -> list[Op]:
        order = np.random.default_rng([self.seed, 7, pass_no + 1]).permutation(len(ops))
        return [ops[i] for i in order]


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


# -- closed_form_sweep -----------------------------------------------------------

# E det^(1) >= c_n det C for n = 2, 3, 4 (criterion 6's direct constants)
C_N = {2: 4.0, 3: 9.0 / 4.0, 4: 16.0 / 9.0}
TOL_REL = 1e-9


class ClosedFormSweep(Workload):
    """Criterion 6's per-pair work on random equal-order pairs.

    Cells n in 2..6 x d in {2, 3}.  With every cell at one share the
    median falls on the boundary between the n = 4 and n = 5 cells.
    Here the n = 4 cells, (6, 2) and (5, 3) get double shares, so the
    median sits three quarters into the n = 4 block: far from both
    neighbouring cells, and moved only when more than three quarters of
    a run's n = 4 ops fall in one of the machine's fast spells (see
    README.md).  p99 falls inside the slowest cell (6, 3), 1/14 of ops.
    """

    name = "closed_form_sweep"
    tail_pct = 99.0
    SHARES = {
        (2, 2): 1, (2, 3): 1, (3, 2): 1, (3, 3): 1, (4, 2): 2, (4, 3): 2,
        (5, 2): 1, (5, 3): 2, (6, 2): 2, (6, 3): 1,
    }
    # Pool of fresh pairs per cell share; decks run at ~10 passes/s at
    # the seed commit, so a run reuses a pair only once it is ~20% faster.
    PASSES_PER_SECOND = 12

    def __init__(self, seed: int, seconds: float, workdir: Path):
        super().__init__(seed, seconds, workdir)
        passes = max(4, math.ceil(seconds * self.PASSES_PER_SECOND))
        self.pairs = {
            (n, d): [mal.random_pair(d, n, n, derive_seed(seed, 1, n, d, i))
                     for i in range(passes * share)]
            for (n, d), share in self.SHARES.items()
        }

    def deck(self, pass_no: int) -> list[Op]:
        ops = []
        for (n, d), share in self.SHARES.items():
            pool = self.pairs[(n, d)]
            for j in range(share if pass_no >= 0 else 1):
                pair = pool[(max(pass_no, 0) * share + j) % len(pool)]
                ops.append(Op(f"n{n}_d{d}", (pair,), C_N.get(n)))
        return self._shuffled(ops, pass_no)

    def run(self, op: Op):
        (pair,) = op.args
        res = mal.covariance_inequality(pair, tol_rel=TOL_REL)
        if op.expect is None:
            return res, None, None
        return res, mal.expected_det(pair, 1), mal.cov_det(pair)

    def check(self, op: Op, out) -> Optional[str]:
        res, e1, cd = out
        if not _finite(res.lhs, res.rhs):
            return f"non-finite lhs/rhs {res.lhs} {res.rhs}"
        if not res.holds:
            return f"inequality violated lhs={res.lhs} rhs={res.rhs}"
        if op.expect is not None:
            bound = op.expect * cd
            if not e1 >= bound - TOL_REL * max(1.0, abs(e1), abs(bound)):
                return f"direct bound violated E det^(1)={e1} c_n det C={bound}"
        return None


# -- mc_estimate -----------------------------------------------------------------


class MonteCarloEstimate(Workload):
    """One ``estimate_expected_det`` per op over five (d, n, k) cells.

    Sample counts make every op a few chunks of work; the sampler's share
    of an op ranges from about two thirds at (2,2,1) to a few percent at
    (3,6,3), so sampler and evaluation gains show on different cells.
    Each cell has one share: the median falls in the middle cell
    (3,4,2), and p95 inside the slowest cell (3,6,3).  The distance to
    the closed form is recorded as ``max_abs_z``, never gated: the
    high-degree cells are heavy tailed.
    """

    name = "mc_estimate"
    tail_pct = 95.0
    CELLS = ((2, 2, 1, 65536), (3, 4, 2, 16384), (3, 6, 1, 16384), (3, 6, 3, 8192), (4, 4, 2, 8192))
    PAIRS_PER_SECOND = 4

    def __init__(self, seed: int, seconds: float, workdir: Path):
        super().__init__(seed, seconds, workdir)
        pool = max(2, math.ceil(seconds * self.PAIRS_PER_SECOND))
        self.pairs = {
            cell: [mal.random_pair(cell[0], cell[1], cell[1], derive_seed(seed, 2, *cell[:3], i))
                   for i in range(pool)]
            for cell in self.CELLS
        }
        self.max_abs_z = 0.0

    def deck(self, pass_no: int) -> list[Op]:
        ops = []
        for cell in self.CELLS:
            d, n, k, samples = cell
            pool = self.pairs[cell]
            pair = pool[max(pass_no, 0) % len(pool)]
            mc_seed = derive_seed(self.seed, 3, d, n, k, pass_no + 1)
            ops.append(Op(f"d{d}_n{n}_k{k}", (pair, k, samples, mc_seed)))
        return self._shuffled(ops, pass_no)

    def run(self, op: Op):
        pair, k, samples, mc_seed = op.args
        return mc.estimate_expected_det(pair, k, samples, mc_seed)

    def check(self, op: Op, out) -> Optional[str]:
        if not (math.isfinite(out.mean) and out.mean >= 0):
            return f"mean {out.mean} not finite and >= 0"
        if not (math.isfinite(out.stderr) and out.stderr > 0):
            return f"stderr {out.stderr} not finite and > 0"
        again = self.run(op)
        if (again.mean, again.stderr) != (out.mean, out.stderr):
            return "re-run with the same (seed, n_samples) is not bit-identical"
        pair, k = op.args[:2]
        z = abs(out.mean - mal.expected_det(pair, k)) / out.stderr
        self.max_abs_z = max(self.max_abs_z, z)
        return None


# -- cli_reports -----------------------------------------------------------------

# file kind -> (gen arguments, expected density verdict or None for unequal orders)
PAIR_KINDS = {
    "e2_2": (["--dim", "2", "--order", "2"], "ABSOLUTELY_CONTINUOUS"),
    "e3_3": (["--dim", "3", "--order", "3"], "ABSOLUTELY_CONTINUOUS"),
    "e3_4": (["--dim", "3", "--order", "4"], "ABSOLUTELY_CONTINUOUS"),
    "e2_5": (["--dim", "2", "--order", "5"], "ABSOLUTELY_CONTINUOUS"),
    "p2_3": (["--dim", "2", "--order", "3", "--proportional", "2.5"], "DEGENERATE"),
    "p3_4": (["--dim", "3", "--order", "4", "--proportional", "-0.7"], "DEGENERATE"),
    "u2_42": (["--dim", "2", "--order", "4", "--order-g", "2"], None),
    "u2_31": (["--dim", "2", "--order", "3", "--order-g", "1"], None),
    "u3_53": (["--dim", "3", "--order", "5", "--order-g", "3"], None),
    "e4_6": (["--dim", "4", "--order", "6"], "ABSOLUTELY_CONTINUOUS"),
}
SMALL_VARIANTS = 2  # files per small kind, alternated between passes

# One deck: (command, file kind or suite, copies).  Copies put the median
# in the middle of the density e2_5 block (ten faster ops below it, ten
# slower above) and p92 in the middle of the verify malliavin block.
CLI_DECK = (
    ("density", "e2_2", 1),
    ("density", "e3_3", 1),
    ("density", "e3_4", 1),
    ("density", "e2_5", 5),
    ("density", "p2_3", 1),
    ("density", "p3_4", 1),
    ("density", "e4_6", 1),
    ("edet", "e2_2", 1),
    ("edet", "e3_3", 1),
    ("edet", "e3_4", 1),
    ("edet", "e2_5", 1),
    ("edet", "p2_3", 1),
    ("edet", "u2_42", 1),
    ("edet", "u2_31", 2),
    ("edet", "u3_53", 1),
    ("verify", "tensor", 1),
    ("verify", "chaos", 1),
    ("verify", "mc", 1),
    ("verify", "malliavin", 2),
)
# the two slowest cells; warming them would triple the set-up time
WARM_UP_SKIP = {"density_e4_6", "verify_malliavin"}
EDET_TOL = 1e-8  # criterion 4's closed-form vs symbolic tolerance


class CliReports(Workload):
    """In-process ``chaoskit.cli.main(argv)`` calls that write JSON reports."""

    name = "cli_reports"
    tail_pct = 92.0

    def __init__(self, seed: int, seconds: float, workdir: Path):
        super().__init__(seed, seconds, workdir)
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out = self.dir / "report.json"
        self.files: dict[str, list[str]] = {}
        for kind_no, (kind, (gen_args, _)) in enumerate(PAIR_KINDS.items()):
            copies = 1 if kind == "e4_6" else SMALL_VARIANTS * max(
                c for cmd, k, c in CLI_DECK if k == kind
            )
            paths = []
            for v in range(copies):
                path = str(self.dir / f"{kind}_{v}.json")
                gen_seed = derive_seed(seed, 4, kind_no, v) % 2**31
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["gen", *gen_args, "--seed", str(gen_seed), "-o", path])
                if rc != 0:
                    raise RuntimeError(f"chaoskit gen {kind} exited {rc}")
                paths.append(path)
            self.files[kind] = paths

    def deck(self, pass_no: int) -> list[Op]:
        ops = []
        for cmd, what, copies in CLI_DECK:
            cell = f"{cmd}_{what}"
            if pass_no < 0 and cell in WARM_UP_SKIP:
                continue
            for j in range(copies if pass_no >= 0 else 1):
                if cmd == "verify":
                    vseed = derive_seed(self.seed, 5, pass_no + 1, j) % 2**31
                    argv = ["verify", "--suite", what, "--seed", str(vseed)]
                    expect = None
                else:
                    paths = self.files[what]
                    path = paths[(max(pass_no, 0) * copies + j) % len(paths)]
                    argv = [cmd, "--pair", path]
                    if cmd == "edet":
                        argv += ["--k", "all"]
                    expect = PAIR_KINDS[what][1]
                ops.append(Op(cell, tuple(argv + ["-o", str(self.out)]), expect))
        return self._shuffled(ops, pass_no)

    def run(self, op: Op):
        return cli.main(list(op.args))

    def check(self, op: Op, out) -> Optional[str]:
        if out != 0:
            return f"exit code {out}"
        try:
            with open(self.out) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"report not readable as JSON: {exc}"
        finally:
            self.out.unlink(missing_ok=True)  # a later op must write its own
        cmd = op.args[0]
        if cmd == "verify":
            return None if report.get("passed") is True else "verify did not pass"
        if cmd == "density":
            if report.get("consistent") is not True:
                return "density report not consistent"
            if report.get("verdict") != op.expect:
                return f"verdict {report.get('verdict')}, generated as {op.expect}"
            return None
        if not report["results"]:
            return "edet reported no k"
        for row in report["results"]:
            closed, sym = row["closed_form"], row["symbolic"]
            if not abs(closed - sym) <= EDET_TOL * (1 + abs(sym)):
                return f"k={row['k']}: closed form {closed} vs symbolic {sym}"
        return None


WORKLOADS = {w.name: w for w in (ClosedFormSweep, MonteCarloEstimate, CliReports)}
