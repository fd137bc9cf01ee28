"""Command-line front end: verification suites, determinant reports,
density verdicts, Monte Carlo runs, inequality sweeps, and input generation.

Each subcommand takes only the options it reads: the shared ones
(``--dim``, ``--seed``, ``--samples``, tolerances, output) are declared
once in ``_SHARED``, each check is written once in ``_REQUIRE`` and runs
only where the subcommand has the option, and a subcommand without
``--seed`` never reads ``CHAOSKIT_SEED`` (nor does ``edet`` without
``--mc``).  The parser is built once per process and reused by every
``main`` call; the environment is read per call.  Each subparser registers
its handler (``set_defaults(run=...)``), which ``main`` calls, and each JSON
report's envelope is written once, by ``_emit``: ``"command"``, then
``"pair"`` (``dim``, ``n``, ``m``) for a report on a pair file, then the
handler's body.  Exit codes: 0 success
(all checks passed / report produced), 1 a verification check or sweep
trial failed or a density report is inconsistent, 2 invalid
configuration or input file, or a report holding a non-finite number.
Reports are JSON by default, CSV on request; every randomized run
records the seeds needed to replay it.
``chaoskit --version`` prints ``chaoskit <version>`` and exits 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from functools import lru_cache
from io import StringIO

import numpy as np

from . import __version__
from . import io as kio
from . import malliavin as mal
from .mc import _SEED_BOUND, DEFAULT_SAMPLES, Estimate, estimate_expected_det
from .tensor import random_symmetric
from .verify import SUITES, VerifyConfig, instance_seed, run_suites

__all__ = ["main"]

# the options several subcommands share; each subcommand adds only those it reads
_SHARED = {
    "--dim": dict(type=int, default=3, help="basis dimension d"),
    "--max-order": dict(type=int, default=4, help="largest chaos order"),
    "--trials": dict(type=int, default=20, help="random instances per check"),
    "--samples": dict(type=int, default=DEFAULT_SAMPLES, help="Monte Carlo sample count"),
    "--seed": dict(
        type=int, default=None, help="base seed (default: CHAOSKIT_SEED env var, else 0)"
    ),
    "--tol-rel": dict(type=float, default=1e-9, help="relative tolerance"),
    "--tol-abs": dict(type=float, default=None, help="absolute tolerance"),
    "--output": dict(choices=("json", "csv"), default="json"),
    "-o": dict(dest="out_path", metavar="PATH", default=None),
}

# a nan tolerance fails every comparison and an inf one passes every check
_TOLERANCE = ("finite and > 0", lambda v: math.isfinite(v) and v > 0)
# parsed option -> (requirement, test), checked where the subcommand has it and
# the option has a value
_REQUIRE = {
    "dim": (">= 1", lambda v: v >= 1),
    "max_order": (">= 1", lambda v: v >= 1),
    "trials": (">= 1", lambda v: v >= 1),
    "samples": (">= 2", lambda v: v >= 2),
    "seed": ("in [0, 2**128)", lambda v: 0 <= v < _SEED_BOUND),
    "tol_rel": _TOLERANCE,
    "tol_abs": _TOLERANCE,
    "order": (">= 1", lambda v: v >= 1),
    "order_g": (">= 1", lambda v: v >= 1),
}
# (subcommand, option) -> a stricter requirement that subcommand enforces
_REQUIRE_IN = {
    ("verify", "dim"): (">= 2", lambda v: v >= 2),  # every check draws d from [2, dim]
    ("sweep", "order"): (">= 2", lambda v: v >= 2),  # the inequality needs n >= 2
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_SHARED[flag])


def _default_seed() -> int:
    raw = os.environ.get("CHAOSKIT_SEED")
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ValueError(f"CHAOSKIT_SEED must be an integer, got {raw!r}") from exc
    need, ok = _REQUIRE["seed"]
    if not ok(seed):  # named here: --seed was not given
        raise ValueError(f"CHAOSKIT_SEED must be {need}, got {seed}")
    return seed


def _validate(args: argparse.Namespace) -> None:
    """Resolve the default seed where it is read, then check each option the
    subcommand has."""
    draws = getattr(args, "mc", True)  # only edet has --mc
    if hasattr(args, "seed") and args.seed is None and draws:
        args.seed = _default_seed()
    for dest, rule in _REQUIRE.items():
        need, ok = _REQUIRE_IN.get((args.subcommand, dest), rule)
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            raise ValueError(f"--{dest.replace('_', '-')} must be {need}, got {value}")
    if not draws:  # edet draws only with --mc, so it refuses its sampling options
        for dest in ("samples", "seed"):
            if getattr(args, dest) is not None:
                raise ValueError(f"--{dest} requires --mc")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoskit",
        description=(
            "Finite-dimensional Wiener chaos toolkit: verify tensor and chaos "
            "identities, compute expected Malliavin determinants, check density "
            "of a pair of multiple integrals, and run Monte Carlo estimates."
        ),
    )
    parser.add_argument("--version", action="version", version=f"chaoskit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="run randomized invariant suites")
    p.add_argument(
        "--suite",
        default="all",
        help=f"comma list from {sorted(SUITES)} or 'all'",
    )
    _add_shared(
        p, "--dim", "--max-order", "--trials", "--samples", "--seed", "--tol-rel",
        "--output", "-o",
    )
    p.set_defaults(run=_cmd_verify, samples=20000)

    p = sub.add_parser("edet", help="expected determinant report for a pair file")
    p.add_argument("--pair", required=True, metavar="FILE")
    p.add_argument("--k", default="all", help="comma list of orders k, or 'all'")
    p.add_argument("--mc", action="store_true", help="attach a Monte Carlo estimate")
    _add_shared(p, "--samples", "--seed", "--output", "-o")
    p.set_defaults(run=_cmd_edet, samples=None)  # DEFAULT_SAMPLES with --mc; refused without it

    p = sub.add_parser("density", help="density/degeneracy verdict for a pair file")
    p.add_argument("--pair", required=True, metavar="FILE")
    _add_shared(p, "--tol-abs", "--output", "-o")
    p.set_defaults(run=_cmd_density)

    p = sub.add_parser("mc", help="Monte Carlo estimate of one expected determinant")
    p.add_argument("--pair", required=True, metavar="FILE")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--dump", metavar="PATH", default=None, help="raw sample CSV dump")
    _add_shared(p, "--samples", "--seed", "--output", "-o")
    p.set_defaults(run=_cmd_mc)

    p = sub.add_parser("sweep", help="covariance-inequality sweep over random pairs")
    p.add_argument("--order", type=int, required=True, help="common chaos order n >= 2")
    _add_shared(p, "--dim", "--trials", "--seed", "--tol-rel", "--output", "-o")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("gen", help="write a random pair file")
    p.add_argument("--order", type=int, default=2, help="order of f")
    p.add_argument("--order-g", type=int, default=None, help="order of g (default: order)")
    p.add_argument(
        "--proportional",
        type=float,
        default=None,
        metavar="C",
        help="write g = C * f instead of an independent draw",
    )
    _add_shared(p, "--dim", "--seed", "-o")
    p.set_defaults(run=_cmd_gen)
    return parser


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _non_finite(value, path: str):
    """Yield the dotted path of each non-finite float in a report's dicts and
    lists."""
    for key, v in value.items() if isinstance(value, dict) else enumerate(value):
        if isinstance(v, float) and not math.isfinite(v):
            yield f"{path}.{key}"
        elif isinstance(v, (dict, list, tuple)):
            yield from _non_finite(v, f"{path}.{key}")


def _emit(body: dict, rows: list[dict], args: argparse.Namespace, pair=None) -> None:
    """Write one report, JSON or CSV.  The JSON envelope is written here alone:
    ``"command"``, then the shape of the pair the handler read (if it passes
    one), then the handler's body."""
    shape = {} if pair is None else {"pair": {"dim": pair.dim, "n": pair.n, "m": pair.m}}
    report = {"command": args.subcommand, **shape, **body}
    # a non-finite number is an error (exit 2) in either format, never nan or inf;
    # every row value is also a report value
    bad = next(_non_finite(report, "report"), None)
    if bad is not None:
        raise ValueError(f"{bad} is not finite; nothing was written")
    if args.output == "json":
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    else:
        buf = StringIO()
        # every row of a report has the same keys, and a report has rows
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            # a None value is left out: the writer fills it with an empty field
            writer.writerow({k: _fmt(v) for k, v in row.items() if v is not None})
        text = buf.getvalue()
    if args.out_path:
        with open(args.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    vcfg = VerifyConfig(**{f.name: getattr(args, f.name) for f in fields(VerifyConfig)})
    results = run_suites(vcfg, suites)
    passed = all(r.passed for r in results)
    checks = [asdict(r) for r in results]
    rows = [{**c, "failures": "; ".join(c["failures"])} for c in checks]
    report = {
        "config": {"suite": suites, **asdict(vcfg)},
        "checks": checks,
        "passed": passed,
    }
    _emit(report, rows, args)
    return 0 if passed else 1


def _parse_k_list(raw: str, kmax: int) -> list[int]:
    if raw.strip().lower() == "all":
        return list(range(1, kmax + 1))
    try:
        ks = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--k must be 'all' or a comma list of integers: {raw!r}") from exc
    if not ks:
        raise ValueError("--k must name at least one order")
    return ks


def _cmd_edet(args: argparse.Namespace) -> int:
    pair = kio.load_pair(args.pair)
    ks = _parse_k_list(args.k, min(pair.n, pair.m))
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    table = mal.ContractionTable(pair)
    results = [mal._breakdown(pair, table, k) for k in ks]  # checks every k first
    if args.mc:
        results = [
            replace(b, mc=estimate_expected_det(pair, b.k, n_samples=samples, seed=args.seed))
            for b in results
        ]
    dicts = [asdict(b) for b in results]
    rows = []
    for d in dicts:
        row = dict(d)
        row["tr"] = "|".join(_fmt(v) for v in d["tr"])
        mcd = row.pop("mc") or {f.name: "" for f in fields(Estimate)}
        row.update({f"mc_{key}": v for key, v in mcd.items()})
        rows.append(row)
    _emit({"results": dicts}, rows, args, pair)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    pair = kio.load_pair(args.pair)
    report = mal.density_check(pair, tol_abs=args.tol_abs)
    payload = {
        "verdict": report.verdict.value,
        "cov_det": report.cov_det,
        "tol_abs": report.tol_abs,
        "expected_dets": [
            {"k": k, "value": v} for k, v in enumerate(report.expected_dets, start=1)
        ],
        "consistent": report.consistent,
    }
    rows = [
        {
            "k": k,
            "expected_det": v,
            "cov_det": report.cov_det,
            "tol_abs": report.tol_abs,
            "verdict": report.verdict.value,
            "consistent": report.consistent,
        }
        for k, v in enumerate(report.expected_dets, start=1)
    ]
    _emit(payload, rows, args, pair)
    # det C and the E det table disagree on degeneracy: no verdict to trust
    return 0 if report.consistent else 1


def _cmd_mc(args: argparse.Namespace) -> int:
    pair = kio.load_pair(args.pair)
    k = args.k
    closed = mal.expected_det(pair, k)  # validates k
    est = estimate_expected_det(
        pair, k, n_samples=args.samples, seed=args.seed, dump_path=args.dump
    )
    within = abs(est.mean - closed) <= 4 * est.stderr
    payload = {
        "k": k,
        "estimate": asdict(est),
        "closed_form": closed,
        "abs_error": abs(est.mean - closed),
        "within_4_stderr": within,
    }
    rows = [{"k": k, **asdict(est), "closed_form": closed, "within_4_stderr": within}]
    _emit(payload, rows, args, pair)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    n = args.order
    rows = []
    violations = 0
    for trial in range(args.trials):
        seed = instance_seed(args.seed, 90, trial)
        pair = mal.random_pair(args.dim, n, n, seed)
        res = mal.covariance_inequality(pair, tol_rel=args.tol_rel)
        # det C = 0 (e.g. d = 1): rhs is rounding noise and the ratio undefined,
        # so null rather than a number made of noise
        ratio = None if res.degenerate else res.lhs / res.rhs
        row = {
            "trial": trial,
            "seed": seed,
            "lhs": res.lhs,
            "rhs": res.rhs,
            "ratio": ratio,
            "holds": res.holds,
            "edet1": res.edet1,
        }
        violations += not res.holds
        rows.append(row)
    payload = {
        "config": {
            "order": n,
            "dim": args.dim,
            "trials": args.trials,
            "seed": args.seed,
            "tol_rel": args.tol_rel,
        },
        "rows": rows,
        "min_ratio": min(
            (row["ratio"] for row in rows if row["ratio"] is not None), default=None
        ),
        "violations": violations,
        "passed": violations == 0,
    }
    _emit(payload, rows, args)
    return 0 if violations == 0 else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.out_path is None:
        raise ValueError("gen requires an output path (-o PATH)")
    order = args.order
    order_g = args.order_g if args.order_g is not None else order
    if args.proportional is not None:
        if order_g != order:
            raise ValueError("--proportional requires equal orders for f and g")
        f = random_symmetric(args.dim, order, args.seed)
        pair = mal.MalliavinPair(f, f.scaled(args.proportional))
    else:
        f = random_symmetric(args.dim, order, np.random.SeedSequence([args.seed, 0]))
        g = random_symmetric(args.dim, order_g, np.random.SeedSequence([args.seed, 1]))
        pair = mal.MalliavinPair(f, g)
    kio.save_pair(pair, args.out_path, seed=args.seed)
    sys.stdout.write(json.dumps({"written": args.out_path, "seed": args.seed}) + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.run(args)
    except (kio.SchemaError, ValueError, OSError) as exc:
        print(f"chaoskit {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
