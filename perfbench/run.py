"""chaoskit benchmark: one workload, closed loop, one op at a time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload closed_form_sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced run (see perfbench/README.md).  chaoskit is
imported from ``src/`` of the current directory and nowhere else; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# The benchmark's own process uses one BLAS thread.  A second OpenBLAS
# thread burns a core without lowering wall time on these small
# contractions and lets scheduler noise in.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPEATS = 3
WORKDIR = Path(".perfbench_work")


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Run:
    """Latencies and failures of the ops of one measured phase."""

    def __init__(self):
        self.lat: list[float] = []
        self.cells: list[str] = []
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.lat)

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.lat)

    def cell_median_s(self, cell: str) -> float:
        xs = [t for t, c in zip(self.lat, self.cells) if c == cell]
        return statistics.median(xs) if xs else 0.0


def measure(workload, seconds: float, tracer=None, first_op: int = 0) -> Run:
    """Run whole decks until ``seconds`` of wall time have passed.

    Only ``workload.run`` is timed; checks run untimed and, in a traced
    run, with tracing inactive.
    """
    run = Run()
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while pass_no == 0 or time.perf_counter() < deadline:
        for op in workload.deck(pass_no):
            op_id = first_op + run.attempted
            if tracer is not None:
                tracer.begin_op(op_id)
                tracer.active = True
            err = None
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # a raised exception is a failed op
                err = f"raised {exc!r}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                tracer.end_op()
            if err is None:
                try:
                    err = workload.check(op, out)
                except Exception as exc:
                    err = f"check raised {exc!r}"
            run.lat.append(elapsed)
            run.cells.append(op.cell)
            if err is not None:
                run.failed += 1
                if len(run.failures) < 5:
                    run.failures.append(f"op {op_id} {op.cell}: {err}")
        pass_no += 1
    return run


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, run: Run, setup_s: float) -> dict:
    ms = [t * 1e3 for t in run.lat]
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(run.ops_per_s(), "1/s"),
        "op_ms_p50": metric(percentile(ms, 50.0), "ms"),
        "op_ms_tail": metric(percentile(ms, workload.tail_pct), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def environment() -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    src = Path.cwd() / "src"
    if not (src / "chaoskit" / "__init__.py").is_file():
        print(f"perfbench: no chaoskit source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import chaoskit  # noqa: F401  (numpy and the whole package)

    import_s = time.perf_counter() - t0
    if Path(chaoskit.__file__).resolve().parent != (src / "chaoskit").resolve():
        print(f"perfbench: chaoskit imported from {chaoskit.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORKDIR / f"{args.workload}_{args.seed}"

    if args.trace:
        from layers import traced_run

        metrics, run = traced_run(cls, args.seed, args.seconds, workdir, measure)
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = cls(args.seed, args.seconds, workdir)
            workload.warm_up()
            setups.append(time.perf_counter() - t0)
        run = measure(workload, args.seconds)
        metrics = end_to_end(workload, run, import_s + statistics.median(setups))

    tail_ms = percentile([t * 1e3 for t in run.lat], cls.tail_pct)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "error_rate": run.failed / run.attempted,
        "tail_percentile": cls.tail_pct,
        "ops_beyond_tail": sum(t * 1e3 > tail_ms for t in run.lat),
        "cell_ms_p50": {c: run.cell_median_s(c) * 1e3 for c in sorted(set(run.cells))},
        "failures": run.failures,
        "environment": environment(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
