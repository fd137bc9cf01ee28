"""Alternating benchmark pairs: a parent commit against the working tree.

    python tools/bench_pairs.py --parent HEAD --out BENCH_18.json \
        --pairs cli_reports=6 closed_form_sweep=2 mc_estimate=2

For each workload and seed 1..N this runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` once from an export of the
parent commit and once from the working tree, the parent first on odd
seeds and the working tree first on even ones, one run at a time.  The
parent is exported with ``git archive`` into a temporary directory, so
the repository itself (its branches and worktree list) is left as it
was.  Each tree runs its own ``perfbench/`` and imports chaoskit from its
own ``src/``.

The output keeps, per run, the last two stdout lines of run.py (its info
and result objects); per workload and side, the median and inclusive
quartiles of each end-to-end metric; and per metric the change/parent
ratio of each pair, its median, and how many pairs the change won (a tie
counts for neither side).  Which direction is better comes from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The tree of commit rev, written under dest."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from tree: its info and result objects."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"info": info["info"], "result": result}


def summarize(runs: list[dict]) -> dict:
    """Correctness, op counts and the median and quartiles of each metric."""
    metrics = {}
    for name, first in runs[0]["result"]["metrics"].items():
        xs = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 \
            else (xs[0],) * 3
        metrics[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"]}
    return {
        "runs": len(runs),
        "all_correct": all(r["result"]["correct"] for r in runs),
        "failed_ops": sum(r["result"]["failed"] for r in runs),
        "attempted_ops": sum(r["result"]["attempted"] for r in runs),
        "metrics": metrics,
    }


def compare(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric: the change/parent ratio of each seed's pair and the wins."""
    out = {}
    for name, direction in better.items():
        ratios, wins = [], 0
        for p, c in zip(parent, change):
            pv = p["result"]["metrics"][name]["value"]
            cv = c["result"]["metrics"][name]["value"]
            ratios.append(cv / pv)
            wins += cv > pv if direction == "higher" else cv < pv
        out[name] = {
            "change_over_parent": ratios,
            "median_ratio": statistics.median(ratios),
            "change_wins": wins,
            "pairs": len(ratios),
            "better": direction,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--out", required=True, help="output JSON path, e.g. BENCH_18.json")
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N",
                        help="pairs of runs per workload")
    parser.add_argument("--what", default="this change", help="what the change is, for the file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    plan = {}  # a bad plan is refused before anything is exported or run
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if workload not in {w["name"] for w in bench["workloads"]} or not (
            count.isdigit() and int(count) >= 1
        ):
            parser.error(f"--pairs wants WORKLOAD=N with a workload of BENCHMARK.json "
                         f"and N >= 1: {item!r}")
        if workload in plan:
            parser.error(f"--pairs names {workload} more than once")
        plan[workload] = int(count)
    parent_rev = _git("rev-parse", "--short", args.parent)

    runs: dict[str, list[dict]] = {w: [] for w in plan}
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(parent_rev, trees["parent"])
        for workload, count in plan.items():
            for seed in range(1, count + 1):
                sides = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in sides:
                    record = run_once(trees[side], workload, seed, seconds)
                    runs[workload].append({"seed": seed, "tree": side, **record})
                    res = record["result"]["metrics"]
                    print(f"{workload} seed {seed} {side}: "
                          f"{res['ops_per_s']['value']:.1f} ops/s, "
                          f"{res['peak_rss_mb']['value']:.1f} MB", file=sys.stderr)

    env = next(iter(runs.values()))[0]["info"]["environment"]
    by_side = {w: {s: [r for r in rs if r["tree"] == s] for s in ("parent", "change")}
               for w, rs in runs.items()}
    doc = {
        "what": (f"chaoskit benchmark runs, parent commit {parent_rev} against {args.what}, "
                 "each tree run from its own checkout directory; for each run the last two "
                 "stdout lines of perfbench/run.py (the info object and the result object)"),
        "command": (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                    f"--seconds {seconds} --trace 0"),
        "order": ("parent and change alternate per seed: parent first on odd seeds, "
                  "change first on even seeds"),
        "machine": (f"{env['nproc']} cores, Python {env['python']}, numpy {env['numpy']}, "
                    f"BLAS threads {env['blas_threads']}"),
        "summary": {w: {s: summarize(rs) for s, rs in sides.items()}
                    for w, sides in by_side.items()},
        "pairs": {w: compare(sides["parent"], sides["change"], better)
                  for w, sides in by_side.items()},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
