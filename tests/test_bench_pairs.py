"""tools/bench_pairs.py: its plan checks, summaries and pair comparisons.

No benchmark runs here: the refusals happen before anything is exported,
and the summaries and comparisons are fed synthetic runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(values: dict, correct=True, failed=0, attempted=10):
    """A run record as run_once returns it, with one value per metric."""
    metrics = {name: {"value": v, "unit": "u"} for name, v in values.items()}
    result = {"metrics": metrics, "correct": correct, "failed": failed,
              "attempted": attempted}
    env = {"nproc": 2, "python": "3", "numpy": "2", "blas_threads": 1}
    return {"info": {"environment": env}, "result": result}


@pytest.fixture
def nothing_runs(monkeypatch):
    """Fail the test if main exports a tree, runs a benchmark or calls git."""

    def refuse(*args, **kwargs):
        raise AssertionError("a refused plan must not reach export, git or a run")

    for name in ("export", "run_once", "_git"):
        monkeypatch.setattr(bench_pairs, name, refuse)


@pytest.mark.parametrize("pairs, message", [
    (["cli_reports=0"], "N >= 1: 'cli_reports=0'"),
    (["mc_estimate=2", "cli_reports=0"], "N >= 1: 'cli_reports=0'"),
    (["cli_reports=2", "cli_reports=3"], "--pairs names cli_reports more than once"),
    (["nope=2"], "a workload of BENCHMARK.json"),
    (["cli_reports=x"], "a workload of BENCHMARK.json"),
])
def test_bad_plan_refused_before_export(pairs, message, nothing_runs, tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--out", str(out), "--pairs", *pairs])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_summarize_inclusive_quartiles():
    runs = [_run({"ops_per_s": v}) for v in (1.0, 2.0, 4.0, 8.0, 16.0)]
    runs[3]["result"].update(correct=False, failed=3)
    summary = bench_pairs.summarize(runs)
    # inclusive: the quartiles of 5 points are the 2nd and 4th
    assert summary["metrics"]["ops_per_s"] == {"median": 4.0, "q1": 2.0, "q3": 8.0,
                                               "unit": "u"}
    assert (summary["runs"], summary["all_correct"]) == (5, False)
    assert (summary["failed_ops"], summary["attempted_ops"]) == (3, 50)


def test_summarize_one_run():
    summary = bench_pairs.summarize([_run({"ops_per_s": 3.0})])
    assert summary["metrics"]["ops_per_s"] == {"median": 3.0, "q1": 3.0, "q3": 3.0,
                                               "unit": "u"}


def test_compare_tie_counts_for_neither_side():
    parent = [_run({"ops_per_s": v}) for v in (10.0, 10.0, 10.0)]
    change = [_run({"ops_per_s": v}) for v in (10.0, 12.0, 8.0)]
    out = bench_pairs.compare(parent, change, {"ops_per_s": "higher"})["ops_per_s"]
    assert out["change_over_parent"] == [1.0, 1.2, 0.8]
    assert (out["change_wins"], out["pairs"], out["median_ratio"]) == (1, 3, 1.0)
    flipped = bench_pairs.compare(change, parent, {"ops_per_s": "higher"})["ops_per_s"]
    assert flipped["change_wins"] == 1


def test_better_direction_read_from_benchmark_json(monkeypatch, tmp_path):
    better = {m["name"]: m["better"] for m in BENCH["end_to_end"]}
    assert set(better.values()) == {"higher", "lower"}
    # the change doubles every metric: a win exactly where higher is better
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc1234")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(
        bench_pairs, "run_once",
        lambda tree, workload, seed, seconds: _run(
            {name: 2.0 if tree == bench_pairs.ROOT else 1.0 for name in better}),
    )
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--out", str(out),
                             "--pairs", "mc_estimate=2"]) == 0
    pairs = json.loads(out.read_text())["pairs"]["mc_estimate"]
    assert set(pairs) == set(better)
    for name, direction in better.items():
        assert pairs[name]["better"] == direction
        assert pairs[name]["change_wins"] == (2 if direction == "higher" else 0)
