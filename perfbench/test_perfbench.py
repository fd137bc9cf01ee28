"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They check that a wrong result counts as a failed op (the negative
control), that traced spans nest and cover no more than the op's wall
time, that tracing rebinds and restores every imported name, and that
BENCHMARK.json lists exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chaoskit  # noqa: E402
from chaoskit import malliavin, tensor  # noqa: E402

from layers import PER_LAYER, layer_values  # noqa: E402
from run import end_to_end, measure  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CliReports, ClosedFormSweep  # noqa: E402

FAST_CLI_CELLS = {"density_e2_2", "density_p2_3", "edet_u2_42", "verify_chaos"}


def one_deck(workload, keep=lambda op: True, change=lambda op: op):
    """Serve a single fixed deck, optionally filtered and altered."""
    ops = [change(op) for op in workload.deck(0) if keep(op)]
    workload.deck = lambda pass_no: ops
    return workload


@pytest.fixture
def cli_workload(tmp_path):
    return CliReports(1, 1.0, tmp_path)


def test_correct_deck_has_no_failures(cli_workload):
    cfs = one_deck(ClosedFormSweep(1, 0.5, None))
    cli = one_deck(cli_workload, keep=lambda op: op.cell in FAST_CLI_CELLS)
    for workload in (cfs, cli):
        run = measure(workload, 0.0)
        assert run.attempted > 0 and run.failed == 0, run.failures


def test_negative_control_corrupted_bound_is_a_failure():
    corrupt = lambda op: dataclasses.replace(op, expect=1e6) if op.expect else op  # noqa: E731
    workload = one_deck(ClosedFormSweep(1, 0.5, None), change=corrupt)
    run = measure(workload, 0.0)
    n_small = sum(1 for op in workload.deck(0) if op.expect)
    assert n_small > 0 and run.failed == n_small
    assert run.failed / run.attempted > 0


def test_negative_control_wrong_verdict_is_a_failure(cli_workload):
    flip = {"ABSOLUTELY_CONTINUOUS": "DEGENERATE", "DEGENERATE": "ABSOLUTELY_CONTINUOUS"}
    workload = one_deck(
        cli_workload,
        keep=lambda op: op.cell in ("density_e2_2", "density_p2_3"),
        change=lambda op: dataclasses.replace(op, expect=flip[op.expect]),
    )
    run = measure(workload, 0.0)
    assert run.attempted == 2 and run.failed == 2
    assert all("verdict" in f for f in run.failures)


def test_spans_nest_within_op_wall_time(cli_workload):
    workload = one_deck(cli_workload, keep=lambda op: op.cell in FAST_CLI_CELLS)
    tracer = Tracer()
    with tracer:
        run = measure(workload, 0.0, tracer)
    selfs = tracer.self_times()
    assert tracer.spans and min(selfs) >= -1e-9
    per_op = defaultdict(float)
    for span, own in zip(tracer.spans, selfs):
        per_op[span[4]] += own
        if span[3] is not None:
            parent = tracer.spans[span[3]]
            assert parent[1] <= span[1] <= span[2] <= parent[2]
            assert parent[4] == span[4]
    for op, total in per_op.items():
        assert total <= run.lat[op] + 1e-9
    values = layer_values(tracer, run.attempted)
    assert values["cli.main.calls"] == 1.0
    assert values["verify.checks_run"] > 0 and values["verify.checks_failed"] == 0


def test_rebinding_reaches_from_imports_and_is_restored():
    originals = (tensor.contract, malliavin.contract, chaoskit.contract, malliavin.expected_det)
    workload = one_deck(ClosedFormSweep(1, 0.5, None), keep=lambda op: op.cell == "n3_d2")
    tracer = Tracer()
    with tracer:
        assert malliavin.contract is not originals[1]
        run = measure(workload, 0.0, tracer)
    assert (tensor.contract, malliavin.contract, chaoskit.contract,
            malliavin.expected_det) == originals
    parents = {
        tracer.names[tracer.spans[s[3]][0]]
        for s in tracer.spans
        if tracer.names[s[0]] == "tensor.contract" and s[3] is not None
    }
    assert "malliavin.t0_term" in parents  # reached through `from .tensor import contract`
    values = layer_values(tracer, run.attempted)
    assert values["tensor.hat_contract.calls"] > 0 and values["mc.self_s"] == 0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    printed = end_to_end(WORKLOADS["closed_form_sweep"], _FakeRun(), 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in printed.items()
    }
    assert spec["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER
    ]


class _FakeRun:
    lat = [0.001, 0.002, 0.003]

    def ops_per_s(self):
        return 500.0


def test_exits_nonzero_without_chaoskit_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
