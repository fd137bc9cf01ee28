"""The traced run and the per-layer metrics it reports.

A traced run sets the workload up once with tracing on, measures half
of ``--seconds`` untraced, then half traced.  Tracing overhead is the
traced minus the untraced ops/s.  Per-cell latencies come from the
untraced half; everything else from the traced half.  Calls, self times
and work counts are per op of the traced half, so a faster program,
which runs more ops in the same time, still reports comparable numbers.
``<module>.errors`` is the number of exceptions raised through the
module's wrapped functions in the traced half.

``PER_LAYER`` lists every metric with its unit, its better direction
and the end-to-end metric and workload it should move.  Functions a
workload never calls report 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import MODULES, SETUP_OP, Tracer
from workloads import ClosedFormSweep, MonteCarloEstimate

CFS, MCE, CLI = "closed_form_sweep", "mc_estimate", "cli_reports"


def _m(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


PER_LAYER = [
    _m("tensor.contract.calls", "1/op", "lower", f"ops_per_s on {CFS} and {CLI}"),
    _m("tensor.contract.self_s", "s/op", "lower", f"ops_per_s on {CFS} and {CLI}"),
    _m("tensor.contract.distinct_ratio", "ratio", "higher", f"ops_per_s on {CFS}"),
    _m("tensor.contract.out_mb", "MB/op", "lower", f"peak_rss_mb on {CLI} (computed as 8*d^(n+m-2r))"),
    _m("tensor.contract.max_out_mb", "MB", "lower", f"peak_rss_mb on {CLI} (computed as 8*d^(n+m-2r))"),
    _m("tensor.hat_contract.calls", "1/op", "lower", f"ops_per_s and op_ms_tail on {CFS}"),
    _m("tensor.hat_contract.self_s", "s/op", "lower", f"ops_per_s and op_ms_tail on {CFS}"),
    _m("tensor.hat_contract.distinct_ratio", "ratio", "higher", f"ops_per_s and op_ms_tail on {CFS}"),
    _m("tensor.symmetrize.calls", "1/op", "lower", f"ops_per_s on {CLI}"),
    _m("tensor.symmetrize.self_s", "s/op", "lower", f"ops_per_s on {CLI}"),
    _m("tensor.inner.calls", "1/op", "lower", f"ops_per_s on {CLI}"),
    _m("tensor.inner.self_s", "s/op", "lower", f"ops_per_s on {CLI}"),
    _m("chaos.multiply.calls", "1/op", "lower", f"ops_per_s on {CLI}"),
    _m("chaos.multiply.self_s", "s/op", "lower", f"ops_per_s on {CLI}"),
    _m("chaos.l2_inner.calls", "1/op", "lower", f"ops_per_s on {CLI}"),
    _m("chaos.l2_inner.self_s", "s/op", "lower", f"ops_per_s on {CLI}"),
    _m("chaos.evaluate.calls", "1/op", "lower", f"ops_per_s on {MCE}"),
    _m("chaos.evaluate.self_s", "s/op", "lower", f"ops_per_s on {MCE}"),
    _m("chaos.evaluate.points", "1/op", "lower", f"ops_per_s on {MCE}"),
    _m("chaos.derivative.calls", "1/op", "lower", f"ops_per_s on {MCE} (rebuilt per MC chunk at the seed)"),
    _m("chaos.derivative.self_s", "s/op", "lower", f"ops_per_s on {MCE}"),
    _m("malliavin.expected_det.calls", "1/op", "lower", f"ops_per_s on {CFS}"),
    _m("malliavin.expected_det.self_s", "s/op", "lower", f"ops_per_s on {CFS}"),
    _m("malliavin.expected_det.distinct_ratio", "ratio", "higher", f"ops_per_s on {CFS}"),
    _m("malliavin.t0_term.self_s", "s/op", "lower", f"ops_per_s on {CFS}"),
    _m("malliavin.tr_term.self_s", "s/op", "lower", f"ops_per_s on {CFS}"),
    _m("malliavin.covariance_inequality.self_s", "s/op", "lower", f"ops_per_s on {CFS}"),
    _m("malliavin.cov_det.self_s", "s/op", "lower", f"ops_per_s on {CFS}"),
    _m("malliavin.gram_chaos.self_s", "s/op", "lower", f"ops_per_s on {CLI}"),
    _m("malliavin.expected_det_chaos.self_s", "s/op", "lower", f"ops_per_s on {CLI}"),
    _m("malliavin.density_check.self_s", "s/op", "lower", f"ops_per_s on {CLI}"),
    _m("malliavin.sum_of_squares_eval.calls", "1/op", "lower", f"ops_per_s on {MCE}"),
    _m("malliavin.sum_of_squares_eval.self_s", "s/op", "lower", f"ops_per_s on {MCE}"),
    _m("malliavin.sum_of_squares_eval.rows", "1/op", "lower", f"ops_per_s on {MCE}"),
    *[
        _m(f"malliavin.ms_per_pair.n{n}_d{d}", "ms", "lower", f"ops_per_s on {CFS} (untraced median per cell)")
        for n in range(2, 7)
        for d in (2, 3)
    ],
    _m("mc.sample_gaussian_block.calls", "1/op", "lower", f"ops_per_s on {MCE}"),
    _m("mc.sample_gaussian_block.self_s", "s/op", "lower", f"ops_per_s on {MCE}"),
    _m("mc.sample_gaussian_block.samples", "1/op", "lower", f"ops_per_s on {MCE}"),
    _m("mc.estimate_expected_det.calls", "1/op", "lower", f"ops_per_s on {MCE}"),
    _m("mc.estimate_expected_det.self_s", "s/op", "lower", f"ops_per_s on {MCE}"),
    *[
        _m(f"mc.us_per_sample.d{d}_n{n}_k{k}", "us", "lower", f"ops_per_s on {MCE} (untraced median per cell)")
        for (d, n, k, _) in MonteCarloEstimate.CELLS
    ],
    _m("mc.max_abs_z", "stderr", "lower", f"none; distance of {MCE} means from the closed form, never gated"),
    _m("io.load_pair.calls", "1/op", "lower", f"op_ms_p50 on {CLI}"),
    _m("io.load_pair.self_s", "s/op", "lower", f"op_ms_p50 on {CLI}"),
    _m("io.save_pair.self_s", "s", "lower", f"setup_s on {CLI} (one set-up)"),
    _m("cli.main.calls", "1/op", "lower", f"op_ms_p50 on {CLI}"),
    _m("cli.main.self_s", "s/op", "lower", f"op_ms_p50 on {CLI}"),
    _m("verify.run_suites.calls", "1/op", "lower", f"ops_per_s on {CLI}"),
    _m("verify.run_suites.self_s", "s/op", "lower", f"ops_per_s on {CLI}"),
    _m("verify.checks_run", "1/op", "higher", f"ops_per_s on {CLI}"),
    _m("verify.checks_failed", "1/op", "lower", f"error_rate on {CLI}"),
    *[
        _m(f"{mod}.self_s", "s/op", "lower", moves)
        for mod, moves in (
            ("tensor", f"ops_per_s on {CFS} and {CLI}"),
            ("chaos", f"ops_per_s on {MCE} and {CLI}"),
            ("malliavin", f"ops_per_s on all three workloads"),
            ("mc", f"ops_per_s on {MCE}"),
            ("io", f"op_ms_p50 on {CLI}"),
            ("cli", f"op_ms_p50 on {CLI}"),
            ("verify", f"ops_per_s on {CLI}"),
        )
    ],
    *[_m(f"{mod}.errors", "count", "lower", "error_rate on every workload") for mod in MODULES],
    _m("trace.overhead_ops_per_s", "1/s", "higher", "none; traced minus untraced ops_per_s"),
    _m("trace.spans", "1/op", "lower", "none; spans recorded per traced op"),
]


def traced_run(cls, seed: int, seconds: float, workdir, measure):
    """Set up traced, measure untraced then traced; return (metrics, run)."""
    tracer = Tracer()
    with tracer:
        tracer.active = True
        workload = cls(seed, seconds, workdir)
        tracer.active = False
    workload.warm_up()
    untraced = measure(workload, seconds / 2)
    with tracer:
        traced = measure(workload, seconds / 2, tracer, first_op=untraced.attempted)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer.write(workdir / "spans.csv")

    values = layer_values(tracer, traced.attempted)
    values["trace.overhead_ops_per_s"] = traced.ops_per_s() - untraced.ops_per_s()
    for n in range(2, 7):
        for d in (2, 3):
            ms = untraced.cell_median_s(f"n{n}_d{d}") * 1e3 if cls is ClosedFormSweep else 0.0
            values[f"malliavin.ms_per_pair.n{n}_d{d}"] = ms
    for d, n, k, samples in MonteCarloEstimate.CELLS:
        us = untraced.cell_median_s(f"d{d}_n{n}_k{k}") * 1e6 / samples if cls is MonteCarloEstimate else 0.0
        values[f"mc.us_per_sample.d{d}_n{n}_k{k}"] = us
    values["mc.max_abs_z"] = getattr(workload, "max_abs_z", 0.0)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in PER_LAYER}
    untraced.lat += traced.lat
    untraced.cells += traced.cells
    untraced.failed += traced.failed
    untraced.failures += traced.failures
    return metrics, untraced


def layer_values(tracer: Tracer, ops: int) -> dict:
    """Per-op calls, self times and counters from the spans of traced ops."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    setup_self_s: dict[str, float] = defaultdict(float)
    n_spans = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        name = tracer.names[span[0]]
        if span[4] == SETUP_OP:
            setup_self_s[name] += own
            continue
        n_spans += 1
        calls[name] += 1
        self_s[name] += own
    values = {}
    for name in tracer.names:
        values[f"{name}.calls"] = calls[name] / ops
        values[f"{name}.self_s"] = self_s[name] / ops
    for name in ("tensor.contract", "tensor.hat_contract", "malliavin.expected_det"):
        distinct = tracer.counts[f"{name}.distinct"]
        values[f"{name}.distinct_ratio"] = distinct / calls[name] if calls[name] else 0.0
    for key in ("tensor.contract.out_mb", "chaos.evaluate.points",
                "malliavin.sum_of_squares_eval.rows", "mc.sample_gaussian_block.samples",
                "verify.checks_run", "verify.checks_failed"):
        values[key] = tracer.counts[key] / ops
    values["tensor.contract.max_out_mb"] = tracer.max_out_mb
    values["io.save_pair.self_s"] = setup_self_s["io.save_pair"]
    for mod in MODULES:
        values[f"{mod}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(mod + ".")
        ) / ops
        values[f"{mod}.errors"] = tracer.errors[mod]
    values["trace.spans"] = n_spans / ops
    return values
