"""Span tracing of chaoskit's public functions, installed from outside.

The package is not instrumented.  :class:`Tracer` wraps a fixed list of
public functions and rebinds every name under which a ``chaoskit.*``
module holds one of them: ``malliavin``, ``chaos`` and ``verify`` import
with ``from .tensor import contract, ...``, so patching
``chaoskit.tensor.contract`` alone would miss their calls.  Uninstalling
restores the original objects.

A span records (function, start, end, parent span, op id).  Spans stay in
memory and are written out when the run ends.  Self time is a span's
duration minus the durations of its direct children, so it counts work
in unwrapped callees (numpy, ``orbit_info``, ``slice_tensor``) to the
nearest wrapped caller.  ``orbit_info`` itself is not wrapped: it is an
``lru_cache`` hit on nearly every call, and a span around it would
mostly time the wrapper.

Nothing in chaoskit queues or waits on another worker, so no layer has a
wait time; none is reported.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict

MODULES = ("tensor", "chaos", "malliavin", "mc", "io", "cli", "verify")

# module -> wrapped public functions
WRAPPED = {
    "tensor": ("contract", "hat_contract", "symmetrize", "inner"),
    "chaos": ("multiply", "l2_inner", "evaluate", "derivative"),
    "malliavin": (
        "expected_det",
        "expected_det_closed_form",
        "t0_term",
        "tr_term",
        "covariance_inequality",
        "cov_det",
        "gram_chaos",
        "expected_det_chaos",
        "density_check",
        "sum_of_squares_eval",
    ),
    "mc": ("sample_gaussian_block", "estimate_expected_det"),
    "io": ("load_pair", "save_pair"),
    "cli": ("main",),
    "verify": ("run_suites",),
}

SETUP_OP = -1


def _rows(xi) -> int:
    shape = getattr(xi, "shape", ())
    return 1 if len(shape) <= 1 else int(shape[0])


def _contract_out_mb(f, g, r) -> float:
    # computed, not measured: the dense result holds d^(n+m-2r) doubles
    return 8.0 * f.dim ** (f.order + g.order - 2 * r) / 1e6


class Tracer:
    """Collects spans and per-function counters while installed and active."""

    def __init__(self):
        self.names: list[str] = [f"{m}.{fn}" for m in MODULES for fn in WRAPPED[m]]
        self.spans: list = []  # [name_idx, start, end, parent, op]
        self.op = SETUP_OP
        self.active = False
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.max_out_mb = 0.0
        self._stack: list[int] = []
        self._distinct: dict[str, set] = defaultdict(set)
        self._alive: list = []  # keeps keyed objects alive so ids stay unique per op
        self._saved: list = []

    # -- per-op bookkeeping ---------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._distinct.clear()
        self._alive.clear()

    def end_op(self) -> None:
        for name, keys in self._distinct.items():
            self.counts[name + ".distinct"] += len(keys)
        self._distinct.clear()
        self._alive.clear()

    def _observe(self, name: str, args, result) -> None:
        """Counters measured where the work happens."""
        if name == "tensor.contract":
            f, g, r = args[:3]
            mb = _contract_out_mb(f, g, r)
            self.counts["tensor.contract.out_mb"] += mb
            self.max_out_mb = max(self.max_out_mb, mb)
            self._key(name, (id(f), id(g), r), (f, g))
        elif name == "tensor.hat_contract":
            self._key(name, tuple(map(id, args[:4])) + tuple(args[4:6]), args[:4])
        elif name == "malliavin.expected_det":
            self._key(name, (id(args[0]), args[1]), args[0])
        elif name == "chaos.evaluate":
            self.counts["chaos.evaluate.points"] += _rows(args[1])
        elif name == "malliavin.sum_of_squares_eval":
            self.counts["malliavin.sum_of_squares_eval.rows"] += _rows(args[2])
        elif name == "mc.sample_gaussian_block":
            self.counts["mc.sample_gaussian_block.samples"] += args[3]
        elif name == "verify.run_suites":
            self.counts["verify.checks_run"] += len(result)
            self.counts["verify.checks_failed"] += sum(not r.passed for r in result)

    def _key(self, name: str, key, keep) -> None:
        self._distinct[name].add(key)
        self._alive.append(keep)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name_idx: int, fn):
        name = self.names[name_idx]
        module = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name_idx, clock(), 0.0, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if self.op != SETUP_OP:
                self._observe(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every chaoskit.* name that refers to a wrapped function."""
        originals = {}
        for i, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            fn = getattr(sys.modules[f"chaoskit.{mod_name}"], fn_name)
            originals[id(fn)] = (fn, self._wrap(i, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "chaoskit" and not mod_name.startswith("chaoskit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "name", "start_s", "end_s", "parent", "op"))
            for i, (n, start, end, parent, op) in enumerate(self.spans):
                w.writerow((i, self.names[n], f"{start:.9f}", f"{end:.9f}",
                            "" if parent is None else parent, op))
