"""Every name that the package exports, or that the benchmark's tracer looks
up, resolves: a deletion that forgets one fails here, not in a traced
benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

import chaoskit

MODULES = ("tensor", "chaos", "malliavin", "mc", "io", "cli", "verify")
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped() -> dict:
    """perfbench/tracing.py's WRAPPED table, read without importing the harness."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACING}")


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"chaoskit.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_all_resolves():
    assert [name for name in chaoskit.__all__ if not hasattr(chaoskit, name)] == []


def test_traced_names_resolve():
    wrapped = _wrapped()
    assert set(wrapped) == set(MODULES)
    missing = [
        f"{module}.{name}"
        for module, names in wrapped.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"chaoskit.{module}"), name, None))
    ]
    assert missing == []
