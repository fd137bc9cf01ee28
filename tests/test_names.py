"""Every name that the package exports, or that the benchmark's tracer looks
up, resolves: a deletion that forgets one fails here, not in a traced
benchmark run.  The package exports exactly its modules' public names, each
declared once, in its module's __all__."""

import ast
import importlib
from pathlib import Path

import pytest

import chaoskit

MODULES = ("tensor", "chaos", "malliavin", "mc", "io", "cli", "verify")
EXPORTED = MODULES[:4]  # the modules whose public names the package exports
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


def test_package_all_is_the_module_lists():
    lists = [importlib.import_module(f"chaoskit.{m}").__all__ for m in EXPORTED]
    expected = [name for names in lists for name in names] + ["__version__"]
    assert chaoskit.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", EXPORTED)
def test_package_names_are_the_module_objects(module):
    mod = importlib.import_module(f"chaoskit.{module}")
    assert [n for n in mod.__all__ if getattr(chaoskit, n, None) is not getattr(mod, n)] == []
