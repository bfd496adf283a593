from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _wrapped() -> dict:
    """The ``WRAPPED`` table of the benchmark tracer, read without
    importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WRAPPED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no WRAPPED table")


def test_traced_names_exist():
    # the tracer looks each name up with getattr, so a deleted function
    # breaks every traced benchmark run
    wrapped = _wrapped()
    assert wrapped
    missing = [f"tacloc.{layer}.{name}"
               for layer, names in wrapped.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"tacloc.{layer}"), name, None))]
    assert missing == []


def test_sources_parse_as_python_3_10():
    # pyproject's requires-python floor; only a 3.10 interpreter would
    # otherwise notice syntax from a later version
    paths = [p for d in ("src/tacloc", "tests", "bench")
             for p in sorted((ROOT / d).glob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
