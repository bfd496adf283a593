from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
