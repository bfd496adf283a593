from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from tacloc import cli, cluster
from tacloc.ingest import config_from_dict

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
README = ROOT / "README.md"


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


def test_tracer_observers_read_real_results():
    # the observers read arguments and result fields by name, and only a
    # traced benchmark run would otherwise notice a renamed one
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    observers = tracing._observers({layer: importlib.import_module(
        f"tacloc.{layer}") for layer in tracing.WRAPPED})
    rng = np.random.default_rng(0)
    u = np.rint(rng.normal(300, 2, 60)).astype(np.int16)
    v = np.rint(rng.normal(250, 2, 60)).astype(np.int16)
    args = inspect.signature(cluster.extract_centroid).bind(
        u, v, cluster.DbscanParams())
    result = cluster.extract_centroid(*args.args)
    assert result.valid
    assert observers["cluster.extract_centroid"](args.arguments, result) \
        == {"events_in": 60, "dominant": result.largest_cluster_size,
            "valid": 1}


def test_sources_parse_as_python_3_10():
    # pyproject's requires-python floor; only a 3.10 interpreter would
    # otherwise notice syntax from a later version
    paths = [p for d in ("src/tacloc", "tests", "bench")
             for p in sorted((ROOT / d).glob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_deprecations_in_the_program_fail():
    # pyproject turns a DeprecationWarning raised from a tacloc module
    # into an error; one from elsewhere stays a warning
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("old API", DeprecationWarning, "ingest.py", 1,
                               module="tacloc.ingest")
    with pytest.warns(DeprecationWarning):
        warnings.warn_explicit("old API", DeprecationWarning, "x.py", 1,
                               module="numpy")


def test_runtime_warnings_in_the_program_fail():
    # pyproject turns a RuntimeWarning raised from a tacloc frame into an
    # error, such as numpy's divide-by-zero; one from elsewhere stays a
    # warning
    divide = compile("np.float64(1.0) / np.float64(0.0)", "cluster.py", "exec")
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        exec(divide, {"np": np, "__name__": "tacloc.cluster"})
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        exec(divide, {"np": np, "__name__": "numpy.core"})


def _readme_blocks(lang: str) -> list[str]:
    """The bodies of the README's fenced ``lang`` code blocks."""
    return re.findall(rf"^```{lang}\n(.*?)^```\n",
                      README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_config_loads():
    # a README config that names a deleted or misspelt key fails to load
    blocks = _readme_blocks("json")
    assert len(blocks) == 1
    cfg = config_from_dict(json.loads(blocks[0]))
    assert cfg.seed == 17
    assert cfg.cluster.eps == 10


def test_readme_imports_run():
    # a README that names a deleted entry point fails to import it
    blocks = _readme_blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_commands_parse():
    # a README command with a renamed or deleted flag fails to parse
    lines = [shlex.split(line, comments=True)
             for block in _readme_blocks("sh")
             for line in block.splitlines()
             if line.startswith("tacloc ")]
    assert len(lines) == 5
    for argv in lines:
        args = cli.build_parser().parse_args(argv[1:])
        assert args.command == argv[1]


# what an EventStream stores, and its private constructors
_STORED = {"t_low", "run_starts", "run_highs", "ordinals", "ordinal0", "gaps"}
_PRIVATE = {"_from_valid", "_fill", "_subset"}


def _names(tree) -> list[tuple[int, str]]:
    """``(line, name)`` of every attribute read, bare name and imported
    name in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names]
    return found


def test_only_events_knows_the_stored_layout():
    # events.py builds every stream, so a change of how a stream stores
    # its times or ordinals touches that one module
    leaks = []
    for path in sorted((ROOT / "src" / "tacloc").glob("*.py")):
        if path.name == "events.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        leaks += [f"{path.name}:{line}: {name}"
                  for line, name in _names(tree)
                  if name.lstrip(".") in _PRIVATE
                  or (name.startswith(".") and name[1:] in _STORED)]
    assert leaks == []


def test_ingest_leaves_the_column_ranges_to_events():
    # ingest only turns bytes into column blocks: events checks their
    # ranges (EVENT_COLUMNS) and builds the time rule (high_rule)
    tree = ast.parse((ROOT / "src" / "tacloc" / "ingest.py").read_text(
        encoding="utf-8"))
    assert [f"ingest.py:{line}: {name}" for line, name in _names(tree)
            if name.lstrip(".") in ("EVENT_COLUMNS", "high_rule")] == []


def test_every_definition_is_run_or_documented():
    # src/ holds what a flow runs: a top-level function or class that no
    # other code of the program names is either a README library entry
    # point or an oracle that belongs in the tests
    defined, named = [], set()
    for path in sorted((ROOT / "src" / "tacloc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            if own is not None:
                defined.append((path.name, own))
            named |= {name.lstrip(".") for _, name in _names(node)} - {own}
    readme = README.read_text(encoding="utf-8")
    assert [f"{module}: {name}" for module, name in defined
            if name not in named
            and not re.search(rf"\b{re.escape(name)}\b", readme)] == []
