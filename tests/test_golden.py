"""The reports of the four tiny benchmark workloads equal the ones kept in
``tests/golden`` (see ``tests/golden_reports.py``, which regenerates
them)."""

from __future__ import annotations

import csv
import io
import json
import math

from .golden_reports import GOLDEN, MANIFEST, numpy_build, run_workloads

# how far a float may move on another numpy build or CPU
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(name: str, text: str):
    """A JSON report as parsed, a CSV report as rows of int, float or
    string cells."""
    if name.endswith(".json"):
        return json.loads(text)
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def differences(want, got, where: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: strings, ints and bools
    exactly, floats to ``REL_TOL`` (nan equals nan)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want
                for d in differences(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(want)} items != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in differences(a, b, f"{where}[{i}]")]
    if type(want) is float and type(got) is float:
        if (math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                or math.isnan(want) and math.isnan(got)):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: {want!r} != {got!r}"]


def test_reports_match_the_goldens(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    inputs, reports = run_workloads(tmp_path)
    build = numpy_build()
    changed = sorted(k for k in set(inputs) | set(manifest["inputs"])
                     if inputs.get(k) != manifest["inputs"].get(k))
    assert not changed, (
        f"generated inputs differ from the goldens' ({', '.join(changed)}): "
        "no pipeline code has run yet, so the synthetic generator or "
        "numpy's random streams changed (NEP 19 keeps Generator streams "
        f"only within a numpy version; goldens made with numpy "
        f"{manifest['numpy']}, this is {build['numpy']}). Regenerate the "
        "goldens with `python -m tests.golden_reports` if that is meant.")
    assert sorted(reports) == manifest["reports"]
    # the bytes are promised only on the numpy build and CPU features the
    # goldens were made with; elsewhere the values must agree
    same_build = all(manifest[k] == v for k, v in build.items())
    failures = []
    for key, path in reports.items():
        want, got = (GOLDEN / key).read_bytes(), path.read_bytes()
        if want == got:
            continue
        found = differences(parse(key, want.decode("utf-8")),
                            parse(key, got.decode("utf-8")), key)
        if same_build and not found:
            found = [f"{key}: bytes differ, values within tolerance"]
        failures += found[:5]
    assert not failures, "reports differ from the goldens:\n" + "\n".join(
        failures)


def test_value_comparison_allows_rounding_only():
    want = parse("r.csv", "k,n,x,reason\n1,20,0.25,\n2,0,nan,missing\n")
    assert differences(want, parse(
        "r.csv", "k,n,x,reason\n1,20,0.2500000000001,\n2,0,nan,missing\n")) \
        == []
    for edit in ("1,21,0.25,", "1,20,0.2501,", "1,20,0.25,x", "1,20.0,0.25,"):
        got = parse("r.csv", f"k,n,x,reason\n{edit}\n2,0,nan,missing\n")
        assert len(differences(want, got)) == 1, edit
    doc = {"rmse_mm": 0.1, "n_valid": 3, "converged": True, "p": [1e-17]}
    assert differences(doc, dict(doc, p=[0.0])) == []
    assert differences(doc, dict(doc, converged=1)) != []
    assert differences(doc, dict(doc, n_valid=3.0)) != []
    assert differences(doc, {"rmse_mm": 0.1}) != []
