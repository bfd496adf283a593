"""Golden reports: the reports of the four tiny benchmark workloads at
one seed, with the sha256 of every generated input file and the numpy
build they were written with.

``tests/test_golden.py`` regenerates the inputs, runs every command
through ``cli.main`` and compares its reports with the ones kept in
``tests/golden``. A change that means to move an output regenerates
them, from the repository root, with

    PYTHONPATH=src python -m tests.golden_reports
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from tacloc import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
SEED = 3


def _workloads():
    """``make_workloads(tiny=True)`` and ``write_inputs`` of the benchmark,
    loaded from its file without importing the ``bench`` directory."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod.make_workloads(tiny=True), mod.write_inputs


def numpy_build() -> dict:
    """numpy's version and the CPU features its kernels dispatch on: the
    report bytes are only promised equal where both match."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__,
            "cpu_features": sorted(k for k, on in __cpu_features__.items()
                                   if on)}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_workloads(work: Path) -> tuple[dict[str, str], dict[str, Path]]:
    """Generate every tiny workload's inputs under ``work`` and run its
    commands in process. Returns the sha256 of each input file and the
    path of each report, both keyed ``workload/dir/file``."""
    workloads, write_inputs = _workloads()
    inputs, reports = {}, {}
    for name, wl in workloads.items():
        src = work / name / "inputs"
        write_inputs(wl, SEED, src)
        inputs.update((f"{name}/{p.name}", sha256(p))
                      for p in sorted(src.iterdir()))
        outs = []
        for i, (command, *extra) in enumerate(wl.commands):
            out = work / name / f"{i}-{command}"
            extra = [a.replace("{out0}", str(outs[0])) if outs else a
                     for a in extra]
            code = cli.main([command, *extra, "--config",
                             str(src / "run.json"), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"{name}: {command} exited {code}")
            outs.append(out)
            reports.update((f"{name}/{out.name}/{p.name}", p)
                           for p in sorted(out.iterdir()))
    return inputs, reports


def main(work: Path) -> None:
    inputs, reports = run_workloads(work)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for key, path in reports.items():
        dest = GOLDEN / key
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, dest)
    MANIFEST.write_text(json.dumps(
        {"seed": SEED, **numpy_build(), "inputs": inputs,
         "reports": sorted(reports)}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(reports)} reports under {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
