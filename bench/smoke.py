"""Smoke mode: every workload at a tiny size, with tracing off and on.

Run with ``python3 bench/run.py --smoke``. It checks BENCHMARK.json's
shape, that each run exits 0 and ends with a result object whose metric
names and units are exactly the ones BENCHMARK.json declares, and that
the benchmark refuses to run (non-zero exit, no result) in a directory
holding only BENCHMARK.json and the benchmark's files. The tiny inputs
are too small for the statistical oracle checks, so ``correct`` is
reported, not required.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_benchmark_json(doc: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(doc) != keys:
        errors.append(f"top-level keys {sorted(doc)} != {sorted(keys)}")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    errors += [f"bad or repeated name {n!r}" for n in names
               if not NAME.fullmatch(n) or names.count(n) > 1]
    for w in doc["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            errors.append(f"workload entry {w}")
    for m in doc["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} \
                or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end entry {m}")
    for m in doc["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer entry {m}")
    for m in doc["end_to_end"] + doc["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"metric entry {m}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"]):
        errors.append("no setup_s metric")
    return errors


def check_result(line: str, expected: dict[str, str]) -> list[str]:
    try:
        res = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(res)}"]
    if not isinstance(res["correct"], bool):
        errors.append("correct is not a bool")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        errors.append(f"attempted {res['attempted']!r}")
    if not isinstance(res["failed"], int):
        errors.append(f"failed {res['failed']!r}")
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != expected:
        errors.append(f"metric names/units differ: "
                      f"{sorted(set(got.items()) ^ set(expected.items()))}")
    for k, v in res["metrics"].items():
        val = v.get("value")
        if isinstance(val, bool) or not isinstance(val, (int, float)) \
                or not math.isfinite(val):
            errors.append(f"{k} value {val!r}")
    return errors


def main(root: Path) -> int:
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = [f"BENCHMARK.json: {e}" for e in check_benchmark_json(doc)]
    run_py = root / "bench" / "run.py"
    for wl in doc["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in doc[section]}
            proc = subprocess.run(
                [sys.executable, str(run_py), "--workload", wl["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], cwd=root, capture_output=True, text=True,
                timeout=180)
            lines = proc.stdout.strip().splitlines()
            errors = ([f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
                      if proc.returncode else [])
            errors += check_result(lines[-1] if lines else "", expected)
            correct = json.loads(lines[-1])["correct"] if not errors else None
            print(f"{wl['name']:<18} trace {trace}: "
                  f"{'ok' if not errors else 'FAIL'} (correct={correct})")
            failures += [f"{wl['name']} trace {trace}: {e}" for e in errors]

    # a directory with only BENCHMARK.json and the benchmark's own files
    bare = root / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in doc["paths"]:
        shutil.copytree(root / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*doc["command"], "--workload", doc["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("bare directory: expected a non-zero exit and no "
                        f"output, got {proc.returncode} and {proc.stdout!r}")
    print(f"bare directory: exit code {proc.returncode}")

    for f in failures:
        print(f"FAIL {f}")
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0
