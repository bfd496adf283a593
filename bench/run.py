"""tacloc benchmark: time the CLI on synthetic recordings and check its outputs.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One run generates the seed's recording (the set-up, repeated and timed),
then runs the workload's command sequence as ``tacloc`` processes, one
at a time (a closed loop with one client, ``--threads 1``), until S
seconds have passed. Every command's reports are hashed, every repeat
must reproduce the first one's bytes, and the oracle in ``workloads.py``
checks them against the synthetic truth.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
sequence once more with spans around each layer module's public
functions (``traced_cli.py``), plus a ``--threads 2`` leg, and prints
the per-layer metrics. Metric names and units come from BENCHMARK.json.
The last stdout line is the result object; the full run record, with
the report digests, goes to the line before it and to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from tracing import now

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# set-up is repeated at least this often and for at least this long
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
MIN_REPEATS = 2
# every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 150.0
CONSOLE_SCRIPT = "import sys; from tacloc.cli import main; sys.exit(main())"
QUALITY_KEYS = ("rmse_mm", "valid_frac", "latency_width_ms", "tpr")

@dataclass
class Invocation:
    argv: list[str]
    code: int
    start: float
    end: float
    peak_rss_mb: float
    spans: list | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Sequence:
    invocations: list[Invocation]
    out_dirs: list[Path]
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(i.wall_s for i in self.invocations)

    @property
    def peak_rss_mb(self) -> float:
        return max(i.peak_rss_mb for i in self.invocations)

    @property
    def ok(self) -> bool:
        return all(i.code == 0 for i in self.invocations)


class Runner:
    """Starts tacloc commands one at a time and waits for each to end."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.log = work / "cli.log"

    def command(self, argv: list[str], spans_path: Path | None) -> Invocation:
        if spans_path is None:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"),
                   str(spans_path), *argv]
        # spawn.py leads its own process group, so a hung command can be
        # killed together with it
        start = now()
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawn.py"),
             str(self.log), *cmd],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return Invocation(argv, -signal.SIGKILL, start, now(), 0.0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"spawn.py failed with code {proc.returncode}")
        res = json.loads(out)
        inv = Invocation(argv, res["code"], res["start"], res["end"],
                         res["peak_rss_kb"] / 1024.0)
        if spans_path is not None and inv.code == 0:
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            spans = doc["spans"]
            next_id = max((s[0] for s in spans), default=0) + 1
            spans.append([next_id, "trace.dump", -1, *doc["dump"], {}])
            spans.append([-1, "cli.process", -2, inv.start, inv.end, {}])
            inv.spans = spans
        return inv

    def sequence(self, wl, inputs: Path, out_root: Path, threads: int = 1,
                 traced: bool = False) -> Sequence:
        seq = Sequence([], [])
        for i, (name, *extra) in enumerate(wl.commands):
            out = out_root / f"{i}-{name}"
            extra = [a.replace("{out0}", str(seq.out_dirs[0])) if i else a
                     for a in extra]
            argv = [name, *extra, "--config", str(inputs / "run.json"),
                    "--out", str(out), "--threads", str(threads)]
            spans = out_root / f"{i}-{name}.spans.json" if traced else None
            inv = self.command(argv, spans)
            seq.invocations.append(inv)
            seq.out_dirs.append(out)
            if inv.code != 0:
                break
        seq.digests = digest_reports(seq.out_dirs)
        return seq


def digest_reports(out_dirs: list[Path]) -> dict[str, str]:
    out = {}
    for d in out_dirs:
        if d.is_dir():
            for p in sorted(d.iterdir()):
                if p.is_file():
                    out[f"{d.name}/{p.name}"] = hashlib.sha256(
                        p.read_bytes()).hexdigest()
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_record(args, wl_name: str) -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": wl_name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu or platform.machine(),
            "src_py_lines": src_lines}


def load_metric_units(trace: int) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def set_up(wl, seed: int, inputs: Path, repeats: int, seconds: float,
           tracer=None):
    """Write the seed's inputs at least ``repeats`` times and for at least
    ``seconds``; returns the set-up times and the raw event count. A
    tracer records spans for the generation."""
    from workloads import write_inputs
    times = []
    while len(times) < repeats or sum(times) < seconds:
        shutil.rmtree(inputs, ignore_errors=True)
        if tracer is not None:
            tracer.install()
        t0 = now()
        try:
            n_events = write_inputs(wl, seed, inputs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append(now() - t0)
    return times, n_events


class Ledger:
    """Operations attempted and failed; one operation is one command
    invocation plus the check of its outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, wl, seq: Sequence, reference: dict | None,
               oracle_problems: list[str], label: str) -> None:
        """Count one operation per command of the sequence. The oracle
        judges the sequence's final reports, so its problems fail the last
        command; ``reference`` holds the digests the reports must match."""
        last = len(wl.commands) - 1
        for i, (name, *_) in enumerate(wl.commands):
            problems = []
            if i >= len(seq.invocations):
                problems.append("not run after an earlier command failed")
            elif seq.invocations[i].code != 0:
                problems.append(f"exit code {seq.invocations[i].code}")
            else:
                if reference is not None and _digests_of(seq.digests, i) \
                        != _digests_of(reference, i):
                    problems.append("report bytes differ from the first repeat")
                if i == last:
                    problems += oracle_problems
            self.attempted += 1
            self.failed += bool(problems)
            self.problems += [f"{label} {name}: {p}" for p in problems]


def _digests_of(digests: dict[str, str], i: int) -> dict[str, str]:
    return {k: v for k, v in digests.items() if k.startswith(f"{i}-")}


# workloads imports tacloc, so it is imported inside the functions, after
# main() has checked that the sources are there.

def oracle(wl, seed: int, config: dict, seq: Sequence):
    from workloads import Outputs, Verdict
    if not seq.ok:
        return Verdict(problems=["a command failed"])
    try:
        return wl.check(Outputs(seed, config, seq.out_dirs))
    except (OSError, KeyError, ValueError) as exc:
        return Verdict(problems=[f"unreadable report: {exc!r}"])


def timed_repeats(runner: Runner, wl, inputs: Path, seconds: float,
                  ledger: Ledger, seed: int, config: dict):
    """Run the sequence while another repeat fits in ``seconds``, at
    least MIN_REPEATS times.

    Returns the repeats and the oracle's verdict on the first one; later
    repeats must reproduce its report bytes.
    """
    repeats: list[Sequence] = []
    verdict = None
    start = now()
    while (len(repeats) < MIN_REPEATS
           or now() - start + repeats[-1].wall_s <= seconds):
        if repeats and now() + 1.5 * repeats[-1].wall_s > runner.deadline:
            break
        label = f"repeat{len(repeats)}"
        seq = runner.sequence(wl, inputs, runner.work / label)
        if verdict is None:
            verdict = oracle(wl, seed, config, seq)
        ledger.record(wl, seq, repeats[0].digests if repeats else None,
                      verdict.problems, label)
        repeats.append(seq)
    return repeats, verdict


def end_to_end(repeats: list[Sequence], setup_times: list[float],
               n_events: int, ledger: Ledger) -> dict[str, float]:
    wall = statistics.median(s.wall_s for s in repeats)
    return {"wall_s": wall,
            "events_per_s": n_events / wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in repeats),
            "ok_frac": 1.0 - ledger.failed / ledger.attempted}


def exclusion_reasons(seq: Sequence) -> dict[str, int]:
    """Histogram of the ``reason`` column of every localization.csv."""
    hist: dict[str, int] = {}
    for d in seq.out_dirs:
        p = d / "localization.csv"
        if p.is_file():
            with open(p, encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    if row["reason"]:
                        hist[row["reason"]] = hist.get(row["reason"], 0) + 1
    return hist


def summary_lines(metrics: dict, quality: dict, ledger: Ledger,
                  repeats: list[Sequence], n_events: int) -> list[str]:
    walls = [s.wall_s for s in repeats]
    q1, q2, q3 = quartiles(walls)
    lines = [f"wall_s           {q2:.4f} s  (median of {len(walls)} repeats, "
             f"quartiles {q1:.4f} .. {q3:.4f})",
             f"events_per_s     {metrics['events_per_s']:.1f} events/s  "
             f"({n_events} raw events in both input files)",
             f"setup_s          {metrics['setup_s']:.4f} s",
             f"peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB",
             f"fail_frac        {ledger.failed / ledger.attempted:.4f} ratio  "
             f"({ledger.failed} of {ledger.attempted} operations)"]
    units = {"rmse_mm": "mm", "valid_frac": "ratio", "latency_width_ms": "ms",
             "tpr": "ratio"}
    for key in QUALITY_KEYS:
        val = quality.get(key)
        text = "n/a on this workload" if val is None else f"{val:.6g} {units[key]}"
        lines.append(f"{key:<16} {text}")
    return lines


def run(args, wl) -> int:
    run_start = now()
    work = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, run_start + RUN_BUDGET_S)
    inputs = work / "inputs"
    record = run_record(args, wl.name)
    ledger = Ledger()
    units = load_metric_units(args.trace)
    try:
        tracer = tracing.Tracer() if args.trace else None
        if args.trace:
            setup_times, n_events = set_up(wl, args.seed, inputs, 1, 0.0, tracer)
        else:
            setup_times, n_events = set_up(wl, args.seed, inputs,
                                           SETUP_REPEATS, SETUP_SECONDS)
        config = json.loads((inputs / "run.json").read_text(encoding="utf-8"))
        runner.command(["--help"], None)  # warm the page cache; not timed
        repeats, verdict = timed_repeats(runner, wl, inputs, args.seconds,
                                         ledger, args.seed, config)
        reference = repeats[0].digests
        record.update({
            "raw_events": n_events, "setup_s": setup_times,
            "repeat_command_wall_s": [[i.wall_s for i in s.invocations]
                                      for s in repeats],
            "repeat_peak_rss_mb": [s.peak_rss_mb for s in repeats],
            "report_sha256": reference, "quality": verdict.quality})
        if args.trace:
            # untraced repeats run right before and after the traced one, so
            # the overhead compares runs made under the same machine load
            traced = runner.sequence(wl, inputs, work / "traced", traced=True)
            after = runner.sequence(wl, inputs, work / "after")
            threads2 = runner.sequence(wl, inputs, work / "threads2",
                                       threads=2, traced=True)
            for label, seq in (("traced", traced), ("after", after),
                               ("threads2", threads2)):
                seen = oracle(wl, args.seed, config, seq)
                ledger.record(wl, seq, reference, seen.problems, label)
                for key in QUALITY_KEYS:
                    if seen.quality.get(key) != verdict.quality.get(key):
                        ledger.problems.append(
                            f"{label}: {key} {seen.quality.get(key)} differs "
                            f"from the untraced {verdict.quality.get(key)}")
            if traced.ok and after.ok and threads2.ok:
                untraced = (repeats[-1].wall_s + after.wall_s) / 2
                metrics = tracing.layer_metrics(
                    [i.spans for i in traced.invocations],
                    [i.spans for i in threads2.invocations],
                    tracer.spans, untraced)
                parts = sum(metrics[f"{layer}.self_s"]
                            for layer in tracing.SELF_LAYERS)
                wall = metrics["trace.wall_s"]
                if abs(parts - wall) > 1e-6 * wall:
                    ledger.problems.append(
                        f"layer self times sum to {parts:.6f} s, traced wall "
                        f"is {wall:.6f} s")
                record["funnel"] = [tracing.funnel(i.spans)
                                    for i in traced.invocations]
                record["exclusion_reasons"] = exclusion_reasons(traced)
            else:
                metrics = dict.fromkeys(units, 0.0)
            lines = [f"{k:<44} {metrics[k]:.6g} {units[k]}" for k in units]
        else:
            metrics = end_to_end(repeats, setup_times, n_events, ledger)
            lines = summary_lines(metrics, verdict.quality, ledger, repeats,
                                  n_events)
    finally:
        if ledger.problems and runner.log.is_file():
            tail = runner.log.read_text(encoding="utf-8", errors="replace")
            sys.stderr.write("".join(tail.splitlines(True)[-40:]))
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do "
                           "not match BENCHMARK.json")
    record["problems"] = ledger.problems
    record["metrics"] = metrics
    correct = not ledger.problems
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    for line in lines + [f"problem: {p}" for p in ledger.problems]:
        print(line)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size and validate "
                         "the output schema")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tacloc" / "cli.py").is_file():
        print(f"bench: no tacloc sources under {ROOT / 'src'}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        import smoke
        return smoke.main(ROOT)
    import workloads
    wls = workloads.make_workloads(tiny=args.tiny)
    if args.workload not in wls:
        ap.error(f"--workload must be one of {sorted(wls)}")
    return run(args, wls[args.workload])


if __name__ == "__main__":
    sys.exit(main())
