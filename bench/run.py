"""Seeded end-to-end benchmark of the tropsolve CLI, with an optional traced run.

    python3 bench/run.py --workload solve-dense --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout: it imports the program from
the checkout's `src/`, needs nothing beyond the standard library, and
reads and writes only inside the checkout. It

1. builds the workload's inputs from the seed (generate.py) and writes them
   under `.bench_work/`, which it removes again;
2. runs client.py in its own process, a closed loop of `cli.main(argv)`
   calls over those files (traced with `--trace 1`), which goes round the
   call cycle ROUNDS times or more and also times `setup_s` between calls;
3. checks every report with checker.py, which shares no code with the
   program, and counts a call as failed when the check rejects it;
4. prints each metric by name with its unit, then one JSON line with
   `correct`, `attempted`, `failed` and `metrics` as the last line.

It exits 2 without a result when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checker
import generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_CALLS = 100  # calls per cycle, so that call_ms.p90 has ten samples beyond it
ROUNDS = 3  # each call's time is its median over at least this many rounds
CALIBRATION_REFERENCE_S = 0.004  # client.calibrate() at the host's reference speed
DEADLINE_S = 170  # every run must end within 180 s


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under the checkout's `.bench_work/`, removed afterwards with `.bench_work/` if empty."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not any(parent.iterdir()):
            parent.rmdir()


def write_inputs(w: generate.Workload, workdir: Path) -> list[dict]:
    for k, inst in enumerate(w.instances):
        (workdir / f"a{k}.mat").write_text(generate.format_matrix(inst.a))
        for r, b in enumerate(inst.rhs):
            (workdir / f"b{k}_{r}.vec").write_text(generate.format_vector(b))
    calls = []
    for c in w.calls:
        files = [str(workdir / f"a{c.instance}.mat")]
        if c.rhs is not None:
            files.append(str(workdir / f"b{c.instance}_{c.rhs}.vec"))
        inst = w.instances[c.instance]
        calls.append({"argv": [c.command, *files, *c.flags], "cells": len(inst.a) * len(inst.a[0])})
    return calls


def systems_of(w: generate.Workload) -> dict[tuple[int, int], checker.System]:
    """The checker's own answer for every (instance, right-hand side) a call reads."""
    return {
        (c.instance, c.rhs): checker.System(w.instances[c.instance].a, w.instances[c.instance].rhs[c.rhs])
        for c in w.calls
        if c.rhs is not None
    }


def check_outputs(w: generate.Workload, systems, result: dict, workdir: Path) -> list[str | None]:
    """Verdict per distinct report: None when correct, else the reason."""
    verdicts = []
    for out in result["outputs"]:
        call = w.calls[out["call"]]
        if out["error"] is not None:
            verdicts.append(f"exception escaped: {out['error']}")
            continue
        text = (workdir / "out" / out["file"]).read_text()
        system = systems.get((call.instance, call.rhs))
        verdicts.append(checker.check_call(call.command, call.flags, w.instances[call.instance].a, system, text, out["exit"]))
    return verdicts


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order statistics.

    A single order statistic jumps whenever a call crosses it; with about
    a hundred calls of many sizes the tail is sparse, and the weighted mean
    is far steadier from seed to seed. Weights are the Beta(q(n+1),
    (1-q)(n+1)) mass of each interval [i/n, (i+1)/n], by Simpson's rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) if 0 < x < 1 else 0.0

    steps = 8  # Simpson subintervals per order statistic
    weights = []
    for i in range(n):
        grid = [(i + k / steps) / n for k in range(steps + 1)]
        inner = sum((4 if k % 2 else 2) * pdf(x) for k, x in enumerate(grid[1:-1], start=1))
        weights.append((pdf(grid[0]) + inner + pdf(grid[-1])) / (3 * steps * n))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def at_reference_speed(secs: float, calibration: float) -> float:
    """A time scaled to the host's reference speed by the calibration loop timed next to it.

    The host is shared: for ten seconds and more at a time the same work
    runs up to twice as slow, and no run is long enough to wait that out.
    The ratio of a call's time to the calibration loop's stays within a
    few percent, and a change to the program moves only the call's time.
    """
    return secs * CALIBRATION_REFERENCE_S / calibration


def call_times(samples: list) -> dict[int, float]:
    """Each call's time at reference speed, in seconds: its median over the rounds of the run."""
    rounds: dict[int, list[float]] = {}
    for idx, secs, _, calibration in samples:
        rounds.setdefault(idx, []).append(at_reference_speed(secs, calibration))
    return {idx: statistics.median(times) for idx, times in rounds.items()}


def end_to_end(result: dict, calls: list[dict]) -> dict[str, tuple[float, str]]:
    per_call = call_times(result["samples"])
    times_ms = [secs * 1000 for secs in per_call.values()]
    cells = sum(calls[idx]["cells"] for idx in per_call)
    return {
        "call_ms.p50": (hd_quantile(times_ms, 0.5), "ms"),
        "call_ms.p90": (hd_quantile(times_ms, 0.9), "ms"),
        "cells_per_s": (cells / (sum(times_ms) / 1000), "cells/s"),
        "setup_s": (statistics.median(at_reference_speed(*pair) for pair in result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink sizes below 1 for smoke runs")
    args = ap.parse_args()
    if not (SRC / "tropsolve" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'tropsolve' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    began = time.monotonic()

    w = generate.make(args.workload, args.seed, args.scale)
    systems = systems_of(w)
    descriptor = generate.describe(w) | {"solvable_share": round(statistics.mean(s.solvable for s in systems.values()), 3)}
    print(f"host: python {sys.version.split()[0]}, nproc {len(os.sched_getaffinity(0))}")
    print(f"workload {w.name} seed {args.seed}: {json.dumps(descriptor)}")

    with scratch_dir(f"{w.name}-") as workdir:
        calls = write_inputs(w, workdir)
        if args.scale >= 1 and len(calls) < MIN_CALLS:
            raise SystemExit(f"error: a cycle of {len(calls)} calls is shorter than {MIN_CALLS}")
        plan = {
            "src": str(SRC),
            "calls": calls,
            "warmup": min(range(len(calls)), key=lambda i: calls[i]["cells"]),
            "seconds": args.seconds,
            "rounds": ROUNDS,
            "trace": args.trace,
        }
        (workdir / "plan.json").write_text(json.dumps(plan))
        subprocess.run(
            [sys.executable, str(BENCH / "client.py"), str(workdir)],
            cwd=ROOT, check=True, timeout=max(1.0, DEADLINE_S - (time.monotonic() - began)),
        )
        result = json.loads((workdir / "result.json").read_text())
        verdicts = check_outputs(w, systems, result, workdir)

    failed = sum(verdicts[s[2]] is not None for s in result["samples"])
    attempted = len(result["samples"])
    for reason in sorted({v for v in verdicts if v is not None}):
        print(f"failed check: {reason}")
    if args.trace:
        metrics = {name: tuple(pair) for name, pair in result["trace"].items()}
        if result["absent"]:
            print("absent spans: " + ", ".join(result["absent"]))
    else:
        metrics = end_to_end(result, calls)
        print(f"call_ms samples: {len(calls)} calls, each the median of {result['rounds']} rounds ({attempted} timed calls)")
        speed = statistics.median(s[3] for s in result["samples"])
        print(f"host speed: calibration loop median {speed * 1000:.3f} ms, times scaled to {CALIBRATION_REFERENCE_S * 1000:g} ms")
    print(f"fail_ratio = {failed / attempted:.4g} ratio ({failed} failed / {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
