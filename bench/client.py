"""Closed-loop client: one thread calls `tropsolve.cli.main(argv)` back to back.

Run by run.py in a process of its own, so that its peak RSS is the
program's and not the generator's or the checker's:

    python3 bench/client.py WORKDIR

WORKDIR holds `plan.json` (written by run.py) and the input files. Each
call is timed from outside with its stdout captured in memory. Every
distinct (report, exit code) pair of a call is saved under WORKDIR/out for
run.py to check; the timings and the trace go to WORKDIR/result.json.

Untraced mode goes round the whole call cycle until both `seconds` have
passed and `rounds` rounds were timed; a few times per round it also times
a fresh interpreter's set-up (`setup_s`) between two calls. Each of those
times is saved with the time of a fixed calibration loop run next to it,
which run.py uses to scale it to the host's reference speed.
Traced mode times every call once under the tracer and every second call
also without it, alternating which goes first, to measure the tracer's
overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

SETUP_PER_ROUND = 4
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tropsolve.cli as cli
cli._build_parser()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from client import calibrate
print(elapsed, (calibrate() + calibrate()) / 2)
"""
CALIBRATION_STEPS = 2000


def calibrate() -> float:
    """Seconds a fixed loop of Fraction additions takes now: the host's current speed.

    The loop is pure interpreter work on small fractions, like the
    program's, and takes a few milliseconds. It never changes, so the
    ratio of a call's time to it does not follow the shared host's speed.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_STEPS):
        total += Fraction(i % 97, i % 13 + 1)
    return time.perf_counter() - start


def time_setup(src: str) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import tropsolve.cli and build its parser, and its calibration time."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, src, str(Path(__file__).resolve().parent)],
                         capture_output=True, text=True, timeout=60, check=True)
    elapsed, calibration = map(float, out.stdout.split())
    return elapsed, calibration


def main(workdir: Path) -> None:
    plan = json.loads((workdir / "plan.json").read_text())
    sys.path.insert(0, plan["src"])
    import tropsolve.cli as cli

    outdir = workdir / "out"
    outdir.mkdir()
    outputs: list[dict] = []  # distinct reports: call, file, exit code, error
    seen: dict[tuple[int, str], int] = {}
    calls = plan["calls"]

    def run_call(idx: int) -> tuple[float, int]:
        """Time one call; return (seconds, index into outputs)."""
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(calls[idx]["argv"])
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is a failed call, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        text = buf.getvalue()
        key = (idx, hashlib.sha256(f"{code}\n{error}\n{text}".encode()).hexdigest())
        if key not in seen:
            name = f"{idx}-{len(outputs)}.txt"
            (outdir / name).write_text(text)
            seen[key] = len(outputs)
            outputs.append({"call": idx, "file": name, "exit": code, "error": error})
        return elapsed, seen[key]

    run_call(plan["warmup"])  # imports and first-call set-up finish before timing
    samples: list[tuple[int, float, int, float | None]] = []  # (call, seconds, output, calibration seconds)
    result: dict = {}
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        plain = traced = 0.0
        for idx in range(len(calls)):
            # every second call also runs untraced, alternating which run goes first
            runs = (True,) if idx % 2 else (False, True) if idx % 4 == 0 else (True, False)
            for with_trace in runs:
                if with_trace:
                    tracer.install()
                try:
                    elapsed, out = run_call(idx)
                finally:
                    tracer.uninstall()
                samples.append((idx, elapsed, out, None))
                if len(runs) == 2:
                    if with_trace:
                        traced += elapsed
                    else:
                        plain += elapsed
        result["trace"] = tracer.metrics()
        result["trace"]["trace.overhead_ratio"] = (traced / plain, "ratio")
        result["absent"] = tracer.absent
    else:
        # whole rounds of the cycle only, so every run times the same mix of
        # calls; the set-up samples are spread over the run like the calls
        time_setup(plan["src"])  # also writes the bytecode caches
        every = max(1, len(calls) // SETUP_PER_ROUND)
        result["setup_s"] = []
        start = time.perf_counter()
        rounds = 0
        while rounds < plan["rounds"] or time.perf_counter() - start < plan["seconds"]:
            for idx in range(len(calls)):
                before = calibrate()
                elapsed, out = run_call(idx)
                samples.append((idx, elapsed, out, (before + calibrate()) / 2))
                if idx % every == 0:
                    result["setup_s"].append(time_setup(plan["src"]))
            rounds += 1
        result["rounds"] = rounds
    result["samples"] = samples
    result["outputs"] = outputs
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
