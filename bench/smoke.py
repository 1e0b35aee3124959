"""Tiny-size smoke run of the whole benchmark harness, its checker and its tracer.

    python3 bench/smoke.py

Standard library only; takes well under a minute. It exits non-zero on the
first failed expectation. It checks that

- every workload runs end to end, untraced and traced, at a small scale,
  with every report accepted and exactly the metric names BENCHMARK.json
  declares;
- two traced runs of one seed give identical call and work counts;
- the checker flags a deliberately perturbed answer of every command;
- the tracer reports a missing function as absent instead of failing;
- run.py exits non-zero, printing no result, where there is no program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checker
import generate
from run import BENCH, ROOT, scratch_dir
from tracer import Tracer

SCALE = "0.2"


def require(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke FAILED: {what}")


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    require(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in generate.WORKLOADS:
        for trace in (0, 1):
            res = result_of(bench(workload, trace))
            require(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{workload} trace={trace}: {res}")
            require(set(res["metrics"]) == names[trace], f"{workload} trace={trace} metric names differ from BENCHMARK.json")
    counts = [
        {k: v["value"] for k, v in result_of(bench("rank-lowrank", 1, seed=7))["metrics"].items() if not k.endswith(("_ms", "_ratio"))}
        for _ in range(2)
    ]
    require(counts[0] == counts[1], "two traced runs of one seed gave different counts")
    require(counts[0]["reduce.reduce_system.calls"] == 2 * counts[0]["reduce.dof_via_reduction.calls"] > 0,
            "reduce_system is not run twice per solvable reduce call")


def _report(argv: list[str]) -> tuple[str, int]:
    """Run the real CLI in-process and capture its report."""
    import tropsolve.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def _bump_first_number(text: str, after: str) -> str:
    """Add 1 to the first integer following `after`."""
    start = text.index(after) + len(after)
    hit = re.compile(r"-?\d+").search(text, start)
    return text[:hit.start()] + str(int(hit.group()) + 1) + text[hit.end():]


def smoke_checker(workdir: Path) -> None:
    solvable = [[Fraction(0), None, Fraction(2)], [Fraction(1), Fraction(3), Fraction(-1)], [None, Fraction(1), Fraction(0)]]
    b = generate.mat_vec(solvable, [Fraction(1), Fraction(-1, 2), Fraction(0)])
    unsolvable_b = [Fraction(5), Fraction(0), Fraction(9)]
    low_rank = generate.planted_low_rank(random.Random(3), 5, 5, 2, 2)
    (workdir / "a.mat").write_text(generate.format_matrix(solvable))
    (workdir / "b.vec").write_text(generate.format_vector(b))
    (workdir / "u.vec").write_text(generate.format_vector(unsolvable_b))
    (workdir / "r.mat").write_text(generate.format_matrix(low_rank))
    (workdir / "rb.vec").write_text(generate.format_vector(generate.mat_vec(low_rank, [Fraction(0)] * 3)))
    a_sys, u_sys = checker.System(solvable, b), checker.System(solvable, unsolvable_b)
    r_sys = checker.System(low_rank, generate.mat_vec(low_rank, [Fraction(0)] * 3))
    require(a_sys.solvable and not u_sys.solvable, "checker verdicts on the fixed systems")
    a, bv, uv, r, rb = (str(workdir / f) for f in ("a.mat", "b.vec", "u.vec", "r.mat", "rb.vec"))
    cases = [
        # (command, flags, matrix, system, argv, perturbation)
        ("solve", (), solvable, a_sys, ["solve", a, bv], lambda t: _bump_first_number(t, "X* = (")),
        ("solve", (), solvable, u_sys, ["solve", a, uv], lambda t: _bump_first_number(t, "witness rows (no column minimum): ")),
        ("solve", ("--json",), solvable, a_sys, ["solve", a, bv, "--json"], lambda t: t.replace('"solvable"', '"unsolvable"', 1)),
        ("solve", ("--check",), solvable, a_sys, ["solve", a, bv, "--check"], lambda t: t.replace("agrees", "DISAGREES")),
        ("dof", (), solvable, a_sys, ["dof", a, bv], lambda t: _bump_first_number(t, "degrees of freedom: ")),
        ("normalize", (), solvable, u_sys, ["normalize", a, uv], lambda t: _bump_first_number(t, "Q (column minima boxed):")),
        ("colrank", (), low_rank, None, ["colrank", r], lambda t: _bump_first_number(t, " + ")),
        ("rowrank", (), low_rank, None, ["rowrank", r], lambda t: _bump_first_number(t, " + ")),
        ("reduce", (), low_rank, r_sys, ["reduce", r, rb], lambda t: t.replace("consistency: ok", "consistency: VIOLATED", 1)),
        ("reduce", (), solvable, u_sys, ["reduce", a, uv], lambda t: t.replace("unsolvable", "solvable", 1)),
    ]
    for command, flags, matrix, system, argv, perturb in cases:
        text, code = _report(argv)
        verdict = checker.check_call(command, flags, matrix, system, text, code)
        require(verdict is None, f"checker rejects the real report of {argv[0]} {flags}: {verdict}")
        bad = perturb(text)
        require(bad != text, f"perturbation of {argv[0]} {flags} changed nothing")
        require(checker.check_call(command, flags, matrix, system, bad, code) is not None,
                f"checker accepts a perturbed report of {argv[0]} {flags}")
    wrong_exit = 1 - _report(["solve", a, bv])[1]
    require(checker.check_call("solve", (), solvable, a_sys, _report(["solve", a, bv])[0], wrong_exit) is not None,
            "checker accepts a wrong exit code")


def smoke_tracer(workdir: Path) -> None:
    tracer = Tracer(("solver.solve", "normalize.no_such_function"))
    require(tracer.absent == ["normalize.no_such_function"], f"absent spans: {tracer.absent}")
    tracer.install()
    try:
        _report(["solve", str(workdir / "a.mat"), str(workdir / "b.vec")])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    require(metrics["solver.solve.calls"][0] == 1 and metrics["normalize.no_such_function.calls"][0] == 0, f"{metrics}")


def smoke_without_program(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("solve-dense", 0, cwd=bare)
    require(proc.returncode != 0, "run.py succeeded without a program")
    require(not proc.stdout.strip(), f"run.py printed a result without a program: {proc.stdout[-500:]}")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    with scratch_dir("smoke-") as workdir:
        smoke_checker(workdir)
        smoke_tracer(workdir)
        smoke_without_program(workdir)
    smoke_runs()
    print("smoke ok")


if __name__ == "__main__":
    main()
