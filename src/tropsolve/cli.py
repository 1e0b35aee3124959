"""Command-line front end: one driver, and a handler per subcommand that only computes.

`_COMMANDS` declares each subcommand once. `_build_parser` builds the
argparse parser from it once per process; `run` and `main` share it, since
parsing keeps no state between calls. `_dispatch` reads and hashes A, then
b or A2 (decoded as UTF-8, a leading byte-order mark dropped), passes the
parsed objects to the handler for its payload and exit code, and builds the
one `Report`; `main` renders it as text or JSON (`--json`) with identical
data. Indices in reports are 1-based. Exit codes: 0 = success/solvable,
1 = unsolvable or negative verdict, 2 = input or usage error, or memory
running out while the inputs are read or the payload computed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from typing import Callable, NamedTuple, Sequence

from .errors import SizeBoundError, TropicalError, UnsolvableSystemError
from .freedom import degrees_of_freedom, minimal_leading_oracle
from .matrix import TropMatrix, TropVector, parse_matrix, parse_vector
from .normalize import normalize, normalized_solution
from .oracle import exhaustive_solvable, principal_solution, satisfies
from .rank import RankReport, colrank, rowrank
from .reduce import dof_via_reduction, reduce_system
from .scalar import format_pair, format_pairs
from .solver import Solvable, solve, check_equivalence

__all__ = ["Report", "run", "main"]


class Report(NamedTuple):
    command: str
    inputs: tuple[dict, ...]
    payload: dict
    exit_code: int


def _load(name: str, path: str, parse: Callable[[str], object]) -> tuple[dict, object]:
    """Read one input file: its entry in the report's inputs, and the parsed object."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = {"name": name, "path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    return digest, parse(raw.decode("utf-8-sig"))  # a leading byte-order mark is dropped


def _ones(indices) -> list[int]:
    return [i + 1 for i in sorted(indices)]


def _listed(items, sep: str = ", ") -> str:
    """The rule for a list in a text report: its items joined, or `-` when it is empty."""
    return sep.join(map(str, items)) or "-"


def _grid_lines(rows: list[list[str]], boxed: list[list[int]] | None = None) -> list[str]:
    """Right-aligned columns; `boxed` lists, per column, the 1-based rows whose cell is bracketed."""
    cells = rows
    if boxed:
        cells = [list(r) for r in rows]
        for j, rows_1 in enumerate(boxed):
            for i in rows_1:
                cells[i - 1][j] = f"[{cells[i - 1][j]}]"
    widths = [max(map(len, col)) for col in zip(*cells)]
    return ["  " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells]


# --- subcommand handlers: (args, A[, b or A2]) -> (payload, exit code) -------


def _cmd_normalize(args, a: TropMatrix, b: TropVector) -> tuple[dict, int]:
    res = normalize(a, b)
    payload = {
        "a_tilde": [format_pairs(r) for r in res.a_tilde.pair_rows()],
        "col_means": format_pairs(res.col_means.pairs()),
        "b_tilde": format_pairs(res.b_tilde.pairs()),
        "b_mean": format_pair(*res.b_mean),
        "q": [format_pairs(r, "+inf-") for r in res.q],
        "column_minima": format_pairs(res.column_minima.pairs()),
        "argmin_rows": [_ones(s) for s in res.argmin_rows],
    }
    return payload, 0


def _render_normalize(p: dict) -> list[str]:
    lines = ["column means: " + " ".join(p["col_means"]), "b mean: " + p["b_mean"]]
    lines.append("A~ (normalized matrix):")
    lines += _grid_lines(p["a_tilde"])
    lines.append("b~: " + " ".join(p["b_tilde"]))
    lines.append("Q (column minima boxed):")
    lines += _grid_lines(p["q"], p["argmin_rows"])
    lines.append("column minima: " + " ".join(p["column_minima"]))
    return lines


def _cmd_solve(args, a: TropMatrix, b: TropVector) -> tuple[dict, int]:
    outcome = solve(a, b)
    solvable = isinstance(outcome, Solvable)
    payload = {
        "status": "solvable" if solvable else "unsolvable",
        "x_star": [
            "unbounded" if j in outcome.unbounded else t for j, t in enumerate(format_pairs(outcome.x_star.pairs()))
        ] if solvable else None,
        "y_star": format_pairs(normalized_solution(a, b, outcome.x_star).pairs()) if solvable else None,
        "witness_rows": [] if solvable else _ones(outcome.witness_rows),
        "coverage": [_ones(cols) for cols in outcome.coverage],
        "forced_bottom": _ones(outcome.forced_bottom) if solvable else [],
        "unbounded": _ones(outcome.unbounded) if solvable else [],
    }
    if args.check:
        x0 = principal_solution(a, b)
        ok = satisfies(a, x0, b)
        try:
            exh = exhaustive_solvable(a, b)
        except SizeBoundError:  # past the oracle's bound: no exhaustive verdict
            exh = None
        agree = ok == solvable and x0 == outcome.x_star and exh in (None, solvable)
        payload["check"] = {
            "principal_solution": format_pairs(x0.pairs()),
            "verify": ok,
            "exhaustive": exh,
            "agrees": agree,
        }
    return payload, 0 if solvable else 1


def _render_solve(p: dict) -> list[str]:
    lines = [f"status: {p['status']}"]
    if p["status"] == "solvable":
        lines.append("X* = (" + ", ".join(p["x_star"]) + ")")
        lines.append("Y* = (" + ", ".join(p["y_star"]) + ")")
        if p["forced_bottom"]:
            lines.append("forced to -inf: columns " + _listed(p["forced_bottom"]))
        if p["unbounded"]:
            lines.append("unbounded columns: " + _listed(p["unbounded"]))
    else:
        lines.append("witness rows (no column minimum): " + _listed(p["witness_rows"]))
    lines.append("coverage (column minima per row):")
    for i, cols in enumerate(p["coverage"], start=1):
        lines.append(f"  row {i}: " + _listed(cols))
    if "check" in p:
        c = p["check"]
        lines.append("oracle check: " + ("agrees" if c["agrees"] else "DISAGREES"))
        lines.append("  principal solution = (" + ", ".join(c["principal_solution"]) + ")")
        lines.append(f"  verifies: {c['verify']}" + ("" if c["exhaustive"] is None else f", exhaustive: {c['exhaustive']}"))
    return lines


def _cmd_dof(args, a: TropMatrix, b: TropVector) -> tuple[dict, int]:
    outcome = solve(a, b)
    if not isinstance(outcome, Solvable):
        return {"status": "unsolvable", "witness_rows": _ones(outcome.witness_rows)}, 1
    report = degrees_of_freedom(outcome)
    payload = {
        "status": "solvable",
        "degrees_of_freedom": report.d_f,
        "leading": [j + 1 for j in report.leading_cols],
        "free": [j + 1 for j in report.free_cols],
        "trace": [
            {"rule": s.rule, "column": s.chosen_col + 1, "removed_rows": _ones(s.removed_rows)}
            for s in report.trace
        ],
    }
    if args.exact:
        size, witness = minimal_leading_oracle(outcome)
        payload["exact"] = {"min_size": size, "witness": [j + 1 for j in witness]}
    return payload, 0


def _render_dof(p: dict) -> list[str]:
    if p["status"] == "unsolvable":
        return [
            "status: unsolvable (degrees of freedom undefined)",
            "witness rows: " + _listed(p["witness_rows"]),
        ]
    lines = [
        f"degrees of freedom: {p['degrees_of_freedom']}",
        "leading variables: " + _listed(f"x{j}" for j in p["leading"]),
        "free variables: " + _listed(f"x{j}" for j in p["free"]),
        "trace:",
    ]
    for s in p["trace"]:
        lines.append(f"  {s['rule']}: chose column {s['column']}, removed rows " + _listed(s["removed_rows"]))
    if "exact" in p:
        e = p["exact"]
        lines.append(f"exact minimum cover: {e['min_size']} columns {{{_listed(e['witness'])}}}")
    return lines


def _parse_scan_order(text: str | None, size: int) -> list[int] | None:
    """`--scan-order` as 0-based indices; None when the flag is absent (an empty value is an error)."""
    if text is None:
        return None
    if not re.fullmatch(r"[0-9]+(,[0-9]+)*", text):
        raise TropicalError(f"scan order must be comma-separated integers, got {text!r}")
    tokens = [tok.lstrip("0") for tok in text.split(",")]
    if sorted(tokens) != sorted(map(str, range(1, size + 1))):
        raise TropicalError(f"scan order must be a permutation of 1..{size}")
    return [int(tok) - 1 for tok in tokens]


def _rank_payload(report: RankReport) -> dict:
    basis = sorted(report.independent)
    return {
        "axis": report.axis,
        "rank": report.rank,
        "independent": [i + 1 for i in report.independent],
        "dependent": [
            {
                "index": d.col + 1,
                "combination": [
                    {"index": c + 1, "coefficient": t}
                    for c, t in zip(basis, format_pairs(d.coefficients.pairs()))
                    if t != "-inf"
                ],
            }
            for d in report.dependent
        ],
        "scan_trace": [{"index": i + 1, "verdict": v} for i, v in report.scan_trace],
    }


def _cmd_colrank(args, a: TropMatrix) -> tuple[dict, int]:
    return _rank_payload(colrank(a, _parse_scan_order(args.scan_order, a.cols))), 0


def _cmd_rowrank(args, a: TropMatrix) -> tuple[dict, int]:
    return _rank_payload(rowrank(a, _parse_scan_order(args.scan_order, a.rows))), 0


def _render_rank(p: dict) -> list[str]:
    unit = "column" if p["axis"] == "columns" else "row"
    lines = [
        f"{unit[:3]}rank: {p['rank']}",
        f"independent {unit}s: " + _listed(p["independent"]),
        "scan trace: "
        + ", ".join(f"{unit} {t['index']} {t['verdict']}" for t in p["scan_trace"]),
    ]
    for d in p["dependent"]:
        if d["combination"]:
            combo = ", ".join(f"{unit} {c['index']} + {c['coefficient']}" for c in d["combination"])
            lines.append(f"dependent {unit} {d['index']} = max({combo})")
        else:
            lines.append(f"dependent {unit} {d['index']} = all -inf (empty combination)")
    return lines


def _cmd_reduce(args, a: TropMatrix, b: TropVector) -> tuple[dict, int]:
    sys_red = reduce_system(a, b)
    outcome = solve(a, b)
    solvable = isinstance(outcome, Solvable)
    dof_reduced = dof_direct = None
    if solvable:
        try:
            dof_reduced = dof_via_reduction(a, b)
        except UnsolvableSystemError:
            raise AssertionError("internal error: reduced system unsolvable while full system solvable") from None
        dof_direct = degrees_of_freedom(outcome).d_f
    payload = {
        "status": "solvable" if solvable else "unsolvable",
        "independent_rows": [i + 1 for i in sys_red.indep_rows],
        "independent_cols": [j + 1 for j in sys_red.indep_cols],
        "a_bar": [format_pairs(r) for r in sys_red.a_bar.pair_rows()] if sys_red.indep_cols else None,
        "b_bar": format_pairs(sys_red.b_bar.pairs()) if sys_red.indep_cols else None,
        "eta": [
            {"column": j + 1, "coefficients": format_pairs(coeffs.pairs())}
            for j, coeffs in sys_red.eta
        ],
        "xi": [
            {"row": i + 1, "coefficients": format_pairs(coeffs.pairs())}
            for i, coeffs in sys_red.xi
        ],
        "row_consistency": [
            {"row": i + 1, "consistent": ok} for i, ok in sys_red.row_consistency
        ],
        "dof_via_reduction": dof_reduced,
        "dof_direct": dof_direct,
    }
    return payload, 0 if solvable else 1


def _render_reduce(p: dict) -> list[str]:
    lines = [
        f"status: {p['status']}",
        "independent rows: " + _listed(p["independent_rows"]),
        "independent columns: " + _listed(p["independent_cols"]),
    ]
    if p["a_bar"] is not None:
        lines.append("reduced matrix:")
        lines += _grid_lines(p["a_bar"])
        lines.append("reduced b: " + " ".join(p["b_bar"]))
    for e in p["eta"]:
        lines.append(f"eta for column {e['column']}: " + _listed(e["coefficients"], " "))
    for x in p["xi"]:
        lines.append(f"xi for row {x['row']}: " + _listed(x["coefficients"], " "))
    for rc in p["row_consistency"]:
        lines.append(f"row {rc['row']} consistency: {'ok' if rc['consistent'] else 'VIOLATED'}")
    if p["dof_via_reduction"] is not None:
        lines.append(f"degrees of freedom via reduction: {p['dof_via_reduction']}")
        lines.append(f"degrees of freedom (direct): {p['dof_direct']}")
    return lines


def _cmd_check_equiv(args, a: TropMatrix, a2: TropMatrix) -> tuple[dict, int]:
    alphas = check_equivalence(a, a2)
    payload = {
        "equivalent": alphas is not None,
        "alpha": format_pairs(alphas.pairs()) if alphas is not None else None,
    }
    return payload, 0 if alphas is not None else 1


def _render_check_equiv(p: dict) -> list[str]:
    if p["equivalent"]:
        return ["equivalent: yes", "alpha = (" + ", ".join(p["alpha"]) + ")"]
    return ["equivalent: no"]


# --- driver ----------------------------------------------------------------


# an input file: argparse name, name in the report's inputs, help, parser.
# parse_* is looked up per call, not kept in the table, so a traced run sees it
_A = ("matrix", "A", "matrix file (# comments, one row per line)", lambda text: parse_matrix(text))
_B = ("vector", "b", "vector file (one scalar per line)", lambda text: parse_vector(text))
_A2 = ("matrix2", "A2", "second matrix file", lambda text: parse_matrix(text))


class _Command(NamedTuple):
    help: str
    inputs: tuple[tuple, ...]  # read in this order, so a bad A is the error reported
    flag: tuple[str, dict] | None  # the command's own option: its name and add_argument keywords
    handler: Callable[..., tuple[dict, int]]
    render: Callable[[dict], list[str]]


_SCAN_ORDER = ("--scan-order", {"help": "comma-separated 1-based target order"})

_COMMANDS = {
    "normalize": _Command("normalize a system and print the associated grid Q",
                          (_A, _B), None, _cmd_normalize, _render_normalize),
    "solve": _Command("solve A x = b; exit 0 if solvable, 1 if not", (_A, _B),
                      ("--check", {"action": "store_true", "help": "cross-check with independent oracles"}),
                      _cmd_solve, _render_solve),
    "dof": _Command("degrees of freedom of a solvable system", (_A, _B),
                    ("--exact", {"action": "store_true", "help": "also compute the exact minimum cover"}),
                    _cmd_dof, _render_dof),
    "colrank": _Command("column rank by the dependence scan", (_A,), _SCAN_ORDER, _cmd_colrank, _render_rank),
    "rowrank": _Command("row rank (column rank of the transpose)", (_A,), _SCAN_ORDER, _cmd_rowrank, _render_rank),
    "reduce": _Command("row-column reduction and both degrees-of-freedom figures",
                       (_A, _B), None, _cmd_reduce, _render_reduce),
    "check-equiv": _Command("recover per-column shifts between two matrices",
                            (_A, _A2), None, _cmd_check_equiv, _render_check_equiv),
}


def render_text(report: Report) -> str:
    if "error" in report.payload:
        # the message may quote input bytes; escaped, it prints on any stdout
        return f"error: {report.payload['error']}".encode("ascii", "backslashreplace").decode("ascii")
    return "\n".join(_COMMANDS[report.command].render(report.payload))


def render_json(report: Report) -> str:
    # the report's fields, in declaration order, are the document's keys
    return json.dumps(report._asdict(), indent=2)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropsolve",
        description="Exact max-plus linear systems: solve, degrees of freedom, rank, reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest, _, help_text, _ in command.inputs:
            p.add_argument(dest, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if command.flag is not None:
            p.add_argument(command.flag[0], **command.flag[1])
    return parser


def _dispatch(args) -> Report:
    command = _COMMANDS[args.command]
    try:
        loaded = [_load(name, getattr(args, dest), parse) for dest, name, _, parse in command.inputs]
        payload, exit_code = command.handler(args, *(obj for _, obj in loaded))
    # ValueError covers UnicodeDecodeError (a file that is not UTF-8) and a
    # path with a NUL byte ("embedded null byte" from open)
    except (TropicalError, OSError, ValueError) as exc:
        return Report(args.command, (), {"error": str(exc)}, 2)
    except MemoryError:  # its own text is empty
        return Report(args.command, (), {"error": "out of memory"}, 2)
    return Report(args.command, tuple(digest for digest, _ in loaded), payload, exit_code)


def run(argv: Sequence[str]) -> Report:
    """Parse arguments, dispatch, and return the report (bad inputs give exit code 2)."""
    return _dispatch(_build_parser().parse_args(argv))


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    report = _dispatch(args)
    try:
        print(render_json(report) if args.json else render_text(report), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): keep the verdict, and point
        # stdout at devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
