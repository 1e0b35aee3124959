"""Independent answer checker for the benchmark.

Exact arithmetic on `fractions` and plain integers, importing nothing
from tropsolve, so a bug in the program cannot hide in shared code. It
judges each captured report (text, or JSON for `--json`) against the
generated inputs and its own residuation `x*_j = min_i (b_i - a_ij)`:

- solve: status, X*, Y*, coverage and witness rows; with `--check` the
  oracle line; exit 0 exactly when A x* reproduces b.
- dof: the leading set covers every row and d = n - |leading|.
- normalize: column means, b mean, every Q entry, the boxed minima and
  the column minima.
- colrank/rowrank: every dependence reproduces its column exactly and no
  independent column is spanned by the other independent ones.
- reduce: the exit code matches the checker's verdict, every eta/xi
  reproduces its column/row, and each row-consistency line matches b.

Every check raises `Mismatch` with a reason; `check_call` returns it.
Input right-hand sides are always finite (the generator guarantees it).
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction

Scalar = Fraction | None  # None is -inf


class Mismatch(Exception):
    """The program's report disagrees with the checker."""


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


# --- exact max-plus primitives ---------------------------------------------


def parse_token(tok: str) -> Scalar:
    return None if tok == "-inf" else Fraction(tok)


def transpose(a):
    return [list(col) for col in zip(*a)]


def max_combination(vectors, coeffs) -> list[Scalar]:
    """max_k (vectors[k] + coeffs[k]) entrywise; -inf absorbs in +, is neutral in max."""
    out: list[Scalar] = [None] * len(vectors[0])
    for vec, lam in zip(vectors, coeffs):
        if lam is None:
            continue
        for i, v in enumerate(vec):
            if v is not None and (out[i] is None or v + lam > out[i]):
                out[i] = v + lam
    return out


def mat_vec(a, x) -> list[Scalar]:
    return max_combination(transpose(a), x)


def spanned(vectors, target) -> bool:
    """True iff target is a max-combination of vectors (residuation test)."""
    if not vectors:
        return all(v is None for v in target)
    coeffs = []
    for vec in vectors:
        bounds = []
        for v, t in zip(vec, target):
            if v is None:
                continue
            if t is None:
                bounds = None
                break
            bounds.append(t - v)
        coeffs.append(min(bounds) if bounds else None)
    return max_combination(vectors, coeffs) == target


# --- the checker's own answers ----------------------------------------------


class System:
    """A x = b with the answers the checks compare against, each computed once.

    The bulk work runs on integers: every entry times the least common
    denominator `d` of the input, which is exact and avoids a gcd per cell.
    """

    def __init__(self, a, b):
        expect(all(v is not None for v in b), "checker requires a finite right-hand side")
        self.a, self.b = a, b
        self.m, self.n = len(a), len(a[0])
        self.d = d = math.lcm(*{v.denominator for row in a for v in row if v is not None}, *(v.denominator for v in b))
        self.b_int = [v.numerator * (d // v.denominator) for v in b]
        self.a_int = [[None if v is None else v.numerator * (d // v.denominator) for v in row] for row in a]
        # residuals d * (b_i - a_ij); x*_j is the least of column j
        self.res = [[None if v is None else bi - v for v in row] for row, bi in zip(self.a_int, self.b_int)]
        x_int = []
        for col in zip(*self.res):
            finite = [v for v in col if v is not None]
            x_int.append(min(finite) if finite else None)
        self.x = [None if x is None else Fraction(x, d) for x in x_int]
        # coverage: the columns whose residual is tight in each row; since
        # A x* <= b always, row i is reproduced exactly when it has one
        self.tight = [{j for j, (r, x) in enumerate(zip(row, x_int)) if r is not None and r == x} for row in self.res]
        self.witness = [i for i in range(self.m) if not self.tight[i]]
        self.solvable = not self.witness

    @functools.cached_property
    def means(self) -> list[Fraction]:
        """Column means over the finite entries."""
        out = []
        for col in zip(*self.a_int):
            finite = [v for v in col if v is not None]
            out.append(Fraction(sum(finite), self.d * len(finite)))
        return out

    @functools.cached_property
    def b_mean(self) -> Fraction:
        return Fraction(sum(self.b_int), self.d * self.m)

    @functools.cached_property
    def y(self) -> list[Scalar]:
        """Column minima of Q: x* shifted by mean_j - b_mean."""
        return [None if x is None else x + mu - self.b_mean for x, mu in zip(self.x, self.means)]


# --- report parsing helpers -------------------------------------------------


def _field(lines: list[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise Mismatch(f"missing line {prefix!r}")


def _ints(text: str) -> list[int]:
    return [int(t) for t in re.findall(r"\d+", text)]


def _tuple(text: str) -> list[str]:
    expect(text.startswith("(") and text.endswith(")"), f"malformed vector {text!r}")
    return [t.strip() for t in text[1:-1].split(",")]


def _solution(tokens: list[str]) -> list[Scalar]:
    return [None if t == "unbounded" else parse_token(t) for t in tokens]


def _coverage_lines(lines: list[str], m: int) -> list[set[int]]:
    start = lines.index("coverage (column minima per row):") + 1
    cov = []
    for i in range(m):
        head, _, rest = lines[start + i].strip().partition(": ")
        expect(head == f"row {i + 1}", f"coverage line {i + 1} is {lines[start + i]!r}")
        cov.append(set() if rest == "-" else {j - 1 for j in _ints(rest)})
    return cov


# --- per-command checks -----------------------------------------------------


def _check_solve_answer(s: System, status, x_star, y_star, witness, coverage, exit_code) -> None:
    expect(status == ("solvable" if s.solvable else "unsolvable"), f"status {status!r}, checker solvable={s.solvable}")
    expect(exit_code == (0 if s.solvable else 1), f"exit code {exit_code} for solvable={s.solvable}")
    expect(coverage == s.tight, "coverage differs from the tight residuals")
    if s.solvable:
        expect(x_star == s.x, "X* differs from min_i (b_i - a_ij)")
        expect(y_star == s.y, "Y* differs from the shifted principal solution")
    else:
        expect(witness == [i + 1 for i in s.witness], f"witness rows {witness}, expected uncovered {[i + 1 for i in s.witness]}")


def check_solve(s: System, out: str, exit_code: int, flags) -> None:
    if "--json" in flags:
        doc = json.loads(out)
        p = doc["payload"]
        expect(doc["exit_code"] == exit_code, "JSON exit_code differs from the process exit code")
        _check_solve_answer(
            s,
            p["status"],
            _solution(p["x_star"]) if p["x_star"] is not None else None,
            [parse_token(t) for t in p["y_star"]] if p["y_star"] is not None else None,
            p["witness_rows"],
            [{j - 1 for j in cols} for cols in p["coverage"]],
            exit_code,
        )
        return
    lines = out.splitlines()
    status = _field(lines, "status: ")
    solvable = status == "solvable"
    _check_solve_answer(
        s,
        status,
        _solution(_tuple(_field(lines, "X* = "))) if solvable else None,
        [parse_token(t) for t in _tuple(_field(lines, "Y* = "))] if solvable else None,
        None if solvable else _ints(_field(lines, "witness rows (no column minimum): ")),
        _coverage_lines(lines, s.m),
        exit_code,
    )
    if "--check" in flags:
        expect(_field(lines, "oracle check: ") == "agrees", "oracle check does not agree")
        expect(_field(lines, "  verifies: ").split(",")[0] == str(s.solvable), "oracle verify line is wrong")


def check_dof(s: System, out: str, exit_code: int) -> None:
    lines = out.splitlines()
    if not s.solvable:
        expect(exit_code == 1, f"dof exit code {exit_code} on an unsolvable system")
        expect(lines[0] == "status: unsolvable (degrees of freedom undefined)", "dof status line is wrong")
        expect(_ints(_field(lines, "witness rows: ")) == [i + 1 for i in s.witness], "dof witness rows differ")
        return
    expect(exit_code == 0, f"dof exit code {exit_code} on a solvable system")
    d = int(_field(lines, "degrees of freedom: "))
    leading = [j - 1 for j in _ints(_field(lines, "leading variables: "))]
    free_text = _field(lines, "free variables: ")
    free = [] if free_text == "-" else [j - 1 for j in _ints(free_text)]
    expect(sorted(leading + free) == list(range(s.n)), "leading and free variables do not partition the columns")
    expect(d == len(free) == s.n - len(leading), "degrees of freedom differ from n - |leading|")
    expect(all(cov & set(leading) for cov in s.tight), "some row is covered by no leading variable")


def check_normalize(s: System, out: str, exit_code: int) -> None:
    expect(exit_code == 0, f"normalize exit code {exit_code}")
    lines = out.splitlines()
    expect([Fraction(t) for t in _field(lines, "column means: ").split()] == s.means, "column means differ")
    expect(Fraction(_field(lines, "b mean: ")) == s.b_mean, "b mean differs")
    expect([parse_token(t) for t in _field(lines, "column minima: ").split()] == s.y, "column minima differ")
    start = lines.index("Q (column minima boxed):") + 1
    q = [line.split() for line in lines[start:start + s.m]]
    # q_ij = (b_i - a_ij) + shift_j with shift_j = mean_j - b_mean; a printed
    # t/u equals res_ij/d + p/r exactly when t * d * r == u * (res_ij * r + p * d)
    shifts = [mu - s.b_mean for mu in s.means]
    lhs = [s.d * sh.denominator for sh in shifts]
    for i, row in enumerate(q):
        expect(len(row) == s.n, f"Q row {i + 1} has {len(row)} entries")
        for j, cell in enumerate(row):
            boxed = cell.startswith("[")
            expect(boxed == (j in s.tight[i]), f"Q[{i + 1},{j + 1}] boxing is wrong")
            value = cell.strip("[]")
            r = s.res[i][j]
            if r is None:
                expect(value == "+inf-", f"Q[{i + 1},{j + 1}] should be the top sentinel")
                continue
            num, _, den = value.partition("/")
            t, u = int(num), int(den) if den else 1
            sh = shifts[j]
            expect(t * lhs[j] == u * (r * sh.denominator + sh.numerator * s.d), f"Q[{i + 1},{j + 1}] differs")


_DEP = re.compile(r"dependent (column|row) (\d+) = (.*)")
_TERM = re.compile(r"(?:column|row) (\d+) \+ ([^,\s)]+)")


def check_rank(a, out: str, exit_code: int, command: str) -> None:
    """Dependences reproduce their vectors; independents span none of each other."""
    expect(exit_code == 0, f"{command} exit code {exit_code}")
    vecs = transpose(a) if command == "colrank" else [list(r) for r in a]
    unit = "column" if command == "colrank" else "row"
    lines = out.splitlines()
    rank = int(_field(lines, f"{command}: "))
    indep = [k - 1 for k in _ints(_field(lines, f"independent {unit}s: "))]
    expect(rank == len(indep) == len(set(indep)), "rank differs from the independent count")
    deps = {}
    for line in lines:
        hit = _DEP.fullmatch(line)
        if not hit:
            continue
        coeffs: list[Scalar] = [None] * len(vecs)
        if hit.group(3) != "all -inf (empty combination)":
            for k, c in _TERM.findall(hit.group(3)):
                expect(int(k) - 1 in indep, f"dependence on non-independent {unit} {k}")
                coeffs[int(k) - 1] = Fraction(c)
        deps[int(hit.group(2)) - 1] = coeffs
    expect(sorted(indep + list(deps)) == list(range(len(vecs))), f"{unit}s are not split into independent and dependent")
    for k, coeffs in deps.items():
        expect(max_combination(vecs, coeffs) == vecs[k], f"dependence of {unit} {k + 1} does not reproduce it")
    for k in indep:
        others = [vecs[c] for c in indep if c != k]
        expect(not spanned(others, vecs[k]), f"independent {unit} {k + 1} is spanned by the others")


def _coeff_lines(lines: list[str], prefix: str) -> dict[int, list[Scalar]]:
    out = {}
    for line in lines:
        if line.startswith(prefix):
            head, _, rest = line[len(prefix):].partition(": ")
            out[int(head) - 1] = [parse_token(t) for t in rest.split()]
    return out


def check_reduce(s: System, out: str, exit_code: int) -> None:
    lines = out.splitlines()
    status = _field(lines, "status: ")
    expect(status == ("solvable" if s.solvable else "unsolvable"), f"reduce status {status!r}, checker solvable={s.solvable}")
    expect(exit_code == (0 if s.solvable else 1), f"reduce exit code {exit_code} for solvable={s.solvable}")
    rows = [i - 1 for i in _ints(_field(lines, "independent rows: "))]
    cols = [j - 1 for j in _ints(_field(lines, "independent columns: "))]
    a_cols = transpose(s.a)
    eta = _coeff_lines(lines, "eta for column ")
    xi = _coeff_lines(lines, "xi for row ")
    expect(sorted(cols + list(eta)) == list(range(s.n)), "columns are not split into independent and eta")
    expect(sorted(rows + list(xi)) == list(range(s.m)), "rows are not split into independent and xi")
    for j, coeffs in eta.items():
        expect(max_combination([a_cols[c] for c in cols], coeffs) == a_cols[j], f"eta for column {j + 1} does not reproduce it")
    for i, coeffs in xi.items():
        expect(max_combination([s.a[r] for r in rows], coeffs) == s.a[i], f"xi for row {i + 1} does not reproduce it")
    for j in cols:
        expect(not spanned([a_cols[c] for c in cols if c != j], a_cols[j]), f"independent column {j + 1} is spanned")
    for i in rows:
        expect(not spanned([s.a[r] for r in rows if r != i], s.a[i]), f"independent row {i + 1} is spanned")
    consistency = {}
    for line in lines:
        hit = re.fullmatch(r"row (\d+) consistency: (ok|VIOLATED)", line)
        if hit:
            consistency[int(hit.group(1)) - 1] = hit.group(2) == "ok"
    expect(set(consistency) == set(xi), "consistency lines do not match the dependent rows")
    for i, coeffs in xi.items():
        rhs = max_combination([[s.b[r]] for r in rows], coeffs)[0]
        expect(consistency[i] == (rhs == s.b[i]), f"row {i + 1} consistency verdict is wrong")
    if s.solvable:
        expect(all(consistency.values()), "a solvable system has an inconsistent row")


def check_call(command: str, flags, a, system: System | None, out: str, exit_code: int | None) -> str | None:
    """Judge one report; returns None when correct, else the reason it is not.

    `system` is the checker's answer for A x = b, needed by every command
    that reads a right-hand side.
    """
    try:
        if command in ("colrank", "rowrank"):
            check_rank(a, out, exit_code, command)
        elif command == "solve":
            check_solve(system, out, exit_code, flags)
        elif command == "dof":
            check_dof(system, out, exit_code)
        elif command == "normalize":
            check_normalize(system, out, exit_code)
        elif command == "reduce":
            check_reduce(system, out, exit_code)
        else:
            raise Mismatch(f"no check for command {command!r}")
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    return None
