"""Outside-in span tracer for the benchmark's traced run.

Each span `<module>.<function>` wraps the function that `tropsolve.<module>`
defines, and installs the wrapper under every name a caller looks it up
by: the defining module's own global (so `rowrank -> colrank` is seen) and
every `from .x import f` copy in the other tropsolve modules, such as
`tropsolve.solver.normalize` or `tropsolve.rank.solve`. Nothing inside the
program changes. A span whose function is missing, or is no longer
defined in the named module, is reported as absent and records nothing.

Self time is a span's duration minus the time of the spans it called.
The end-to-end runs never install the tracer.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "tropsolve"

SPANS = (
    "cli.main",
    "matrix.parse_matrix",
    "matrix.parse_vector",
    "matrix.mat_vec",
    "matrix.transpose",
    "solver.solve",
    "solver.preprocess",
    "solver.verify",
    "normalize.normalize",
    "normalize.column_minima",
    "freedom.degrees_of_freedom",
    "rank.colrank",
    "rank.rowrank",
    "reduce.reduce_system",
    "reduce.dof_via_reduction",
    "oracle.principal_solution",
    "cli.render_text",
    "cli.render_json",
)


def _cells(args) -> int:
    return args[0].rows * args[0].cols


# work counters: name -> (span, amount per call)
WORK = {
    "matrix.parse_matrix.bytes": ("matrix.parse_matrix", lambda args: len(args[0].encode())),
    "normalize.normalize.cells": ("normalize.normalize", _cells),
    "solver.solve.cells": ("solver.solve", _cells),
}
# nested counters: name -> (outer span, inner span); counts inner calls made inside outer
NESTED = {"rank.colrank.solve_calls": ("rank.colrank", "solver.solve")}


class Tracer:
    def __init__(self, spans: tuple[str, ...] = SPANS) -> None:
        self.spans = spans
        self.calls = dict.fromkeys(spans, 0)
        self.self_ns = dict.fromkeys(spans, 0)
        self.counts = dict.fromkeys(list(WORK) + list(NESTED), 0)
        self.absent: list[str] = []
        self._active = dict.fromkeys(spans, 0)  # open spans per name
        self._stack: list[list[int]] = []  # child time of each open span
        self._wrappers: dict[str, tuple[object, object]] = {}  # span -> (original, wrapper)
        self._patched: list[tuple[object, str, object]] = []
        self._resolve()

    def _resolve(self) -> None:
        __import__(f"{PACKAGE}.cli")  # loads every module the CLI can reach
        for span in self.spans:
            mod_name, fn_name = span.split(".")
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(module, fn_name, None)
            if not callable(fn) or getattr(fn, "__module__", None) != f"{PACKAGE}.{mod_name}":
                self.absent.append(span)
                continue
            self._wrappers[span] = (fn, self._wrap(span, fn))

    def _wrap(self, span: str, fn):
        work = [(name, amount) for name, (s, amount) in WORK.items() if s == span]
        nested = [(name, outer) for name, (outer, inner) in NESTED.items() if inner == span]
        calls, self_ns, counts, active, stack = self.calls, self.self_ns, self.counts, self._active, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for name, amount in work:
                try:
                    counts[name] += amount(args)
                except (AttributeError, IndexError, TypeError):
                    pass  # signature changed: the counter stays at what it saw
            for name, outer in nested:
                if active.get(outer):
                    counts[name] += 1
            children = [0]
            stack.append(children)
            active[span] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[span] -= 1
                stack.pop()
                calls[span] += 1
                self_ns[span] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def install(self) -> None:
        by_id = {id(fn): wrapper for fn, wrapper in self._wrappers.values()}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for span in self.spans:
            out[f"{span}.calls"] = (self.calls[span], "count")
            out[f"{span}.self_ms"] = (self.self_ns[span] / 1e6, "ms")
        for name, value in self.counts.items():
            out[name] = (value, "bytes" if name.endswith(".bytes") else "count")
        return out
