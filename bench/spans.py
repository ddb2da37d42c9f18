"""Spans around the program's public calls, recorded from outside it.

``Tracer`` replaces named functions of the ``alp`` modules with timing
wrappers while it is active and puts the originals back on exit.  A
function is replaced under every module name that binds it, so calls
made through ``from .syntax import normalize`` are seen as well as calls
through ``wfs.well_founded``.  A name that no module binds is skipped:
its span count then reads 0.

Spans are kept in memory as ``[name, parent index, start, end]`` lists
and written out by the caller when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (defining module, function name, span name)
TRACED_CALLS = [
    ("alp.parser", "parse_text", "parser.parse"),
    ("alp.ground", "apply_const_overrides", "ground.overrides"),
    ("alp.ground", "build_theory", "ground.build_theory"),
    ("alp.syntax", "normalize", "syntax.normalize"),
    ("alp.ground", "eval_declarations", "ground.declarations"),
    ("alp.ground", "base_model", "ground.base_model"),
    ("alp.ground", "abducible_universe", "ground.universe"),
    ("alp.ground", "ground", "ground.ground"),
    ("alp.solver", "solve", "solver.solve"),
    ("alp.solver", "check_delta", "solver.check_delta"),
    ("alp.wfs", "well_founded", "wfs.well_founded"),
]


class Tracer:
    """Context manager that records a span per traced call."""

    def __init__(self):
        self.spans: list[list] = []
        self.wfs_rounds = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, 0.0, 0.0])
        self._stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "wfs.well_founded":
                tracer.wfs_rounds += result[1].rounds
            return result

        return traced

    def __enter__(self):
        alp_modules = [m for k, m in list(sys.modules.items()) if k == "alp" or k.startswith("alp.")]
        for module_name, attr, name in TRACED_CALLS:
            func = getattr(sys.modules.get(module_name), attr, None)
            if func is None:
                continue
            wrapper = self._wrap(func, name)
            for module in alp_modules:
                if getattr(module, attr, None) is func:
                    self._restore.append((module, attr, func))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, func in reversed(self._restore):
            setattr(module, attr, func)
        self._restore.clear()
        return False

    def total(self, name: str) -> float:
        return sum(end - start for n, _p, start, end in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

