"""Spans around every public function of `hyperline`, recorded from outside.

`Tracer.find` finds each public function of each loaded `hyperline` module
and every binding site of it in those modules, by identity; `install`
replaces the function at all of them, and `uninstall` puts it back,
so that `from .matrices import signless_laplacian` inside `checks.py` is
wrapped too. Each call opens a span on a stack, under the span of its caller;
when it returns, its calls, its self time (the span's duration minus the time
its child spans cover) and the caller-to-callee call count are added to
running totals. A function that no longer exists simply reads 0 calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "hyperline"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # calls of a function made directly from another: (parent, child) -> n
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []
        # (module, attribute, original, wrapper) for every binding site
        self._sites: list[tuple] = []

    def find(self) -> None:
        """Wrap each public function of the loaded modules and find its binding
        sites."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(fn)] = (fn, self._wrap(fn, f"{short}.{attr}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._sites.append((mod, attr, value, hit[1]))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)

    def _wrap(self, fn, name: str):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # [name, time covered by child spans]
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    self.edges[(parent[0], name)] += 1

        return traced
