"""Spans around the public calls of each orlicz layer, recorded from outside.

Wrappers are swapped into the library's module namespaces only while a
traced pass runs, so untraced passes execute the library unmodified.  Spans
nest through a stack: a span's self time is its duration minus the time its
child spans cover.  Only per-name aggregates are kept (calls, self time
and counters), which is all the per-layer metrics need and keeps memory
flat over the ~10^6 spans of a q-ladder run.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)

    def wrap(self, name, fn, on_result=None):
        """A wrapper for fn that records one span named `name` per call.

        on_result(tracer, args, result) may add counters after a call that
        returned.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - child[0]
            if on_result is not None:
                on_result(self, args, out)
            return out

        return traced

    def patch(self, name, owners, attribute, on_result=None):
        """Plan to replace `attribute` on every owner that holds the same
        object as the first owner (modules re-export functions by name)."""
        original = getattr(owners[0], attribute)
        wrapper = self.wrap(name, original, on_result)
        for owner in owners:
            if getattr(owner, attribute, None) is original:
                self._patches.append((owner, attribute, original, wrapper))

    def install(self):
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)


def library_tracer(orlicz) -> Tracer:
    """Tracer over the public calls named in the benchmark's layer table."""
    young, norm, limits, measure, cli = (
        orlicz.young, orlicz.norm, orlicz.limits, orlicz.measure, orlicz.cli,
    )

    def count_atoms(tracer, args, out):
        tracer.counts["young.value_array.atoms"] += out.size

    def count_iterations(tracer, args, out):
        tracer.counts["norm.iterations"] += out.iterations

    tr = Tracer()
    tr.patch("young.value_array", [young.YoungFunction], "value_array", count_atoms)
    tr.patch("young.inverse", [young.YoungFunction], "inverse")
    tr.patch("norm.modular", [norm, limits, orlicz], "modular")
    tr.patch(
        "norm.luxemburg_norm", [norm, limits, cli, orlicz], "luxemburg_norm",
        count_iterations,
    )
    tr.patch("limits.limit_sweep", [limits, cli, orlicz], "limit_sweep")
    tr.patch("measure.load_csv", [measure, cli, orlicz], "load_csv")
    return tr
