"""Layer-boundary tracing from outside the program.

``Tracer.install`` replaces the functions one ``bpskrx`` module calls in
another, at the module attributes the caller looks them up through, with
wrappers that time each call. The objectives handed to the searches in
``optimize`` are wrapped as well, as spans of the layer that built them.
``Tracer.restore`` puts every original back.

A single HFFRE point makes about a million boundary calls, so the tracer
aggregates in memory: per boundary it keeps the call count, the total
time and the self time (total minus the time of the spans nested in it).
Individual spans are kept only for the first SAMPLE_LIMIT calls of
each boundary. Every boundary is called positionally in ``bpskrx``, so
the wrappers take positional arguments only, which keeps them cheap.
"""

from __future__ import annotations

import time
from typing import Callable

# (module, attribute, boundary name): the calls made across layers.
ENTRY_POINTS = (
    ("cli", "evaluate_point", "cli.evaluate_point"),
    ("cli", "write_csv", "cli.write_csv"),
    ("feedforward", "dffre_error", "feedforward.dffre_error"),
    ("feedforward", "hffre_error", "feedforward.hffre_error"),
    ("feedforward", "hffre_error_at", "feedforward.hffre_error_at"),
    ("baselines", "hynore_error", "baselines.hynore_error"),
    ("montecarlo", "estimate_error", "montecarlo.estimate_error"),
)
# Kernels and searches, as seen from each module that calls them.
CALLERS = ("feedforward", "baselines")
KERNELS = (
    ("hl_difference_pmf", "photostatistics.hl_difference_pmf"),
    ("q_thresh", "photostatistics.q_thresh"),
)
SEARCHES = ("maximize_grid", "maximize_scalar", "scan_discrete")
SAMPLE_LIMIT = 32  # spans kept per boundary


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self) -> None:
        # boundary -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        # (request, boundary, parent boundary, start, end)
        self.samples: list[tuple] = []
        self.request = 0
        self._stack: list[list] = [[0.0, None]]  # [child seconds, boundary]
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, opens_request: bool = False) -> Callable:
        """Wrap ``fn`` as boundary ``name``; an outermost entry point starts a new request."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        samples = self.samples
        clock = time.perf_counter

        def traced(*args):
            if opens_request and len(stack) == 1:
                self.request += 1
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                parent = stack[-1]
                parent[0] += elapsed
                if stat[0] <= SAMPLE_LIMIT:
                    samples.append((self.request, name, parent[1], start, end))

        return traced

    def _search(self, caller: str, search: str, fn: Callable) -> Callable:
        objective_name = f"{caller}.{search}.objective"

        def with_traced_objective(f, *args):
            return fn(self.span(objective_name, f), *args)

        return self.span(f"optimize.{search}", with_traced_objective)

    def _patch(self, module, attr: str, replacement: Callable) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every boundary; ``modules`` maps short names to bpskrx modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in ENTRY_POINTS:
            module = modules[module_name]
            self._patch(module, attr, self.span(name, getattr(module, attr), opens_request=True))
        for caller in CALLERS:
            module = modules[caller]
            for attr, name in KERNELS:
                if hasattr(module, attr):
                    self._patch(module, attr, self.span(name, getattr(module, attr)))
            for search in SEARCHES:
                if hasattr(module, search):
                    self._patch(module, search, self._search(caller, search, getattr(module, search)))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_seconds(self, layer: str) -> float:
        """Self time of every boundary of one layer (an objective counts for the module that built it)."""
        return sum(s[2] for name, s in self.stats.items() if name.split(".", 1)[0] == layer)

    def objective_calls(self, search: str | None = None) -> int:
        """Objective evaluations made by the searches (all of them, or one kind)."""
        return sum(
            s[0] for name, s in self.stats.items()
            if name.endswith(".objective") and (search is None or f".{search}." in name)
        )
