"""Spans and counters around the calls into each ``filaments`` module.

The tracer wraps public functions at the module attribute each caller
reaches them through (``analysis.census`` calls
``analysis.classify_functional_graph``, ``detect_cycle`` calls
``engine.step_array``, ``run_population`` calls ``population.step_array``,
and so on), so nothing under ``src/`` changes. ``restore`` puts every
original back. Spans stay in memory as ``(name, start, end, parent,
run_id)`` tuples until the run writes them out.

With ``memory=True`` the wrappers of the names in ``MEMORY_SPANS`` also
read ``tracemalloc``'s peak over their call, relative to the traced memory
at entry. Those spans never nest inside one another, so resetting the
peak at entry loses nothing. Memory passes are separate from timed
passes, because ``tracemalloc`` slows every allocation.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Any, Callable, NamedTuple, Optional

Counts = Callable[[tuple, dict, Any], dict]

MEMORY_SPANS = ("engine.successor_array", "engine.detect_cycle")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    run_id: str


def _search_counts(args, kwargs, verdict) -> dict:
    import numpy as np
    from filaments.search import fingerprint16

    from workloads import scan_work

    lengths = verdict.lengths
    key = f"fingerprint_states.n{lengths[0]}" if len(lengths) == 1 else "fingerprint_states"
    indices = np.array([w.rule_index for w in verdict.witnesses], dtype=np.uint32)
    return {
        key: scan_work(verdict),
        "fingerprints": verdict.fingerprints_simulated,
        "type_a_fingerprints": len(np.unique(fingerprint16(indices))),
        "witnesses": len(verdict.witnesses),
    }


def targets() -> list[tuple[Any, str, str, Optional[Counts]]]:
    """``(module, attribute, span name, counter)`` for every wrapped call."""
    from filaments import analysis, engine, population, rules, search

    from workloads import trajectory_steps

    rows = lambda a, k, r: {"rows": len(r)}  # noqa: E731
    return [
        (rules, "rule_named", "rules.rule_named", None),
        (analysis, "census", "analysis.census", lambda a, k, r: {"states": r.total}),
        (analysis, "successor_array", "engine.successor_array", lambda a, k, r: {"states": len(r)}),
        (analysis, "classify_functional_graph", "engine.classify_functional_graph",
         lambda a, k, r: {"nodes": len(r[1])}),
        (analysis, "all_states_matrix", "engine.all_states_matrix", None),
        (engine, "all_states_matrix", "engine.all_states_matrix", None),
        (search, "all_states_matrix", "engine.all_states_matrix", None),
        (engine, "step_array", "engine.step_array", rows),
        (population, "step_array", "engine.step_array", rows),
        (engine, "detect_cycle", "engine.detect_cycle", lambda a, k, r: {"steps": trajectory_steps(r)}),
        (population, "run_population", "population.run_population",
         lambda a, k, r: {"ticks": a[0].total_ticks, "filament_steps": a[0].m * a[0].total_ticks}),
        (search, "search_type_a", "search.search_type_a", _search_counts),
        (search, "hunt_viable_3state", "search.hunt_viable_3state",
         lambda a, k, r: {
             "candidates_total": r.candidates_total,
             "candidates_interesting": r.candidates_interesting,
             "viable": len(r.viable),
         }),
    ]


class Tracer:
    """Install wrappers, record spans and counts, and put the originals back."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for module, attr, name, count in targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def span(self, name: str, fn: Callable):
        """Call ``fn()`` inside a span of its own, for a call no wrapper sees."""
        return self._wrap(name, fn, None)()

    def _wrap(self, name: str, fn: Callable, count: Optional[Counts]) -> Callable:
        measure_memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id))
            self._stack.append(index)
            if measure_memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run_id)
            if measure_memory:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peak_mb[name] = max(self.peak_mb[name], peak)
            counts = self.counts[self.run_id]
            counts[f"{name}.calls"] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def times(self) -> dict[str, dict[str, list[float]]]:
        """``[total, self]`` seconds per span name, per run id.

        A span's self time is its duration minus that of its direct
        children; calls are synchronous, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        times: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0])
        )
        for span, children in zip(self.spans, child_time):
            total = times[span.run_id][span.name]
            total[0] += span.end - span.start
            total[1] += span.end - span.start - children
        return times
