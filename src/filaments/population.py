"""Ensembles of independently evolving filaments with periodic accretion.

A population is m filaments that never interact: each one starts uniformly
random at length n0, steps synchronously every tick, and every
``growth_interval`` ticks gains one uniformly random cell at its right end.
All filaments grow on the same tick, so the population shares a single
current length.

Each filament owns an RNG stream seeded by (master seed, filament index),
so filament i's entire history is a pure function of (seed, i). Runs are
reproducible and prefix-stable: shrinking m keeps the surviving filaments'
trajectories bit-identical.

Two liveness metrics are supported per tick. "activity" marks a filament
live when the tick's synchronous step changed at least one cell, which
needs no knowledge of the rule. "classification" applies the rule's
closed-form liveness predictor to the end-of-tick state and is only
available for rules that have one (``analysis.liveness_of``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .analysis import liveness_of
from .core import Rule
# The bench tracer wraps population.step_array, which nothing here calls any more.
from .engine import _Kernel, _uint8_cells, step_array  # noqa: F401

__all__ = [
    "PopulationConfig",
    "PopulationRun",
    "PopulationStats",
    "TurnoverReport",
    "mean_activity_around_growth",
    "run_population",
    "turnover_report",
    "write_per_filament_csv",
    "write_population_csv",
]

_LIVE_METRICS = ("activity", "classification")

# Growth cells drawn per filament at a time; a block holds m * _GROWTH_BLOCK bytes.
_GROWTH_BLOCK = 64


@dataclass(frozen=True)
class PopulationConfig:
    """Parameters of a population run.

    ``growth_interval`` of None picks the rule's default pacing, known by
    content: one new cell per 6*n0 ticks for automaton-i and per 2*n0 ticks
    for automaton-ii; other rules must state an interval. With
    ``growth_rescale`` the wait before the next growth event is
    re-proportioned to the current length after each event, instead of
    staying fixed.
    """

    rule: Rule
    m: int
    total_ticks: int
    seed: int
    n0: int = 20
    growth_interval: Optional[int] = None
    live_metric: str = "activity"
    growth_rescale: bool = False

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("population size must be at least 1")
        if self.n0 < 1:
            raise ValueError("initial length must be at least 1")
        if self.total_ticks < 0:
            raise ValueError("total_ticks must be non-negative")
        if self.growth_interval is not None and self.growth_interval < 1:
            raise ValueError("growth_interval must be at least 1")
        if self.live_metric not in _LIVE_METRICS:
            raise ValueError(f"live_metric must be one of {_LIVE_METRICS}")
        if self.live_metric == "classification" and liveness_of(self.rule) is None:
            raise ValueError(
                f"no liveness predictor is known for rule {self.rule.name!r}"
            )

    def resolved_growth_interval(self) -> int:
        if self.growth_interval is not None:
            return self.growth_interval
        liveness = liveness_of(self.rule)
        if liveness is None:
            raise ValueError(
                f"rule {self.rule.name!r} has no default growth interval; "
                "set growth_interval explicitly"
            )
        return liveness.sweeps * self.n0


@dataclass(frozen=True)
class PopulationStats:
    """Aggregates for one tick.

    ``live_count`` follows the configured metric; ``activity_count`` is
    always the number of filaments the synchronous step changed, recorded
    so growth disturbances stay visible even when liveness is judged by
    the classification predictor.
    """

    tick: int
    live_count: int
    live_fraction: float
    activity_count: int
    current_length: int
    grew_this_tick: bool


@dataclass(frozen=True, eq=False)
class PopulationRun:
    """Everything a finished run produced.

    ``per_filament_live`` has one row per tick and one column per
    filament; ``stats`` aggregates the same rows. ``final_states`` is the
    (m, final length) cell array after the last tick.
    """

    config: PopulationConfig
    stats: tuple[PopulationStats, ...]
    per_filament_live: np.ndarray
    final_states: np.ndarray

    def live_fractions(self) -> np.ndarray:
        return np.array([s.live_fraction for s in self.stats])

    def activity_counts(self) -> np.ndarray:
        return np.array([s.activity_count for s in self.stats])

    def growth_ticks(self) -> tuple[int, ...]:
        return tuple(s.tick for s in self.stats if s.grew_this_tick)


def run_population(
    config: PopulationConfig,
    initial_states: Optional[np.ndarray] = None,
) -> PopulationRun:
    """Run a population to completion.

    ``initial_states`` (m, n0) overrides the random initial draw; the
    seed still governs growth cells. Each tick steps every filament
    synchronously, then appends growth cells if the interval elapsed, then
    records liveness.
    """
    rule = config.rule
    s = rule.num_states
    m = config.m
    rngs = [np.random.default_rng((config.seed, i)) for i in range(m)]
    if initial_states is None:
        states = np.stack(
            [rngs[i].integers(0, s, size=config.n0, dtype=np.uint8) for i in range(m)]
        )
    else:
        states = _uint8_cells(initial_states, s)
        if states.shape != (m, config.n0):
            raise ValueError(f"initial_states must have shape ({m}, {config.n0})")
    kernel = _Kernel(rule, m, config.n0)
    kernel.cells[...] = states.T
    growth_columns = _growth_columns(rngs, s)

    predict = liveness_of(rule).predict if config.live_metric == "classification" else None
    base_interval = config.resolved_growth_interval()
    current_interval = base_interval
    ticks_since_growth = 0
    live_rows = np.zeros((config.total_ticks, m), dtype=bool)
    stats = []
    for tick in range(1, config.total_ticks + 1):
        # Cell-major, one column per filament (see engine._Kernel).
        cells = kernel.cells
        stepped = kernel.step()
        activity = (stepped != cells).any(axis=0)
        cells[...] = stepped
        ticks_since_growth += 1
        grew = ticks_since_growth >= current_interval
        if grew:
            ticks_since_growth = 0
            n = len(cells) + 1
            kernel = _Kernel(rule, m, n)
            kernel.cells[:-1] = cells
            kernel.cells[-1] = next(growth_columns)
            if config.growth_rescale:
                current_interval = max(1, (base_interval * n) // config.n0)
        states = kernel.cells.T
        live = activity if predict is None else predict(states)
        live_rows[tick - 1] = live
        live_count = int(np.count_nonzero(live))
        stats.append(
            PopulationStats(
                tick=tick,
                live_count=live_count,
                live_fraction=live_count / m,
                activity_count=int(np.count_nonzero(activity)),
                current_length=states.shape[1],
                grew_this_tick=grew,
            )
        )
    return PopulationRun(
        config=config,
        stats=tuple(stats),
        per_filament_live=live_rows,
        final_states=kernel.cells.T.copy(),
    )


def _growth_columns(rngs: list[np.random.Generator], s: int):
    """Each growth event's new cells, one per filament, drawn ``_GROWTH_BLOCK`` events at a time.

    ``rng.integers(0, s, size=B)`` yields the values of B scalar ``rng.integers(0, s)``
    draws: NumPy's bounded 32-bit path reads the generator with no per-call
    buffer. So a filament's growth cells are the same whatever the block size.
    """
    while True:
        block = np.stack([rng.integers(0, s, size=_GROWTH_BLOCK) for rng in rngs], axis=1)
        yield from block.astype(np.uint8)


@dataclass(frozen=True)
class TurnoverReport:
    """Membership churn of the live set across consecutive tick windows.

    A filament belongs to a window's live set if it was live on any tick
    in the window. ``symmetric_differences[k]`` counts filaments in
    exactly one of windows k and k+1, so persistent zero means a frozen
    live set and persistent positives mean churn.
    """

    window: int
    live_set_sizes: tuple[int, ...]
    symmetric_differences: tuple[int, ...]
    ever_live_fraction: float

    def report(self) -> str:
        lines = [
            f"window: {self.window}",
            f"live_set_sizes: {' '.join(map(str, self.live_set_sizes))}",
            f"symmetric_differences: {' '.join(map(str, self.symmetric_differences))}",
            f"ever_live_fraction: {self.ever_live_fraction:.4f}",
        ]
        return "\n".join(lines) + "\n"


def turnover_report(run: PopulationRun, window: int) -> TurnoverReport:
    if window < 1:
        raise ValueError("window must be at least 1")
    ticks = run.per_filament_live.shape[0]
    count = ticks // window
    if count < 1:
        raise ValueError("run is shorter than a single window")
    live_sets = [
        run.per_filament_live[w * window : (w + 1) * window].any(axis=0)
        for w in range(count)
    ]
    diffs = tuple(
        int((live_sets[w] != live_sets[w + 1]).sum()) for w in range(count - 1)
    )
    return TurnoverReport(
        window=window,
        live_set_sizes=tuple(int(ls.sum()) for ls in live_sets),
        symmetric_differences=diffs,
        ever_live_fraction=float(run.per_filament_live.any(axis=0).mean()),
    )


def mean_activity_around_growth(
    run: PopulationRun, width: int = 3
) -> tuple[float, float]:
    """Mean activity counts in the ticks before and after growth events.

    For each growth event at tick g with full windows on both sides, the
    before window is ticks g-width+1..g (stepped before the new cell
    existed) and the after window is g+1..g+width. Returns the two means
    aggregated over all such events. Uses the always-recorded activity
    counts, so it works under either live metric.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    counts = run.activity_counts().astype(np.float64)
    before_vals = []
    after_vals = []
    for g in run.growth_ticks():
        lo = g - width
        hi = g + width
        if lo < 0 or hi > len(counts):
            continue
        before_vals.append(counts[lo:g].mean())
        after_vals.append(counts[g : g + width].mean())
    if not before_vals:
        raise ValueError("no growth event has full windows on both sides")
    return float(np.mean(before_vals)), float(np.mean(after_vals))


def write_population_csv(run: PopulationRun, fp: IO[str]) -> None:
    """Per-tick aggregate rows."""
    writer = csv.writer(fp)
    writer.writerow(
        ["tick", "population_size", "filament_length", "live_count", "live_fraction", "grew"]
    )
    m = run.config.m
    for s in run.stats:
        writer.writerow(
            [s.tick, m, s.current_length, s.live_count, f"{s.live_fraction:.6f}", int(s.grew_this_tick)]
        )


def write_per_filament_csv(run: PopulationRun, fp: IO[str]) -> None:
    """One row per (tick, filament) with that filament's liveness bit."""
    writer = csv.writer(fp)
    writer.writerow(["tick", "filament_id", "live"])
    for s in run.stats:
        row = run.per_filament_live[s.tick - 1]
        for i in range(run.config.m):
            writer.writerow([s.tick, i, int(row[i])])
