"""Filament evolution and trajectory classification.

Every filament updates synchronously: each cell reads its neighborhood,
consults the rule once, and all cells switch together. Because a filament
has finitely many states, every trajectory eventually enters a cycle; the
classifier distinguishes settling to a fixed point, entering a longer
cycle, and not resolving within a step budget.

Cycles are further described by how many cells change per step. A cycle
where every cell changes on every step is the busiest kind; a cycle where
at most a small number of cells change per step (small relative to the
filament length) moves sparse activity around an otherwise static
background. ``wave_type_of`` names these "B" and "A", with everything in
between reported as "mixed".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Filament, Rule

__all__ = [
    "Trace",
    "TrajectoryReport",
    "WaveType",
    "all_states_matrix",
    "classify_functional_graph",
    "count_steps",
    "default_horizon",
    "detect_cycle",
    "hamming",
    "run_trace",
    "state_ids",
    "step",
    "step_array",
    "successor_array",
    "wave_type_of",
]


def step(rule: Rule, filament: Filament) -> Filament:
    """One synchronous update of every cell."""
    return Filament(tuple(int(v) for v in step_array(rule, np.array([filament.cells]))[0]))


def step_array(rule: Rule, states: np.ndarray) -> np.ndarray:
    """One synchronous update of a batch of filaments.

    ``states`` has shape ``(batch, n)`` with integer cell states; the result
    has the same shape and dtype uint8. All rows must share one length, and
    the rule's compiled lookup table does the per-cell work, so this is the
    fast path every higher-level routine funnels through.
    """
    states = np.asarray(states)
    if states.ndim != 2:
        raise ValueError(f"expected a (batch, n) array, got shape {states.shape}")
    batch, n = states.shape
    if n < 1:
        raise ValueError("filaments need at least one cell")
    s = rule.num_states
    r = rule.radius
    # Pad both ends with the EMPTY code, then take sliding windows.
    padded = np.full((batch, n + 2 * r), s, dtype=np.uint8)
    padded[:, r : r + n] = states
    table = rule.lookup_table
    # Index order: current, left outermost..innermost, right innermost..outermost.
    idx = (states,)
    for d in range(r, 0, -1):
        idx += (padded[:, r - d : r - d + n],)
    for d in range(1, r + 1):
        idx += (padded[:, r + d : r + d + n],)
    return table[idx]


@dataclass(frozen=True)
class Trace:
    """A run of consecutive configurations, oldest first."""

    rule_name: str
    states: tuple[Filament, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, index):
        return self.states[index]


def run_trace(rule: Rule, initial: Filament, steps: int) -> Trace:
    """Evolve ``initial`` for ``steps`` updates, keeping every configuration."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    states = [initial]
    row = np.array([initial.cells], dtype=np.uint8)
    for _ in range(steps):
        row = step_array(rule, row)
        states.append(Filament(tuple(int(v) for v in row[0])))
    return Trace(rule.name, tuple(states))


def hamming(a: Filament, b: Filament) -> int:
    """How many cell positions differ between two same-length filaments."""
    if len(a) != len(b):
        raise ValueError("filaments must have equal length")
    return sum(1 for x, y in zip(a.cells, b.cells) if x != y)


def count_steps(filament: Filament) -> int:
    """Number of adjacent cell pairs holding different states."""
    return sum(1 for x, y in zip(filament.cells, filament.cells[1:]) if x != y)


def default_horizon(n: int) -> int:
    """Step budget scaled to filament length."""
    return 50 * n + 100


@dataclass(frozen=True)
class WaveType:
    """Shape of activity within a cycle.

    ``kind`` is "B" when every cell changes on every step of the cycle,
    "A" when each step changes at most ``k_max`` cells and that bound is
    both within the configured threshold and smaller than the filament
    length, and "mixed" otherwise. ``k_max`` is the largest per-step count
    of changed cells observed in the cycle either way.
    """

    kind: str
    k_max: int


def wave_type_of(cycle_states: tuple[Filament, ...], k_a: int = 2) -> WaveType:
    """Classify the activity pattern of one full cycle.

    ``cycle_states`` lists the configurations of the cycle in order; the
    step from the last back to the first is included. ``k_a`` is the
    largest per-step change count still considered sparse.
    """
    if not cycle_states:
        raise ValueError("cycle must contain at least one state")
    n = len(cycle_states[0])
    diffs = [
        hamming(cycle_states[i], cycle_states[(i + 1) % len(cycle_states)])
        for i in range(len(cycle_states))
    ]
    k_max = max(diffs)
    if min(diffs) == n:
        return WaveType("B", k_max)
    if k_max <= k_a and k_a < n:
        return WaveType("A", k_max)
    return WaveType("mixed", k_max)


@dataclass(frozen=True)
class TrajectoryReport:
    """Outcome of following one trajectory until it repeats or times out.

    ``outcome`` is "quiescent" (reached a fixed point), "cyclic" (entered a
    cycle of period two or more), or "unresolved" (no repeat within the
    horizon). ``transient`` counts the steps before the first state of the
    cycle; for quiescent runs ``settle_time`` equals the transient and the
    period is 1. ``wave`` is set only for cyclic runs.
    """

    outcome: str
    transient: Optional[int]
    period: Optional[int]
    wave: Optional[WaveType]
    settle_time: Optional[int]
    horizon: int
    max_cells_changed: Optional[int]


def detect_cycle(
    rule: Rule,
    initial: Filament,
    horizon: Optional[int] = None,
    k_a: int = 2,
) -> TrajectoryReport:
    """Follow one trajectory until a state repeats or the horizon is hit.

    The first repeat pins down the transient (steps before the cycle) and
    the period exactly, since the dynamics are deterministic.
    """
    if horizon is None:
        horizon = default_horizon(len(initial))
    seen: dict[tuple[int, ...], int] = {initial.cells: 0}
    history = [initial]
    row = np.array([initial.cells], dtype=np.uint8)
    for t in range(1, horizon + 1):
        row = step_array(rule, row)
        cells = tuple(int(v) for v in row[0])
        if cells in seen:
            start = seen[cells]
            period = t - start
            cycle = tuple(history[start:])
            if period == 1:
                return TrajectoryReport(
                    outcome="quiescent",
                    transient=start,
                    period=1,
                    wave=None,
                    settle_time=start,
                    horizon=horizon,
                    max_cells_changed=0,
                )
            wave = wave_type_of(cycle, k_a=k_a)
            return TrajectoryReport(
                outcome="cyclic",
                transient=start,
                period=period,
                wave=wave,
                settle_time=None,
                horizon=horizon,
                max_cells_changed=wave.k_max,
            )
        seen[cells] = t
        history.append(Filament(cells))
    return TrajectoryReport(
        outcome="unresolved",
        transient=None,
        period=None,
        wave=None,
        settle_time=None,
        horizon=horizon,
        max_cells_changed=None,
    )


# -- whole-state-space helpers -----------------------------------------------


def all_states_matrix(num_states: int, n: int) -> np.ndarray:
    """Every length-``n`` filament as one row, in numeric order.

    Row ``i`` is the base-``num_states`` expansion of ``i``, most
    significant digit first, so the row index doubles as a state id.
    Column j holds each digit for a run of num_states**(n-1-j) rows, so each
    column is written in place through a broadcast view of the uint8 result.
    """
    matrix = np.empty((num_states**n, n), dtype=np.uint8)
    digits = np.arange(num_states, dtype=np.uint8)[:, None]
    for j in range(n):
        matrix.reshape(num_states**j, num_states, num_states ** (n - 1 - j), n)[..., j] = digits
    return matrix


def state_ids(states: np.ndarray, num_states: int) -> np.ndarray:
    """The state id (base-``num_states`` value) of every row of a state matrix."""
    ids = np.zeros(len(states), dtype=np.int64)
    for column in states.T:
        ids *= num_states
        ids += column
    return ids


def successor_array(rule: Rule, n: int) -> np.ndarray:
    """State id of the successor of every length-``n`` filament."""
    return state_ids(step_array(rule, all_states_matrix(rule.num_states, n)), rule.num_states)


def classify_functional_graph(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transient length and eventual period for every node at once.

    ``succ`` maps each of the N node ids to its unique successor. Pointer jumping
    (Wyllie 1979), O(N log N): after ceil(log2 N) rounds of ``jump = jump[jump]`` the
    image of ``jump`` is exactly the cycle nodes, a running minimum in those rounds labels
    each cycle by its smallest node, and a second pass sums "off a cycle" into transients.
    """
    total = len(succ)
    rounds = max(total - 1, 0).bit_length()
    jump = succ = np.asarray(succ, dtype=np.int64)
    label = np.arange(total, dtype=np.int64)
    for _ in range(rounds):
        np.minimum(label, label[jump], out=label)
        jump = jump[jump]
    transient = np.ones(total, dtype=np.int64)  # 1 off a cycle, summed along walks below
    transient[jump] = 0
    period = np.bincount(label[transient == 0], minlength=total)[label[jump]]
    hop = succ
    for _ in range(rounds):
        transient += transient[hop]
        hop = hop[hop]
    return transient, period
