"""Closed-form predictors, exhaustive censuses, and growth transition matrices.

The two catalogue three-state rules admit exact liveness predictors: a
filament under ``automaton_i`` ends up perpetually cycling exactly when its
initial state contains an odd number of steps (adjacent unequal pairs), and
one under ``automaton_ii`` exactly when it has a 0 at one end but not the
other. ``census`` brute-forces every length-n filament and checks the
matching predictor against the simulated outcome, which turns both claims
into machine-checked facts at desk scale. ``predictor="auto"`` picks the
array predictor by rule content (the compiled lookup table), not by name.

Growth arithmetic is exact: transition matrices for single-cell accretion
are built from ``fractions.Fraction`` so stationarity checks are identities
rather than tolerances, and ``measure_accretion_matrix`` reproduces matrix
entries by exhaustive counting instead of sampling.

Known edge case: the end-zero predictor is wrong at length 2. The one-end-
zero states of length 2 are fixed points ([01] has no matching transition
for either cell), so the census reports 4 mismatches at n=2 and 0
everywhere else. The predictor's promise holds from n=3 up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import Filament, Rule
from .engine import (  # noqa: F401 -- the bench tracer wraps analysis.successor_array
    all_states_matrix,
    classify_functional_graph,
    default_horizon,
    state_ids,
    step_array,
    successor_array,
)
from .rules import automaton_i, automaton_ii

__all__ = [
    "Census",
    "CensusBudgetError",
    "GrowthMatrix",
    "Liveness",
    "census",
    "count_accretions",
    "end_zero_class",
    "end_zero_class_array",
    "growth_transition_matrix",
    "liveness_of",
    "measure_accretion_matrix",
    "parity_class_array",
    "parity_counts",
    "predict_automaton_i",
    "predict_automaton_ii",
]


def _odd_steps(states: np.ndarray) -> np.ndarray:
    """Rows of ``states`` with an odd number of adjacent unequal pairs."""
    return np.logical_xor.reduce(np.diff(states, axis=1) != 0, axis=1)


def _one_end_zero(states: np.ndarray) -> np.ndarray:
    """Rows of ``states`` with a 0 at exactly one end."""
    return (states[:, 0] == 0) != (states[:, -1] == 0)


def predict_automaton_i(filament: Filament) -> bool:
    """Liveness predictor for automaton_i: live iff the step count is odd."""
    return bool(_odd_steps(np.array([filament.cells]))[0])


def predict_automaton_ii(filament: Filament) -> bool:
    """Liveness predictor for automaton_ii: live iff exactly one end cell is 0."""
    return bool(_one_end_zero(np.array([filament.cells]))[0])


class Liveness(NamedTuple):
    """A rule's closed-form liveness: ``predict`` maps an (S, n) state matrix to bool[S];
    ``sweeps`` counts the sweeps of its normal cycle, which paces population growth."""

    predict: Callable[[np.ndarray], np.ndarray]
    sweeps: int


@cache
def _catalogue_liveness() -> tuple[tuple[np.ndarray, Liveness], ...]:
    return (
        (automaton_i().lookup_table, Liveness(_odd_steps, 6)),
        (automaton_ii().lookup_table, Liveness(_one_end_zero, 2)),
    )


def liveness_of(rule: Rule) -> Optional[Liveness]:
    """The closed-form liveness of ``rule`` (None if it has none), found by
    the shape and contents of its compiled lookup table, never by its name."""
    for table, liveness in _catalogue_liveness():
        if np.array_equal(table, rule.lookup_table):
            return liveness
    return None


def parity_counts(n: int) -> tuple[int, int]:
    """Exact (odd, even) step-parity counts over all 3**n filaments."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n % 2 == 0:
        odd = (3**n + 3) // 2
    else:
        odd = (3**n - 3) // 2
    return odd, 3**n - odd


class CensusBudgetError(ValueError):
    """The state space is larger than the configured enumeration budget."""


@dataclass(frozen=True)
class Census:
    """Tallies from exhaustively classifying every length-n filament.

    ``live`` counts states whose trajectory enters a cycle of period two or
    more; ``quiescent`` counts states that settle to a fixed point;
    ``unresolved`` counts states whose first revisit lies beyond the
    horizon. ``max_settle_time`` is the largest transient over all states,
    the time to enter the eventual behavior. ``prediction_mismatches``
    counts states where the closed-form predictor and the simulation
    disagree; ``first_mismatch`` holds the lexicographically first one.
    """

    rule_name: str
    n: int
    total: int
    live: int
    quiescent: int
    unresolved: int
    max_settle_time: int
    prediction_mismatches: int
    first_mismatch: Optional[Filament]

    def report(self) -> str:
        lines = [
            f"rule: {self.rule_name}",
            f"n: {self.n}",
            f"total: {self.total}",
            f"live: {self.live}",
            f"quiescent: {self.quiescent}",
            f"unresolved: {self.unresolved}",
            f"max_settle_time: {self.max_settle_time}",
            f"prediction_mismatches: {self.prediction_mismatches}",
            f"first_mismatch: {self.first_mismatch if self.first_mismatch else 'none'}",
        ]
        return "\n".join(lines) + "\n"


def census(
    rule: Rule,
    n: int,
    horizon: Optional[int] = None,
    predictor: str | Callable[[Filament], bool] | None = "auto",
    budget: int = 10**7,
) -> Census:
    """Classify every length-n filament and compare against a predictor.

    ``predictor`` may be "auto" (the array predictor ``liveness_of`` finds
    by rule content, none for unknown rules), None (skip the comparison), or
    a callable from Filament to liveness, applied row by row. Enumeration is
    lexicographic; the functional graph over all s**n states is classified in
    one pass, which agrees with per-state cycle detection by determinism.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if rule.num_states**n > budget:
        raise CensusBudgetError(
            f"{rule.num_states}**{n} states exceed the budget of {budget}"
        )
    if horizon is None:
        horizon = default_horizon(n)
    elif horizon < 0:
        raise ValueError("horizon must be non-negative")
    if callable(predictor):
        predict_rows = np.vectorize(lambda row: predictor(Filament(row)), otypes=[bool], signature="(n)->()")
    elif predictor == "auto":
        liveness = liveness_of(rule)
        predict_rows = liveness.predict if liveness is not None else None
    elif predictor is None:
        predict_rows = None
    else:
        raise ValueError(f"bad predictor {predictor!r}")

    matrix = all_states_matrix(rule.num_states, n)
    succ = state_ids(step_array(rule, matrix), rule.num_states)
    transient, period = classify_functional_graph(succ)
    resolved = (transient + period) <= horizon
    live_mask = resolved & (period >= 2)
    quiescent_mask = resolved & (period == 1)

    wrong = np.zeros_like(live_mask)
    if predict_rows is not None:
        wrong = predict_rows(matrix) != live_mask
    first = int(wrong.argmax())  # rows run in lexicographic order

    return Census(
        rule_name=rule.name,
        n=n,
        total=rule.num_states**n,
        live=int(live_mask.sum()),
        quiescent=int(quiescent_mask.sum()),
        unresolved=int((~resolved).sum()),
        max_settle_time=int(transient.max()),
        prediction_mismatches=int(wrong.sum()),
        first_mismatch=Filament(matrix[first]) if wrong[first] else None,
    )


# -- growth under accretion -----------------------------------------------------


@dataclass(frozen=True)
class GrowthMatrix:
    """A stochastic matrix over liveness classes, in exact rationals.

    Row i gives the class distribution after appending one uniformly
    random cell to a filament of class ``labels[i]``. ``stationary`` is
    the row vector this matrix fixes exactly.
    """

    labels: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    stationary: tuple[Fraction, ...]

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.rows)

    def applied_to(self, distribution: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Left-multiply a row distribution by the matrix, exactly."""
        if len(distribution) != len(self.labels):
            raise ValueError("distribution length must match the class count")
        k = len(self.labels)
        return tuple(
            sum((distribution[i] * self.rows[i][j] for i in range(k)), Fraction(0))
            for j in range(k)
        )

    def is_stationary(self, distribution: Sequence[Fraction]) -> bool:
        return self.applied_to(distribution) == tuple(distribution)


def growth_transition_matrix(rule_kind: str) -> GrowthMatrix:
    """Exact accretion matrix for one of the two catalogue 3-state rules.

    For "automaton-i" the classes are (live, dead) by step parity: a new
    cell flips the parity exactly when it differs from the old end cell,
    probability 2/3. For "automaton-ii" the classes track which ends hold
    a 0, since liveness is one-end-zero-ness; the live proportion of its
    stationary vector is 4/9.
    """
    if rule_kind == "automaton-i":
        third = Fraction(1, 3)
        return GrowthMatrix(
            labels=("live", "dead"),
            rows=(
                (third, 2 * third),
                (2 * third, third),
            ),
            stationary=(Fraction(1, 2), Fraction(1, 2)),
        )
    if rule_kind == "automaton-ii":
        return GrowthMatrix(
            labels=("both-ends-0", "one-end-0", "no-end-0"),
            rows=(
                (Fraction(1, 3), Fraction(2, 3), Fraction(0)),
                (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)),
                (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
            ),
            stationary=(Fraction(1, 9), Fraction(4, 9), Fraction(4, 9)),
        )
    raise ValueError(f"no growth matrix for rule kind {rule_kind!r}")


def parity_class_array(n: int) -> np.ndarray:
    """Class ids (0 = live/odd, 1 = dead/even) for all 3**n states."""
    return np.where(_odd_steps(all_states_matrix(3, n)), 0, 1).astype(np.int8)


def end_zero_class_array(n: int) -> np.ndarray:
    """Class ids (0 = both ends 0, 1 = one end 0, 2 = no end 0) for all 3**n states."""
    matrix = all_states_matrix(3, n)
    zeros = (matrix[:, 0] == 0).astype(np.int8) + (matrix[:, -1] == 0).astype(np.int8)
    return (2 - zeros).astype(np.int8)


def end_zero_class(filament: Filament) -> int:
    zeros = int(filament[0] == 0) + int(filament[-1] == 0)
    return 2 - zeros


def count_accretions(class_at_n: np.ndarray, class_at_n1: np.ndarray, num_classes: int) -> np.ndarray:
    """(B, S) and (B, S*s) class arrays, appended digit fastest, to (B, k, k) int64 counts:
    [b, a, d] counts the (state, digit) pairs of row b from class a to class d."""
    batch, total = class_at_n.shape
    code = class_at_n.astype(np.int64)[:, :, None] * num_classes + class_at_n1.reshape(batch, total, -1)
    code += num_classes**2 * np.arange(batch)[:, None, None]
    return np.bincount(code.ravel(), minlength=batch * num_classes**2).reshape(batch, num_classes, num_classes)


def measure_accretion_matrix(
    class_at_n: np.ndarray,
    class_at_n1: np.ndarray,
    num_classes: int,
    num_states: int,
) -> tuple[tuple[Fraction, ...], ...]:
    """Measure class transition probabilities under single-cell accretion.

    ``class_at_n[x]`` is the class of the length-n state with id x, and
    ``class_at_n1`` covers length n+1; appending digit d to state x yields
    the state with id x*num_states + d. Counting is exhaustive over every
    (state, digit) pair, so the returned Fraction rows are exact.
    """
    total_n = len(class_at_n)
    if len(class_at_n1) != total_n * num_states:
        raise ValueError("class arrays do not describe consecutive lengths")
    counts = count_accretions(class_at_n[None], class_at_n1[None], num_classes)[0].tolist()
    # A class that never occurs gets a row of zeros.
    return tuple(tuple(Fraction(c, max(sum(row), 1)) for c in row) for row in counts)
