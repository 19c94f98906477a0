"""Closed-form liveness laws, exhaustive censuses, and exact growth chains.

Each of the two catalogue three-state rules has one ``Liveness`` record,
found by rule content (the compiled lookup table), never by name. The
record's ``classes`` function is the law: under ``automaton_i`` a filament
ends up perpetually cycling exactly when its initial state has an odd number
of steps (adjacent unequal pairs), and under ``automaton_ii`` exactly when
it has a 0 at one end but not the other. ``census`` classifies every
length-n filament from the successor map ``engine.successor_array`` builds
and checks the law against the outcome, which turns both claims into
machine-checked facts at desk scale.

Growth arithmetic is exact: each record's ``growth`` matrix, over the same
classes, is built from ``fractions.Fraction`` so stationarity checks are
identities rather than tolerances, and ``measure_accretion_matrix``
reproduces its entries by exhaustive counting instead of sampling.

Known edge case: the end-zero law is wrong at length 2. The one-end-zero
states of length 2 are fixed points ([01] has no matching transition for
either cell), so the census reports 4 mismatches at n=2 and 0 everywhere
else. The law's promise holds from n=3 up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import Filament, Rule
from .engine import all_states_matrix, classify_functional_graph, default_horizon, successor_array
from .rules import automaton_i, automaton_ii

__all__ = [
    "Census",
    "CensusBudgetError",
    "GrowthMatrix",
    "Liveness",
    "census",
    "count_accretions",
    "liveness_of",
    "measure_accretion_matrix",
    "parity_counts",
]


# -- liveness laws --------------------------------------------------------------


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


def _step_parity_classes(states: np.ndarray) -> np.ndarray:
    """(S, n) states to class ids: 0 for an odd number of adjacent unequal pairs, 1 for even."""
    # An xor started from True ends True exactly on the even rows.
    return np.logical_xor.reduce(np.diff(states, axis=1) != 0, axis=1, initial=True).view(np.int8)


def _end_zero_classes(states: np.ndarray) -> np.ndarray:
    """(S, n) states to class ids: the number of end cells that are not 0
    (0 = both ends 0, 1 = one end 0, 2 = no end 0)."""
    return (states[:, 0] != 0).view(np.int8) + (states[:, -1] != 0).view(np.int8)


class Liveness(NamedTuple):
    """A rule's closed-form liveness law.

    ``classes`` maps an (S, n) state matrix to int8 class ids, and rows of
    class ``live`` cycle forever. ``sweeps`` counts the sweeps of the rule's
    normal cycle, which paces population growth. ``growth`` is the exact
    chain the classes follow when one uniformly random cell is appended;
    its rows are in class-id order.
    """

    classes: Callable[[np.ndarray], np.ndarray]
    live: int
    sweeps: int
    growth: GrowthMatrix

    def predict(self, states: np.ndarray) -> np.ndarray:
        """bool[S]: the rows of ``states`` the law calls live."""
        return self.classes(states) == self.live


@cache
def _catalogue_liveness() -> tuple[tuple[np.ndarray, Liveness], ...]:
    third = Fraction(1, 3)
    # A new cell flips the step parity exactly when it differs from the old
    # end cell, probability 2/3.
    parity = GrowthMatrix(
        labels=("live", "dead"),
        rows=((third, 2 * third), (2 * third, third)),
        stationary=(Fraction(1, 2), Fraction(1, 2)),
    )
    # A new cell replaces the right end; the live (one-end-0) share of the
    # stationary vector is 4/9.
    end_zero = GrowthMatrix(
        labels=("both-ends-0", "one-end-0", "no-end-0"),
        rows=(
            (Fraction(1, 3), Fraction(2, 3), Fraction(0)),
            (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)),
            (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
        ),
        stationary=(Fraction(1, 9), Fraction(4, 9), Fraction(4, 9)),
    )
    return (
        (automaton_i().lookup_table, Liveness(_step_parity_classes, live=0, sweeps=6, growth=parity)),
        (automaton_ii().lookup_table, Liveness(_end_zero_classes, live=1, sweeps=2, growth=end_zero)),
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
    counts states where the rule's liveness law and the simulation
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
    predictor: Optional[str] = "auto",
    budget: int = 10**7,
) -> Census:
    """Classify every length-n filament and compare against the rule's liveness law.

    ``predictor`` may be "auto" (the law ``liveness_of`` finds by rule
    content; unknown rules have none, so nothing is compared) or None (skip
    the comparison). Enumeration is lexicographic; the functional graph over
    all s**n states is classified in one pass, which agrees with per-state
    cycle detection by determinism. The (s**n, n) state matrix is built only
    to compare a law.
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
    if predictor == "auto":
        liveness = liveness_of(rule)
    elif predictor is None:
        liveness = None
    else:
        raise ValueError(f"bad predictor {predictor!r}")

    transient, period = classify_functional_graph(successor_array(rule, n))
    resolved = (transient + period) <= horizon
    live_mask = resolved & (period >= 2)
    quiescent_mask = resolved & (period == 1)

    mismatches, first_mismatch = 0, None
    if liveness is not None:
        matrix = all_states_matrix(rule.num_states, n)
        wrong = liveness.predict(matrix) != live_mask
        mismatches = int(wrong.sum())
        if mismatches:
            first_mismatch = Filament(matrix[wrong.argmax()])  # rows run in lexicographic order

    return Census(
        rule_name=rule.name,
        n=n,
        total=rule.num_states**n,
        live=int(live_mask.sum()),
        quiescent=int(quiescent_mask.sum()),
        unresolved=int((~resolved).sum()),
        max_settle_time=int(transient.max()),
        prediction_mismatches=mismatches,
        first_mismatch=first_mismatch,
    )


# -- growth under accretion -----------------------------------------------------


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
