"""Closed-form liveness laws, exhaustive censuses, and exact growth chains.

Each of the two catalogue three-state rules has one ``Liveness`` record,
found by rule content (the compiled lookup table), never by name. The
record's class table over (first cell, last cell, step parity) is the law:
under ``automaton_i`` a filament ends up perpetually cycling exactly when its
initial state has an odd number of steps (adjacent unequal pairs), and under
``automaton_ii`` exactly when it has a 0 at one end but not the other.
``census`` classifies every length-n filament from the successor map
``engine.successor_array`` builds and checks the law, read from state ids,
against the outcome, which turns both claims into machine-checked facts at
desk scale.

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

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import Filament, Rule
from .engine import all_states_matrix  # noqa: F401 -- the bench tracer wraps analysis.all_states_matrix
from .engine import classify_functional_graph, default_horizon, successor_array
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
    random cell to a uniformly random length-n state of class ``labels[i]``.
    The end-zero one-end-0 row (1/6, 1/2, 1/3) weighs equally the chains of
    a first cell 0, (1/3, 2/3, 0), and not 0, (0, 1/3, 2/3); a filament's
    first cell never changes, so it follows one of those two chains.
    ``stationary`` is the row vector this matrix fixes exactly.
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


class Liveness(NamedTuple):
    """A rule's closed-form liveness law.

    ``table`` is a read-only int8 array of class ids indexed [first cell,
    last cell, step parity], with a parity axis of length 1 if the law
    ignores parity. Rows of class ``live`` cycle forever. ``sweeps`` counts
    the sweeps of the normal cycle, which paces population growth.
    ``growth`` is the class chain under appending one random cell, exact
    over uniformly random states of one length (see ``GrowthMatrix``).
    """

    table: np.ndarray
    live: int
    sweeps: int
    growth: GrowthMatrix

    def classes(self, states: np.ndarray) -> np.ndarray:
        """int8[S]: the class ids of the rows of an (S, n) uint8 state matrix."""
        s, _, parities = self.table.shape
        # Flat keys stay uint8, like the cells, so a table holds at most 256 entries.
        key = states[:, 0] * s + states[:, -1]
        if parities == 2:
            key = key * 2 + np.logical_xor.reduce(states[:, 1:] != states[:, :-1], axis=1)
        return self.table.ravel().take(key)

    def id_classes(self, n: int) -> np.ndarray:
        """int8[s**n]: the class ids of the length-n states, by state id.

        The first cell is the id's leading base-s digit. The (last cell,
        parity) key grows one digit per length: prepending d to a state
        starting with c flips the parity when d != c and parity is read.
        """
        s, _, parities = self.table.shape
        cells = np.arange(s, dtype=np.uint8)
        last = cells * np.uint8(parities)
        flips = np.uint8(parities - 1) * (cells[:, None] != cells)[:, :, None]
        for _ in range(n - 1):
            last = last.reshape(1, s, -1) ^ flips
        # Fancy indexing reads uint8 keys in blocks; take would copy them to intp.
        key = cells[:, None] * np.uint8(s * parities) + last.reshape(s, -1)
        return self.table.ravel()[key].ravel()

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
    # Class 0 for odd step parity, 1 for even; and the number of end cells not 0.
    parity_table = np.array([[[1, 0]] * 3] * 3, dtype=np.int8)
    end_zero_table = np.array([[[0], [1], [1]], [[1], [2], [2]], [[1], [2], [2]]], dtype=np.int8)
    for table in (parity_table, end_zero_table):
        table.flags.writeable = False
    return (
        (automaton_i().lookup_table, Liveness(parity_table, live=0, sweeps=6, growth=parity)),
        (automaton_ii().lookup_table, Liveness(end_zero_table, live=1, sweeps=2, growth=end_zero)),
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
    n = operator.index(n)
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
    cycle detection by determinism. The law is read from state ids
    (``Liveness.id_classes``), so no (s**n, n) state matrix is built.
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
        wrong = (liveness.id_classes(n) == liveness.live) != live_mask
        mismatches = int(wrong.sum())
        if mismatches:
            # Ids run in lexicographic order, and an id's base-s digits are its cells.
            first_mismatch = Filament(np.unravel_index(wrong.argmax(), (rule.num_states,) * n))

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
    [b, a, d] counts the (state, digit) pairs of row b from class a to class d.

    Per target class d >= 1, each state's digits reaching d are counted with
    uint8 adds over the s strided digit columns (s is at most 255, as for any
    rule), then summed under each source class's mask. Class 0 is what
    remains: row 0 and column 0 are the totals less the other entries, which
    holds since every class is in [0, k). A bool class array is read as the
    mask of class 1, as the hunt's are."""
    batch, total = class_at_n.shape
    digits = class_at_n1.reshape(batch, total, -1)
    width = digits.shape[2]
    if width > 255:
        raise ValueError(f"{width} appended digits per state; at most 255")
    masks = [_class_mask(class_at_n, a) for a in range(1, num_classes)]
    counts = np.zeros((batch, num_classes, num_classes), dtype=np.int64)
    for d in range(1, num_classes):
        hit = _class_mask(digits, d).view(np.uint8)
        hits = sum((hit[:, :, j] for j in range(1, width)), hit[:, :, 0])  # digits of each state in class d
        counts[:, 0, d] = hits.sum(axis=1)
        for a, mask in enumerate(masks, 1):
            counts[:, a, d] = (hits * mask).sum(axis=1)
    for a, mask in enumerate(masks, 1):
        counts[:, a, 0] = width * np.count_nonzero(mask, axis=1)
    counts[:, 0, 0] = width * total
    # Row 0 holds column totals and column 0 row totals until the other entries come off.
    counts[:, 0] -= counts[:, 1:].sum(axis=1)
    counts[:, :, 0] -= counts[:, :, 1:].sum(axis=2)
    return counts


def _class_mask(classes: np.ndarray, c: int) -> np.ndarray:
    """Where ``classes`` is class c; a bool class array is its own class-1 mask."""
    return classes if classes.dtype == bool and c == 1 else classes == c


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
