"""Core domain types for one-dimensional filament automata.

A filament is a nonempty row of cells, each holding an integer state in
``[0, num_states)``. The row does not wrap: end cells read a distinguished
empty marker (``EMPTY``) in place of the neighbors they lack, which lets
transition tables treat filament ends specially.

Rules are finite tables of entries. Each entry names a current state, a
pattern for the left side of the neighborhood and one for the right side,
and the resulting next state. Pattern tokens are either a literal state,
``EMPTY`` (matches only a missing neighbor), or ``ANY`` (matches every real
state and never a missing one). Inputs matched by no entry leave the cell
unchanged, so tables only need to list state changes. A rule may be marked
symmetric, in which case an entry also matches the mirror image of the
neighborhood and sides effectively pair up unordered.

A rule is checked once, when it is built, and no rule skips the check: its
entries' tokens are range-checked, then it compiles to a dense lookup
table, and compiling is the conflict check. The scalar interpreter
(``Rule.next_state``) stays as the oracle the table is tested against.

Everything here is an immutable value, safe to share between workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, Optional, Union

import numpy as np

__all__ = [
    "ANY",
    "EMPTY",
    "Filament",
    "MAX_TABLE_CELLS",
    "MaybeState",
    "Neighborhood",
    "PatternToken",
    "Rule",
    "RuleConflictError",
    "RuleEntry",
    "neighborhood_of",
    "token_matches",
]

EMPTY = None
ANY = "*"

# Largest dense lookup table a rule may compile to, in uint8 cells (16 MiB).
MAX_TABLE_CELLS = 1 << 24

MaybeState = Optional[int]
PatternToken = Union[int, None, str]


class RuleConflictError(ValueError):
    """Two entries send the same concrete input to different next states."""


@dataclass(frozen=True)
class Filament:
    """A nonempty, immutable row of cell states."""

    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        # A nonempty row of exact non-negative ints passes in one check; the
        # per-cell loop converts NumPy integers and names the first bad cell.
        if not (cells and set(map(type, cells)) <= {int} and min(cells) >= 0):
            cells = tuple(int(c) if isinstance(c, np.integer) else c for c in cells)
            if not cells:
                raise ValueError("a filament needs at least one cell")
            for c in cells:
                if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                    raise ValueError(f"cell states must be non-negative integers, got {c!r}")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_string(cls, text: str) -> "Filament":
        """Build a filament from a string of digit characters, e.g. ``"0221"``."""
        if not text.isdigit():
            raise ValueError(f"expected a string of digits, got {text!r}")
        return cls(tuple(int(ch) for ch in text))

    @classmethod
    def uniform(cls, value: int, n: int) -> "Filament":
        return cls((value,) * n)

    @classmethod
    def random(cls, num_states: int, n: int, rng: np.random.Generator) -> "Filament":
        return cls(tuple(int(v) for v in rng.integers(0, num_states, size=n)))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[int]:
        return iter(self.cells)

    def __getitem__(self, index):
        return self.cells[index]

    def __str__(self) -> str:
        if all(c < 10 for c in self.cells):
            return "".join(str(c) for c in self.cells)
        return " ".join(str(c) for c in self.cells)


@dataclass(frozen=True)
class Neighborhood:
    """The states one cell can see, not including its own.

    ``left`` lists the states on the left side ordered outermost first, so
    ``left[-1]`` is the immediate left neighbor. ``right`` lists the right
    side ordered innermost first, so ``right[0]`` is the immediate right
    neighbor. Each side has exactly ``radius`` entries; missing neighbors
    past a filament end appear as ``EMPTY``, and on a side the empty slots
    are always the outermost ones.
    """

    radius: int
    left: tuple[MaybeState, ...]
    right: tuple[MaybeState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if len(self.left) != self.radius or len(self.right) != self.radius:
            raise ValueError("each side must have exactly `radius` entries")
        if not _empties_outermost(self.left, self.right):
            raise ValueError(f"a side has an interior empty slot: {self.left}, {self.right}")

    def reflected(self) -> "Neighborhood":
        """The mirror image of this neighborhood (left and right swapped)."""
        return Neighborhood(
            self.radius,
            left=tuple(reversed(self.right)),
            right=tuple(reversed(self.left)),
        )


def _empties_outermost(left: tuple, right: tuple) -> bool:
    """Whether EMPTY holds only the outermost slots of each side: a prefix of
    ``left`` (outermost first) and a suffix of ``right`` (innermost first)."""
    return EMPTY not in left[left.count(EMPTY) :] + right[: len(right) - right.count(EMPTY)]


def neighborhood_of(filament: Filament, index: int, radius: int) -> Neighborhood:
    """Read the neighborhood of cell ``index``; positions past an end are EMPTY."""
    n = len(filament)
    if not 0 <= index < n:
        raise IndexError(f"cell index {index} out of range for length {n}")
    if radius < 1:
        raise ValueError("radius must be at least 1")
    cells = filament.cells
    left = tuple(cells[index - d] if index - d >= 0 else EMPTY for d in range(radius, 0, -1))
    right = tuple(cells[index + d] if index + d < n else EMPTY for d in range(1, radius + 1))
    return Neighborhood(radius, left, right)


def token_matches(token: PatternToken, value: MaybeState) -> bool:
    """Whether one pattern token accepts one observed neighbor state."""
    if token is EMPTY:
        return value is EMPTY
    if token == ANY:
        return value is not EMPTY
    return token == value


@dataclass(frozen=True)
class RuleEntry:
    """One transition: current state plus side patterns to a next state.

    ``left`` tokens are ordered outermost first and ``right`` tokens
    innermost first, mirroring :class:`Neighborhood`.
    """

    current: int
    left: tuple[PatternToken, ...]
    right: tuple[PatternToken, ...]
    next_state: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))

    def matches(self, current: int, nbhd: Neighborhood, symmetric: bool) -> bool:
        if current != self.current:
            return False
        if self._sides_match(nbhd):
            return True
        return symmetric and self._sides_match(nbhd.reflected())

    def _sides_match(self, nbhd: Neighborhood) -> bool:
        return all(token_matches(t, v) for t, v in zip(self.left, nbhd.left)) and all(
            token_matches(t, v) for t, v in zip(self.right, nbhd.right)
        )


def _admissible_sides(num_states: int, radius: int, side: str) -> list[tuple[MaybeState, ...]]:
    """All concrete side tuples: empty slots contiguous and outermost, so a
    prefix of a left side (outermost first) and a suffix of a right one."""
    sides: list[tuple[MaybeState, ...]] = []
    for k in range(radius + 1):  # number of real neighbors on this side
        for combo in itertools.product(range(num_states), repeat=k):
            empties = (EMPTY,) * (radius - k)
            sides.append(empties + combo if side == "left" else combo + empties)
    return sides


@cache
def _admissible_cells(num_states: int, radius: int) -> np.ndarray:
    """Read-only mask of the cells of ``Rule.lookup_table``'s neighbor axes that a
    filament can present; the right side's mask is the left's, axes reversed."""
    empty = np.indices((num_states + 1,) * radius) == num_states
    left = (empty[:-1] >= empty[1:]).all(axis=0)
    mask = np.logical_and.outer(left, left.transpose())
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class Rule:
    """A complete transition table for one automaton.

    Entries only list state changes; any (current, neighborhood) matched by
    no entry holds the current state. Construction compiles the dense
    ``lookup_table``, which rejects tables where two entries disagree on a
    concrete input.
    """

    name: str
    num_states: int
    radius: int
    symmetric: bool
    entries: tuple[RuleEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.num_states < 1:
            raise ValueError("num_states must be at least 1")
        if self.num_states > 255:
            raise ValueError(f"num_states {self.num_states} > 255: cells are uint8, EMPTY is num_states")
        if self.radius < 1:
            raise ValueError("radius must be at least 1")
        cells = self.num_states * (self.num_states + 1) ** (2 * self.radius)
        if cells > MAX_TABLE_CELLS:
            raise ValueError(
                f"radius {self.radius} with {self.num_states} states needs a lookup table "
                f"of {cells} cells, more than the limit of {MAX_TABLE_CELLS}"
            )
        self._check_tokens()
        self.lookup_table  # compiling the table is the conflict check

    # -- validation ---------------------------------------------------------

    def _check_tokens(self) -> None:
        for e in self.entries:
            if not 0 <= e.current < self.num_states:
                raise ValueError(f"entry current state {e.current} out of range: {e}")
            if not 0 <= e.next_state < self.num_states:
                raise ValueError(f"entry next state {e.next_state} out of range: {e}")
            if len(e.left) != self.radius or len(e.right) != self.radius:
                raise ValueError(f"entry side width does not match radius {self.radius}: {e}")
            for tok in e.left + e.right:
                if tok is EMPTY or tok == ANY:
                    continue
                if not isinstance(tok, int) or not 0 <= tok < self.num_states:
                    raise ValueError(f"bad pattern token {tok!r} in entry: {e}")

    # -- matching -----------------------------------------------------------

    def admissible_neighborhoods(self) -> Iterator[Neighborhood]:
        """Every concrete neighborhood a cell of some filament could see."""
        lefts = _admissible_sides(self.num_states, self.radius, "left")
        rights = _admissible_sides(self.num_states, self.radius, "right")
        for left in lefts:
            for right in rights:
                yield Neighborhood(self.radius, left, right)

    def next_state(self, current: int, nbhd: Neighborhood) -> int:
        """Next state of a cell, falling back to the current state on no match.

        A neighborhood of another radius than the rule's raises ``ValueError``.
        """
        if not 0 <= current < self.num_states:
            raise ValueError(f"current state {current} out of range for rule {self.name!r}")
        if nbhd.radius != self.radius:
            raise ValueError(f"neighborhood of radius {nbhd.radius} for rule {self.name!r} of radius {self.radius}")
        hits = [e for e in self.entries if e.matches(current, nbhd, self.symmetric)]
        nexts = {e.next_state for e in hits}
        if len(nexts) > 1:
            raise RuleConflictError(
                f"rule {self.name!r}: entries disagree on current={current}, "
                f"left={nbhd.left}, right={nbhd.right}: {hits}"
            )
        return nexts.pop() if nexts else current

    # -- compiled form ------------------------------------------------------

    @cached_property
    def lookup_table(self) -> np.ndarray:
        """Dense next-state table indexed by integer codes, compiled from the entries.

        Axes are ``[current, left outermost..innermost, right innermost..
        outermost]`` with every neighbor axis of size ``num_states + 1``;
        code ``num_states`` stands for EMPTY. Slots for inadmissible index
        combinations (an empty slot inside a side) hold the current state
        and are never consulted by the evolution code. Every value is a
        state in ``[0, num_states)``: entries' next states are checked before
        compiling, and an unwritten cell holds its current state. The table is
        read-only, so the stepping kernel's byte image of it cannot go stale.

        Each entry, and its mirror for a symmetric rule, writes the block its
        tokens select: a literal its own code, ``ANY`` codes ``0..s-1`` and
        ``EMPTY`` code ``s``. An entry with an interior EMPTY token matches no
        admissible input and is skipped. A block that gives a cell a different
        next state from an earlier write raises ``RuleConflictError``.
        """
        s, r = self.num_states, self.radius
        shape = (s,) + (s + 1,) * (2 * r)
        table = np.broadcast_to(np.arange(s, dtype=np.uint8).reshape((s,) + (1,) * (2 * r)), shape).copy()
        written = np.zeros(shape, dtype=bool)
        codes = {EMPTY: slice(s, s + 1), ANY: slice(0, s)}
        for e in self.entries:
            if not _empties_outermost(e.left, e.right):
                continue
            sides = [e.left + e.right]
            if self.symmetric:  # the mirror reads the right side as its left
                sides.append(e.right[::-1] + e.left[::-1])
            for tokens in sides:
                block = (e.current, *(codes[t] if t in codes else slice(t, t + 1) for t in tokens))
                clash = written[block] & (table[block] != e.next_state)
                if clash.any():  # the interpreter raises on the first clashing cell, naming its entries
                    cell = [sl.start + i for sl, i in zip(block[1:], np.argwhere(clash)[0].tolist())]
                    left, right = (tuple(EMPTY if c == s else c for c in side) for side in (cell[:r], cell[r:]))
                    self.next_state(e.current, Neighborhood(r, left, right))
                table[block] = e.next_state
                written[block] = True
        table.flags.writeable = False
        return table
