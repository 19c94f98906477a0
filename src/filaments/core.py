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

Everything here is an immutable value, safe to share between workers.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

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
        cells = tuple(int(c) if isinstance(c, np.integer) else c for c in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("a filament needs at least one cell")
        for c in cells:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"cell states must be non-negative integers, got {c!r}")

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
        # Empty slots are contiguous and outermost on each side.
        seen_real = False
        for v in self.left:
            if v is not EMPTY:
                seen_real = True
            elif seen_real:
                raise ValueError(f"left side has an interior empty slot: {self.left}")
        seen_empty = False
        for v in self.right:
            if v is EMPTY:
                seen_empty = True
            elif seen_empty:
                raise ValueError(f"right side has an interior empty slot: {self.right}")

    def reflected(self) -> "Neighborhood":
        """The mirror image of this neighborhood (left and right swapped)."""
        return Neighborhood(
            self.radius,
            left=tuple(reversed(self.right)),
            right=tuple(reversed(self.left)),
        )


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
    """All concrete side tuples: empty slots contiguous and outermost."""
    sides: list[tuple[MaybeState, ...]] = []
    for k in range(radius + 1):  # number of real neighbors on this side
        for combo in itertools.product(range(num_states), repeat=k):
            if side == "left":  # outermost first: empties form a prefix
                sides.append((EMPTY,) * (radius - k) + combo)
            else:  # innermost first: empties form a suffix
                sides.append(combo + (EMPTY,) * (radius - k))
    return sides


@dataclass(frozen=True)
class Rule:
    """A complete transition table for one automaton.

    Entries only list state changes; any (current, neighborhood) matched by
    no entry holds the current state. Construction rejects tables where two
    entries disagree on a concrete input.
    """

    name: str
    num_states: int
    radius: int
    symmetric: bool
    entries: tuple[RuleEntry, ...]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
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
        if validate:
            self._check_tokens()
            self._check_conflicts()

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

    def _check_conflicts(self) -> None:
        for current in range(self.num_states):
            for nbhd in self.admissible_neighborhoods():
                hits = [e for e in self.entries if e.matches(current, nbhd, self.symmetric)]
                nexts = {e.next_state for e in hits}
                if len(nexts) > 1:
                    raise RuleConflictError(
                        f"rule {self.name!r}: entries disagree on current={current}, "
                        f"left={nbhd.left}, right={nbhd.right}: {hits}"
                    )

    # -- matching -----------------------------------------------------------

    def admissible_neighborhoods(self) -> Iterator[Neighborhood]:
        """Every concrete neighborhood a cell of some filament could see."""
        lefts = _admissible_sides(self.num_states, self.radius, "left")
        rights = _admissible_sides(self.num_states, self.radius, "right")
        for left in lefts:
            for right in rights:
                yield Neighborhood(self.radius, left, right)

    def matching_entries(self, current: int, nbhd: Neighborhood) -> list[RuleEntry]:
        return [e for e in self.entries if e.matches(current, nbhd, self.symmetric)]

    def next_state(self, current: int, nbhd: Neighborhood) -> int:
        """Next state of a cell, falling back to the current state on no match."""
        if not 0 <= current < self.num_states:
            raise ValueError(f"current state {current} out of range for rule {self.name!r}")
        hits = self.matching_entries(current, nbhd)
        if not hits:
            return current
        nexts = {e.next_state for e in hits}
        if len(nexts) > 1:
            raise RuleConflictError(
                f"rule {self.name!r}: ambiguous match for current={current}, {nbhd}"
            )
        return nexts.pop()

    def successors(self, state: int) -> frozenset[int]:
        """All states reachable from ``state`` across admissible inputs."""
        return frozenset(
            self.next_state(state, nbhd) for nbhd in self.admissible_neighborhoods()
        )

    # -- compiled form ------------------------------------------------------

    @property
    def empty_code(self) -> int:
        """Integer code standing in for EMPTY in the dense lookup table."""
        return self.num_states

    @cached_property
    def lookup_table(self) -> np.ndarray:
        """Dense next-state table indexed by integer codes.

        Axes are ``[current, left outermost..innermost, right innermost..
        outermost]`` with every neighbor axis of size ``num_states + 1``;
        code ``num_states`` stands for EMPTY. Slots for inadmissible index
        combinations (an empty slot inside a side) hold the current state
        and are never consulted by the evolution code.
        """
        s = self.num_states
        r = self.radius
        shape = (s,) + (s + 1,) * (2 * r)
        table = np.empty(shape, dtype=np.uint8)
        for current in range(s):
            view = table[current]
            view[...] = current
        for current in range(s):
            for nbhd in self.admissible_neighborhoods():
                left_idx = tuple(s if v is EMPTY else v for v in nbhd.left)
                right_idx = tuple(s if v is EMPTY else v for v in nbhd.right)
                table[(current,) + left_idx + right_idx] = self.next_state(current, nbhd)
        return table
