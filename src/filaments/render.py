"""Spacetime diagrams of traces, as ASCII text or portable graymap.

Time flows downward, one row per step. The PGM pixel convention: state 0
is black (0) and state 1 is white (255); for three states, state 2 is
grey (128). Rules with more states fall back to evenly spaced gray
levels, and a one-state rule's only state is black. Output is the text
P2 format so diagrams stay diffable and dependency-free.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .core import Filament
from .engine import Trace

__all__ = ["decode_pgm", "pixel_value", "render_ascii", "render_pgm"]

TraceLike = Union[Trace, Sequence[Filament], np.ndarray]


def _states_matrix(states: TraceLike) -> np.ndarray:
    if isinstance(states, Trace):
        rows = states.rows
    elif isinstance(states, np.ndarray):
        if states.ndim != 2:
            raise ValueError("state array must be two-dimensional")
        rows = states
    else:
        rows = [f.cells for f in states]
    matrix = np.asarray(rows, dtype=np.int64)
    if matrix.size == 0:
        raise ValueError("nothing to render")
    return matrix


def render_ascii(states: TraceLike) -> str:
    """One line per step, one digit per cell."""
    matrix = _states_matrix(states)
    if matrix.min() < 0 or matrix.max() > 9:
        raise ValueError("ASCII rendering supports single-digit states only")
    return "\n".join("".join(str(int(v)) for v in row) for row in matrix) + "\n"


def pixel_value(state: int, num_states: int) -> int:
    if num_states == 2:
        return (0, 255)[state]
    if num_states == 3:
        return (0, 255, 128)[state]
    return round(255 * state / max(num_states - 1, 1))


def render_pgm(states: TraceLike, num_states: int) -> str:
    """Text PGM (P2) of the trace, maxval 255."""
    matrix = _states_matrix(states)
    if matrix.min() < 0 or matrix.max() >= num_states:
        raise ValueError("state out of range for the declared state count")
    height, width = matrix.shape
    lines = ["P2", f"{width} {height}", "255"]
    for row in matrix:
        lines.append(" ".join(str(pixel_value(int(v), num_states)) for v in row))
    return "\n".join(lines) + "\n"


def decode_pgm(text: str) -> np.ndarray:
    """Parse a P2 graymap back into its pixel matrix."""
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("not a P2 graymap")
    width, height, maxval = (int(t) for t in tokens[1:4])
    if maxval != 255:
        raise ValueError("expected maxval 255")
    pixels = np.array([int(t) for t in tokens[4:]], dtype=np.int64)
    if pixels.size != width * height:
        raise ValueError("pixel count does not match dimensions")
    return pixels.reshape(height, width)
