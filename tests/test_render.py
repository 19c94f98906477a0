"""ASCII and PGM spacetime rendering."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from filaments.core import Filament
from filaments.engine import run_trace
from filaments.render import decode_pgm, pixel_value, render_ascii, render_pgm
from filaments.rules import automaton_ii, clock_rule


def test_render_ascii_one_line_per_step():
    trace = run_trace(clock_rule(2), Filament.from_string("00"), 2)
    assert render_ascii(trace) == "00\n11\n00\n"


def test_render_ascii_accepts_filament_lists_and_arrays():
    rows = [Filament.from_string("012"), Filament.from_string("120")]
    text = render_ascii(rows)
    assert text == "012\n120\n"
    assert render_ascii(np.array([[0, 1, 2], [1, 2, 0]])) == text


def test_render_ascii_rejects_wide_states_and_empty_input():
    with pytest.raises(ValueError):
        render_ascii(np.array([[0, 12]]))
    with pytest.raises(ValueError):
        render_ascii(np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        render_ascii(np.zeros(3, dtype=np.int64))


def test_pixel_values_use_contrasting_conventions():
    assert [pixel_value(s, 2) for s in range(2)] == [0, 255]
    assert [pixel_value(s, 3) for s in range(3)] == [0, 255, 128]
    # Larger alphabets fall back to an even ramp.
    assert [pixel_value(s, 5) for s in range(5)] == [0, 64, 128, 191, 255]


def test_render_pgm_layout():
    text = render_pgm(np.array([[0, 1], [2, 0]]), num_states=3)
    assert text == "P2\n2 2\n255\n0 255\n128 0\n"


def test_render_pgm_range_check():
    with pytest.raises(ValueError):
        render_pgm(np.array([[0, 3]]), num_states=3)


@pytest.mark.parametrize("num_states", [2, 3, 5])
def test_renderers_reject_negative_states(num_states):
    # -1 is no state, though pixel_value's tuple lookup would still draw it.
    matrix = np.array([[0, 1], [-1, num_states - 1]])
    with pytest.raises(ValueError, match="^state out of range for the declared state count$"):
        render_pgm(matrix, num_states)
    with pytest.raises(ValueError, match="^ASCII rendering supports single-digit states only$"):
        render_ascii(matrix)


def test_decode_pgm_round_trip_on_trace():
    trace = run_trace(automaton_ii(), Filament.from_string("0000001"), 6)
    text = render_pgm(trace, num_states=3)
    pixels = decode_pgm(text)
    expected = np.array(
        [[pixel_value(c, 3) for c in f.cells] for f in trace], dtype=np.int64
    )
    assert (pixels == expected).all()


def test_decode_pgm_handles_comments_and_rejects_garbage():
    text = "P2\n# a comment\n2 1\n255\n0 255\n"
    assert decode_pgm(text).tolist() == [[0, 255]]
    with pytest.raises(ValueError):
        decode_pgm("P5\n2 1\n255\n0 255\n")
    with pytest.raises(ValueError):
        decode_pgm("P2\n2 1\n15\n0 15\n")
    with pytest.raises(ValueError):
        decode_pgm("P2\n2 2\n255\n0 255\n")


@given(
    st.integers(1, 6).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(0, 2), min_size=w, max_size=w), min_size=1, max_size=6
        )
    )
)
def test_pgm_round_trip_property(rows):
    matrix = np.array(rows, dtype=np.int64)
    pixels = decode_pgm(render_pgm(matrix, num_states=3))
    lut = np.array([pixel_value(s, 3) for s in range(3)])
    assert (pixels == lut[matrix]).all()
