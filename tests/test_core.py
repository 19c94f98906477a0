"""Domain-type behavior: filaments, neighborhoods, pattern matching, tables."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filaments.core import (
    ANY,
    EMPTY,
    Filament,
    Neighborhood,
    Rule,
    RuleConflictError,
    MAX_TABLE_CELLS,
    RuleEntry,
    neighborhood_of,
    token_matches,
)
from filaments.engine import _Kernel
from filaments.rules import automaton_i, automaton_ii, bouncer_rule, clock_rule


def test_filament_rejects_empty_and_bad_cells():
    with pytest.raises(ValueError):
        Filament(())
    with pytest.raises(ValueError):
        Filament((0, -1))
    with pytest.raises(ValueError):
        Filament((0, "1"))


def test_filament_from_string_round_trip():
    f = Filament.from_string("0221")
    assert f.cells == (0, 2, 2, 1)
    assert str(f) == "0221"
    with pytest.raises(ValueError):
        Filament.from_string("02x1")
    with pytest.raises(ValueError):
        Filament.from_string("")


def test_filament_uniform_and_random():
    assert Filament.uniform(2, 4).cells == (2, 2, 2, 2)
    rng = np.random.default_rng(7)
    f = Filament.random(3, 50, rng)
    assert len(f) == 50
    assert set(f.cells) <= {0, 1, 2}
    # Same seed, same draw.
    assert Filament.random(3, 50, np.random.default_rng(7)) == f


def test_filament_normalizes_numpy_integers():
    f = Filament(tuple(np.array([1, 0], dtype=np.uint8)))
    assert all(type(c) is int for c in f.cells)


@pytest.mark.parametrize(
    "cells, shown",
    [
        ((), None),
        ([], None),
        ((0, True), "True"),
        ((False,), "False"),
        ((1, -1, -2), "-1"),
        ((np.int64(2), np.int8(-3)), "-3"),
        ((0, 1.0), "1.0"),
        ((0, "1"), "'1'"),
    ],
)
def test_filament_rejects_bad_rows_with_the_first_bad_cell(cells, shown):
    # An exact-int row takes a one-check path; everything else goes cell by
    # cell, and the message names the first offending cell.
    message = "at least one cell" if shown is None else f"got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        Filament(cells)


def test_filament_keeps_exact_ints_and_converts_the_rest():
    row = (0, 2, 1, 7)
    assert Filament(row).cells == Filament([0, 2, 1, 7]).cells == row
    mixed = Filament((np.uint8(1), 0, np.int64(3)))
    assert mixed.cells == (1, 0, 3)
    assert all(type(c) is int for c in mixed.cells)
    assert Filament(np.array([2, 0])).cells == (2, 0)


def test_neighborhood_of_interior_and_ends():
    f = Filament.from_string("0123")
    assert neighborhood_of(f, 1, 1) == Neighborhood(1, (0,), (2,))
    assert neighborhood_of(f, 0, 1) == Neighborhood(1, (EMPTY,), (1,))
    assert neighborhood_of(f, 3, 1) == Neighborhood(1, (2,), (EMPTY,))
    # Radius 2 near an end: outermost slots empty first.
    assert neighborhood_of(f, 1, 2) == Neighborhood(2, (EMPTY, 0), (2, 3))
    assert neighborhood_of(f, 3, 2) == Neighborhood(2, (1, 2), (EMPTY, EMPTY))
    with pytest.raises(IndexError):
        neighborhood_of(f, 4, 1)
    with pytest.raises(ValueError):
        neighborhood_of(f, 0, 0)


def test_neighborhood_rejects_interior_empty_slot():
    with pytest.raises(ValueError):
        Neighborhood(2, (0, EMPTY), (1, 1))
    with pytest.raises(ValueError):
        Neighborhood(2, (EMPTY, 0), (EMPTY, 1))
    with pytest.raises(ValueError):
        Neighborhood(2, (0,), (1, 1))


def test_neighborhood_reflected_is_involutive():
    nb = Neighborhood(2, (EMPTY, 0), (1, 2))
    assert nb.reflected() == Neighborhood(2, (2, 1), (0, EMPTY))
    assert nb.reflected().reflected() == nb


def test_token_matches_semantics():
    # The wildcard accepts any real state and never a missing neighbor.
    assert token_matches(ANY, 0)
    assert token_matches(ANY, 5)
    assert not token_matches(ANY, EMPTY)
    assert token_matches(EMPTY, EMPTY)
    assert not token_matches(EMPTY, 0)
    assert token_matches(1, 1)
    assert not token_matches(1, 2)
    assert not token_matches(1, EMPTY)


def test_symmetric_entry_matches_mirror():
    e = RuleEntry(0, (ANY,), (1,), 1)
    straight = Neighborhood(1, (0,), (1,))
    mirrored = Neighborhood(1, (1,), (0,))
    assert e.matches(0, straight, symmetric=False)
    assert not e.matches(0, mirrored, symmetric=False)
    assert e.matches(0, mirrored, symmetric=True)
    assert not e.matches(1, straight, symmetric=True)


def test_hold_by_default():
    rule = Rule("hold", 3, 1, symmetric=False, entries=())
    for c in range(3):
        for nb in rule.admissible_neighborhoods():
            assert rule.next_state(c, nb) == c


@st.composite
def unchecked_rules(draw):
    """``(s, r, symmetric, entries)`` of 2..4 states at radius 1 or 2, with random
    entries that may conflict."""
    s, r = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    token = st.sampled_from([ANY, EMPTY, *range(s)])
    side = st.tuples(*[token] * r)
    entry = st.builds(RuleEntry, st.integers(0, s - 1), side, side, st.integers(0, s - 1))
    return s, r, draw(st.booleans()), tuple(draw(st.lists(entry, max_size=6)))


@given(unchecked_rules())
@settings(max_examples=60, deadline=None)
def test_compiled_table_is_the_interpreter_and_its_conflict_check(drawn):
    s, r, symmetric, entries = drawn
    inputs = [(c, nb) for c in range(s) for nb in Rule("hold", s, r, symmetric, ()).admissible_neighborhoods()]
    ambiguous = any(len({e.next_state for e in entries if e.matches(c, nb, symmetric)}) > 1 for c, nb in inputs)
    try:
        rule = Rule("drawn", s, r, symmetric, entries)
    except RuleConflictError as exc:
        assert ambiguous and "entries disagree on current=" in str(exc)
        return
    assert not ambiguous
    table = rule.lookup_table
    assert not table.flags.writeable
    assert table.dtype == np.uint8 and table.max() < s
    keys = [(c,) + tuple(s if v is EMPTY else v for v in nb.left + nb.right) for c, nb in inputs]
    assert [table[key] for key in keys] == [rule.next_state(c, nb) for c, nb in inputs]
    # Every slot no filament can present holds the current state.
    held = np.ones(table.shape, dtype=bool)
    held[tuple(np.transpose(keys))] = False
    assert (table[held] == np.indices(table.shape)[0][held]).all()


def test_rule_conflict_detection():
    entries = (
        RuleEntry(0, (1,), (ANY,), 1),
        RuleEntry(0, (ANY,), (1,), 0),
    )
    # Both match current=0, left=1, right=1 and disagree.
    with pytest.raises(RuleConflictError):
        Rule("clash", 2, 1, symmetric=False, entries=entries)


def test_symmetric_flag_can_introduce_conflicts():
    entries = (
        RuleEntry(0, (0,), (1,), 1),
        RuleEntry(0, (1,), (0,), 0),
    )
    Rule("ok-ordered", 2, 1, symmetric=False, entries=entries)
    with pytest.raises(RuleConflictError):
        Rule("clash-mirrored", 2, 1, symmetric=True, entries=entries)


def test_rule_validates_entry_shapes():
    with pytest.raises(ValueError):
        Rule("bad", 2, 1, symmetric=False, entries=(RuleEntry(2, (0,), (0,), 0),))
    with pytest.raises(ValueError):
        Rule("bad", 2, 1, symmetric=False, entries=(RuleEntry(0, (0,), (0,), 2),))
    with pytest.raises(ValueError):
        Rule("bad", 2, 1, symmetric=False, entries=(RuleEntry(0, (0, 0), (0, 0), 1),))
    with pytest.raises(ValueError):
        Rule("bad", 2, 1, symmetric=False, entries=(RuleEntry(0, (7,), (0,), 1),))


def test_rule_rejects_more_states_than_uint8_holds():
    # Cells and the lookup table are uint8 and EMPTY is coded as num_states,
    # so the bound must fire before the conflict check walks s*(s+1)**2 inputs.
    with pytest.raises(ValueError, match="> 255"):
        Rule("huge", 256, 1, symmetric=False, entries=(RuleEntry(0, (ANY,), (ANY,), 1),))
    widest = Rule("widest", 255, 1, symmetric=False, entries=())
    assert widest.lookup_table.size == 255 * 256**2


def test_rule_rejects_radius_whose_table_is_too_large():
    # 2 * 3**26 cells; the bound must fire before the conflict check walks
    # the 3**26 admissible neighborhoods.
    with pytest.raises(ValueError, match="more than the limit"):
        Rule("wide", 2, 13, symmetric=False, entries=())
    assert 2 * 3**26 > MAX_TABLE_CELLS >= 2 * 3**14
    widest = Rule("widest", 2, 7, symmetric=False, entries=())
    assert widest.lookup_table.size == 2 * 3**14


def test_admissible_neighborhoods_count():
    # Radius 1: each side is one of s real states or EMPTY.
    rule = Rule("hold", 3, 1, symmetric=False, entries=())
    nbs = list(rule.admissible_neighborhoods())
    assert len(nbs) == 4 * 4
    assert len(set(nbs)) == len(nbs)
    # Radius 2: per side, empties are contiguous and outermost: 1 + s + s^2.
    rule2 = Rule("hold2", 2, 2, symmetric=False, entries=())
    nbs2 = list(rule2.admissible_neighborhoods())
    assert len(nbs2) == (1 + 2 + 4) ** 2


@pytest.mark.parametrize("rule", [automaton_i(), automaton_ii(), bouncer_rule(), clock_rule(2)])
def test_lookup_table_agrees_with_interpreter(rule):
    table = rule.lookup_table
    s = rule.num_states
    assert table.shape == (s,) + (s + 1,) * (2 * rule.radius)
    for current in range(s):
        for nb in rule.admissible_neighborhoods():
            left = tuple(s if v is EMPTY else v for v in nb.left)
            right = tuple(s if v is EMPTY else v for v in nb.right)
            assert table[(current,) + left + right] == rule.next_state(current, nb)


@pytest.mark.parametrize("rule", [automaton_i(), automaton_ii(), bouncer_rule(), clock_rule(2)])
def test_lookup_image_translates_flat_keys(rule):
    table = rule.lookup_table.ravel()
    keys = np.arange(table.size, dtype=np.uint8).tobytes()
    image = _Kernel(rule, 1, 1).image
    assert len(image) == 256
    assert list(keys.translate(image)) == table.tolist()


def test_lookup_table_is_read_only():
    # A rule is checked once, when it is built, so an edited table would step unchecked.
    rule = clock_rule(2)
    with pytest.raises(ValueError, match="read-only"):
        rule.lookup_table[0, 0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        rule.lookup_table.ravel()[0] = 1


def test_tables_past_256_cells_have_no_lookup_image():
    assert _Kernel(Rule("hold", 3, 2, symmetric=False, entries=()), 1, 1).image is None
    assert _Kernel(Rule("hold", 6, 1, symmetric=False, entries=()), 1, 1).image is None
    assert _Kernel(Rule("hold", 5, 1, symmetric=False, entries=()), 1, 1).image is not None


def test_next_state_at_an_end_cell():
    rule = automaton_i()
    nb = Neighborhood(1, (EMPTY,), (1,))
    assert rule.next_state(0, nb) == 2


@pytest.mark.parametrize(
    "rule, nbhd",
    [
        (bouncer_rule(), Neighborhood(1, (1,), (1,))),  # narrower than the rule's radius 2
        (automaton_i(), Neighborhood(2, (0, 0), (1, 1))),  # wider than the rule's radius 1
        (automaton_i(), Neighborhood(0, (), ())),
    ],
)
def test_next_state_rejects_a_neighborhood_of_another_radius(rule, nbhd):
    with pytest.raises(ValueError, match=rf"radius {nbhd.radius} .* radius {rule.radius}$"):
        rule.next_state(0, nbhd)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
def test_symmetric_rule_commutes_with_reflection(cells):
    # Reflecting a filament then stepping equals stepping then reflecting.
    from filaments.engine import step

    rule = automaton_i()
    f = Filament(tuple(cells))
    r = Filament(tuple(reversed(cells)))
    assert step(rule, r).cells == tuple(reversed(step(rule, f).cells))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=10), st.integers(0, 9))
def test_neighborhood_of_matches_manual_read(cells, index):
    f = Filament(tuple(cells))
    index %= len(f)
    nb = neighborhood_of(f, index, 1)
    expected_left = cells[index - 1] if index > 0 else EMPTY
    expected_right = cells[index + 1] if index + 1 < len(cells) else EMPTY
    assert nb.left == (expected_left,)
    assert nb.right == (expected_right,)
