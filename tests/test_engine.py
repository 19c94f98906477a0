"""Evolution, cycle detection, and whole-state-space classification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filaments.core import Filament, Rule, RuleEntry, neighborhood_of
from filaments.engine import (
    all_states_matrix,
    classify_functional_graph,
    count_steps,
    default_horizon,
    detect_cycle,
    hamming,
    run_trace,
    state_ids,
    step,
    step_array,
    successor_array,
    wave_type_of,
)
from filaments.rules import (
    automaton_i,
    automaton_ii,
    bouncer_rule,
    clock_rule,
    oblivious_example_rule,
)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=14))
def test_step_matches_per_cell_interpreter(cells):
    rule = automaton_ii()
    f = Filament(tuple(cells))
    expected = tuple(
        rule.next_state(f[i], neighborhood_of(f, i, rule.radius)) for i in range(len(f))
    )
    assert step(rule, f).cells == expected


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_step_matches_interpreter_at_radius_two(cells):
    rule = bouncer_rule()
    f = Filament(tuple(cells))
    expected = tuple(
        rule.next_state(f[i], neighborhood_of(f, i, rule.radius)) for i in range(len(f))
    )
    assert step(rule, f).cells == expected


def test_step_array_shape_checks():
    rule = automaton_i()
    with pytest.raises(ValueError):
        step_array(rule, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        step_array(rule, np.zeros((2, 0), dtype=np.uint8))


def test_step_array_rows_are_independent():
    rule = automaton_i()
    rows = np.array([[0, 2, 2, 2], [2, 2, 2, 0], [1, 1, 1, 1]], dtype=np.uint8)
    stepped = step_array(rule, rows)
    for i in range(3):
        single = step_array(rule, rows[i : i + 1])
        assert (stepped[i] == single[0]).all()


def test_run_trace_records_every_state():
    rule = clock_rule(2)
    trace = run_trace(rule, Filament.from_string("000"), 5)
    assert len(trace) == 6
    for t in range(5):
        assert trace[t + 1] == step(rule, trace[t])
    with pytest.raises(ValueError):
        run_trace(rule, Filament.from_string("000"), -1)


def test_hamming_and_count_steps():
    a = Filament.from_string("0120")
    b = Filament.from_string("0210")
    assert hamming(a, b) == 2
    assert hamming(a, a) == 0
    with pytest.raises(ValueError):
        hamming(a, Filament.from_string("01"))
    assert count_steps(Filament.from_string("0120")) == 3
    assert count_steps(Filament.from_string("0000")) == 0
    assert count_steps(Filament.from_string("7")) == 0


def test_wave_type_distinguishes_kinds():
    # A 2-cell clock cycle changes every cell every step: kind B.
    rule = clock_rule(2)
    report = detect_cycle(rule, Filament.from_string("00"))
    assert report.wave.kind == "B"
    assert report.wave.k_max == 2
    # The six-sweep cycle changes one cell per step: kind A.
    report = detect_cycle(automaton_i(), Filament.from_string("0222"))
    assert report.wave.kind == "A"
    assert report.wave.k_max == 1


def test_wave_type_of_rejects_empty_cycle():
    with pytest.raises(ValueError):
        wave_type_of(())


def test_wave_type_mixed_band():
    # Period-2 flip where 2 of 3 cells change: neither sparse (k_a=1) nor full.
    states = (Filament.from_string("001"), Filament.from_string("100"))
    assert wave_type_of(states, k_a=1).kind == "mixed"
    assert wave_type_of(states, k_a=2).kind == "A"


def test_detect_cycle_quiescent():
    report = detect_cycle(automaton_ii(), Filament.from_string("0000"))
    assert report.outcome == "quiescent"
    assert report.settle_time == 0
    assert report.period == 1
    assert report.max_cells_changed == 0


def test_detect_cycle_on_six_sweep_cycle():
    report = detect_cycle(automaton_i(), Filament.from_string("022222"))
    assert report.outcome == "cyclic"
    assert report.transient == 0
    assert report.period == 30
    assert report.wave.kind == "A"
    assert report.wave.k_max == 1


def test_detect_cycle_unresolved_when_horizon_too_small():
    report = detect_cycle(automaton_i(), Filament.from_string("022222"), horizon=5)
    assert report.outcome == "unresolved"
    assert report.horizon == 5
    assert report.period is None


def test_default_horizon_scales_with_length():
    assert default_horizon(8) == 500
    assert default_horizon(64) > 6 * 63


@settings(max_examples=60)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=9), st.booleans())
def test_detect_cycle_replays(cells, use_second_rule):
    # The reported transient and period must reproduce under plain stepping.
    rule = automaton_ii() if use_second_rule else automaton_i()
    initial = Filament(tuple(cells))
    report = detect_cycle(rule, initial)
    assert report.outcome in ("quiescent", "cyclic")
    f = initial
    for _ in range(report.transient):
        f = step(rule, f)
    entry = f
    for _ in range(report.period):
        f = step(rule, f)
    assert f == entry
    # Minimality: no earlier repeat of the cycle entry state.
    if report.period > 1:
        g = step(rule, entry)
        for _ in range(report.period - 2):
            assert g != entry
            g = step(rule, g)


def test_all_states_matrix_is_base_expansion():
    m = all_states_matrix(3, 2)
    assert m.shape == (9, 2)
    assert m[5].tolist() == [1, 2]
    assert m[0].tolist() == [0, 0]
    assert m[8].tolist() == [2, 2]
    m2 = all_states_matrix(2, 3)
    assert m2[6].tolist() == [1, 1, 0]


@pytest.mark.parametrize("s,n", [(1, 3), (2, 1), (2, 7), (3, 5), (5, 3)])
def test_all_states_matrix_rows_are_digits_and_ids_invert_them(s, n):
    m = all_states_matrix(s, n)
    ids = np.arange(s**n)
    digits = [(ids // s**p) % s for p in range(n - 1, -1, -1)]
    assert m.dtype == np.uint8
    assert (m == np.stack(digits, axis=1)).all()
    assert (state_ids(m, s) == ids).all()


def test_all_states_matrix_peak_memory_is_about_its_result():
    tracemalloc.start()
    try:
        m = all_states_matrix(3, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * m.nbytes


@pytest.mark.parametrize("rule,n", [(automaton_i(), 4), (bouncer_rule(), 6)])
def test_successor_array_matches_step(rule, n):
    succ = successor_array(rule, n)
    matrix = all_states_matrix(rule.num_states, n)
    powers = rule.num_states ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for state_id in (0, 1, rule.num_states**n - 1, rule.num_states**n // 2):
        f = Filament(tuple(int(v) for v in matrix[state_id]))
        stepped = step(rule, f)
        assert succ[state_id] == int(np.array(stepped.cells) @ powers)


def walk_functional_graph(succ):
    """Reference classifier: follow each unclassified node until it meets a
    classified node or closes a new cycle, then label the whole path."""
    total = len(succ)
    period = np.zeros(total, dtype=np.int64)
    transient = np.zeros(total, dtype=np.int64)
    for start in range(total):
        if period[start]:
            continue
        path, pos = [], {}
        x = start
        while period[x] == 0 and x not in pos:
            pos[x] = len(path)
            path.append(x)
            x = int(succ[x])
        if period[x]:
            for i, y in enumerate(path):
                period[y] = period[x]
                transient[y] = transient[x] + len(path) - i
        else:
            k = pos[x]
            for i, y in enumerate(path):
                period[y] = len(path) - k
                transient[y] = max(k - i, 0)
    return transient, period


def assert_matches_walk(succ):
    transient, period = classify_functional_graph(np.asarray(succ, dtype=np.int64))
    want_transient, want_period = walk_functional_graph(succ)
    assert transient.dtype == period.dtype == np.int64
    assert transient.tolist() == want_transient.tolist()
    assert period.tolist() == want_period.tolist()


successor_lists = st.integers(1, 500).flatmap(
    lambda size: st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
)


@settings(max_examples=200, deadline=None)
@given(successor_lists)
def test_classify_functional_graph_matches_walk(succ):
    assert_matches_walk(succ)


@pytest.mark.parametrize("size", [1, 2, 3, 64, 65, 500])
def test_classify_functional_graph_extremes(size):
    assert_matches_walk([0] * size)  # a self-loop, alone at size 1, fed by all others
    assert_matches_walk([(i + 1) % size for i in range(size)])  # one cycle through all
    # A path of length size-1 into a fixed point needs every doubling round.
    path = [min(i + 1, size - 1) for i in range(size)]
    transient, period = classify_functional_graph(np.array(path))
    assert transient.tolist() == list(range(size - 1, -1, -1))
    assert period.tolist() == [1] * size
    assert_matches_walk(path)


def test_classify_functional_graph_small_example():
    # 0->1->2->1 and 3->3: transients 1,0,0,0 and periods 2,2,2,1.
    succ = np.array([1, 2, 1, 3])
    transient, period = classify_functional_graph(succ)
    assert transient.tolist() == [1, 0, 0, 0]
    assert period.tolist() == [2, 2, 2, 1]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.data())
def test_classify_functional_graph_agrees_with_detect_cycle(n, data):
    rule = automaton_i()
    succ = successor_array(rule, n)
    transient, period = classify_functional_graph(succ)
    state_id = data.draw(st.integers(0, 3**n - 1))
    cells = tuple(int(v) for v in all_states_matrix(3, n)[state_id])
    report = detect_cycle(rule, Filament(cells))
    assert report.transient == transient[state_id]
    assert report.period == period[state_id]


def test_oblivious_example_flickers_forever():
    # Any state with a 1 keeps flickering with period 2.
    report = detect_cycle(oblivious_example_rule(), Filament.from_string("0110"))
    assert report.outcome == "cyclic"
    assert report.period == 2
