"""Evolution, cycle detection, and whole-state-space classification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from filaments import engine
from filaments.core import ANY, EMPTY, Filament, Rule, RuleEntry, neighborhood_of
from filaments.engine import (
    TrajectoryReport,
    WaveType,
    _successor_map,
    all_states_matrix,
    classify_functional_graph,
    default_horizon,
    detect_cycle,
    neighborhood_keys,
    run_trace,
    state_ids,
    step,
    step_array,
    successor_array,
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


@pytest.mark.parametrize("cell", [3, 16, 255])
@pytest.mark.parametrize("shape", ["single", "multi"])
def test_step_array_rejects_out_of_range_cells(cell, shape):
    # A uint8 key would wrap: the single cell 16 reads key 271 = 15 (mod 256).
    row = [cell] if shape == "single" else [0, cell, 2, 1]
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        step_array(automaton_i(), np.array([row], dtype=np.uint8))


@pytest.mark.parametrize("row", [[-1], [0, 1, -1, 2]])
def test_step_array_rejects_negative_cells(row):
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        step_array(automaton_i(), np.array([row], dtype=np.int64))


def test_step_array_returns_fresh_writable_arrays():
    for rule in (automaton_i(), Rule("hold", 3, 2, symmetric=False, entries=())):
        states = np.array([[0, 2, 2, 2], [1, 0, 2, 1]], dtype=np.uint8)
        first = step_array(rule, states)
        want = first.copy()
        assert first.flags.writeable
        first[...] = 1
        states[...] = 0
        second = step_array(rule, np.array([[0, 2, 2, 2], [1, 0, 2, 1]], dtype=np.uint8))
        assert second.tolist() == want.tolist()
        assert not np.shares_memory(first, second)


def _patterns_overlap(a, b):
    """Whether two token patterns (left + right) can match one neighborhood."""
    return all(
        (x is EMPTY) == (y is EMPTY) and (x in (EMPTY, ANY) or y in (EMPTY, ANY) or x == y)
        for x, y in zip(a, b)
    )


@st.composite
def conflict_free_rules(draw, s, r):
    """Random rules with literal, ANY and EMPTY tokens; an entry whose pattern
    overlaps a kept one with another next state is dropped."""
    symmetric = draw(st.booleans())
    token = st.one_of(st.integers(0, s - 1), st.just(ANY), st.just(EMPTY))
    kept = []
    for _ in range(draw(st.integers(0, 8))):
        current, nxt = draw(st.integers(0, s - 1)), draw(st.integers(0, s - 1))
        tokens = tuple(draw(token) for _ in range(2 * r))
        clash = any(
            e.current == current
            and e.next_state != nxt
            and (
                _patterns_overlap(tokens, e.left + e.right)
                or symmetric and _patterns_overlap(tokens, (e.left + e.right)[::-1])
            )
            for e in kept
        )
        if not clash:
            kept.append(RuleEntry(current, tokens[:r], tokens[r:], nxt))
    return Rule("random", s, r, symmetric, tuple(kept))


@pytest.mark.parametrize(
    "s, r, key_dtype",
    [(2, 1, np.uint8), (3, 1, np.uint8), (4, 1, np.uint8),
     (2, 2, np.uint8), (3, 2, np.uint16), (4, 2, np.uint16)],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_step_array_matches_interpreter_on_random_rules(s, r, key_dtype, data):
    rule = data.draw(conflict_free_rules(s, r))
    n = data.draw(st.integers(1, 7))
    row = st.lists(st.integers(0, s - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    states = np.array(rows, dtype=np.uint8)
    assert neighborhood_keys(states, s, r).dtype == key_dtype
    expected = [
        [rule.next_state(f[i], neighborhood_of(f, i, r)) for i in range(n)]
        for f in map(Filament, rows)
    ]
    assert step_array(rule, states).tolist() == expected


@given(hnp.arrays(np.uint8, st.tuples(st.integers(1, 5), st.integers(1, 4)), elements=st.integers(0, 254)))
def test_neighborhood_keys_with_wide_tables(states):
    keys = neighborhood_keys(states, 255, 1)
    padded = np.pad(states, ((0, 0), (1, 1)), constant_values=255)
    expected = np.ravel_multi_index((states, padded[:, :-2], padded[:, 2:]), (255, 256, 256))
    assert keys.dtype == np.uint32
    assert (keys == expected).all()


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


def test_trace_holds_its_rows_packed_and_compares_by_value():
    rule = automaton_ii()
    start = Filament.from_string("0000001")
    trace = run_trace(rule, start, 6)
    assert trace.rows.shape == (7, 7) and trace.rows.dtype == np.uint8
    assert not trace.rows.flags.writeable
    states = [start]
    for _ in range(6):
        states.append(step(rule, states[-1]))
    assert trace.states == tuple(states) == tuple(trace) == trace[:]
    assert trace[-1] == states[-1] and trace[2:4] == tuple(states[2:4])
    again = run_trace(rule, start, 6)
    assert again == trace and hash(again) == hash(trace)
    assert run_trace(rule, start, 5) != trace
    assert run_trace(automaton_i(), start, 6) != trace  # another rule, other rows
    assert engine.Trace("other", trace.rows) != trace  # same rows, another name


def hamming(a, b):
    """How many cell positions differ between two same-length filaments."""
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a.cells, b.cells) if x != y)


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


def reference_wave_type(cycle, k_a):
    """The ``WaveType`` of a cycle of filaments, from the Hamming distance of each
    step, the step from the last state back to the first included."""
    return engine._wave_type([hamming(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])], len(cycle[0]), k_a)


def test_wave_type_mixed_band():
    # Period-2 flip where 2 of 3 cells change: neither sparse (k_a=1) nor full.
    states = [Filament.from_string("001"), Filament.from_string("100")]
    assert reference_wave_type(states, k_a=1) == WaveType("mixed", 2)
    assert reference_wave_type(states, k_a=2) == WaveType("A", 2)
    # Every cell changes at every step: kind B whatever k_a; k_a >= n is never sparse.
    assert engine._wave_type([3, 3], 3, k_a=1) == engine._wave_type([3, 3], 3, k_a=5) == WaveType("B", 3)
    assert engine._wave_type([1, 2], 2, k_a=2) == WaveType("mixed", 2)


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


def test_detect_cycle_rejects_negative_horizon():
    with pytest.raises(ValueError, match="horizon"):
        detect_cycle(automaton_i(), Filament.from_string("022222"), horizon=-3)


@pytest.mark.parametrize("cell", [3, 256, 2**70])
def test_out_of_range_start_cells_raise_value_error(cell):
    start = Filament((0, cell, 2))
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        detect_cycle(automaton_i(), start)
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        detect_cycle(automaton_i(), start, horizon=0)
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        run_trace(automaton_i(), start, 0)


def reference_detect_cycle(rule, initial, horizon=None, k_a=2):
    """``detect_cycle`` as first written: a dict of cell tuples and a ``Filament`` history."""
    if horizon is None:
        horizon = default_horizon(len(initial))
    seen = {initial.cells: 0}
    history = [initial]
    row = np.array([initial.cells], dtype=np.uint8)
    for t in range(1, horizon + 1):
        row = step_array(rule, row)
        cells = tuple(int(v) for v in row[0])
        if cells in seen:
            start = seen[cells]
            period = t - start
            if period == 1:
                return TrajectoryReport("quiescent", start, 1, None, start, horizon, 0)
            wave = reference_wave_type(history[start:], k_a)
            return TrajectoryReport("cyclic", start, period, wave, None, horizon, wave.k_max)
        seen[cells] = t
        history.append(Filament(cells))
    return TrajectoryReport("unresolved", None, None, None, None, horizon, None)


def assert_matches_reference(rule, start, k_a, horizon=None):
    report = detect_cycle(rule, start, horizon=horizon, k_a=k_a)
    assert report == reference_detect_cycle(rule, start, horizon=horizon, k_a=k_a)
    return report


def assert_horizon_boundary_matches_reference(rule, start, k_a):
    """Both resolve with exactly transient + period steps; neither with one step fewer."""
    report = assert_matches_reference(rule, start, k_a)
    if report.outcome != "unresolved":
        needed = report.transient + report.period
        assert assert_matches_reference(rule, start, k_a, horizon=needed).outcome == report.outcome
        assert assert_matches_reference(rule, start, k_a, horizon=needed - 1).outcome == "unresolved"


CATALOGUE_TRAJECTORY_RULES = [automaton_i(), automaton_ii(), bouncer_rule(), clock_rule(2), clock_rule(3)]


# The automaton-ii cycle 022 -> 002 -> 001 -> 011 -> 022 changes 1, 1, 1, 2 cells: entered
# at 022 its closing step is the only one of 2 cells, entered at 011 its first step is.
@pytest.mark.parametrize(
    "rule, text, k_a, kind",
    [(clock_rule(2), "0010", 1, "B"), (automaton_i(), "0222", 1, "A"), (automaton_ii(), "022", 1, "mixed"),
     (automaton_ii(), "022", 2, "A"), (automaton_ii(), "011", 2, "A"), (bouncer_rule(), "0110", 3, "A"),
     (automaton_ii(), "0001", 2, "mixed")],
)
def test_detect_cycle_matches_reference_on_each_wave_kind(rule, text, k_a, kind):
    assert assert_matches_reference(rule, Filament.from_string(text), k_a).wave.kind == kind


def starts(s, max_n):
    """Filaments of 1..max_n cells over s states, lengths drawn evenly."""
    cells = st.integers(1, max_n).flatmap(lambda n: st.lists(st.integers(0, s - 1), min_size=n, max_size=n))
    return cells.map(lambda c: Filament(tuple(c)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CATALOGUE_TRAJECTORY_RULES), st.integers(1, 3), st.data())
def test_detect_cycle_matches_reference_on_catalogue_rules(rule, k_a, data):
    assert_matches_reference(rule, data.draw(starts(rule.num_states, 200)), k_a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CATALOGUE_TRAJECTORY_RULES), st.integers(1, 3), st.data())
def test_detect_cycle_horizon_boundary_on_catalogue_rules(rule, k_a, data):
    assert_horizon_boundary_matches_reference(rule, data.draw(starts(rule.num_states, 30)), k_a)


@pytest.mark.parametrize("s, r", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)])
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.data())
def test_detect_cycle_matches_reference_on_random_rules(s, r, k_a, data):
    rule = data.draw(conflict_free_rules(s, r))
    assert_horizon_boundary_matches_reference(rule, data.draw(starts(s, 12)), k_a)


def interpreter_step(rule, cells):
    """One step of every cell through the scalar interpreter ``Rule.next_state``."""
    f = Filament(cells)
    return tuple(rule.next_state(c, neighborhood_of(f, i, rule.radius)) for i, c in enumerate(cells))


@st.composite
def dense_rules(draw, s):
    """Radius-1 rules with a random next state for every concrete input; unlike sparse
    rules, which mostly settle, they often cycle."""
    codes = (*range(s), EMPTY)
    entries = [
        RuleEntry(c, (left,), (right,), draw(st.integers(0, s - 1)))
        for c in range(s) for left in codes for right in codes
    ]
    return Rule("dense", s, 1, symmetric=False, entries=tuple(entries))


@pytest.mark.parametrize("s, r", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)])
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.data())
def test_trajectories_match_interpreter_on_random_rules(s, r, k_a, data):
    # uint8 keys are looked up by translate, uint16 keys (3, 2) and (4, 2) by gather. Every
    # row comes out of buffers reused from the step before, so a stale byte shows here.
    rules = conflict_free_rules(s, r)
    rule = data.draw(rules if r > 1 else st.one_of(rules, dense_rules(s)))
    start = data.draw(starts(s, 10))
    horizon = 40
    rows = [start.cells]
    for _ in range(horizon):
        rows.append(interpreter_step(rule, rows[-1]))
    assert [f.cells for f in run_trace(rule, start, horizon)] == rows
    report = detect_cycle(rule, start, horizon=horizon, k_a=k_a)
    first = {}
    for t, row in enumerate(rows):
        if row in first:
            break
        first[row] = t
    else:
        assert report.outcome == "unresolved"
        return
    transient, period = first[row], t - first[row]
    cycle = [Filament(row) for row in rows[transient : t + 1]]
    k_max = max(hamming(a, b) for a, b in zip(cycle, cycle[1:]))
    assert report.outcome == ("quiescent" if period == 1 else "cyclic")
    assert (report.transient, report.period, report.max_cells_changed) == (transient, period, k_max)


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_six_sweep_period_law_at_large_n(n):
    tracemalloc.start()
    try:
        report = detect_cycle(automaton_i(), Filament((0,) + (2,) * (n - 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.outcome, report.transient, report.period) == ("cyclic", 0, 6 * (n - 1))
    assert report.wave == WaveType("A", 1)
    # One byte per cell per visited state: 25.6 MB measured at n=2000, period 11994.
    assert peak < 40e6


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_two_sweep_period_law_at_large_n(n):
    report = detect_cycle(automaton_ii(), Filament((0,) * (n - 1) + (1,)))
    assert (report.outcome, report.transient, report.period) == ("cyclic", 0, 2 * (n - 1))


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


@pytest.mark.parametrize("n", [0, -1])
def test_successor_array_rejects_lengths_below_one(n):
    with pytest.raises(ValueError, match="at least one cell"):
        successor_array(automaton_i(), n)
    with pytest.raises(ValueError, match="at least one cell"):
        _successor_map(automaton_i().lookup_table.reshape(1, -1), 3, 1, n)


def test_successor_map_rejects_ids_past_int64_before_building(monkeypatch):
    # 3**40 ids overflow int64; the half-window tables alone would take 205 GiB.
    def unbuilt(*args):
        raise RuntimeError("a state matrix was built")

    monkeypatch.setattr(engine, "all_states_matrix", unbuilt)
    with pytest.raises(ValueError, match="overflow int64"):
        successor_array(automaton_i(), 40)
    tables = np.zeros((3, 48), dtype=np.uint8)
    with pytest.raises(ValueError, match="overflow int64"):
        _successor_map(tables, 3, 1, 39)  # 3 * 3**39 > 2**63 - 1
    with pytest.raises(RuntimeError, match="state matrix"):
        _successor_map(tables[:2], 3, 1, 39)  # 2 * 3**39 fits, so the build starts


# Every (s, r) of the successor map's property test, with the lengths 1..7 whose
# s**n states stay within 5 * 10**4; every n < 2r is among them.
BUILDER_CASES = [(s, 1) for s in range(2, 6)] + [(s, 2) for s in range(2, 5)]


@pytest.mark.parametrize("s, r", BUILDER_CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_successor_map_matches_the_census_pipeline_and_the_interpreter(s, r, data):
    rules = [data.draw(conflict_free_rules(s, r)) for _ in range(2)]
    tables = np.stack([rule.lookup_table.ravel() for rule in rules])
    for n in (n for n in range(1, 8) if s**n <= 5 * 10**4):
        matrix = all_states_matrix(s, n)
        both = _successor_map(tables, s, r, n)
        assert both.shape == (2, s**n) and both.dtype == np.int64
        for b, rule in enumerate(rules):
            succ = successor_array(rule, n)
            assert np.array_equal(succ, state_ids(step_array(rule, matrix), s)), n
            assert np.array_equal(both[b] - b * s**n, succ), n
            for state_id in data.draw(st.lists(st.integers(0, s**n - 1), min_size=1, max_size=3)):
                f = Filament(tuple(matrix[state_id].tolist()))
                nxt = [rule.next_state(f[i], neighborhood_of(f, i, r)) for i in range(n)]
                assert succ[state_id] == state_ids(np.array([nxt]), s)[0], (n, state_id)


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


def full_doubling_functional_graph(succ):
    """Second reference: the classifier that always runs ceil(log2 N) rounds of
    each doubling pass, onto the cycles and over the transients."""
    succ = np.asarray(succ, dtype=np.int64)
    total = len(succ)
    landing = succ
    for _ in range(max(total - 1, 0).bit_length()):
        landing = landing.take(landing)
    transient = np.ones(total, dtype=np.int64)  # 1 off a cycle, summed along walks below
    transient[landing] = 0
    cycle = np.flatnonzero(transient == 0)
    label = np.arange(len(cycle))
    period = np.zeros(total, dtype=np.int64)
    period[cycle] = label
    jump = period[succ[cycle]]
    for _ in range(max(len(cycle) - 1, 0).bit_length()):
        np.minimum(label, label[jump], out=label)
        jump = jump[jump]
    period[cycle] = np.bincount(label)[label]
    period = period[landing]
    for _ in range(max(total - 1, 0).bit_length()):
        transient += transient[succ]
        succ = succ[succ]
    return transient, period


def assert_matches_walk(succ):
    transient, period = classify_functional_graph(np.asarray(succ, dtype=np.int64))
    want_transient, want_period = walk_functional_graph(succ)
    assert transient.dtype == period.dtype == np.int64
    assert transient.tolist() == want_transient.tolist()
    assert period.tolist() == want_period.tolist()


def assert_matches_both_references(succ):
    """The per-node walk and the full-doubling classifier both agree."""
    assert_matches_walk(succ)
    transient, period = classify_functional_graph(np.asarray(succ, dtype=np.int64))
    want_transient, want_period = full_doubling_functional_graph(succ)
    assert np.array_equal(transient, want_transient)
    assert np.array_equal(period, want_period)


def relabelled(succ, seed):
    """``succ`` with its node ids permuted, so no shape depends on node order."""
    succ = np.asarray(succ, dtype=np.int64)
    perm = np.random.default_rng(seed).permutation(len(succ))
    out = np.empty_like(succ)
    out[perm] = perm[succ]
    return out


def tail_into_cycle(tail, cycle):
    """A path of ``tail`` nodes into a cycle of ``cycle`` nodes: nodes 0..cycle-1
    form the cycle and node cycle+i steps to node cycle+i-1, so its transient is i+1."""
    return [(i + 1) % cycle for i in range(cycle)] + list(range(cycle - 1, cycle + tail - 1))


def trees_off_one_cycle(cycle, parents):
    """One cycle of ``cycle`` nodes with tree nodes hung off it: tree node j
    steps to node ``parents[j] % (cycle + j)``, a cycle node or an earlier tree
    node, so the trees are random recursive trees, shallow and many."""
    return [(i + 1) % cycle for i in range(cycle)] + [p % (cycle + j) for j, p in enumerate(parents)]


successor_lists = st.integers(1, 500).flatmap(
    lambda size: st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(successor_lists)
def test_classify_functional_graph_matches_walk(succ):
    assert_matches_both_references(succ)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 700), st.integers(1, 300), seeds)
def test_classify_functional_graph_matches_full_doubling_on_long_tails(tail, cycle, seed):
    assert_matches_both_references(relabelled(tail_into_cycle(tail, cycle), seed))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500).flatmap(lambda size: st.permutations(range(size))))
def test_classify_functional_graph_matches_full_doubling_on_permutations(perm):
    assert_matches_both_references(perm)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.lists(st.integers(0, 2**16), max_size=500), seeds)
def test_classify_functional_graph_matches_full_doubling_on_trees_off_one_cycle(cycle, parents, seed):
    assert_matches_both_references(relabelled(trees_off_one_cycle(cycle, parents), seed))


@pytest.mark.parametrize("size", [1, 2, 3, 64, 65, 500])
def test_classify_functional_graph_extremes(size):
    assert_matches_walk([0] * size)  # a self-loop, alone at size 1, fed by all others
    assert_matches_walk([(i + 1) % size for i in range(size)])  # one cycle through all
    # Every node on a cycle, so the label pass covers them all: a random
    # permutation, and 2-cycles (with one self-loop at an odd size).
    assert_matches_walk(np.random.default_rng(size).permutation(size).tolist())
    assert_matches_walk([i ^ 1 if i ^ 1 < size else i for i in range(size)])
    # A path of length size-1 into a fixed point needs every doubling round.
    path = [min(i + 1, size - 1) for i in range(size)]
    transient, period = classify_functional_graph(np.array(path))
    assert transient.tolist() == list(range(size - 1, -1, -1))
    assert period.tolist() == [1] * size
    assert_matches_walk(path)
    # Tails of 2**k and 2**k + 1 nodes into a cycle of ``size`` nodes: the walk
    # must stop after exactly k and k + 1 rounds.
    for k in range(9):
        for tail in (2**k, 2**k + 1):
            transient, period = classify_functional_graph(np.array(tail_into_cycle(tail, size)))
            assert transient.tolist() == [0] * size + list(range(1, tail + 1))
            assert period.tolist() == [size] * (size + tail)


@pytest.mark.parametrize("succ", [[-1, 0], [1.7, 0.2], [5, 0], [2, 0], [True, False]], ids=str)
def test_classify_functional_graph_rejects_ids_outside_the_nodes(succ):
    with pytest.raises(ValueError, match=r"integers in \[0, 2\)"):
        classify_functional_graph(np.array(succ))


def test_classify_functional_graph_of_no_nodes():
    for empty in (np.array([], dtype=np.int64), np.array([])):
        transient, period = classify_functional_graph(empty)
        assert transient.tolist() == period.tolist() == []


def test_classify_functional_graph_small_example():
    # 0->1->2->1 and 3->3: transients 1,0,0,0 and periods 2,2,2,1.
    for dtype in (np.int64, np.uint8, np.int16):
        transient, period = classify_functional_graph(np.array([1, 2, 1, 3], dtype=dtype))
        assert transient.dtype == period.dtype == np.int64
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
