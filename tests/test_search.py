"""Exhaustive two-state scan machinery and the three-state viability hunt."""

import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filaments import search
from filaments.core import Filament, neighborhood_of
from filaments.engine import all_states_matrix, detect_cycle, run_trace
from filaments.rules import automaton_i, automaton_ii, classify_rule, clock_rule, oblivious_example_rule
from filaments.search import (
    RULE_SPACE_SIZE,
    SweepParams,
    enumerate_sweep_params,
    fingerprint16,
    hunt_viable_3state,
    interesting_mask,
    rule_from_index,
    rule_index,
    search_type_a,
    sweep_rule,
    write_rule_audit_csv,
)

# Sweep parameters that reproduce the two catalogue sweep rules.
FIRST_SWEEP = SweepParams(bulk=((1, 1), (2, 2), (0, 0)), end=((1, 2), (2, 0), (0, 1)))
SECOND_SWEEP = SweepParams(bulk=((1, 1), (0, 2), (0, 0)), end=(None, (1, 2), (0, 1)))


# -- rule indexing ---------------------------------------------------------------


def test_rule_space_size():
    assert RULE_SPACE_SIZE == 2**18


@given(st.integers(0, RULE_SPACE_SIZE - 1))
@settings(max_examples=40)
def test_rule_index_round_trip(index):
    assert rule_index(rule_from_index(index)) == index


def test_known_rule_indices():
    assert rule_index(oblivious_example_rule()) == 186
    assert rule_index(clock_rule(2)) == 4039
    assert (rule_from_index(186).lookup_table == oblivious_example_rule().lookup_table).all()
    assert (rule_from_index(4039).lookup_table == clock_rule(2).lookup_table).all()


def test_rule_index_bit_layout():
    # Bit (current*9 + left*3 + right) gives the next state directly, with
    # neighbor code 2 standing for a missing neighbor. With only bit 10 set
    # (current 1, left 0, right 1) that one input survives; all else drops
    # to 0.
    rule = rule_from_index(1 << (1 * 9 + 0 * 3 + 1))
    from filaments.engine import step

    assert step(rule, Filament.from_string("011")).cells == (0, 1, 0)
    assert step(rule, Filament.from_string("111")).cells == (0, 0, 0)


def test_rule_index_rejects_foreign_rules():
    from filaments.rules import bouncer_rule

    with pytest.raises(ValueError):
        rule_index(automaton_i())  # three states
    with pytest.raises(ValueError):
        rule_index(bouncer_rule())  # radius two


def test_interesting_mask_count_and_samples():
    mask = interesting_mask()
    assert mask.shape == (RULE_SPACE_SIZE,)
    assert int(mask.sum()) == 260100
    for index in (0, 186, 4039, 91, 262143, 54378, 123456):
        assert bool(mask[index]) == classify_rule(rule_from_index(index)).interesting


def test_fingerprint_groups_act_identically_on_real_filaments():
    # Rules sharing a fingerprint differ only on single-cell filaments.
    rng = np.random.default_rng(3)
    indices = rng.integers(0, RULE_SPACE_SIZE, size=8)
    fps = fingerprint16(np.asarray(indices))
    groups: dict[int, list[int]] = {}
    all_indices = np.arange(RULE_SPACE_SIZE)
    all_fps = fingerprint16(all_indices)
    for fp in fps[:3]:
        members = all_indices[all_fps == fp][:4]
        rules = [rule_from_index(int(i)) for i in members]
        for cells in ((0, 1), (1, 0, 1, 1), (0, 0, 0), (1, 1, 1, 1, 0)):
            traces = {run_trace(r, Filament(cells), 6).states for r in rules}
            assert len(traces) == 1


def test_audit_csv_covers_the_whole_space():
    buf = io.StringIO()
    write_rule_audit_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "index,row0,row1,oblivious,strongly_connected,min_out_degree,interesting,fingerprint"
    assert len(lines) == RULE_SPACE_SIZE + 1
    assert lines[1] == "0,0,0,1,0,1,0,0"
    # The oblivious example: oblivious, strongly connected, not interesting.
    assert lines[187] == "186,186,0,1,1,1,0,186"


# -- the scan ---------------------------------------------------------------------


def brute_has_type_a_cycle(rule, n, k_a=2):
    from itertools import product

    for cells in product(range(2), repeat=n):
        report = detect_cycle(rule, Filament(cells))
        if (
            report.outcome == "cyclic"
            and report.transient == 0
            and report.wave.kind == "A"
            and report.wave.k_max <= k_a
        ):
            return True
    return False


def test_scan_agrees_with_brute_force_on_sample():
    rng = np.random.default_rng(11)
    mask = interesting_mask()
    pool = np.flatnonzero(mask)
    indices = [int(i) for i in rng.choice(pool, size=10, replace=False)]
    indices += [4039, 186]  # clock (type B cycles) and oblivious (filtered out)
    verdict = search_type_a(lengths=(4, 5), rule_indices=indices)
    assert verdict.complete
    found = {w.rule_index for w in verdict.witnesses}
    for index in indices:
        rule = rule_from_index(index)
        expected = mask[index] and (
            brute_has_type_a_cycle(rule, 4) or brute_has_type_a_cycle(rule, 5)
        )
        assert (index in found) == expected, index


def test_scan_counts_and_witness_uniqueness():
    rng = np.random.default_rng(5)
    indices = [int(i) for i in rng.choice(RULE_SPACE_SIZE, size=400, replace=False)]
    verdict = search_type_a(lengths=(4, 5, 6), rule_indices=indices)
    assert verdict.rules_total == len(indices)
    assert verdict.rules_with_type_a_cycle == len(verdict.witnesses)
    assert len({w.rule_index for w in verdict.witnesses}) == len(verdict.witnesses)
    assert verdict.rules_with_sweeping_type_a_cycle <= verdict.rules_with_travelling_type_a_cycle
    assert verdict.rules_with_travelling_type_a_cycle <= verdict.rules_with_type_a_cycle
    assert verdict.rules_interesting <= verdict.rules_total
    # Witnesses are reported in rule order at the first length that shows one.
    assert [w.rule_index for w in verdict.witnesses] == sorted(
        w.rule_index for w in verdict.witnesses
    )


def test_scan_witnesses_replay():
    rng = np.random.default_rng(7)
    indices = [int(i) for i in rng.integers(0, RULE_SPACE_SIZE, size=200)]
    verdict = search_type_a(lengths=(4, 5), rule_indices=indices)
    assert verdict.witnesses
    for w in verdict.witnesses[:12]:
        rule = rule_from_index(w.rule_index)
        initial = Filament.from_string(w.initial)
        report = detect_cycle(rule, initial)
        assert report.outcome == "cyclic"
        assert report.transient == 0
        assert report.period == w.period
        assert report.wave.k_max == w.k_max
        trace = run_trace(rule, initial, w.period)
        changed = np.zeros(w.n, dtype=bool)
        for a, b in zip(trace.states, trace.states[1:]):
            changed |= np.array(a.cells) != np.array(b.cells)
        assert w.sweeping == bool(changed.all())
        if w.sweeping:
            assert w.travelling
        if w.travelling:
            span = np.flatnonzero(changed)
            assert span[-1] - span[0] + 1 > verdict.k_a


def test_scan_coverage_modes():
    sampled = search_type_a(lengths=(4,), budget=8, sample_size=8, seed=0)
    assert sampled.coverage == ((4, "sampled"),)
    assert not sampled.complete
    skipped = search_type_a(lengths=(23,))
    assert skipped.coverage == ((23, "skipped"),)
    assert not skipped.complete
    exhaustive = search_type_a(lengths=(4,), rule_indices=[91, 4039])
    assert exhaustive.coverage == ((4, "exhaustive"),)
    assert exhaustive.complete


def test_scan_report_mentions_the_headline_numbers():
    verdict = search_type_a(lengths=(4,), rule_indices=[186, 4039, 0, 262143])
    assert verdict.rules_with_type_a_cycle == 0
    text = verdict.report()
    assert "rules_total: 4" in text
    assert "witnesses: 0" in text


def test_scan_memory_stays_bounded_at_length_twenty():
    # At n=20 a chunk is one 2**20-state row; a kernel that holds eight
    # such rows at once peaks near 410 MB on this call.
    tracemalloc.start()
    try:
        verdict = search_type_a(lengths=(20,), rule_indices=[4039, 91, 152905, 148324])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.coverage == ((20, "sampled"),)
    assert {w.rule_index for w in verdict.witnesses} == {148324, 152905}
    assert peak < 100 * 2**20


# -- the scan kernel against references ------------------------------------------


def _bit_span(values):
    """Width in bits from lowest to highest set bit; 0 for zero values."""
    vals = values.astype(np.int64)
    hi = np.frexp(vals.astype(np.float64))[1]
    lo = np.frexp((vals & -vals).astype(np.float64))[1]
    return np.where(vals > 0, hi - lo + 1, 0)


def reference_scan_length(fps, n, k_a, starts, chunk_size=4096):
    """The scan kernel as first written: 2-D tables, two doubling loops."""
    size = 1 << n
    cells = all_states_matrix(2, n)
    left = np.full_like(cells, 2)
    left[:, 1:] = cells[:, :-1]
    right = np.full_like(cells, 2)
    right[:, :-1] = cells[:, 1:]
    pos16 = (cells.astype(np.uint16) * 8 + left * 3 + right).astype(np.uint16)
    shifts = (1 << np.arange(n - 1, -1, -1, dtype=np.int64)).astype(np.int32)
    state_ids = np.arange(size, dtype=np.int32)

    has_ta = np.zeros(len(fps), dtype=bool)
    has_trav = np.zeros(len(fps), dtype=bool)
    has_sweep = np.zeros(len(fps), dtype=bool)
    wit_state = np.full(len(fps), -1, dtype=np.int64)
    wit_kmax = np.zeros(len(fps), dtype=np.int8)
    wit_sweep = np.zeros(len(fps), dtype=bool)

    for start in range(0, len(fps), chunk_size):
        batch = fps[start : start + chunk_size].astype(np.uint32)
        rows = np.arange(len(batch))[:, None]
        t = np.zeros((len(batch), size), dtype=np.int32)
        for i in range(n):
            bits = (batch[:, None] >> pos16[None, :, i]) & 1
            t += bits.astype(np.int32) * shifts[i]

        f = t.copy()
        for _ in range(n):
            f = np.take_along_axis(f, f, axis=1)
        on_cycle = np.zeros((len(batch), size), dtype=bool)
        np.put_along_axis(on_cycle, f, True, axis=1)
        if starts is not None:
            reached = np.zeros((len(batch), size), dtype=bool)
            np.put_along_axis(reached, f[:, starts], True, axis=1)
            on_cycle &= reached

        ham = np.bitwise_count(state_ids[None, :] ^ t).astype(np.int8)
        diff = (state_ids[None, :] ^ t).astype(np.int32)
        max_ham = ham.copy()
        union = diff.copy()
        walk = t.copy()
        for _ in range(n):
            max_ham = np.maximum(max_ham, np.take_along_axis(max_ham, walk, axis=1))
            union |= np.take_along_axis(union, walk, axis=1)
            walk = np.take_along_axis(walk, walk, axis=1)

        type_a_nodes = on_cycle & (max_ham >= 1) & (max_ham <= k_a)
        trav_nodes = type_a_nodes & (_bit_span(union) > k_a)
        sweep_nodes = type_a_nodes & (np.bitwise_count(union) == n)
        batch_ta = type_a_nodes.any(axis=1)
        batch_trav = trav_nodes.any(axis=1)
        batch_sweep = sweep_nodes.any(axis=1)
        pick_from = np.where(
            batch_sweep[:, None],
            sweep_nodes,
            np.where(batch_trav[:, None], trav_nodes, type_a_nodes),
        )
        first = np.argmax(pick_from, axis=1)
        sl = slice(start, start + len(batch))
        has_ta[sl] = batch_ta
        has_trav[sl] = batch_trav
        has_sweep[sl] = batch_sweep
        wit_state[sl] = np.where(batch_ta, first, -1)
        wit_kmax[sl] = np.where(batch_ta, max_ham[rows[:, 0], first], 0)
        wit_sweep[sl] = batch_sweep
    return has_ta, has_trav, has_sweep, wit_state, wit_kmax, wit_sweep


def assert_scan_matches_reference(fps, n, k_a, starts):
    got = search._scan_length(fps, n, k_a, starts)
    want = reference_scan_length(fps, n, k_a, starts)
    names = ("has_type_a", "has_travelling", "has_sweeping", "witness_state",
             "witness_k_max", "witness_sweeping")
    for name, g, w in zip(names, got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


@pytest.mark.parametrize("chunk_cells", [1 << 16, 1 << 7])
@pytest.mark.parametrize("n", range(2, 10))
def test_scan_length_matches_the_reference(n, chunk_cells, monkeypatch):
    # A small cell budget forces many chunks, and one row per chunk from n=7 on.
    monkeypatch.setattr(search, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(n)
    drawn = rng.integers(0, 1 << 16, size=max(24, 2400 >> n))
    fps = np.unique(np.concatenate([[0, 0xFFFF], drawn])).astype(np.uint16)
    starts = np.unique(rng.integers(0, 1 << n, size=max(1, (1 << n) // 4)))
    for k_a in (1, 2):
        assert_scan_matches_reference(fps, n, k_a, None)
        assert_scan_matches_reference(fps, n, k_a, starts)


@given(
    st.integers(2, 8),
    st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=12, unique=True),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_scan_length_matches_the_reference_on_drawn_fingerprints(n, fps, k_a, data):
    starts = data.draw(
        st.none() | st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True).map(sorted)
    )
    starts = None if starts is None else np.array(starts, dtype=np.int64)
    assert_scan_matches_reference(np.array(sorted(fps), dtype=np.uint16), n, k_a, starts)


@pytest.mark.parametrize("n", range(2, 7))
def test_successor_table_matches_the_scalar_interpreter(n):
    # At n=2 both cells are end cells; the (empty, empty) bits 8 and 17 are
    # set at random, since no filament of two or more cells reads them.
    rng = np.random.default_rng(100 + n)
    fps = [0, 0xFFFF] + rng.integers(0, 1 << 16, size=6).tolist()
    table = search._successor_table(np.array(fps, dtype=np.uint16), n)
    assert table.shape == (len(fps), 1 << n)
    for row, fp in zip(table.tolist(), fps):
        index = (fp & 0xFF) | ((fp & 0xFF00) << 1) | int(rng.integers(0, 2)) << 8
        rule = rule_from_index(index | int(rng.integers(0, 2)) << 17)
        assert int(fingerprint16(np.array([rule_index(rule)]))[0]) == fp
        for state in range(1 << n):
            f = Filament.from_string(format(state, f"0{n}b"))
            nxt = [rule.next_state(c, neighborhood_of(f, i, 1)) for i, c in enumerate(f.cells)]
            assert row[state] == int("".join(map(str, nxt)), 2)


# -- the hunt ---------------------------------------------------------------------


def test_sweep_param_enumeration_size():
    count = sum(1 for _ in enumerate_sweep_params())
    assert count == 49**3


def test_sweep_params_validation():
    with pytest.raises(ValueError):
        SweepParams(bulk=((0, 0), None, None), end=(None, None, None))
    with pytest.raises(ValueError):
        SweepParams(bulk=((3, 1), None, None), end=(None, None, None))
    with pytest.raises(ValueError):
        SweepParams(bulk=(None, None), end=(None, None))


def test_sweep_rules_reproduce_the_catalogue():
    assert (sweep_rule(FIRST_SWEEP).lookup_table == automaton_i().lookup_table).all()
    assert (sweep_rule(SECOND_SWEEP).lookup_table == automaton_ii().lookup_table).all()


def test_hunt_confirms_both_catalogue_automata():
    result = hunt_viable_3state(candidates=[FIRST_SWEEP, SECOND_SWEEP])
    assert result.candidates_total == 2
    assert result.candidates_interesting == 2
    assert len(result.viable) == 2
    first, second = result.viable
    assert first.matrix == (
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
    )
    assert first.stationary_live == Fraction(1, 2)
    assert second.matrix == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(2, 5), Fraction(3, 5)),
    )
    assert second.stationary_live == Fraction(4, 9)


def test_hunt_rejects_boring_candidates():
    # A rule with no transitions at all is filtered before simulation.
    idle = SweepParams(bulk=(None, None, None), end=(None, None, None))
    result = hunt_viable_3state(candidates=[idle])
    assert result.candidates_total == 1
    assert result.candidates_interesting == 0
    assert result.viable == ()


def test_hunt_samples_random_symmetric_tables():
    result = hunt_viable_3state(space="symmetric-sample", budget=60, seed=0)
    assert result.space == "symmetric-sample"
    assert result.candidates_total == 60
    for candidate in result.viable:
        assert candidate.params is None
        assert 0 < candidate.stationary_live < 1


def test_hunt_result_report_lists_viable_rules():
    result = hunt_viable_3state(candidates=[FIRST_SWEEP])
    text = result.report()
    assert "viable: 1" in text
    assert "1/2" in text
