"""Exhaustive two-state scan machinery and the three-state viability hunt."""

import dataclasses
import io
import pickle
import tracemalloc
from fractions import Fraction
from itertools import islice, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filaments import search
from filaments.core import EMPTY, Filament, Neighborhood, Rule, RuleEntry, neighborhood_of
from filaments.engine import _onto_cycles, all_states_matrix, detect_cycle, run_trace
from filaments.rules import automaton_i, automaton_ii, classify_rule, clock_rule, oblivious_example_rule, state_graphs
from filaments.search import (
    RULE_SPACE_BITS,
    RULE_SPACE_SIZE,
    SearchWitness,
    SweepParams,
    Witnesses,
    enumerate_sweep_params,
    fingerprint16,
    hunt_viable_3state,
    interesting_mask,
    rule_from_index,
    rule_index,
    search_type_a,
    sweep_rule,
    write_rule_audit_csv,
    write_witness_csv,
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


@pytest.fixture(scope="module")
def audit_text():
    buf = io.StringIO()
    write_rule_audit_csv(buf)
    return buf.getvalue()


def test_audit_csv_covers_the_whole_space(audit_text):
    lines = audit_text.splitlines()
    assert lines[0] == "index,row0,row1,oblivious,strongly_connected,min_out_degree,interesting,fingerprint"
    assert len(lines) == RULE_SPACE_SIZE + 1
    assert lines[1] == "0,0,0,1,0,1,0,0"
    # The oblivious example: oblivious, strongly connected, not interesting.
    assert lines[187] == "186,186,0,1,1,1,0,186"


def test_interesting_mask_and_audit_columns_match_the_state_graphs(audit_text):
    # Every index as its (2, 3, 3) table: bit c*9 + l*3 + r is the flat key.
    indices = np.arange(RULE_SPACE_SIZE, dtype=np.uint32)
    tables = (indices[:, None] >> np.arange(RULE_SPACE_BITS, dtype=np.uint32) & 1).astype(np.uint8)
    out_degree, connected = state_graphs(tables.reshape(-1, 2, 3, 3))
    min_degree = out_degree.min(axis=1)
    interesting = (min_degree > 1) & connected
    assert np.array_equal(interesting_mask(), interesting)
    audit = np.loadtxt(io.StringIO(audit_text), dtype=np.int64, delimiter=",", skiprows=1)
    oblivious, strongly_connected, min_out_degree, interesting_column = audit[:, 3:7].T
    assert np.array_equal(strongly_connected, connected)
    assert np.array_equal(min_out_degree, min_degree)
    assert np.array_equal(oblivious, min_degree == 1)
    assert np.array_equal(interesting_column, interesting)


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


@pytest.mark.parametrize("indices", [[4039 - 2**18], [2**18], [91, -1]])
def test_scan_rejects_rule_indices_outside_the_space(indices):
    # A negative index would alias a real rule through NumPy indexing.
    with pytest.raises(ValueError, match=r"^rule index must be in \[0, 262144\)$"):
        search_type_a(lengths=(4,), rule_indices=indices)


def test_scan_rejects_an_empty_length_set():
    # With no length scanned nothing is covered, so there is no verdict to report.
    with pytest.raises(ValueError, match="^scan needs at least one length$"):
        search_type_a(lengths=())


def test_per_length_counts_are_the_single_length_totals():
    indices = np.random.default_rng(5).choice(RULE_SPACE_SIZE, size=3000, replace=False)
    verdict = search_type_a(lengths=(3, 4, 5, 23), rule_indices=indices)
    # The skipped length 23 is not scanned, so it has no counts.
    assert [entry[0] for entry in verdict.per_length] == [3, 4, 5]
    for n, *counts in verdict.per_length:
        one = search_type_a(lengths=(n,), rule_indices=indices)
        assert one.per_length == ((n, *counts),)
        assert counts == [one.rules_with_type_a_cycle, one.rules_with_travelling_type_a_cycle,
                          one.rules_with_sweeping_type_a_cycle]
    assert verdict.per_length[1][3] > 0  # sweeping cycles exist at n = 4
    assert verdict.report() == dataclasses.replace(verdict, per_length=()).report()


def test_scan_counts_each_rule_index_once():
    verdict = search_type_a(lengths=(4,), rule_indices=[4039, 4039, 4039])
    assert verdict.rules_total == 1
    assert verdict == search_type_a(lengths=(4,), rule_indices=[4039])
    assert search_type_a(lengths=(4,), rule_indices=[91, 4039, 91]).rules_total == 2


def test_scan_travelling_flag_holds_for_any_k_a():
    # At n = 4 no cycle's changed cells span more than k_a >= 5 positions; a span
    # test that shifts by k_a itself reads travelling cycles from k_a = 62 on.
    indices = np.random.default_rng(11).choice(RULE_SPACE_SIZE, size=1 << 14, replace=False)
    verdicts = [search_type_a(lengths=(4,), k_a=k_a, rule_indices=indices) for k_a in (5, 62, 63, 64)]
    assert verdicts[0].rules_with_type_a_cycle > 0
    assert verdicts[0].rules_with_travelling_type_a_cycle == 0
    for verdict in verdicts[1:]:
        assert verdict == dataclasses.replace(verdicts[0], k_a=verdict.k_a)
    with pytest.raises(ValueError, match="k_a must be at least 1"):
        search_type_a(lengths=(4,), k_a=0)


def reference_search(indices, lengths, k_a):
    """search_type_a's per-length counts, its Type-A, travelling and sweeping
    counts over all lengths, and its witnesses, from reference_scan_length run
    on every fingerprint and a witness kept from each rule's first length."""
    members = np.unique(indices)
    members = members[interesting_mask()[members]]
    fps, owner = np.unique(fingerprint16(members), return_inverse=True)
    fps = fps.astype(np.uint16)
    type_a, travelling, sweeping = np.zeros((3, len(fps)), dtype=bool)
    witness = np.zeros((6, len(fps)), dtype=np.int64)
    per_length = []
    for n in lengths:
        ta, trav, sweep, state, k_max, period = reference_scan_length(fps, n, k_a)
        per_length.append((n, *(int(flags[owner].sum()) for flags in (ta, trav, sweep))))
        newly = ta & ~type_a
        witness[:, newly] = np.stack([np.full(len(fps), n), state, period, k_max, trav, sweep])[:, newly]
        type_a |= ta
        travelling |= trav
        sweeping |= sweep
    hit = type_a[owner]
    counts = tuple(int(flags[owner].sum()) for flags in (type_a, travelling, sweeping))
    return tuple(per_length), counts, reference_witness_tuple(members[hit], *witness[:, owner[hit]])


def test_scan_keeps_each_rule_s_first_witness_when_first_lengths_differ():
    # Drawn rules with every setting of their (empty, empty) bits 8 and 17,
    # so a fingerprint stands for up to four rules and its orbit for more.
    drawn = np.random.default_rng(27).choice(RULE_SPACE_SIZE, size=120, replace=False)
    indices = np.unique(drawn[:, None] & ~0x20100 | [0, 1 << 8, 1 << 17, 0x20100])
    lengths, k_a = (2, 3, 4, 11), 3
    verdict = search_type_a(lengths=lengths, k_a=k_a, rule_indices=indices)
    per_length, counts, want = reference_search(indices, lengths, k_a)
    assert verdict.per_length == per_length
    assert [typed_fields(w) for w in verdict.witnesses] == [typed_fields(w) for w in want]
    assert {w.n for w in verdict.witnesses} == set(lengths)
    assert (verdict.rules_with_type_a_cycle, verdict.rules_with_travelling_type_a_cycle,
            verdict.rules_with_sweeping_type_a_cycle) == counts
    # Flags that first show at a later length count, yet leave the witness as it was.
    assert counts[1] > sum(w.travelling for w in want)
    assert verdict.fingerprints_simulated < len(indices)


@pytest.mark.parametrize("kwargs", [{"lengths": [4.5]}, {"lengths": (4, 5.0)}, {"k_a": 2.5}, {"k_a": 2.0}])
def test_scan_rejects_lengths_and_k_a_that_are_not_integers(kwargs):
    # int() would scan n = 4 for 4.5; a float k_a used to fail inside the kernel.
    with pytest.raises(TypeError, match="integer"):
        search_type_a(rule_indices=[4039], **kwargs)
    assert search_type_a(lengths=[np.int64(4)], k_a=np.int8(2), rule_indices=[4039]) == search_type_a(
        lengths=(4,), rule_indices=[4039])


def test_scan_memory_stays_bounded_at_length_twenty():
    # At n=20 a chunk is one 2**20-state row; a kernel that holds eight
    # such rows at once peaks near 410 MB on this call.
    tracemalloc.start()
    try:
        verdict = search_type_a(lengths=(20,), rule_indices=[4039, 91, 152905, 148324])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.coverage == ((20, "exhaustive"),)
    assert {w.rule_index for w in verdict.witnesses} == {148324, 152905}
    assert peak < 100 * 2**20


# -- witness columns -------------------------------------------------------------


def reference_witness_tuple(members, wit_n, wit_state, periods, wit_kmax, wit_trav, wit_sweep):
    """The witnesses as search_type_a built them before the columns: a tuple
    with one SearchWitness per member, from the columns it gathers."""
    return tuple(
        SearchWitness(index, n, format(state, f"0{n}b"), period, k_max, bool(trav), bool(sweep))
        for index, n, state, period, k_max, trav, sweep in zip(
            members.tolist(),
            wit_n.tolist(),
            wit_state.tolist(),
            periods.tolist(),
            wit_kmax.tolist(),
            wit_trav.tolist(),
            wit_sweep.tolist(),
        )
    )


def typed_fields(witness):
    return [(type(v), v) for v in (getattr(witness, f.name) for f in dataclasses.fields(witness))]


@given(
    st.lists(st.integers(0, RULE_SPACE_SIZE - 1), max_size=400),
    st.sampled_from([{"lengths": (2, 3, 4), "k_a": 3}, {"lengths": (3, 11)}]),
)
@settings(max_examples=30, deadline=None)
def test_witnesses_match_the_reference_tuple(indices, kwargs):
    # The second case reaches length 11, past the n <= 10 of the default lengths.
    inputs = []

    class Recorded(search.Witnesses):
        __slots__ = ()

        def __init__(self, *columns):
            inputs.append(columns)
            super().__init__(*columns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "Witnesses", Recorded)
        verdict = search_type_a(rule_indices=indices, **kwargs)
    assert len(inputs) == 1
    # Each column arrives in its own dtype, so no gather is wider than the column it fills.
    assert [column.dtype for column in inputs[0]] == list(map(np.dtype, search.Witnesses._DTYPES))
    want = reference_witness_tuple(*inputs[0])
    assert [typed_fields(w) for w in verdict.witnesses] == [typed_fields(w) for w in want]
    assert [typed_fields(verdict.witnesses[i]) for i in range(len(want))] == [typed_fields(w) for w in want]


@pytest.fixture(scope="module")
def small_verdict():
    indices = np.random.default_rng(21).choice(RULE_SPACE_SIZE, size=600, replace=False)
    return search_type_a(lengths=(4, 5), rule_indices=indices)


def test_witnesses_index_like_a_tuple(small_verdict):
    witnesses = small_verdict.witnesses
    whole = tuple(witnesses)
    assert len(whole) == len(witnesses) > 100
    for i in (0, 1, len(whole) - 1, -1, -2, -len(whole), np.int64(3)):
        assert witnesses[i] == whole[i]
    for i in (len(whole), -len(whole) - 1):
        with pytest.raises(IndexError):
            witnesses[i]
    with pytest.raises(TypeError):
        witnesses["0"]
    assert whole.index(whole[7]) == witnesses.index(whole[7]) == 7
    assert whole[7] in witnesses
    assert list(reversed(witnesses)) == list(reversed(whole))


@pytest.mark.parametrize("key", [slice(None), slice(2, 9), slice(None, None, -3), slice(-4, None),
                                 slice(5, 5), slice(10**6, None), slice(9, 2)])
def test_witness_slices_are_witnesses(small_verdict, key):
    part = small_verdict.witnesses[key]
    assert isinstance(part, Witnesses)
    assert tuple(part) == tuple(small_verdict.witnesses)[key]
    assert bool(part) == bool(tuple(small_verdict.witnesses)[key])


def test_empty_witnesses_are_false():
    verdict = search_type_a(lengths=(4,), rule_indices=[186, 4039, 0, 262143])
    assert not verdict.witnesses
    assert len(verdict.witnesses) == 0
    assert list(verdict.witnesses) == []
    assert repr(verdict.witnesses) == "()"
    with pytest.raises(IndexError):
        verdict.witnesses[0]


def test_witness_iteration_equals_indexing_across_blocks(small_verdict, monkeypatch):
    monkeypatch.setattr(Witnesses, "_BLOCK", 7)
    witnesses = small_verdict.witnesses
    rows = [witnesses[i] for i in range(len(witnesses))]
    assert list(witnesses) == rows
    buf = io.StringIO(newline="")
    write_witness_csv(witnesses, buf)
    assert buf.getvalue() == "".join(
        row + "\r\n"
        for row in ["rule_index,n,initial,period,k_max,travelling,sweeping"] + [
            f"{w.rule_index},{w.n},{w.initial},{w.period},{w.k_max},{int(w.travelling)},{int(w.sweeping)}"
            for w in rows
        ]
    )


def test_verdicts_compare_and_hash_by_witness_values(small_verdict):
    indices = np.random.default_rng(21).choice(RULE_SPACE_SIZE, size=600, replace=False)
    again = search_type_a(lengths=(4, 5), rule_indices=indices)
    assert again.witnesses is not small_verdict.witnesses
    assert again == small_verdict
    assert hash(again) == hash(small_verdict)
    witnesses = small_verdict.witnesses
    assert witnesses[:] == witnesses and hash(witnesses[:]) == hash(witnesses)
    other = search_type_a(lengths=(4, 5), rule_indices=indices, k_a=1)
    assert other.witnesses != witnesses
    changed = dataclasses.replace(small_verdict, witnesses=witnesses[::-1])
    assert changed != small_verdict
    assert len({small_verdict, again, changed}) == 2
    # A Witnesses equals only another Witnesses, never a tuple.
    assert witnesses != tuple(witnesses)


def witnesses_from(rows):
    """Witnesses built from SearchWitness rows, through Python lists."""
    fields = ((w.rule_index, w.n, int(w.initial, 2), w.period, w.k_max, w.travelling, w.sweeping) for w in rows)
    return Witnesses(*map(list, zip(*fields)))


def test_witnesses_differ_in_any_one_field(small_verdict):
    rows = list(small_verdict.witnesses[:50])
    same = witnesses_from(rows)
    assert same == small_verdict.witnesses[:50]
    assert hash(same) == hash(small_verdict.witnesses[:50])
    w = rows[17]
    flipped = ("1" if w.initial[0] == "0" else "0") + w.initial[1:]
    for change in ({"rule_index": w.rule_index + 1}, {"n": w.n + 1}, {"initial": flipped},
                   {"period": w.period + 1}, {"k_max": w.k_max + 1},
                   {"travelling": not w.travelling}, {"sweeping": not w.sweeping}):
        other = witnesses_from(rows[:17] + [dataclasses.replace(w, **change)] + rows[18:])
        assert other != same, change


def test_verdict_repr_is_the_tuple_repr(small_verdict):
    witnesses = small_verdict.witnesses
    assert repr(witnesses) == repr(tuple(witnesses))
    assert repr(small_verdict) == repr(dataclasses.replace(small_verdict, witnesses=tuple(witnesses)))


def test_scan_holds_little_memory_for_its_witnesses():
    # As a tuple of SearchWitness objects, these 151,888 witnesses held 20.7 MiB.
    tracemalloc.start()
    try:
        verdict = search_type_a(lengths=range(4, 8))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(verdict.witnesses) == 151888
    assert held < 8 * 2**20


# -- the scan kernel against references ------------------------------------------


def _bit_span(values):
    """Width in bits from lowest to highest set bit; 0 for zero values."""
    vals = values.astype(np.int64)
    hi = np.frexp(vals.astype(np.float64))[1]
    lo = np.frexp((vals & -vals).astype(np.float64))[1]
    return np.where(vals > 0, hi - lo + 1, 0)


def lockstep_periods(table, states):
    """Cycle period of one cycle state per row of a (rows, 2**n) successor table,
    the rows walked in lockstep."""
    rows = np.arange(len(states))
    cur = table[rows, states]
    periods = np.zeros(len(states), dtype=np.int64)
    step = 1
    open_mask = np.ones(len(states), dtype=bool)
    while open_mask.any():
        closed = open_mask & (cur == states)
        periods[closed] = step
        open_mask &= ~closed
        if step > table.shape[1]:
            raise AssertionError("walked past the state count without closing")
        cur[open_mask] = table[rows[open_mask], cur[open_mask]]
        step += 1
    return periods


def reference_scan_length(fps, n, k_a, chunk_size=4096):
    """The scan kernel as first written: 2-D tables, two doubling loops, and
    each witness's period from a lockstep walk."""
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
    wit_period = np.zeros(len(fps), dtype=np.int64)

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
        wit_period[sl][batch_ta] = lockstep_periods(t[batch_ta], first[batch_ta])
    return has_ta, has_trav, has_sweep, wit_state, wit_kmax, wit_period


def per_fingerprint_scan(fps, n, k_a):
    """The kernel's results at one length mapped to each fingerprint of ``fps``:
    its representative's flags and, through its group element, its witness."""
    reps, rep_index, element = search._orbit_groups(fps)
    all_pending = np.ones(len(reps), dtype=bool)
    has_ta, has_trav, has_sweep, state, k_max, period = search._scan_length(reps, n, k_a, all_pending)
    rep, g = rep_index[fps], element[fps]
    return has_ta[rep], has_trav[rep], has_sweep[rep], state[g, rep], k_max[g, rep], period[g, rep]


def assert_scan_matches_reference(fps, n, k_a):
    got = per_fingerprint_scan(fps, n, k_a)
    want = reference_scan_length(fps, n, k_a)
    names = ("has_type_a", "has_travelling", "has_sweeping", "witness_state", "witness_k_max", "witness_period")
    assert len(got) == len(want) == len(names)
    for name, g, w in zip(names, got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


@pytest.mark.parametrize("chunk_cells", [1 << 16, 1 << 7])
@pytest.mark.parametrize("n", [*range(2, 10), 11])
def test_scan_length_matches_the_reference(n, chunk_cells, monkeypatch):
    # A small cell budget forces many chunks, and one row per chunk from n=7 on.
    # Length 11 is past the default lengths 4..10.
    monkeypatch.setattr(search, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(n)
    drawn = rng.integers(0, 1 << 16, size=max(24, 2400 >> n))
    fps = np.unique(np.concatenate([[0, 0xFFFF], drawn])).astype(np.uint16)
    for k_a in (1, 2):
        assert_scan_matches_reference(fps, n, k_a)


@given(
    st.integers(2, 8),
    st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=12, unique=True),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_scan_length_matches_the_reference_on_drawn_fingerprints(n, fps, k_a):
    assert_scan_matches_reference(np.array(sorted(fps), dtype=np.uint16), n, k_a)


@given(
    st.integers(2, 9),
    st.dictionaries(st.integers(0, 0xFFFF), st.booleans(), min_size=1, max_size=12),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_scan_length_finds_witnesses_only_for_pending_rows(n, drawn, k_a):
    # The flags never depend on the mask; a pending row gets the witnesses of
    # the unmasked run, and every other row the fill values.
    reps = np.array(sorted(drawn), dtype=np.uint16)
    pending = np.array([drawn[fp] for fp in sorted(drawn)])
    full = search._scan_length(reps, n, k_a, np.ones(len(reps), dtype=bool))
    masked = search._scan_length(reps, n, k_a, pending)
    for f, m in zip(full[:3], masked[:3]):
        assert m.dtype == f.dtype == bool and np.array_equal(m, f)
    for f, m, fill in zip(full[3:], masked[3:], (-1, 0, 0)):
        assert m.dtype == f.dtype and m.shape == f.shape == (4, len(reps))
        assert np.array_equal(m, np.where(pending, f, fill))


@pytest.mark.parametrize("k_a", [3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_scan_length_matches_the_reference_on_every_fingerprint(n, k_a):
    # With n <= k_a a cycle can sweep every cell without its changes spanning
    # more than k_a positions, so sweeping holds without travelling.
    fps = np.arange(1 << 16, dtype=np.uint16)
    assert_scan_matches_reference(fps, n, k_a)
    _, has_trav, has_sweep, _, _, _ = per_fingerprint_scan(fps, n, k_a)
    assert (has_sweep & ~has_trav).any()


def orbit_members(reps):
    """Every fingerprint in the orbits of the given representatives, sorted."""
    return np.unique(search._fingerprint_images(reps)).astype(np.uint16)


@pytest.mark.parametrize("chunk_cells", [1 << 4, 3 << 7, 1 << 8])
@pytest.mark.parametrize("n", [4, 6, 7])
def test_scan_length_matches_the_reference_across_chunk_edges(n, chunk_cells, monkeypatch):
    # One to a few representatives per chunk, so an orbit's members are
    # mapped from whichever chunk holds their representative; lone members
    # of other orbits make the fingerprint set not closed under the group.
    monkeypatch.setattr(search, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(40 + n)
    whole = orbit_members(rng.integers(0, 1 << 16, size=40))
    lone = rng.integers(0, 1 << 16, size=30)
    fps = np.unique(np.concatenate([whole, lone])).astype(np.uint16)
    for k_a in (1, 2, 3):
        assert_scan_matches_reference(fps, n, k_a)


# The identity fingerprint: byte c, read by cells in state c, is all c.
IDENTITY_FP = 0xFF00


@pytest.mark.parametrize("n", [2, 5, 8])
def test_scan_length_on_a_chunk_with_no_sparse_state(n, monkeypatch):
    # Every state is a fixed point of the identity, so its chunk keeps no
    # state and its doubling runs over the sink alone. One representative
    # per chunk puts it in a chunk of its own, between chunks that keep some.
    assert np.array_equal(search._successor_table(np.array([IDENTITY_FP]), n), [np.arange(1 << n)])
    monkeypatch.setattr(search, "_CHUNK_CELLS", 1 << n)
    drawn = np.random.default_rng(60 + n).integers(0, 1 << 16, size=12)
    fps = np.unique(np.concatenate([[IDENTITY_FP], drawn])).astype(np.uint16)
    for k_a in (1, 2):
        assert_scan_matches_reference(fps, n, k_a)
    assert not per_fingerprint_scan(np.array([IDENTITY_FP], dtype=np.uint16), n, 2)[0].any()


@pytest.mark.parametrize("n", [4, 5])
def test_scan_length_keeps_every_changing_state_when_k_a_reaches_n(n):
    fps = np.unique(np.random.default_rng(70 + n).integers(0, 1 << 16, size=400)).astype(np.uint16)
    for k_a in (n, n + 3):
        assert_scan_matches_reference(fps, n, k_a)


def test_scan_length_with_a_huge_k_a_equals_k_a_of_n():
    # A k_a past int64's shift range must neither overflow nor change a flag.
    fps = np.unique(np.random.default_rng(80).integers(0, 1 << 16, size=2000)).astype(np.uint16)
    huge = per_fingerprint_scan(fps, 4, 2**40)
    for g, w in zip(huge, per_fingerprint_scan(fps, 4, 4)):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert huge[0].any() and huge[1].sum() == 0
    assert_scan_matches_reference(fps, 4, 2**40)


@pytest.mark.parametrize("n", [2, 6])
def test_scan_length_of_no_fingerprints(n):
    got = per_fingerprint_scan(np.array([], dtype=np.uint16), n, 2)
    assert [(g.dtype, g.shape) for g in got] == [(np.dtype(d), (0,)) for d in (bool, bool, bool, np.int64, np.int8, np.int64)]
    assert_scan_matches_reference(np.array([], dtype=np.uint16), n, 2)


def test_scan_memory_stays_bounded_at_length_thirteen():
    # 600 whole orbits, 2,345 fingerprints, 8 representatives per chunk. The
    # kernel before the orbit reduction peaked at 3.97 MiB here; the sparse
    # kernel holds one chunk's int64 successor and node arrays (0.5 MiB each).
    rep_of, _ = search._fingerprint_orbits()
    reps = np.random.default_rng(13).choice(np.unique(rep_of), size=600, replace=False)
    fps = np.flatnonzero(np.isin(rep_of, reps)).astype(np.uint16)
    assert len(fps) == 2345
    per_fingerprint_scan(fps[:1], 13, 2)  # fill the per-length caches
    tracemalloc.start()
    try:
        has_ta = per_fingerprint_scan(fps, 13, 2)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert has_ta.sum() == 768
    assert peak < 4 * 2**20


# -- the symmetry group (id, R, C, RC) ------------------------------------------


@given(st.integers(2, 8), st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=16))
@settings(max_examples=40, deadline=None)
def test_group_elements_conjugate_the_dynamics(n, fps):
    # succ_{g.fp}(pi_g(s)) == pi_g(succ_fp(s)) for every state s.
    fps = np.array(fps, dtype=np.uint16)
    table = search._successor_table(fps, n)
    images = search._fingerprint_images(fps)
    for g, perm in enumerate(search._state_images(n)):
        assert np.array_equal(search._successor_table(images[g], n)[:, perm], perm[table]), g


def test_group_elements_are_involutions():
    indices = np.arange(RULE_SPACE_SIZE)
    images = search._rule_images(indices)
    assert np.array_equal(images[0], indices)
    for g in range(4):
        assert np.array_equal(search._rule_images(images[g])[g], indices), g
    # RC is R after C, and no two elements agree.
    assert np.array_equal(search._rule_images(images[2])[1], images[3])
    assert len({tuple(images[g, :64].tolist()) for g in range(4)}) == 4
    fps = np.arange(1 << 16)
    fp_images = search._fingerprint_images(fps)
    for g in range(4):
        assert np.array_equal(search._fingerprint_images(fp_images[g])[g], fps), g
    for n in range(1, 9):
        perms = search._state_images(n)
        assert np.array_equal(perms[0], np.arange(1 << n))
        assert all(np.array_equal(perm[perm], perms[0]) for perm in perms), n


def test_group_preserves_the_interesting_mask():
    indices = np.arange(RULE_SPACE_SIZE)
    mask = interesting_mask()
    images = search._rule_images(indices)
    for g in range(4):
        assert np.array_equal(mask[images[g]], mask), g
        # Bits 8 and 17 go only to each other, so fingerprints map alike.
        assert np.array_equal(
            fingerprint16(images[g]), search._fingerprint_images(fingerprint16(indices))[g]
        ), g
    # C takes the all-0 table to the all-1 table, and (empty, empty) bit 8 to bit 17.
    assert search._rule_images([0, 1 << 8])[2].tolist() == [RULE_SPACE_SIZE - 1, RULE_SPACE_SIZE - 1 - (1 << 17)]
    assert search._rule_images([1 << 8, 1 << 17])[1].tolist() == [1 << 8, 1 << 17]


def test_fingerprints_fall_into_16768_orbits():
    rep_of, element = search._fingerprint_orbits()
    fps = np.arange(1 << 16)
    assert len(np.unique(rep_of)) == 16768
    images = search._fingerprint_images(rep_of)
    assert np.array_equal(images[element, fps], fps)
    assert (rep_of <= fps).all()
    assert np.array_equal(rep_of[rep_of], rep_of)
    assert np.array_equal(element[rep_of], np.zeros(1 << 16, dtype=np.uint8))


def test_scan_over_single_members_of_orbits_matches_a_per_fingerprint_run(monkeypatch):
    # One member from each of 60 orbits, mostly not the representative, so
    # every witness is mapped back from a fingerprint outside the subset. The
    # per-fingerprint run makes every fingerprint its own representative, so
    # it simulates each fingerprint of the subset under the identity.
    rep_of, _ = search._fingerprint_orbits()
    identity = (np.arange(1 << 16, dtype=np.uint16), np.zeros(1 << 16, dtype=np.uint8))
    scan_length = search._scan_length
    simulated = []

    def recorded(reps, *args):
        simulated.append(reps)
        return scan_length(reps, *args)

    rng = np.random.default_rng(9)
    reps = rng.choice(np.unique(rep_of), size=60, replace=False)
    members = search._fingerprint_images(reps)[np.arange(60) % 4, np.arange(60)]
    ends = rng.integers(0, 4, size=60)  # the (empty, empty) bits 8 and 17
    members = members.astype(np.int64)
    indices = ((members & 0xFF) | (members & 0xFF00) << 1 | (ends & 1) << 8 | (ends >> 1) << 17).tolist()
    fps = np.unique(fingerprint16(np.array(indices)[interesting_mask()[indices]]))
    for kwargs in ({"lengths": (3, 4, 5, 6)}, {"lengths": (2, 4), "k_a": 3}):
        verdict = search_type_a(rule_indices=indices, **kwargs)
        found = fingerprint16([w.rule_index for w in verdict.witnesses])
        assert (rep_of[found] != found).any()
        monkeypatch.setattr(search, "_fingerprint_orbits", lambda: identity)
        monkeypatch.setattr(search, "_scan_length", recorded)
        assert search_type_a(rule_indices=indices, **kwargs) == verdict
        monkeypatch.undo()
        assert verdict.fingerprints_simulated == len(fps)
        assert len(simulated) == len(kwargs["lengths"])
        assert all(np.array_equal(run, fps) for run in simulated)
        simulated.clear()


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
    # Lists and NumPy ints are checked slot by slot and stored as tuples of ints.
    assert SweepParams(bulk=[(1, 2), None, None], end=(None, [0, 2], None)).bulk == ((1, 2), None, None)
    assert SweepParams(bulk=((np.int64(1), np.int64(2)), None, None), end=(None,) * 3) == SweepParams(
        bulk=((1, 2), None, None), end=(None,) * 3
    )
    cases = [
        (((0, 0), None, None), (None,) * 3, "a listed transition must change the state"),
        ((None, (np.int64(0), np.int64(1)), None), (None,) * 3, "a listed transition must change the state"),
        ([None, None, [2, 2]], (None,) * 3, "a listed transition must change the state"),
        (((3, 1), None, None), (None,) * 3, "transition states must be in 0..2"),
        ((None,) * 3, (None, (0, -1), None), "transition states must be in 0..2"),
        ((None, None), (None, None), "bulk and end must have one slot per state"),
        ((None,) * 3, (None,) * 4, "bulk and end must have one slot per state"),
        ([None, None], (None,) * 3, "bulk and end must have one slot per state"),
    ]
    for bulk, end, message in cases:
        with pytest.raises(ValueError) as err:
            SweepParams(bulk=bulk, end=end)
        assert str(err.value) == message


def _slot_triple_is_valid(triple) -> bool:
    """The per-slot rule: one slot per state, each None or a pair over 0..2 whose target changes the state."""
    return len(triple) == 3 and all(
        slot is None or (len(slot) == 2 and 0 <= slot[0] < 3 and 0 <= slot[1] < 3 and slot[1] != c)
        for c, slot in enumerate(triple)
    )


def test_sweep_params_table_accepts_exactly_the_per_slot_rule():
    slots = search._SWEEP_SLOTS + ((3, 1), (0, -1), (1,))
    valid = FIRST_SWEEP.bulk
    accepted = 0
    for triple in product(slots, repeat=3):
        for bulk, end in ((triple, valid), (valid, triple)):
            if _slot_triple_is_valid(triple):
                assert SweepParams(bulk=bulk, end=end).bulk == bulk
                accepted += 1
            else:
                with pytest.raises(ValueError):
                    SweepParams(bulk=bulk, end=end)
    assert accepted == 2 * 7**3 == 2 * len(search._SWEEP_TRIPLES)


def test_sweep_params_store_slots_as_tuples_of_ints():
    # Lists and NumPy ints are stored as the tuple twin's slots, so the object
    # equals, hashes, prints and hunts like it.
    as_lists = SweepParams(bulk=[list(slot) for slot in FIRST_SWEEP.bulk], end=list(FIRST_SWEEP.end))
    as_numpy = SweepParams(bulk=tuple(map(tuple, np.array(FIRST_SWEEP.bulk))), end=FIRST_SWEEP.end)
    for params in (as_lists, as_numpy):
        assert params == FIRST_SWEEP and hash(params) == hash(FIRST_SWEEP) and repr(params) == repr(FIRST_SWEEP)
        assert all(type(v) is int for slot in params.bulk + params.end if slot is not None for v in slot)
        assert hunt_viable_3state(candidates=[params]) == hunt_viable_3state(candidates=[FIRST_SWEEP])
    # dataclasses.replace runs the same constructor, so it stores tuples too.
    replaced = dataclasses.replace(SECOND_SWEEP, end=[None, [np.int8(1), 2], (0, 1)])
    assert replaced == SECOND_SWEEP and type(replaced.end[1]) is tuple and type(replaced.end[1][0]) is int


@pytest.mark.parametrize("slot", [(2.5, 1), (1, 2.0), ("1", 2), (np.float64(1), 2)])
def test_sweep_params_reject_states_that_are_not_integers(slot):
    # A float once passed the range checks and failed in the hunt with KeyError.
    with pytest.raises(TypeError):
        SweepParams(bulk=(slot, None, None), end=(None,) * 3)
    with pytest.raises(TypeError):
        SweepParams(bulk=(None,) * 3, end=(slot, None, None))


def test_sweep_enumeration_follows_the_slot_space_and_shares_triples():
    tracemalloc.start()
    try:
        params = list(enumerate_sweep_params())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9_000_000  # one slotted object per parameter set; the triples are shared
    assert params == [search._slot_params(row) for row in search._sweep_space_slots()]
    assert len({id(p.bulk) for p in params}) == len({id(p.end) for p in params}) == 343


def checked_sweep_params():
    """The sweep space in enumeration order, each object from the public
    constructor fed per-state options built here, not from the shared table:
    the oracle for the objects the enumeration and _slot_params make without __init__."""
    options = [[s for s in search._SWEEP_SLOTS if s is None or s[1] != c] for c in range(3)]
    for b0, e0, b1, e1, b2, e2 in product(*(options[c] for c in (0, 0, 1, 1, 2, 2))):
        yield SweepParams(bulk=(b0, b1, b2), end=(e0, e1, e2))


def test_unchecked_sweep_params_are_the_checked_objects():
    checked = list(checked_sweep_params())
    enumerated = list(enumerate_sweep_params())
    assert enumerated == checked
    assert list(map(hash, enumerated)) == list(map(hash, checked))
    assert list(map(repr, enumerated)) == list(map(repr, checked))
    # Equal, and holding the very same field objects, so they also hash and print alike.
    slotted = list(map(search._slot_params, search._sweep_space_slots()))
    assert slotted == checked
    assert all(s.bulk is e.bulk and s.end is e.end for s, e in zip(slotted, enumerated))


def test_unchecked_sweep_params_pickle_replace_and_stay_frozen():
    enumerated = next(islice(enumerate_sweep_params(), 54_321, None))
    slotted = search._slot_params(search._sweep_space_slots()[54_321])
    checked = next(islice(checked_sweep_params(), 54_321, None))
    for params in (enumerated, slotted):
        assert type(params) is SweepParams and not hasattr(params, "__dict__")
        restored = pickle.loads(pickle.dumps(params))
        assert restored == checked and hash(restored) == hash(checked)
        assert dataclasses.replace(params) == checked
        assert dataclasses.replace(params, end=(None,) * 3) == SweepParams(bulk=checked.bulk, end=(None,) * 3)
        with pytest.raises(ValueError, match="a listed transition must change the state"):
            dataclasses.replace(params, bulk=((0, 0), None, None))
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.bulk = (None,) * 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            del params.end
        assert params == checked


def test_sweep_rules_reproduce_the_catalogue():
    assert (sweep_rule(FIRST_SWEEP).lookup_table == automaton_i().lookup_table).all()
    assert (sweep_rule(SECOND_SWEEP).lookup_table == automaton_ii().lookup_table).all()


def test_hunt_confirms_both_catalogue_automata():
    result = hunt_viable_3state(candidates=[FIRST_SWEEP, SECOND_SWEEP])
    assert result.candidates_total == 2
    assert result.candidates_interesting == 2
    assert result.candidates_nondegenerate == result.candidates_stable == 2
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
    assert result.candidates_nondegenerate == result.candidates_stable == 0
    assert result.viable == ()


def test_hunt_samples_random_symmetric_tables():
    result = hunt_viable_3state(space="symmetric-sample", budget=60, seed=0)
    assert result.space == "symmetric-sample"
    assert result.candidates_total == 60
    for candidate in result.viable:
        assert candidate.params is None
        assert 0 < candidate.stationary_live < 1


def test_hunt_sample_seed_defaults_to_zero():
    unseeded = hunt_viable_3state(ns=(2, 3), space="symmetric-sample", budget=40)
    assert unseeded == hunt_viable_3state(ns=(2, 3), space="symmetric-sample", budget=40, seed=0)
    assert unseeded != hunt_viable_3state(ns=(2, 3), space="symmetric-sample", budget=40, seed=1)


@pytest.mark.parametrize("extra", [dict(budget=5, seed=3), dict(budget=5), dict(seed=3), dict(seed=0)])
def test_hunt_rejects_budget_and_seed_outside_the_sample(extra):
    # The sweep space has no draw, so a budget or seed there is a caller's mistake.
    with pytest.raises(ValueError, match="^budget and seed only apply to the symmetric-sample space$"):
        hunt_viable_3state(ns=(2, 3), **extra)
    with pytest.raises(ValueError, match="^budget and seed only apply"):
        hunt_viable_3state(ns=(2, 3), candidates=[FIRST_SWEEP], **extra)


@pytest.mark.parametrize("ns", [(4.7, 5.2), (4, 5.0)])
def test_hunt_rejects_probe_lengths_that_are_not_integers(ns):
    # int() would probe (4, 5) for (4.7, 5.2).
    with pytest.raises(TypeError, match="integer"):
        hunt_viable_3state(ns=ns, candidates=[FIRST_SWEEP])


def test_hunt_result_report_lists_viable_rules():
    result = hunt_viable_3state(candidates=[FIRST_SWEEP])
    text = result.report()
    assert "viable: 1" in text
    assert "1/2" in text
    # The text report prints total, interesting and viable, not the funnel between.
    assert "candidates_nondegenerate" not in text and "candidates_stable" not in text


@pytest.mark.parametrize("ns", [(14, 15), (3, 12, 13), (4, 10**9)])
def test_hunt_rejects_probe_lengths_past_the_state_bound(ns):
    # Checked before any table or state matrix is built: 3**16 states at
    # (14, 15) would need several GB, and 10**9 could not be built at all.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="probe lengths up to 12"):
            hunt_viable_3state(ns=ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_hunt_memory_stays_bounded_at_the_longest_probe():
    # Probe length 12 reads all 3**13 states of length 13. The per-candidate
    # loop peaked near 260 MB on this call, and int64 neighborhood keys near 580 MB.
    tracemalloc.start()
    try:
        result = hunt_viable_3state(ns=(11, 12), candidates=[FIRST_SWEEP])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.stationary_live for c in result.viable] == [Fraction(1, 2)]
    assert peak < 150 * 2**20


# -- the hunt against the per-candidate loop --------------------------------------


def reference_sweep_table(params):
    """Dense (3, 4, 4) next-state table, code 3 for the empty boundary."""
    table = np.empty((3, 4, 4), dtype=np.uint8)
    for c in range(3):
        table[c] = c
        if params.bulk[c] is not None:
            v, w = params.bulk[c]
            table[c, v, 0:3] = w
            table[c, 0:3, v] = w
        if params.end[c] is not None:
            u, z = params.end[c]
            table[c, 3, u] = z
            table[c, u, 3] = z
    return table


def reference_random_symmetric_table(rng):
    table = np.empty((3, 4, 4), dtype=np.uint8)
    for c in range(3):
        for a in range(4):
            for b in range(a, 4):
                table[c, a, b] = table[c, b, a] = rng.integers(0, 3)
    return table


def reference_table_interesting(table):
    succ = [set(table[c].ravel().tolist()) for c in range(3)]
    if any(len(s) == 1 for s in succ):
        return False
    if min(len(s) for s in succ) < 2:
        return False
    adj = [[d in succ[c] for d in range(3)] for c in range(3)]
    for _ in range(3):
        for a in range(3):
            for b in range(3):
                if adj[a][b]:
                    for d in range(3):
                        adj[a][d] = adj[a][d] or adj[b][d]
    return all(adj[a][b] for a in range(3) for b in range(3))


def reference_length_context(n):
    cells = all_states_matrix(3, n)
    left = np.full_like(cells, 3)
    left[:, 1:] = cells[:, :-1]
    right = np.full_like(cells, 3)
    right[:, :-1] = cells[:, 1:]
    powers = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return cells, left, right, powers


def reference_live_mask(table, ctx):
    """Per-state liveness (eventual period >= 2) via iterated squaring."""
    cells, left, right, powers = ctx
    t = (table[cells, left, right].astype(np.int64) @ powers).astype(np.int64)
    f = t.copy()
    size = len(t)
    steps = 1
    while steps < size:
        f = f[f]
        steps *= 2
    return t[f] != f


def reference_hunt(ns, candidates=None, space="sweeps", budget=None, seed=0):
    """The hunt as first written: one candidate at a time over tiny arrays,
    counting its funnel along the way."""
    ns = tuple(sorted(set(ns)))
    if space == "sweeps":
        pool = [(p, reference_sweep_table(p)) for p in candidates]
    else:
        rng = np.random.default_rng(seed)
        pool = [(None, reference_random_symmetric_table(rng)) for _ in range(budget)]
    needed = sorted(set(ns) | {n + 1 for n in ns})
    contexts = {n: reference_length_context(n) for n in needed}

    viable = []
    interesting_count = nondegenerate_count = stable_count = 0
    for params, table in pool:
        if not reference_table_interesting(table):
            continue
        interesting_count += 1
        live = {n: reference_live_mask(table, contexts[n]) for n in needed}
        counts = {}
        degenerate = False
        for n in ns:
            src = np.repeat(live[n], 3)
            dst = live[n + 1]
            c = np.bincount(
                (~src).astype(np.int64) * 2 + (~dst).astype(np.int64), minlength=4
            ).reshape(2, 2)
            if c.sum(axis=1).min() == 0:
                degenerate = True
                break
            counts[n] = c
        if degenerate:
            continue
        nondegenerate_count += 1
        base = counts[ns[0]]
        base_rows = base.sum(axis=1)
        stable = True
        for n in ns[1:]:
            other = counts[n]
            other_rows = other.sum(axis=1)
            for a in range(2):
                for b in range(2):
                    if (
                        int(base[a, b]) * int(other_rows[a])
                        != int(other[a, b]) * int(base_rows[a])
                    ):
                        stable = False
        if not stable:
            continue
        stable_count += 1
        matrix = tuple(
            tuple(Fraction(int(base[a, b]), int(base_rows[a])) for b in range(2))
            for a in range(2)
        )
        p_ld = matrix[0][1]
        p_dl = matrix[1][0]
        if p_ld == 0 or p_dl == 0:
            continue
        stationary_live = p_dl / (p_ld + p_dl)
        if not 0 < stationary_live < 1:
            continue
        viable.append(
            search.HuntCandidate(
                params=params,
                table=tuple(
                    tuple(tuple(int(v) for v in row) for row in plane)
                    for plane in table
                ),
                matrix=matrix,
                stationary_live=stationary_live,
            )
        )
    return search.HuntResult(
        space=space,
        ns=ns,
        candidates_total=len(pool),
        candidates_interesting=interesting_count,
        candidates_nondegenerate=nondegenerate_count,
        candidates_stable=stable_count,
        viable=tuple(viable),
    )


@pytest.fixture(scope="module")
def sweep_subset():
    """A seeded 2,000-candidate subset of the sweep space and both catalogue sweeps."""
    params = list(enumerate_sweep_params())
    rng = np.random.default_rng(17)
    picks = rng.choice(len(params), size=2000, replace=False)
    return [params[i] for i in sorted(picks.tolist())] + [FIRST_SWEEP, SECOND_SWEEP]


@pytest.mark.parametrize("ns", [(2, 3), (4, 5), (3, 5), (3, 5, 6)])
def test_hunt_matches_the_per_candidate_loop(ns, sweep_subset):
    result = hunt_viable_3state(ns=ns, candidates=sweep_subset)
    assert result == reference_hunt(ns, sweep_subset)
    assert result.viable


@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_hunt_matches_the_per_candidate_loop(seed):
    # Same seed, same tables: the sample is drawn in the loop's order.
    result = hunt_viable_3state(space="symmetric-sample", budget=200, seed=seed)
    assert result == reference_hunt((4, 5), space="symmetric-sample", budget=200, seed=seed)


def test_hunt_matches_the_loop_one_candidate_per_chunk(sweep_subset, monkeypatch):
    monkeypatch.setattr(search, "_HUNT_CHUNK_STATES", 1)
    subset = sweep_subset[::40]
    assert hunt_viable_3state(ns=(3, 4), candidates=subset) == reference_hunt((3, 4), subset)


def test_hunt_drops_a_chunk_degenerate_at_the_first_probe(sweep_subset, monkeypatch):
    # Interesting candidates with no live or no dead state of length 4 fill
    # the first chunk, so lengths 5 and 6 are never built for it.
    tables = search._sweep_tables(search._sweep_slots(sweep_subset))
    live, _ = live_states(search._successor_map(tables.reshape(-1, 48), 3, 1, 4))
    out_degree, connected = state_graphs(tables)
    interesting = (out_degree > 1).all(axis=1) & connected
    degenerate = interesting & (live.all(axis=1) | ~live.any(axis=1))
    subset = [p for p, d in zip(sweep_subset, degenerate.tolist()) if d][:30] + [FIRST_SWEEP, SECOND_SWEEP]
    assert len(subset) == 32
    monkeypatch.setattr(search, "_HUNT_CHUNK_STATES", 30 * 3**6)
    built = []
    successors = search._successor_map
    monkeypatch.setattr(search, "_successor_map", lambda t, s, r, n: built.append((len(t), n)) or successors(t, s, r, n))
    result = hunt_viable_3state(ns=(4, 5), candidates=subset)
    assert built == [(30, 4), (2, 4), (2, 5), (2, 6)]
    assert result.candidates_interesting == 32 and result.candidates_nondegenerate == 2
    assert result == reference_hunt((4, 5), subset)


def test_hunt_drops_tables_with_no_dead_state_at_the_first_probe(monkeypatch):
    # No sweep candidate is live in every state, but random symmetric tables
    # often are; such a chunk is dropped at length 4 as well.
    tables = np.stack([symmetric_table(v) for v in np.random.default_rng(5).integers(0, 3, size=(400, 30))])
    live, _ = live_states(search._successor_map(tables.reshape(-1, 48), 3, 1, 4))
    all_live = tables[live.all(axis=1)][:30]
    assert len(all_live) == 30
    monkeypatch.setattr(search, "_HUNT_CHUNK_STATES", 30 * 3**6)
    built = []
    successors = search._successor_map
    monkeypatch.setattr(search, "_successor_map", lambda t, s, r, n: built.append((len(t), n)) or successors(t, s, r, n))
    assert not search._accretion_counts(all_live, (4, 5)).any()
    assert built == [(30, 4)]


def test_hunt_funnel_over_the_whole_sweep_space():
    result = hunt_viable_3state()
    funnel = (result.candidates_total, result.candidates_interesting, result.candidates_nondegenerate,
              result.candidates_stable, len(result.viable))
    assert funnel == (117_649, 78_192, 40_016, 578, 308)


def reference_landing(succ):
    """Walk every state len(succ) steps, onto its cycle."""
    state = np.arange(len(succ))
    for _ in range(len(succ)):
        state = succ[state]
    return state


def reference_liveness(succ):
    """Live unless the state's cycle is a fixed point."""
    state = reference_landing(succ)
    return succ[state] != state


def live_states(flat_maps):
    """Per (row, state) liveness of a (B, S) flat successor map, as the hunt
    reads it off ``_onto_cycles``, and each state's landing node: two (B, S) arrays."""
    succ = flat_maps.ravel()
    landing = _onto_cycles(succ, flat_maps.shape[1])
    return (succ.take(landing) != landing).reshape(flat_maps.shape), landing.reshape(flat_maps.shape)


def assert_live_states_match_the_walk(succ, n):
    # ``succ`` with its digits permuted by each permutation of the three
    # states: six rows, six successor maps in one flat map of one call.
    succ = np.asarray(succ, dtype=np.int64)
    digits = np.stack([succ // 3 ** (n - 1 - i) % 3 for i in range(n)])
    perms = np.array(list(permutations(range(3))), dtype=np.uint8)
    powers = 3 ** np.arange(n - 1, -1, -1)
    maps = np.stack([perm[digits].T @ powers for perm in perms])
    got, landing = live_states(maps + 3**n * np.arange(len(perms))[:, None])
    for b, (row, want) in enumerate(zip(got, maps)):
        assert np.array_equal(row, reference_liveness(want))
        # Each landing node stays in its own map and is one of its cycle nodes,
        # the image of a walk of len(want) steps.
        assert (landing[b] // 3**n == b).all()
        assert np.isin(landing[b] % 3**n, reference_landing(want)).all()


@pytest.mark.parametrize("n", range(1, 6))
def test_live_states_on_the_longest_transients(n):
    # A path through every state into a fixed point (all dead) or into a
    # 2-cycle (all live) needs every doubling round.
    size = 3**n
    path = np.minimum(np.arange(1, size + 1), size - 1)
    assert_live_states_match_the_walk(path, n)
    path[-1] = size - 2
    assert_live_states_match_the_walk(path, n)
    assert_live_states_match_the_walk(np.arange(size), n)
    assert_live_states_match_the_walk(np.roll(np.arange(size), 1), n)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 3**n - 1), min_size=3**n, max_size=3**n))))
@settings(max_examples=60, deadline=None)
def test_live_states_match_the_walk_on_drawn_successors(case):
    n, succ = case
    assert_live_states_match_the_walk(succ, n)


# Symmetric tables as 30 values, 10 per state: uniform, or each state's
# values over its own one or two successors, so that out-degree one (which
# strong connectivity alone would let through) comes up often.
state_values = st.sets(st.integers(0, 2), min_size=1, max_size=2).flatmap(
    lambda targets: st.lists(st.sampled_from(sorted(targets)), min_size=10, max_size=10)
)
symmetric_tables = st.lists(st.integers(0, 2), min_size=30, max_size=30) | st.tuples(
    state_values, state_values, state_values
).map(lambda planes: [v for plane in planes for v in plane])


def symmetric_table(values):
    """The (3, 4, 4) table whose upper triangles, row by row, hold the 30 values."""
    table = np.empty((3, 4, 4), dtype=np.uint8)
    upper = np.triu_indices(4)
    table[:, upper[0], upper[1]] = table[:, upper[1], upper[0]] = np.reshape(values, (3, 10))
    return table


@given(st.lists(symmetric_tables, min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_interesting_mask_matches_the_scalar_predicate(draws):
    tables = np.stack([symmetric_table(values) for values in draws])
    want = [reference_table_interesting(t) for t in tables]
    out_degree, connected = state_graphs(tables)
    assert ((out_degree > 1).all(axis=1) & connected).tolist() == want


def reference_successors(table, n):
    """Successor id of every length-n state under a (3, 4, 4) table, code 3 for
    EMPTY, cell by cell through a table of ``Rule.next_state`` answers."""
    tokens = (0, 1, 2, EMPTY)
    cells = [(c, l, r) for c in range(3) for l in range(4) for r in range(4)]
    entries = [
        RuleEntry(c, (tokens[l],), (tokens[r],), int(table[c, l, r])) for c, l, r in cells if table[c, l, r] != c
    ]
    rule = Rule("drawn", num_states=3, radius=1, symmetric=False, entries=tuple(entries))
    oracle = np.zeros((3, 4, 4), dtype=np.int64)
    for c, l, r in cells:
        oracle[c, l, r] = rule.next_state(c, Neighborhood(1, (tokens[l],), (tokens[r],)))
    padded = np.pad(all_states_matrix(3, n), ((0, 0), (1, 1)), constant_values=3)
    succ = np.zeros(3**n, dtype=np.int64)
    for i in range(1, n + 1):
        succ = succ * 3 + oracle[padded[:, i], padded[:, i - 1], padded[:, i + 1]]
    return succ


# Any (3, 4, 4) table as 48 values, or a symmetric one.
drawn_tables = st.lists(st.integers(0, 2), min_size=48, max_size=48).map(
    lambda values: np.array(values, dtype=np.uint8).reshape(3, 4, 4)
) | symmetric_tables.map(symmetric_table)


@given(st.integers(2, 8), st.lists(drawn_tables, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_hunt_successors_match_the_scalar_interpreter(n, tables):
    got = search._successor_map(np.stack(tables).reshape(len(tables), 48), 3, 1, n)
    assert got.shape == (len(tables), 3**n)
    for row, table in enumerate(tables):
        assert np.array_equal(got[row] - row * 3**n, reference_successors(table, n))


def test_sweep_tables_match_the_scalar_builder(sweep_subset):
    tables = search._sweep_tables(search._sweep_slots(sweep_subset))
    assert tables.dtype == np.uint8
    assert np.array_equal(tables, np.stack([reference_sweep_table(p) for p in sweep_subset]))
    # The subset ends with the two catalogue sweeps, whose tables are the catalogue automata's.
    assert np.array_equal(tables[-2:], [automaton_i().lookup_table, automaton_ii().lookup_table])


def test_sweep_planes_are_read_only_and_built_once(monkeypatch):
    built = []

    def counted(params, *args):
        built.append(params)
        return sweep_rule(params, *args)

    monkeypatch.setattr(search, "sweep_rule", counted)
    search._sweep_planes.cache_clear()
    try:
        for _ in range(2):
            hunt_viable_3state(ns=(2, 3), candidates=[FIRST_SWEEP, SECOND_SWEEP])
        planes = search._sweep_planes()
        assert search._sweep_planes() is planes
    finally:
        search._sweep_planes.cache_clear()
    # One compiled rule per (bulk option, end option), each covering all three states.
    assert len(built) == len(set(built)) == 49
    assert planes.shape == (3, 10, 10, 4, 4) and not planes.flags.writeable
    with pytest.raises(ValueError):
        planes[0, 0, 0, 0, 0] = 1


def test_sweep_space_slots_follow_the_enumeration(sweep_subset):
    slots = search._sweep_space_slots()
    assert slots.shape == (49**3, 2, 3)
    assert np.array_equal(slots, search._sweep_slots(list(enumerate_sweep_params())))
    assert [search._slot_params(row) for row in search._sweep_slots(sweep_subset)] == sweep_subset


def test_default_sweep_space_matches_explicit_candidates():
    result = hunt_viable_3state(ns=(2, 3))
    assert result.candidates_total == 49**3
    assert result.viable
    assert result == hunt_viable_3state(ns=(2, 3), candidates=list(enumerate_sweep_params()))
