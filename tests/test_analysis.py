"""Census machinery, liveness predictors, and growth transition matrices."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from filaments import analysis
from filaments.analysis import (
    Census,
    CensusBudgetError,
    census,
    liveness_of,
    measure_accretion_matrix,
    parity_counts,
)
from filaments.core import Filament
from filaments.engine import all_states_matrix, detect_cycle
from filaments.population import PopulationConfig
from filaments.rules import automaton_i, automaton_ii, bouncer_rule, clock_rule, load_rule, serialize_rule


def count_steps(filament):
    """Number of adjacent cell pairs holding different states."""
    return sum(1 for x, y in zip(filament.cells, filament.cells[1:]) if x != y)


# -- predictors ----------------------------------------------------------------


def predicts_live(rule, filament):
    """The rule's liveness law applied to one filament, as a one-row matrix."""
    (live,) = liveness_of(rule).predict(np.array([filament.cells]))
    return bool(live)


def test_predict_automaton_i_is_step_parity():
    assert predicts_live(automaton_i(), Filament.from_string("022"))  # one step
    assert not predicts_live(automaton_i(), Filament.from_string("022220"))
    assert not predicts_live(automaton_i(), Filament.from_string("000"))


def test_predict_automaton_ii_reads_the_ends():
    # Live iff exactly one end cell holds 0.
    assert predicts_live(automaton_ii(), Filament.from_string("0001"))
    assert predicts_live(automaton_ii(), Filament.from_string("2000"))
    assert not predicts_live(automaton_ii(), Filament.from_string("0110"))
    assert not predicts_live(automaton_ii(), Filament.from_string("1001"))
    assert not predicts_live(automaton_ii(), Filament.from_string("121"))


@given(st.lists(st.integers(0, 2), min_size=2, max_size=10))
def test_parity_predictor_matches_fate(cells):
    # Step parity decides the fate exactly: odd parity cycles, even dies.
    f = Filament(tuple(cells))
    report = detect_cycle(automaton_i(), f)
    is_live = report.outcome == "cyclic"
    assert predicts_live(automaton_i(), f) == is_live
    assert (count_steps(f) % 2 == 1) == is_live


@given(st.lists(st.integers(0, 2), min_size=3, max_size=10))
def test_end_zero_predictor_matches_fate_above_two_cells(cells):
    f = Filament(tuple(cells))
    report = detect_cycle(automaton_ii(), f)
    assert predicts_live(automaton_ii(), f) == (report.outcome == "cyclic")


def test_end_zero_predictor_misses_both_two_cell_cycles():
    # At length 2 the four one-end-zero states all die, so the end-cell
    # signature undercounts; this is the known floor of the predictor.
    for text in ("01", "10", "02", "20"):
        f = Filament.from_string(text)
        assert predicts_live(automaton_ii(), f)
        assert detect_cycle(automaton_ii(), f).outcome == "quiescent"


# -- parity counting -----------------------------------------------------------


def brute_parity_count(n):
    return sum(
        1
        for cells in product(range(3), repeat=n)
        if count_steps(Filament(cells)) % 2 == 1
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_parity_counts_against_enumeration(n):
    odd, even = parity_counts(n)
    assert odd == brute_parity_count(n)
    assert odd + even == 3**n


def test_parity_counts_closed_forms():
    assert parity_counts(2)[0] == 6
    assert parity_counts(3)[0] == 12
    assert parity_counts(4)[0] == 42
    assert parity_counts(8)[0] == (3**8 + 3) // 2
    assert parity_counts(9)[0] == (3**9 - 3) // 2


@pytest.mark.parametrize("n", [2.5, 4.0])
def test_parity_counts_reject_lengths_that_are_not_integers(n):
    # A float n used to give float counts, (6.0, 9.588...) at 2.5.
    with pytest.raises(TypeError, match="integer"):
        parity_counts(n)
    assert parity_counts(np.int64(4)) == parity_counts(4) == (42, 39)


# -- censuses ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_first_automaton_census(n):
    c = census(automaton_i(), n)
    assert c.total == 3**n
    assert c.live == parity_counts(n)[0]
    assert c.quiescent == c.total - c.live
    assert c.unresolved == 0
    assert c.prediction_mismatches == 0
    assert c.first_mismatch is None
    assert c.max_settle_time == (n - 1 if n > 2 else 0)


@pytest.mark.parametrize("n,live", [(3, 12), (4, 36), (5, 108), (6, 324)])
def test_second_automaton_census(n, live):
    c = census(automaton_ii(), n)
    assert c.live == live == 4 * 3 ** (n - 2)
    assert c.prediction_mismatches == 0
    assert c.unresolved == 0


def test_second_automaton_census_two_cell_floor():
    # All four predicted-live states actually die at n=2.
    c = census(automaton_ii(), 2)
    assert c.live == 0
    assert c.prediction_mismatches == 4
    assert c.first_mismatch == Filament.from_string("01")


def test_census_without_predictor():
    c = census(automaton_i(), 3, predictor=None)
    assert c.prediction_mismatches == 0
    assert c.first_mismatch is None
    assert c.live == 12


def test_census_with_callable_predictor():
    # The law comes from the rule's content; there is no per-filament override.
    with pytest.raises(ValueError, match="^bad predictor <function "):
        census(automaton_i(), 3, predictor=lambda f: True)
    with pytest.raises(ValueError, match="^bad predictor 'none'$"):
        census(automaton_i(), 3, predictor="none")


def test_census_auto_resolves_known_rules_only():
    c = census(clock_rule(2), 3)
    assert c.prediction_mismatches == 0
    assert c.first_mismatch is None
    assert c.live == c.total == 8
    assert c.max_settle_time == 2


def test_predictor_follows_rule_content_not_name(tmp_path):
    # automaton_ii saved under automaton_i's name keeps its own predictor.
    path = tmp_path / "automaton-i.rule"
    path.write_text(serialize_rule(automaton_ii()))
    impostor = load_rule(str(path))
    assert impostor.name == "automaton-i"
    c = census(impostor, 5)
    assert c.live == 108
    assert c.prediction_mismatches == 0
    assert c.first_mismatch is None
    config = PopulationConfig(rule=impostor, m=4, total_ticks=10, seed=0)
    assert config.resolved_growth_interval() == 2 * config.n0
    # automaton_i under an unknown name still gets the parity predictor.
    path = tmp_path / "mystery.rule"
    path.write_text(serialize_rule(automaton_i()))
    mystery = load_rule(str(path))
    assert liveness_of(mystery) is liveness_of(automaton_i())
    assert liveness_of(impostor) is liveness_of(automaton_ii())
    assert census(mystery, 5).prediction_mismatches == 0
    # The simulation agrees with the parity law, so the end-zero law, which
    # differs from it on these states, would report mismatches.
    matrix = all_states_matrix(3, 5)
    assert (liveness_of(automaton_ii()).predict(matrix) != liveness_of(mystery).predict(matrix)).any()
    config = PopulationConfig(rule=mystery, m=4, total_ticks=10, seed=0)
    assert config.resolved_growth_interval() == 6 * config.n0
    # Rules without a closed form get none, whatever they are called.
    assert liveness_of(bouncer_rule()) is None
    with pytest.raises(ValueError):
        PopulationConfig(
            rule=bouncer_rule(), m=4, total_ticks=10, seed=0, growth_interval=9,
            live_metric="classification",
        )


def test_census_never_builds_a_state_matrix(monkeypatch):
    # The census reads the successor map and, to compare a law, the law's
    # class table by state id; neither needs the (s**n, n) state matrix.
    runs = [
        (rule, n, predictor)
        for rule, n in ((automaton_i(), 6), (automaton_ii(), 6), (automaton_ii(), 2))
        for predictor in ("auto", None)
    ] + [(bouncer_rule(), 6, "auto"), (clock_rule(3), 6, "auto")]
    want = [census(rule, n, predictor=predictor).report() for rule, n, predictor in runs]
    assert "prediction_mismatches: 4" in want[4]  # automaton-ii at n = 2, with its law

    def refuse(*args):
        raise AssertionError("census built a state matrix")

    monkeypatch.setattr(analysis, "all_states_matrix", refuse)
    assert [census(rule, n, predictor=predictor).report() for rule, n, predictor in runs] == want


def test_census_budget_guard():
    with pytest.raises(CensusBudgetError):
        census(automaton_i(), 20, budget=10**6)


@pytest.mark.parametrize("n", [-1, 0])
def test_census_rejects_lengths_below_one(n):
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        census(automaton_i(), n)


def test_census_rejects_a_negative_horizon():
    with pytest.raises(ValueError, match="^horizon must be non-negative$"):
        census(automaton_i(), 4, horizon=-5)


def test_census_unresolved_under_tiny_horizon():
    c = census(automaton_i(), 4, horizon=2)
    assert c.unresolved > 0
    assert c.live + c.quiescent + c.unresolved == c.total


def test_census_report_is_line_oriented():
    lines = census(automaton_i(), 3).report().splitlines()
    assert lines[0] == "rule: automaton-i"
    assert "live: 12" in lines
    assert lines[-1] == "first_mismatch: none"
    lines = census(automaton_ii(), 2).report().splitlines()
    assert lines[-1] == "first_mismatch: 01"


# -- growth matrices -----------------------------------------------------------


def test_growth_matrix_shapes_and_stationarity():
    g1 = liveness_of(automaton_i()).growth
    assert g1.labels == ("live", "dead")
    assert g1.rows == (
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
    )
    assert g1.row_sums() == (Fraction(1), Fraction(1))
    assert g1.stationary == (Fraction(1, 2), Fraction(1, 2))
    assert g1.is_stationary(g1.stationary)

    g2 = liveness_of(automaton_ii()).growth
    assert g2.labels == ("both-ends-0", "one-end-0", "no-end-0")
    assert g2.row_sums() == (Fraction(1),) * 3
    assert g2.stationary == (Fraction(1, 9), Fraction(4, 9), Fraction(4, 9))
    assert g2.is_stationary(g2.stationary)
    # A rule without a closed form has no growth matrix either.
    assert liveness_of(bouncer_rule()) is None


def test_growth_matrix_applied_to_converges():
    g = liveness_of(automaton_i()).growth
    dist = (Fraction(1), Fraction(0))
    for _ in range(40):
        dist = g.applied_to(dist)
    assert abs(dist[0] - Fraction(1, 2)) < Fraction(1, 10**10)


def test_class_arrays_match_scalar_predictors():
    # Classes recomputed row by row: parity from count_steps, end-zero from the end cells.
    parity, end_zero = liveness_of(automaton_i()), liveness_of(automaton_ii())
    for n in range(1, 6):
        matrix = all_states_matrix(3, n)
        parity_ids = parity.classes(matrix)
        end_zero_ids = end_zero.classes(matrix)
        assert parity_ids.dtype == end_zero_ids.dtype == np.int8
        for i, cells in enumerate(product(range(3), repeat=n)):
            f = Filament(cells)
            assert parity_ids[i] == (0 if count_steps(f) % 2 == 1 else 1)
            assert end_zero_ids[i] == 2 - (cells[0] == 0) - (cells[-1] == 0)
    assert (parity.live, end_zero.live) == (0, 1)
    assert (parity.sweeps, end_zero.sweeps) == (6, 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_id_classes_equal_row_classes_for_the_catalogue_laws(n):
    for rule in (automaton_i(), automaton_ii()):
        liveness = liveness_of(rule)
        by_id = liveness.id_classes(n)
        assert by_id.dtype == np.int8
        assert np.array_equal(by_id, liveness.classes(all_states_matrix(3, n)))


@given(st.integers(2, 4), st.sampled_from((1, 2)), st.integers(1, 7), st.data())
def test_both_readers_of_a_random_table_agree(s, parities, n, data):
    values = data.draw(st.lists(st.integers(-128, 127), min_size=s * s * parities, max_size=s * s * parities))
    table = np.array(values, dtype=np.int8).reshape(s, s, parities)
    liveness = analysis.Liveness(table, live=0, sweeps=1, growth=None)
    matrix = all_states_matrix(s, n)
    parity = np.count_nonzero(np.diff(matrix.astype(int), axis=1), axis=1) % table.shape[2]
    expected = table[matrix[:, 0], matrix[:, -1], parity]
    assert np.array_equal(liveness.classes(matrix), expected)
    assert np.array_equal(liveness.id_classes(n), expected)


def test_end_zero_class_values():
    classes = liveness_of(automaton_ii()).classes
    for text, expected in (("010", 0), ("011", 1), ("110", 1), ("111", 2), ("0", 0), ("1", 2)):
        assert classes(np.array([Filament.from_string(text).cells])).tolist() == [expected]


@pytest.mark.parametrize("n", range(3, 8))
def test_end_zero_growth_is_the_average_of_two_first_cell_chains(n):
    # The first cell never changes, so split the exhaustive count by it:
    # length-n ids below 3**(n-1) start with 0, and appending keeps them
    # below 3**n. Each half is its own chain, and the typed one-end-0 row is
    # their average with equal weights.
    liveness = liveness_of(automaton_ii())
    at_n, at_n1 = liveness.id_classes(n), liveness.id_classes(n + 1)
    head, head1 = 3 ** (n - 1), 3**n
    zero = measure_accretion_matrix(at_n[:head], at_n1[:head1], num_classes=3, num_states=3)
    nonzero = measure_accretion_matrix(at_n[head:], at_n1[head1:], num_classes=3, num_states=3)
    third, none = Fraction(1, 3), Fraction(0)
    assert zero == ((third, 2 * third, none), (third, 2 * third, none), (none, none, none))
    assert nonzero == ((none, none, none), (none, third, 2 * third), (none, third, 2 * third))
    assert liveness.growth.rows[1] == tuple((a + b) / 2 for a, b in zip(zero[1], nonzero[1]))


def test_measured_accretion_matches_declared_matrix():
    # Exhaustively append one cell to every length-5 state and compare the
    # class-transition frequencies with the declared matrices, exactly.
    for rule, num_classes in ((automaton_i(), 2), (automaton_ii(), 3)):
        liveness = liveness_of(rule)
        measured = measure_accretion_matrix(
            liveness.classes(all_states_matrix(3, 5)),
            liveness.classes(all_states_matrix(3, 6)),
            num_classes=num_classes,
            num_states=3,
        )
        assert measured == liveness.growth.rows


def reference_count_accretions(class_at_n, class_at_n1, num_classes):
    """count_accretions as one bincount over per-row (class, class) codes: the oracle."""
    batch, total = class_at_n.shape
    code = class_at_n.astype(np.int64)[:, :, None] * num_classes + class_at_n1.reshape(batch, total, -1)
    code += num_classes**2 * np.arange(batch)[:, None, None]
    return np.bincount(code.ravel(), minlength=batch * num_classes**2).reshape(batch, num_classes, num_classes)


@st.composite
def accretion_classes(draw):
    """Class arrays (batch, s**n) and (batch, s**(n + 1)) over k classes, integer or
    bool (as the hunt's; a bool array holds only classes 0 and 1)."""
    k, s, n, batch = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(0, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.int8, np.int64, bool]))
    top = min(k - 1, 1) if dtype is bool else k - 1
    at_n, at_n1 = (
        np.array(draw(st.lists(st.integers(0, top), min_size=size, max_size=size)), dtype=dtype).reshape(batch, -1)
        for size in (batch * s**n, batch * s ** (n + 1))
    )
    return at_n, at_n1, k


@given(accretion_classes())
def test_count_accretions_matches_the_bincount_oracle(drawn):
    at_n, at_n1, k = drawn
    counts = analysis.count_accretions(at_n, at_n1, k)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, reference_count_accretions(at_n, at_n1, k))


def test_count_accretions_rejects_more_than_255_digits_per_state():
    with pytest.raises(ValueError, match="256 appended digits per state; at most 255"):
        analysis.count_accretions(np.zeros((1, 1), bool), np.zeros((1, 256), bool), 2)
