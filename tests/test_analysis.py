"""Census machinery, liveness predictors, and growth transition matrices."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from filaments.analysis import (
    Census,
    CensusBudgetError,
    census,
    end_zero_class,
    end_zero_class_array,
    growth_transition_matrix,
    liveness_of,
    measure_accretion_matrix,
    parity_class_array,
    parity_counts,
    predict_automaton_i,
    predict_automaton_ii,
)
from filaments.core import Filament
from filaments.engine import count_steps, detect_cycle
from filaments.population import PopulationConfig
from filaments.rules import automaton_i, automaton_ii, bouncer_rule, clock_rule, load_rule, serialize_rule


# -- predictors ----------------------------------------------------------------


def test_predict_automaton_i_is_step_parity():
    assert predict_automaton_i(Filament.from_string("022"))  # one step
    assert not predict_automaton_i(Filament.from_string("022220"))
    assert not predict_automaton_i(Filament.from_string("000"))


def test_predict_automaton_ii_reads_the_ends():
    # Live iff exactly one end cell holds 0.
    assert predict_automaton_ii(Filament.from_string("0001"))
    assert predict_automaton_ii(Filament.from_string("2000"))
    assert not predict_automaton_ii(Filament.from_string("0110"))
    assert not predict_automaton_ii(Filament.from_string("1001"))
    assert not predict_automaton_ii(Filament.from_string("121"))


@given(st.lists(st.integers(0, 2), min_size=2, max_size=10))
def test_parity_predictor_matches_fate(cells):
    # Step parity decides the fate exactly: odd parity cycles, even dies.
    f = Filament(tuple(cells))
    report = detect_cycle(automaton_i(), f)
    is_live = report.outcome == "cyclic"
    assert predict_automaton_i(f) == is_live
    assert (count_steps(f) % 2 == 1) == is_live


@given(st.lists(st.integers(0, 2), min_size=3, max_size=10))
def test_end_zero_predictor_matches_fate_above_two_cells(cells):
    f = Filament(tuple(cells))
    report = detect_cycle(automaton_ii(), f)
    assert predict_automaton_ii(f) == (report.outcome == "cyclic")


def test_end_zero_predictor_misses_both_two_cell_cycles():
    # At length 2 the four one-end-zero states all die, so the end-cell
    # signature undercounts; this is the known floor of the predictor.
    for text in ("01", "10", "02", "20"):
        f = Filament.from_string(text)
        assert predict_automaton_ii(f)
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
    c = census(automaton_i(), 3, predictor=lambda f: True)
    # Every quiescent state now counts as a mismatch.
    assert c.prediction_mismatches == c.quiescent == 15


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
    assert liveness_of(mystery).predict is liveness_of(automaton_i()).predict
    assert census(mystery, 5).prediction_mismatches == 0
    assert census(mystery, 5, predictor=predict_automaton_ii).prediction_mismatches > 0
    config = PopulationConfig(rule=mystery, m=4, total_ticks=10, seed=0)
    assert config.resolved_growth_interval() == 6 * config.n0
    # Rules without a closed form get none, whatever they are called.
    assert liveness_of(bouncer_rule()) is None
    with pytest.raises(ValueError):
        PopulationConfig(
            rule=bouncer_rule(), m=4, total_ticks=10, seed=0, growth_interval=9,
            live_metric="classification",
        )


def test_census_budget_guard():
    with pytest.raises(CensusBudgetError):
        census(automaton_i(), 20, budget=10**6)


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
    g1 = growth_transition_matrix("automaton-i")
    assert g1.labels == ("live", "dead")
    assert g1.rows == (
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
    )
    assert g1.row_sums() == (Fraction(1), Fraction(1))
    assert g1.stationary == (Fraction(1, 2), Fraction(1, 2))
    assert g1.is_stationary(g1.stationary)

    g2 = growth_transition_matrix("automaton-ii")
    assert g2.labels == ("both-ends-0", "one-end-0", "no-end-0")
    assert g2.row_sums() == (Fraction(1),) * 3
    assert g2.stationary == (Fraction(1, 9), Fraction(4, 9), Fraction(4, 9))
    assert g2.is_stationary(g2.stationary)
    with pytest.raises(ValueError):
        growth_transition_matrix("bouncer")


def test_growth_matrix_applied_to_converges():
    g = growth_transition_matrix("automaton-i")
    dist = (Fraction(1), Fraction(0))
    for _ in range(40):
        dist = g.applied_to(dist)
    assert abs(dist[0] - Fraction(1, 2)) < Fraction(1, 10**10)


def test_class_arrays_match_scalar_predictors():
    for n in range(1, 6):
        states = list(product(range(3), repeat=n))
        parity = parity_class_array(n)
        endz = end_zero_class_array(n)
        for i, cells in enumerate(states):
            f = Filament(cells)
            assert (parity[i] == 0) == predict_automaton_i(f)
            assert endz[i] == end_zero_class(f)


def test_end_zero_class_values():
    assert end_zero_class(Filament.from_string("010")) == 0
    assert end_zero_class(Filament.from_string("011")) == 1
    assert end_zero_class(Filament.from_string("110")) == 1
    assert end_zero_class(Filament.from_string("111")) == 2


def test_measured_accretion_matches_declared_matrix():
    # Exhaustively append one cell to every length-5 state and compare the
    # class-transition frequencies with the declared matrices, exactly.
    g1 = growth_transition_matrix("automaton-i")
    measured = measure_accretion_matrix(
        parity_class_array(5), parity_class_array(6), num_classes=2, num_states=3
    )
    assert measured == g1.rows

    g2 = growth_transition_matrix("automaton-ii")
    measured = measure_accretion_matrix(
        end_zero_class_array(5), end_zero_class_array(6), num_classes=3, num_states=3
    )
    assert measured == g2.rows
