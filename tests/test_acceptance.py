"""Behavioral acceptance gate: one test per headline claim.

Each criterion runs the full stated protocol at its stated tolerance and
asserts exactly the stated claim; a failing test here means the claim does
not hold as stated, not that the implementation drifted (the measured
behavior is frozen separately by the companion tests at the bottom).
Run with -v to get one pass/fail line per criterion.
"""

import importlib.util
import os
import re

import numpy as np
import pytest

from filaments.analysis import (
    census,
    liveness_of,
    measure_accretion_matrix,
    parity_counts,
)
from filaments.core import Filament
from filaments.engine import (
    all_states_matrix,
    classify_functional_graph,
    detect_cycle,
    run_trace,
    step_array,
    successor_array,
)
from filaments.population import (
    PopulationConfig,
    mean_activity_around_growth,
    run_population,
)
from filaments.render import decode_pgm, pixel_value
from filaments.rules import automaton_i, automaton_ii, bouncer_rule, clock_rule
from filaments.search import rule_from_index, search_type_a

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SEEDS = (0, 1, 2, 3, 4)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- shared heavyweight runs -----------------------------------------------------


@pytest.fixture(scope="module")
def full_scan():
    # Exhaustive over all two-state radius-1 rules and all initial states
    # for every length in 4..10.
    return search_type_a()


@pytest.fixture(scope="module")
def population_runs_sweep6():
    def run_for(m, seed):
        cfg = PopulationConfig(
            automaton_i(),
            m=m,
            total_ticks=5000,
            seed=seed,
            n0=20,
            live_metric="classification",
        )
        return run_population(cfg)

    return {m: [run_for(m, seed) for seed in SEEDS] for m in (200, 5)}


@pytest.fixture(scope="module")
def population_runs_sweep2():
    runs = []
    for seed in SEEDS:
        cfg = PopulationConfig(
            automaton_ii(),
            m=400,
            total_ticks=5000,
            seed=seed,
            n0=20,
            live_metric="classification",
        )
        runs.append(run_population(cfg))
    return runs


# -- criteria ---------------------------------------------------------------------


def test_criterion_01_clock_counts_in_unison():
    bad = []
    for s in (2, 3):
        rule = clock_rule(s)
        for n in range(1, 9):
            states = all_states_matrix(s, n)
            for _ in range(n):
                states = step_array(rule, states)
            synced = (states == states[:, :1]).all()
            nxt = step_array(rule, states)
            increments = (nxt == (states + 1) % s).all()
            if not (synced and increments):
                bad.append((s, n))
    _verdict("01 clock unison", not bad, f"failing (s, n): {bad}")


def test_criterion_02_six_sweep_cycle_length():
    rule = automaton_i()
    bad = []
    for n in range(3, 65):
        initial = Filament((0,) + (2,) * (n - 1))
        report = detect_cycle(rule, initial)
        ok = (
            report.outcome == "cyclic"
            and report.transient == 0
            and report.wave.kind == "A"
            and report.wave.k_max == 1
            and report.period == 6 * (n - 1)
        )
        if not ok:
            bad.append(n)
    _verdict("02 six-sweep cycle 6(n-1)", not bad, f"failing n: {bad}")


def test_criterion_03_parity_census():
    rule = automaton_i()
    settle_bound_factor = 1  # frozen: measured max settle time is n - 1
    bad = []
    for n in range(1, 9):
        c = census(rule, n)
        live_formula = (3**n + 3) // 2 if n % 2 == 0 else (3**n - 3) // 2
        ok = (
            c.prediction_mismatches == 0
            and c.live == live_formula
            and c.live == parity_counts(n)[0]
            and c.unresolved == 0
            and c.max_settle_time <= settle_bound_factor * n
        )
        if not ok:
            bad.append(n)
    _verdict("03 parity census", not bad, f"failing n: {bad}")


def test_criterion_04_end_zero_census():
    rule = automaton_ii()
    problems = []
    for n in range(1, 9):
        c = census(rule, n)
        if c.prediction_mismatches != 0:
            problems.append(f"n={n}: {c.prediction_mismatches} mismatches")
        if n >= 2 and c.live != 4 * 3 ** (n - 2):
            problems.append(f"n={n}: live {c.live} != {4 * 3 ** (n - 2)}")
    _verdict("04 end-zero census", not problems, "; ".join(problems))


def test_criterion_05_two_sweep_cycle_length():
    rule = automaton_ii()
    bad = []
    for n in range(3, 65):
        initial = Filament((0,) * (n - 1) + (1,))
        report = detect_cycle(rule, initial)
        if not (report.outcome == "cyclic" and report.transient == 0 and report.period == 2 * (n - 1)):
            bad.append(n)
    _verdict("05 two-sweep cycle 2(n-1)", not bad, f"failing n: {bad}")


def test_criterion_06_growth_matrices():
    law1, law2 = liveness_of(automaton_i()), liveness_of(automaton_ii())
    g1, g2 = law1.growth, law2.growth
    from fractions import Fraction

    def classes(law, n):
        return law.classes(all_states_matrix(3, n))

    ok = (
        g1.row_sums() == (Fraction(1), Fraction(1))
        and g2.row_sums() == (Fraction(1),) * 3
        and g1.stationary == (Fraction(1, 2), Fraction(1, 2))
        and g1.is_stationary(g1.stationary)
        and g2.stationary == (Fraction(1, 9), Fraction(4, 9), Fraction(4, 9))
        and g2.is_stationary(g2.stationary)
        and measure_accretion_matrix(
            classes(law1, 6), classes(law1, 7), num_classes=2, num_states=3
        )
        == g1.rows
        and measure_accretion_matrix(
            classes(law2, 6), classes(law2, 7), num_classes=3, num_states=3
        )
        == g2.rows
    )
    _verdict("06 growth matrices", ok)


def test_criterion_07_population_stabilizes_at_half(population_runs_sweep6):
    problems = []
    second_half = slice(2500, None)
    for seed, run in zip(SEEDS, population_runs_sweep6[200]):
        mean = float(run.live_fractions()[second_half].mean())
        if not 0.45 <= mean <= 0.55:
            problems.append(f"seed {seed}: mean {mean:.4f} outside 0.50 +/- 0.05")
    for seed, small, large in zip(
        SEEDS, population_runs_sweep6[5], population_runs_sweep6[200]
    ):
        var_small = float(np.var(small.live_fractions()[second_half]))
        var_large = float(np.var(large.live_fractions()[second_half]))
        if not var_small > var_large:
            problems.append(f"seed {seed}: m=5 var {var_small:.5f} <= m=200 var {var_large:.5f}")
    for seed, run in zip(SEEDS, population_runs_sweep6[200]):
        before, after = mean_activity_around_growth(run)
        if not after > before:
            problems.append(f"seed {seed}: no activity spike at growth ({before:.2f} -> {after:.2f})")
    _verdict("07 population near 1/2", not problems, "; ".join(problems))


def test_criterion_08_population_stabilizes_near_four_ninths(population_runs_sweep2):
    problems = []
    for seed, run in zip(SEEDS, population_runs_sweep2):
        mean = float(run.live_fractions()[2500:].mean())
        if not 0.394 <= mean <= 0.494:
            problems.append(f"seed {seed}: mean {mean:.4f} outside 0.444 +/- 0.05")
    _verdict("08 population near 4/9", not problems, "; ".join(problems))


def test_criterion_09_no_sparse_wave_rules_found(full_scan):
    # The stated claim: among interesting two-state radius-1 rules, no rule
    # sustains a sparse (k_max <= 2) wave cycle at any length in 4..10, so
    # the witness list is empty.
    count = len(full_scan.witnesses)
    _verdict(
        "09 sparse-wave witness list empty",
        count == 0,
        f"{count} rules have a sustained sparse-wave cycle under this protocol",
    )


def test_criterion_10_bouncer_cycle_and_self_stabilization():
    rule = bouncer_rule()
    problems = []
    for n in range(4, 33):
        initial = Filament((0,) + (1,) * (n - 1))
        report = detect_cycle(rule, initial)
        if not (report.outcome == "cyclic" and report.transient == 0 and report.period == 2 * (n - 1)):
            problems.append(f"bounce broken at n={n}")
    for n in range(2, 13):
        succ = successor_array(rule, n)
        transient, period = classify_functional_graph(succ)
        stray = np.flatnonzero(period != 2 * (n - 1))
        for state_id in stray:
            cells = "".join(str(int(v)) for v in all_states_matrix(2, n)[state_id])
            problems.append(f"n={n}: {cells} never joins the bounce cycle")
    _verdict("10 bouncer self-stabilizes", not problems, "; ".join(problems[:4]))


# -- golden diagrams ----------------------------------------------------------------


def _load_golden_builder():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "regen_goldens.py")
    spec = importlib.util.spec_from_file_location("regen_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build


def golden_text(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return fh.read()


def test_golden_diagrams_are_byte_stable():
    build = _load_golden_builder()
    files = build()
    assert sorted(files) == sorted(os.listdir(GOLDEN_DIR))
    for name, text in files.items():
        assert golden_text(name) == text, f"{name} drifted from its committed bytes"


def test_golden_clock_wedges_settle_into_unison():
    for name, s in (("clock2-unison-n8.txt", 2), ("clock3-unison-n8.txt", 3)):
        rows = golden_text(name).splitlines()
        assert len(rows) == 13
        assert any(len(set(row)) > 1 for row in rows[:8])
        for row in rows[8:]:
            assert len(set(row)) == 1
        for a, b in zip(rows[8:], rows[9:]):
            assert int(b[0]) == (int(a[0]) + 1) % s


def test_golden_oblivious_traces_collapse():
    blocks = golden_text("oblivious-flicker-n12.txt").split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        rows = block.splitlines()
        # After the transient, the trace is periodic with period at most 2.
        assert rows[-1] == rows[-3]


def test_golden_bounce_revisits_after_full_period():
    rows = golden_text("bouncer-bounce-n10.txt").splitlines()
    assert rows[18] == rows[0]
    assert rows[36] == rows[0]
    assert len(set(rows[:18])) == 18
    for row in rows:
        zeros = [i for i, ch in enumerate(row) if ch == "0"]
        assert 1 <= len(zeros) <= 2
        if len(zeros) == 2:
            assert zeros[1] - zeros[0] == 1


def test_golden_bounce_convergence_joins_the_cycle():
    rows = golden_text("bouncer-converge-n10.txt").splitlines()
    bounce_start = rows.index("0111111111")
    assert bounce_start <= 12
    assert rows[bounce_start + 18] == rows[bounce_start]


def test_golden_six_sweep_cycle_structure():
    rows = golden_text("sweep6-cycle-n8.txt").splitlines()
    assert len(rows) == 43
    assert rows[42] == rows[0]
    assert len(set(rows[:42])) == 42
    for a, b in zip(rows, rows[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_golden_six_sweep_cancellation_dies():
    rows = golden_text("sweep6-cancel-n8.txt").splitlines()
    assert rows[0] != rows[1]
    assert rows[-1] == rows[-2]
    assert len(set(rows[-1])) == 1


def test_golden_two_sweep_alternates_direction():
    rows = golden_text("sweep2-cycle-n8.txt").splitlines()
    assert len(rows) == 16
    assert rows[14] == rows[0]
    shape = re.compile(r"0*1{0,2}2*$")
    for row in rows:
        assert shape.match(row), row
    # Mean changed-cell position sweeps right to left, then left to right.
    centers = []
    for a, b in zip(rows, rows[1:]):
        changed = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        centers.append(sum(changed) / len(changed))
    assert all(c2 <= c1 for c1, c2 in zip(centers[:7], centers[1:7]))
    assert all(c2 >= c1 for c1, c2 in zip(centers[7:14], centers[8:14]))


def test_golden_two_sweep_pgm_matches_ascii_twin():
    pgm = golden_text("sweep2-cycle-n8.pgm")
    assert pgm.startswith("P2\n8 16\n255\n")
    pixels = decode_pgm(pgm)
    rows = golden_text("sweep2-cycle-n8.txt").splitlines()
    expected = np.array([[pixel_value(int(ch), 3) for ch in row] for row in rows])
    assert (pixels == expected).all()


# -- measured reality behind the failing criteria ------------------------------------

# The tests above state the headline claims verbatim; the ones below freeze
# what this implementation actually measures, so any drift from today's
# behavior is caught even where a headline claim fails.


def test_end_zero_census_measured_reality():
    c2 = census(automaton_ii(), 2)
    assert c2.live == 0
    assert c2.prediction_mismatches == 4
    assert str(c2.first_mismatch) == "01"
    assert c2.max_settle_time == 1
    for n in range(3, 9):
        c = census(automaton_ii(), n)
        assert c.live == 4 * 3 ** (n - 2)
        assert c.prediction_mismatches == 0
    # Settle time grows faster than for the six-sweep rule but stays under
    # 4n through n=8 (frozen measurements).
    assert [census(automaton_ii(), n).max_settle_time for n in range(3, 9)] == [3, 4, 7, 13, 21, 31]


def test_scan_measured_totals(full_scan):
    v = full_scan
    assert v.complete
    assert v.rules_total == 2**18
    assert v.rules_interesting == 260100
    assert v.rules_with_type_a_cycle == 151888
    assert v.rules_with_travelling_type_a_cycle == 70636
    assert v.rules_with_sweeping_type_a_cycle == 1192
    assert len(v.witnesses) == 151888


def test_scan_witnesses_replay_from_full_run(full_scan):
    rng = np.random.default_rng(0)
    picks = rng.choice(len(full_scan.witnesses), size=5, replace=False)
    for i in picks:
        w = full_scan.witnesses[int(i)]
        report = detect_cycle(rule_from_index(w.rule_index), Filament.from_string(w.initial))
        assert report.outcome == "cyclic"
        assert report.transient == 0
        assert report.period == w.period
        assert report.wave.k_max == w.k_max <= 2


def test_sweeping_waves_vanish_at_length_six_and_beyond(full_scan):
    # Sparse cycles that traverse the whole filament (every cell changes at
    # some point of the cycle) exist at lengths 4 and 5 and then die out:
    # the exhaustive scan finds none at any length 6..10.
    assert full_scan.complete
    sweeping = {n: count for n, _, _, count in full_scan.per_length}
    assert [sweeping[n] for n in range(6, 11)] == [0] * 5


def test_scan_measured_totals_per_length(full_scan):
    # (n, Type-A, travelling, sweeping) rules at each length of the default scan.
    assert full_scan.per_length == (
        (4, 137160, 31060, 1192),
        (5, 111828, 30476, 16),
        (6, 97620, 28844, 0),
        (7, 91860, 29324, 0),
        (8, 88572, 28052, 0),
        (9, 87180, 27828, 0),
        (10, 87668, 27996, 0),
    )


def test_scan_measured_totals_at_lengths_eleven_and_twelve():
    # Companion to criterion 09, two lengths past the default scan: Type-A
    # cycles pinned near one spot persist, and still none of them sweeps.
    verdict = search_type_a(lengths=(11, 12))
    assert verdict.complete
    assert verdict.per_length == ((11, 87212, 27996, 0), (12, 87540, 28100, 0))


def test_sweeping_waves_return_at_length_ten_under_a_budget_of_four():
    # The minimality claim depends on k_a: at length 10 no rule sweeps with
    # at most 3 changed cells per step, but 32 rules do with at most 4.
    assert search_type_a(lengths=(10,), k_a=3).per_length == ((10, 90460, 31652, 0),)
    verdict = search_type_a(lengths=(10,), k_a=4)
    assert verdict.per_length == ((10, 96844, 43140, 32),)
    witness = next(w for w in verdict.witnesses if w.rule_index == 11974)
    assert (witness.initial, witness.period, witness.k_max, witness.sweeping) == ("0001001001", 6, 4, True)
    rule, initial = rule_from_index(11974), Filament.from_string("0001001001")
    report = detect_cycle(rule, initial, k_a=4)
    assert (report.outcome, report.transient, report.period, report.wave.k_max) == ("cyclic", 0, 6, 4)
    rows = np.array([state.cells for state in run_trace(rule, initial, 6).states])
    assert rows[0].tolist() == rows[-1].tolist()
    assert (rows[1:] != rows[:-1]).any(axis=0).all()


def test_bouncer_sole_nonconverger_is_all_ones():
    # Length 2 converges in full; at every other length the all-1s filament
    # is the unique straggler, frozen in place because each of its windows
    # also occurs inside a bounce cycle where the cell holds.
    rule = bouncer_rule()
    for n in range(2, 13):
        succ = successor_array(rule, n)
        transient, period = classify_functional_graph(succ)
        stray = np.flatnonzero(period != 2 * (n - 1))
        if n == 2:
            assert stray.tolist() == []
        else:
            assert stray.tolist() == [2**n - 1]
            assert period[2**n - 1] == 1


def test_population_measured_means(population_runs_sweep6, population_runs_sweep2):
    means6 = [round(float(r.live_fractions()[2500:].mean()), 4) for r in population_runs_sweep6[200]]
    assert means6 == [0.4985, 0.505, 0.5034, 0.5059, 0.4946]
    means2 = [round(float(r.live_fractions()[2500:].mean()), 4) for r in population_runs_sweep2]
    assert means2 == [0.4395, 0.4408, 0.4348, 0.4502, 0.4543]
