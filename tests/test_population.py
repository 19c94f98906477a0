"""Population runs: growth schedule, reproducibility, metrics, CSV output."""

import io

import numpy as np
import pytest

from filaments.core import Filament, Rule, RuleEntry, neighborhood_of
from filaments.population import (
    PopulationConfig,
    mean_activity_around_growth,
    run_population,
    turnover_report,
    write_per_filament_csv,
    write_population_csv,
)
from filaments.rules import automaton_i, automaton_ii, bouncer_rule


def small_config(**overrides):
    base = dict(rule=automaton_i(), m=6, total_ticks=40, seed=1, n0=4)
    base.update(overrides)
    return PopulationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(m=0)
    with pytest.raises(ValueError):
        small_config(total_ticks=-1)
    with pytest.raises(ValueError):
        small_config(n0=0)
    with pytest.raises(ValueError):
        small_config(growth_interval=0)
    with pytest.raises(ValueError):
        small_config(live_metric="bogus")


def test_default_growth_interval_depends_on_rule():
    assert small_config(n0=20).resolved_growth_interval() == 120
    assert small_config(rule=automaton_ii(), n0=20).resolved_growth_interval() == 40
    assert small_config(growth_interval=7).resolved_growth_interval() == 7
    # Rules without a known schedule need an explicit interval.
    with pytest.raises(ValueError):
        small_config(rule=bouncer_rule()).resolved_growth_interval()
    assert small_config(rule=bouncer_rule(), growth_interval=9).resolved_growth_interval() == 9


def test_run_is_reproducible():
    a = run_population(small_config())
    b = run_population(small_config())
    assert a.stats == b.stats
    assert (a.per_filament_live == b.per_filament_live).all()
    assert (a.final_states == b.final_states).all()
    c = run_population(small_config(seed=2))
    assert a.stats != c.stats


def test_population_prefix_is_stable_in_m():
    # Filament i draws from rng(seed, i), so adding filaments never
    # changes the trajectories of the ones already there.
    small = run_population(small_config(m=3))
    large = run_population(small_config(m=9))
    assert (large.per_filament_live[:, :3] == small.per_filament_live).all()
    assert (large.final_states[:3] == small.final_states[:3]).all()


def test_growth_schedule_fixed_interval():
    run = run_population(small_config(total_ticks=50, growth_interval=12))
    assert run.growth_ticks() == (12, 24, 36, 48)
    lengths = [s.current_length for s in run.stats]
    assert lengths[0] == 4
    assert lengths[-1] == 4 + 4
    for s in run.stats:
        assert s.grew_this_tick == (s.tick in (12, 24, 36, 48))


def test_growth_rescale_stretches_intervals():
    run = run_population(
        small_config(total_ticks=120, growth_interval=16, growth_rescale=True)
    )
    ticks = run.growth_ticks()
    gaps = np.diff((0,) + ticks)
    assert len(ticks) >= 2
    # Each gap is the base interval scaled by current length over n0.
    assert gaps[0] == 16
    assert gaps[1] == 16 * 5 // 4
    assert all(g2 >= g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_stats_arrays_agree_with_stats_rows():
    run = run_population(small_config())
    assert run.live_fractions().tolist() == [s.live_fraction for s in run.stats]
    assert run.activity_counts().tolist() == [s.activity_count for s in run.stats]
    assert [int(v) for v in run.per_filament_live.sum(axis=1)] == [
        s.live_count for s in run.stats
    ]


def test_live_metric_classification_vs_activity():
    # Activity marks settling filaments as live; classification only counts
    # the ones whose current state is headed for the perpetual cycle.
    act = run_population(small_config(m=40, total_ticks=60, live_metric="activity"))
    cls = run_population(small_config(m=40, total_ticks=60, live_metric="classification"))
    assert np.mean(act.live_fractions()) >= np.mean(cls.live_fractions())
    # Classification is constant between growth events (liveness is a fate,
    # not a momentary property).
    ticks = {s.tick: s for s in cls.stats}
    for t in range(13, 16):
        assert ticks[t].live_count == ticks[13].live_count


def test_classification_metric_rejects_unknown_rule():
    # Rejected at configuration time: no liveness predictor for the bouncer.
    with pytest.raises(ValueError):
        small_config(rule=bouncer_rule(), growth_interval=9, live_metric="classification")


def test_explicit_initial_states():
    cfg = small_config(m=2, total_ticks=6, growth_interval=100)
    states = np.array([[0, 2, 2, 2], [0, 0, 0, 0]], dtype=np.uint8)
    run = run_population(cfg, initial_states=states)
    # The all-zeros filament never changes; the sweep filament cycles.
    assert run.per_filament_live[:, 1].sum() == 0
    assert run.per_filament_live[:, 0].sum() == 6
    with pytest.raises(ValueError):
        run_population(cfg, initial_states=states[:, :3])
    with pytest.raises(ValueError):
        run_population(cfg, initial_states=states[:1])


@pytest.mark.parametrize(
    "cell", [np.int64(256), np.int64(-256), np.int64(3), 1.7], ids=["256", "-256", "3", "1.7"]
)
def test_initial_states_outside_the_states_raise(cell):
    # 256 and -256 used to wrap to 0 and 1.7 to truncate to 1, silently.
    cfg = small_config(m=2, total_ticks=6, growth_interval=100)
    states = np.array([[0, 2, 2, 2], [0, 0, 0, 0]], dtype=np.asarray(cell).dtype)
    states[1, 3] = cell
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        run_population(cfg, initial_states=states)


def interpreter_population(config):
    """Stats rows, live rows and final cells of ``run_population`` under the activity
    metric, written from its definition: every cell steps through the scalar
    interpreter ``Rule.next_state``, and each growth draws one cell per filament with
    one scalar ``integers(0, s)`` call on that filament's ``(seed, i)`` stream."""
    rule, s, m = config.rule, config.rule.num_states, config.m
    rngs = [np.random.default_rng((config.seed, i)) for i in range(m)]
    rows = [tuple(int(v) for v in rng.integers(0, s, size=config.n0, dtype=np.uint8)) for rng in rngs]
    memo = {}

    def next_cell(f, i):
        nbhd = neighborhood_of(f, i, rule.radius)
        if (f[i], nbhd) not in memo:
            memo[f[i], nbhd] = rule.next_state(f[i], nbhd)
        return memo[f[i], nbhd]

    base = interval = config.resolved_growth_interval()
    since_growth = 0
    stats, live = [], []
    for tick in range(1, config.total_ticks + 1):
        stepped = [tuple(next_cell(Filament(row), i) for i in range(len(row))) for row in rows]
        activity = [a != b for a, b in zip(stepped, rows)]
        rows = stepped
        since_growth += 1
        grew = since_growth >= interval
        if grew:
            since_growth = 0
            rows = [row + (int(rng.integers(0, s)),) for row, rng in zip(rows, rngs)]
            if config.growth_rescale:
                interval = max(1, base * len(rows[0]) // config.n0)
        live.append(activity)
        stats.append((tick, sum(activity), sum(activity) / m, sum(activity), len(rows[0]), grew))
    return stats, live, rows


def seeded_rule(seed, s, r, count):
    """A rule of ``count`` entries, each a distinct concrete input sent to a random state."""
    rng = np.random.default_rng(seed)
    nbhds = list(Rule("hold", s, r, symmetric=False, entries=()).admissible_neighborhoods())
    inputs = [(c, nbhd) for c in range(s) for nbhd in nbhds]
    entries = [
        RuleEntry(c, nbhd.left, nbhd.right, int(rng.integers(0, s)))
        for c, nbhd in (inputs[i] for i in rng.choice(len(inputs), size=count, replace=False))
    ]
    return Rule(f"seeded-{seed}", s, r, symmetric=False, entries=tuple(entries))


# One growth per tick for 150+ ticks takes every filament past two blocks of growth cells.
@pytest.mark.parametrize(
    "rule, overrides",
    [
        (seeded_rule(11, 3, 1, 30), dict(n0=6)),  # 48-cell table, stepped by translate
        (seeded_rule(12, 3, 2, 60), dict(n0=5)),  # 768-cell table, stepped by gather
        (automaton_i(), dict(n0=64, growth_rescale=True, total_ticks=200)),
    ],
    ids=["seeded-3-state", "seeded-3-state-radius-2", "automaton-i-rescaled"],
)
def test_population_matches_the_interpreter(rule, overrides):
    cfg = PopulationConfig(**{**dict(rule=rule, m=3, total_ticks=160, seed=7, growth_interval=1), **overrides})
    run = run_population(cfg)
    stats, live, rows = interpreter_population(cfg)
    assert len(run.growth_ticks()) > 128
    assert [
        (x.tick, x.live_count, x.live_fraction, x.activity_count, x.current_length, x.grew_this_tick)
        for x in run.stats
    ] == stats
    assert run.per_filament_live.tolist() == live
    assert run.final_states.tolist() == [list(row) for row in rows]


def test_turnover_report_window_math():
    run = run_population(small_config(total_ticks=30))
    rep = turnover_report(run, window=10)
    assert rep.window == 10
    assert len(rep.live_set_sizes) == 3
    assert len(rep.symmetric_differences) == 2
    assert 0.0 <= rep.ever_live_fraction <= 1.0
    with pytest.raises(ValueError):
        turnover_report(run, window=0)


def test_mean_activity_around_growth_sees_spikes():
    cfg = small_config(m=30, total_ticks=80, growth_interval=20, live_metric="classification")
    run = run_population(cfg)
    before, after = mean_activity_around_growth(run, width=3)
    # Fresh cells perturb settled filaments, so activity jumps after growth.
    assert after > before


@pytest.mark.parametrize("width", [0, -2])
def test_mean_activity_around_growth_rejects_empty_windows(width):
    run = run_population(small_config(growth_interval=5))
    with pytest.raises(ValueError, match="^width must be at least 1$"):
        mean_activity_around_growth(run, width=width)


def test_population_csv_format():
    run = run_population(small_config(m=2, total_ticks=3, growth_interval=2))
    buf = io.StringIO()
    write_population_csv(run, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tick,population_size,filament_length,live_count,live_fraction,grew"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "2"
    assert first[5] in ("0", "1")
    assert lines[2].split(",")[5] == "1"  # grew at tick 2


def test_per_filament_csv_format():
    run = run_population(small_config(m=2, total_ticks=2, growth_interval=50))
    buf = io.StringIO()
    write_per_filament_csv(run, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tick,filament_id,live"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("1,0,")
