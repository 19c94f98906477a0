"""The four benchmark workloads and the known answers they are checked against.

Each workload is a closed loop with one caller. Set-up loads the catalogue
rules (``load_catalogue``), then the workload's builder in ``BUILDERS``
makes the inputs from the seed and returns a ``Job`` whose operations one
pass runs in order, each a public ``filaments`` call.
Every call goes through its module attribute at call time (for example
``analysis.census``), so the tracer's wrappers see it. After a pass each
output is checked; a wrong output or an exception is a failed operation.

Sizes are chosen so that one pass takes about one to four seconds on a
shared two-core VM, which lets a run of twenty seconds take the median of
several passes; a single pass varies by up to a third from one to the next.

- census: every length-10 filament under automaton-i and automaton-ii,
  one ``step_array`` call over 3**10 rows each, then the functional-graph
  walk and the per-state predictor loop.
- scan: the exhaustive two-state scan over lengths 4..7, vectorized
  pointer doubling over 65,536 fingerprints. The traced run adds one call
  per length 4..8.
- hunt: ``hunt_viable_3state`` over a seeded sample of 8,000 of the 49**3
  sweep candidates plus the two catalogue sweeps; a Python loop over tiny
  arrays, bound by per-call overhead.
- dynamics: a seeded population (thousands of small-batch ``step_array``
  calls), ``detect_cycle`` from a one-hot start with its O(n * period)
  trajectory memory, and ``detect_cycle`` from seeded random starts.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable

import numpy as np

from filaments import Filament, analysis, engine, population, rules, search
from filaments.core import EMPTY, Neighborhood

HERE = os.path.dirname(os.path.abspath(__file__))

CATALOGUE_RULES = ("automaton-i", "automaton-ii")

CENSUS_SIZES = (("automaton-i", 10), ("automaton-ii", 10))

SCAN_LENGTHS = (4, 5, 6, 7)
SCAN_LAYER_LENGTHS = (4, 5, 6, 7, 8)
SCAN_FINGERPRINTS = 65536
SCAN_INTERESTING = 260100
# Measured by the scan at lengths 4..7; lengths 4..8 differ only in the
# travelling count (69820), so every Type-A rule has a witness by n=7.
SCAN_ANSWER = {
    "rules_interesting": SCAN_INTERESTING,
    "fingerprints_simulated": SCAN_FINGERPRINTS,
    "rules_with_type_a_cycle": 151888,
    "rules_with_travelling_type_a_cycle": 68540,
    "rules_with_sweeping_type_a_cycle": 1192,
}
SCAN_REPLAYS = 5

HUNT_SAMPLE = 8000
HUNT_NS = (4, 5)
# Sweep parameters that reproduce the two catalogue three-state rules.
FIRST_SWEEP = search.SweepParams(bulk=((1, 1), (2, 2), (0, 0)), end=((1, 2), (2, 0), (0, 1)))
SECOND_SWEEP = search.SweepParams(bulk=((1, 1), (0, 2), (0, 0)), end=(None, (1, 2), (0, 1)))

POPULATION = {"m": 400, "total_ticks": 2000, "n0": 20}
ONE_HOT_N = 400
RANDOM_STARTS = 6
RANDOM_N = 100


@dataclass
class Op:
    """One checked public call.

    ``check`` lists what is wrong with an output (nothing when it is
    right), ``work`` counts the states it classified or advanced, and
    ``summary`` reduces it to a value that compares equal exactly when
    two outputs are the same.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    work: Callable[[Any], int]
    summary: Callable[[Any], Any] = lambda out: out


@dataclass
class Job:
    ops: list[Op]
    # Calls made once each, traced, on top of the timed passes.
    layer_ops: dict[str, Op] = field(default_factory=dict)


def load_catalogue(span: Callable = lambda name, fn: fn()) -> dict:
    """The catalogue rules every workload loads, lookup tables compiled.

    ``span(name, fn)`` calls ``fn``; the traced run passes one that times
    the ``lookup_table`` compile, a cached property with no function to wrap.
    """
    loaded = {}
    for name in CATALOGUE_RULES:
        rule = rules.rule_named(name)
        span("core.lookup_table", lambda: rule.lookup_table)
        loaded[name] = rule
    return loaded


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


# -- census -----------------------------------------------------------------------


def _census_live(name: str, n: int) -> int:
    """Closed-form live counts: step parity for automaton-i, one end zero for ii."""
    if name == "automaton-i":
        return (3**n + 3) // 2 if n % 2 == 0 else (3**n - 3) // 2
    return 4 * 3 ** (n - 2)


def _census_op(rule, name: str, n: int) -> Op:
    def check(c) -> list[str]:
        problems: list[str] = []
        live = _census_live(name, n)
        _expect(problems, "total", c.total, 3**n)
        _expect(problems, "live", c.live, live)
        _expect(problems, "quiescent", c.quiescent, 3**n - live)
        _expect(problems, "unresolved", c.unresolved, 0)
        _expect(problems, "prediction_mismatches", c.prediction_mismatches, 0)
        return problems

    return Op(
        f"census {name} n={n}",
        lambda: analysis.census(rule, n),
        check,
        work=lambda c: c.total,
    )


def build_census(seed: int, catalogue: dict) -> Job:
    return Job([_census_op(catalogue[name], name, n) for name, n in CENSUS_SIZES])


# -- scan -------------------------------------------------------------------------


def _replay(verdict, rng: np.random.Generator, picks: int) -> list[str]:
    """Replay seeded witnesses through ``detect_cycle`` on the indexed rule."""
    problems: list[str] = []
    if not verdict.witnesses:
        return ["no witnesses"]
    for i in rng.choice(len(verdict.witnesses), size=picks, replace=False):
        w = verdict.witnesses[int(i)]
        report = engine.detect_cycle(
            search.rule_from_index(w.rule_index), Filament.from_string(w.initial)
        )
        label = f"witness rule {w.rule_index} {w.initial}"
        _expect(problems, label, (report.outcome, report.transient, report.period),
                ("cyclic", 0, w.period))
        if report.wave is not None:
            _expect(problems, f"{label} k_max", report.wave.k_max, w.k_max)
    return problems


def scan_work(verdict) -> int:
    return verdict.fingerprints_simulated * sum(1 << n for n in verdict.lengths)


def build_scan(seed: int, catalogue: dict) -> Job:
    def check(verdict) -> list[str]:
        problems: list[str] = []
        for key, want in SCAN_ANSWER.items():
            _expect(problems, key, getattr(verdict, key), want)
        _expect(problems, "witnesses", len(verdict.witnesses), SCAN_ANSWER["rules_with_type_a_cycle"])
        _expect(problems, "complete", verdict.complete, True)
        return problems + _replay(verdict, np.random.default_rng(seed), SCAN_REPLAYS)

    def layer_op(n: int) -> Op:
        def check_one(verdict) -> list[str]:
            problems: list[str] = []
            _expect(problems, "rules_interesting", verdict.rules_interesting, SCAN_INTERESTING)
            _expect(problems, "fingerprints_simulated", verdict.fingerprints_simulated,
                    SCAN_FINGERPRINTS)
            _expect(problems, "coverage", verdict.coverage, ((n, "exhaustive"),))
            return problems + _replay(verdict, np.random.default_rng((seed, n)), 2)

        return Op(f"search_type_a n={n}", lambda: search.search_type_a(lengths=(n,)),
                  check_one, scan_work)

    return Job(
        [Op("search_type_a n=4..7", lambda: search.search_type_a(lengths=SCAN_LENGTHS),
            check, scan_work)],
        {f"n{n}": layer_op(n) for n in SCAN_LAYER_LENGTHS},
    )


# -- hunt -------------------------------------------------------------------------


@cache
def hunt_reference() -> tuple[np.ndarray, dict]:
    """Per-candidate interesting flags and the viable rules of the full hunt.

    Written by ``make_reference.py``; indices follow
    ``enumerate_sweep_params`` order.
    """
    with open(os.path.join(HERE, "hunt_reference.json")) as fp:
        ref = json.load(fp)
    bits = np.frombuffer(zlib.decompress(base64.b64decode(ref["interesting_bits"])), np.uint8)
    interesting = np.unpackbits(bits)[: ref["candidates_total"]].astype(bool)
    viable = {i: (tuple(matrix), stationary) for i, matrix, stationary in ref["viable"]}
    return interesting, viable


def build_hunt(seed: int, catalogue: dict) -> Job:
    params = list(search.enumerate_sweep_params())
    position = {p: i for i, p in enumerate(params)}
    rng = np.random.default_rng(seed)
    picks = set(rng.choice(len(params), size=HUNT_SAMPLE, replace=False).tolist())
    picks |= {position[FIRST_SWEEP], position[SECOND_SWEEP]}
    picks = sorted(picks)
    candidates = [params[i] for i in picks]
    probe_states = sum(3**n for n in set(HUNT_NS) | {n + 1 for n in HUNT_NS})

    def check(result) -> list[str]:
        interesting, viable = hunt_reference()
        problems: list[str] = []
        _expect(problems, "candidates_total", result.candidates_total, len(picks))
        _expect(problems, "candidates_interesting", result.candidates_interesting,
                int(interesting[picks].sum()))
        got = [
            (position[c.params], tuple(str(x) for row in c.matrix for x in row),
             str(c.stationary_live))
            for c in result.viable
        ]
        want = [(i, *viable[i]) for i in picks if i in viable]
        _expect(problems, "viable", got, want)
        found = {c.params for c in result.viable}
        for sweep, name in ((FIRST_SWEEP, "automaton-i"), (SECOND_SWEEP, "automaton-ii")):
            _expect(problems, f"{name} sweep viable", sweep in found, True)
            same = bool((search.sweep_rule(sweep).lookup_table
                         == catalogue[name].lookup_table).all())
            _expect(problems, f"{name} sweep reproduces the catalogue rule", same, True)
        return problems

    return Job([
        Op(
            f"hunt_viable_3state {len(picks)} candidates",
            lambda: search.hunt_viable_3state(ns=HUNT_NS, candidates=candidates),
            check,
            work=lambda r: r.candidates_interesting * probe_states,
        )
    ])


# -- dynamics ---------------------------------------------------------------------


def _population_digest(rows, final_states: np.ndarray) -> str:
    h = hashlib.sha256(repr(rows).encode())
    h.update(np.ascontiguousarray(final_states, dtype=np.uint8).tobytes())
    return h.hexdigest()


def run_digest(run) -> str:
    """Digest of a population run's per-tick stats and final cells."""
    rows = [
        (s.tick, s.live_count, s.activity_count, s.current_length, s.grew_this_tick)
        for s in run.stats
    ]
    return _population_digest(rows, run.final_states)


def oracle_table(rule) -> np.ndarray:
    """A radius-1 lookup table built cell by cell from the scalar interpreter."""
    s = rule.num_states
    codes = list(range(s)) + [EMPTY]
    table = np.zeros((s, s + 1, s + 1), dtype=np.uint8)
    for c in range(s):
        for li, left in enumerate(codes):
            for ri, right in enumerate(codes):
                table[c, li, ri] = rule.next_state(c, Neighborhood(1, (left,), (right,)))
    return table


def reference_population_digest(rule, seed: int, m: int, total_ticks: int, n0: int) -> str:
    """Digest of the automaton-ii population as ``run_population`` defines it.

    Written independently of ``run_population``: cells step through
    ``oracle_table``, liveness is "exactly one end cell is 0", and each
    filament draws from its own ``(seed, i)`` stream in the same order, a
    new cell every 2*n0 ticks.
    """
    s = rule.num_states
    table = oracle_table(rule)
    rngs = [np.random.default_rng((seed, i)) for i in range(m)]
    states = np.stack([rngs[i].integers(0, s, size=n0, dtype=np.uint8) for i in range(m)])
    rows = []
    since_growth = 0
    for tick in range(1, total_ticks + 1):
        padded = np.pad(states, ((0, 0), (1, 1)), constant_values=s)
        stepped = table[states, padded[:, :-2], padded[:, 2:]]
        activity = int((stepped != states).any(axis=1).sum())
        states = stepped
        since_growth += 1
        grew = since_growth >= 2 * n0
        if grew:
            since_growth = 0
            column = np.array([rngs[i].integers(0, s) for i in range(m)], dtype=np.uint8)
            states = np.concatenate([states, column[:, None]], axis=1)
        live = int(((states[:, 0] == 0) != (states[:, -1] == 0)).sum())
        rows.append((tick, live, activity, states.shape[1], grew))
    return _population_digest(rows, states)


def trajectory_steps(report) -> int:
    return report.transient + report.period if report.period else report.horizon


def build_dynamics(seed: int, catalogue: dict) -> Job:
    rule_i = catalogue["automaton-i"]
    rule_ii = catalogue["automaton-ii"]
    config = population.PopulationConfig(
        rule=rule_ii,
        m=POPULATION["m"],
        total_ticks=POPULATION["total_ticks"],
        seed=seed,
        n0=POPULATION["n0"],
        live_metric="classification",
    )
    reference = cache(lambda: reference_population_digest(rule_ii, seed, **POPULATION))

    def check_population(run) -> list[str]:
        problems: list[str] = []
        _expect(problems, "stats digest", run_digest(run), reference())
        return problems

    one_hot = Filament((0,) + (2,) * (ONE_HOT_N - 1))

    def check_one_hot(report) -> list[str]:
        problems: list[str] = []
        _expect(problems, "one-hot trajectory", (report.outcome, report.transient, report.period),
                ("cyclic", 0, 6 * (ONE_HOT_N - 1)))
        return problems

    def random_op(k: int, cells: tuple[int, ...]) -> Op:
        odd_steps = sum(a != b for a, b in zip(cells, cells[1:])) % 2 == 1

        def check(report) -> list[str]:
            problems: list[str] = []
            _expect(problems, "outcome", report.outcome, "cyclic" if odd_steps else "quiescent")
            return problems

        return Op(f"detect_cycle random start {k} n={RANDOM_N}",
                  lambda: engine.detect_cycle(rule_i, Filament(cells)),
                  check, trajectory_steps)

    rng = np.random.default_rng(seed)
    starts = [tuple(int(v) for v in rng.integers(0, 3, size=RANDOM_N)) for _ in range(RANDOM_STARTS)]
    return Job([
        Op("run_population automaton-ii", lambda: population.run_population(config),
           check_population, work=lambda run: config.m * config.total_ticks, summary=run_digest),
        Op(f"detect_cycle one-hot n={ONE_HOT_N}", lambda: engine.detect_cycle(rule_i, one_hot),
           check_one_hot, trajectory_steps),
        *(random_op(k, cells) for k, cells in enumerate(starts)),
    ])


BUILDERS = {
    "census": build_census,
    "scan": build_scan,
    "hunt": build_hunt,
    "dynamics": build_dynamics,
}
