"""The experiment scripts: each answers --help, the bouncer derivation
reproduces the catalogue bouncer, and bench_pairs counts the pairs a change wins."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from filaments.rules import bouncer_rule

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _load_script(name):
    path = os.path.join(SCRIPTS_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bouncer_derivation_reproduces_the_catalogue_bouncer():
    table = _load_script("derive_bouncer_completion").complete()
    assert np.array_equal(table, bouncer_rule().lookup_table.ravel())


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCRIPTS_DIR) if f.endswith(".py")))
def test_script_help_exits_cleanly(name):
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS_DIR, name), "--help"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def _bench_run(**values):
    """A benchmark record as bench_pairs reads it: one value per end-to-end metric."""
    return {"metrics": {name: {"value": value} for name, value in values.items()}}


def test_bench_pairs_summary_counts_the_pairs_the_change_wins():
    summarize = _load_script("bench_pairs").summarize
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "states_per_s", "better": "higher"}]
    pairs = [
        # The change wins both metrics, then loses both, then ties both.
        {"parent": _bench_run(wall_s=2.0, states_per_s=10.0), "change": _bench_run(wall_s=1.0, states_per_s=12.0)},
        {"parent": _bench_run(wall_s=1.0, states_per_s=12.0), "change": _bench_run(wall_s=1.5, states_per_s=11.0)},
        {"parent": _bench_run(wall_s=1.0, states_per_s=9.0), "change": _bench_run(wall_s=1.0, states_per_s=9.0)},
    ]
    summary = summarize(pairs, metrics)
    assert summary["wall_s"] == {
        "parent": {"q1": 1.0, "median": 1.0, "q3": 1.5},
        "change": {"q1": 1.0, "median": 1.0, "q3": 1.25},
        "change_better_pairs": 1,
    }
    assert summary["states_per_s"]["parent"] == {"q1": 9.5, "median": 10.0, "q3": 11.0}
    assert summary["states_per_s"]["change_better_pairs"] == 1
    # One pair: each side's quartiles are its one value.
    single = summarize(pairs[1:2], metrics)
    assert single["wall_s"]["change"] == {"q1": 1.5, "median": 1.5, "q3": 1.5}
    assert [single[name]["change_better_pairs"] for name in ("wall_s", "states_per_s")] == [0, 0]
    assert [summarize(pairs[:1], metrics)[name]["change_better_pairs"] for name in ("wall_s", "states_per_s")] == [1, 1]
