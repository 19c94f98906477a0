"""The experiment scripts: each answers --help, the bouncer derivation
reproduces the catalogue bouncer, and bench_pairs counts the pairs a change wins
and runs the seed it is given."""

import importlib.util
import json
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


@pytest.mark.parametrize("argv, seed", [([], 1), (["--seed", "2"], 2)])
def test_bench_pairs_runs_and_reads_the_seed_it_is_given(tmp_path, monkeypatch, argv, seed):
    bench_pairs = _load_script("bench_pairs")
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "perfbench" / "out").mkdir(parents=True)
    (trees["change"] / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "wall_s", "better": "lower"}]}')
    commands = []

    def fake_run(command, cwd, **kwargs):
        # Each side leaves the record of the seed it ran under that seed's file name.
        commands.append(command[1:])
        seed_run = command[command.index("--seed") + 1]
        header = {"nproc": 2, "cpu_model": "cpu", "python": "3", "numpy": "2", "git_sha": os.path.basename(cwd)}
        record = {"header": header, "metrics": {"wall_s": {"value": 2.0 if cwd.endswith("parent") else 1.0}}}
        with open(os.path.join(cwd, "perfbench", "out", f"scan-seed{seed_run}-trace0.json"), "w") as fp:
            json.dump(record, fp)
        return subprocess.CompletedProcess(command, 0, "", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]), "--workload", "scan",
                      "--pairs", "2", "--pr", "0", "--controls", "scan", *argv])
    command = f"python3 perfbench/run.py --workload scan --seed {seed} --seconds 20 --trace 0"
    assert commands == [command.split()[1:]] * 8
    record = json.loads((tmp_path / "BENCH_0_scan.json").read_text())
    assert record["command"] == record["controls"][0]["command"] == command
    assert record["design"].startswith(f"2 pairs, all at seed {seed}; ")
    assert [pair["seed"] for pair in record["pairs"] + record["controls"][0]["pairs"]] == [seed] * 4
    assert record["summary"]["wall_s"]["change_better_pairs"] == 2
