#!/usr/bin/env python3
"""Pair benchmark runs of two checkouts and write one BENCH_<pr>_<workload>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --workload census \\
        --pairs 10 --pr 24 --controls hunt scan dynamics \\
        --note "what the change does"

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds 20
--trace 0`` in both checkouts, S from ``--seed`` (default 1), one after the other, with the order alternating
from pair to pair. Both run under PYTHONDONTWRITEBYTECODE=1, so neither reads
or writes a bytecode cache. The record each run leaves in its checkout's
``perfbench/out/`` is kept whole under ``pairs``. The summary gives, for each
end-to-end metric in the change's BENCHMARK.json, the q1, median and q3 of
each side and the number of pairs in which the change is better. Control
workloads run as many pairs as the main workload, paired the same way after
the main pairs, and are kept under ``controls``, each with its own summary and
pairs. The record is written to
the current directory, and the medians and wins of the main workload and of
each control are printed one line per metric. Make the parent checkout with
``git clone``, so that its run headers carry its commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload {} --seed {} --seconds 20 --trace 0"


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``tree``; returns the record it wrote."""
    command = [sys.executable, *COMMAND.format(workload, seed).split()[1:]]
    done = subprocess.run(command, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed in {tree}:\n{done.stderr}")
    with open(os.path.join(tree, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")) as fp:
        return json.load(fp)


def run_pairs(trees: dict, workload: str, pairs: int, seed: int) -> list[dict]:
    out = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {}
        for side in order:
            print(f"{workload} pair {i + 1}/{pairs}: {side}", file=sys.stderr, flush=True)
            runs[side] = run_once(trees[side], workload, seed)
        out.append({"pair": i, "seed": seed, "order": list(order), **{s: runs[s] for s in SIDES}})
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles over the pairs, and the pairs the change wins."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        summary[name] = {**{side: quartiles(values[side]) for side in SIDES}, "change_better_pairs": wins}
    return summary


def print_summary(label: str, summary: dict, pairs: int) -> None:
    """One line per metric: both medians and the pairs the change wins."""
    for name, row in summary.items():
        print(f"{label} {name}: parent {row['parent']['median']:.6g}, change {row['change']['median']:.6g}, "
              f"change better in {row['change_better_pairs']} of {pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="the workload the record is about")
    parser.add_argument("--pairs", type=int, required=True, help="pairs of the main workload and of each control")
    parser.add_argument("--pr", required=True, help="number in the record's file name")
    parser.add_argument("--controls", nargs="*", default=[], help="control workloads, paired after the main ones")
    parser.add_argument("--seed", type=int, default=1, help="seed of every run (default 1)")
    parser.add_argument("--note", default="", help="what the change does, for the record's 'change' field")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fp:
        metrics = json.load(fp)["end_to_end"]
    pairs = run_pairs(trees, args.workload, args.pairs, args.seed)
    controls = []
    for workload in args.controls:
        control = run_pairs(trees, workload, args.pairs, args.seed)
        controls.append({"workload": workload, "command": COMMAND.format(workload, args.seed),
                         "summary": summarize(control, metrics), "pairs": control})

    header = pairs[0]["change"]["header"]
    design = (f"{args.pairs} pairs, all at seed {args.seed}; each pair runs the parent tree and the change "
              "in turn, the order alternating from pair to pair; both trees run under "
              "PYTHONDONTWRITEBYTECODE=1, so without bytecode caches.")
    if controls:
        design += (f" The controls, {', '.join(args.controls)}, run as many pairs each, "
                   f"the same way, after the {args.workload} pairs.")
    record = {
        "workload": args.workload,
        "command": COMMAND.format(args.workload, args.seed),
        "design": design,
        "host": f"{header['nproc']} cores ({header['cpu_model']}), Python {header['python']}, NumPy {header['numpy']}",
        "parent": pairs[0]["parent"]["header"]["git_sha"],
        "change": args.note or header["git_sha"],
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
        "controls": controls,
    }
    path = f"BENCH_{args.pr}_{args.workload}.json"
    with open(path, "w") as fp:
        json.dump(record, fp, indent=1)
        fp.write("\n")
    print_summary(args.workload, record["summary"], args.pairs)
    for control in controls:
        print_summary(f"control {control['workload']}", control["summary"], args.pairs)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
