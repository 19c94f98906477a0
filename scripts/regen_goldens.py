#!/usr/bin/env python3
"""Regenerate the golden diagrams and census reports under tests/golden/.

Every golden is deterministic: a render of a catalogue rule from a fixed
initial state, or the reports of exhaustive censuses of a catalogue rule
over a range of lengths. This script is the single source of truth for
their bytes. Run it after an intentional rendering, rule or census
change, eyeball the diff, and commit the result.
"""

import argparse
import os

from filaments.analysis import census
from filaments.core import Filament
from filaments.engine import run_trace
from filaments.render import render_ascii, render_pgm
from filaments.rules import bouncer_rule, clock_rule, oblivious_example_rule, rule_named

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")


def ascii_blocks(rule, initials, steps):
    blocks = [render_ascii(run_trace(rule, Filament.from_string(s), steps)) for s in initials]
    return "\n".join(blocks)


def census_reports(name, lengths):
    rule = rule_named(name)
    return "\n".join(census(rule, n).report() for n in lengths)


def build():
    files = {}

    # A decaying rule: whatever the start, activity collapses to a
    # period-2 flicker (or a fixed row) almost immediately.
    files["oblivious-flicker-n12.txt"] = ascii_blocks(
        oblivious_example_rule(),
        ("000100000000", "011010011010", "111111111111"),
        10,
    )

    # The counting rules: a ragged start aligns within n steps, then the
    # whole row increments in unison.
    files["clock2-unison-n8.txt"] = ascii_blocks(clock_rule(2), ("01010011",), 12)
    files["clock3-unison-n8.txt"] = ascii_blocks(clock_rule(3), ("01201120",), 12)

    # The bouncer: a lone 0 runs right, doubles up at the wall, and the
    # pair runs back; two full bounces shown.
    files["bouncer-bounce-n10.txt"] = ascii_blocks(bouncer_rule(), ("0111111111",), 36)
    # Convergence into the same bounce from an arbitrary start.
    files["bouncer-converge-n10.txt"] = ascii_blocks(bouncer_rule(), ("0110010111",), 30)

    # The six-sweep rule: one full period plus the revisit row, and a
    # separate cancellation run that dies.
    files["sweep6-cycle-n8.txt"] = ascii_blocks(rule_named("automaton-i"), ("02222222",), 42)
    files["sweep6-cancel-n8.txt"] = ascii_blocks(rule_named("automaton-i"), ("00122100",), 10)

    # The two-sweep rule: one full period plus the revisit row, in both
    # ASCII and graymap form.
    sweep2 = run_trace(rule_named("automaton-ii"), Filament.from_string("00000001"), 15)
    files["sweep2-cycle-n8.txt"] = render_ascii(sweep2)
    files["sweep2-cycle-n8.pgm"] = render_pgm(sweep2, num_states=3)

    # Census reports: the two laws (mismatches included, as at n = 2 for
    # automaton-ii), and rules with no law, whose census compares nothing.
    for name, last in (
        ("automaton-i", 10),
        ("automaton-ii", 10),
        ("bouncer", 14),
        ("bouncer-core", 14),
        ("oblivious-example", 14),
        ("clock-3", 8),
    ):
        files[f"census-{name}-n1-{last}.txt"] = census_reports(name, range(1, last + 1))

    return files


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in sorted(build().items()):
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
