#!/usr/bin/env python3
"""Derive the bouncer's completion entries by constrained search.

The hand-written core of the bouncer (rules.bouncer_core_rule) generates the
bounce cycle from a single 0 in a sea of 1's, but arbitrary starting states
can get stuck in spurious attractors. This script searches for a set of
additional entries that pulls every reachable state into the bounce cycle
while provably leaving the cycle itself untouched.

Protocol:

1. Pin every (current, window) pair that occurs inside a bounce-cycle state
   for any length from 2 up to the protected range; the cycle's own
   dynamics fix the output of those windows, so the completion may not
   redefine them. The pinned set saturates with length (a window spans five
   cells), which the script checks. Pinned windows the hand-written core
   does not define become mandatory completion entries; the lengths 2 and 3
   cycles run partly on such entries.
2. The remaining admissible windows are free. Seed their outputs with two
   local heuristics matching the intended coarse behavior (0-strings of
   length two or more retract their right edge, so they drift left and
   drain; an isolated 0 claims the 1 to its right, so it drifts right), then
   greedily repair single outputs to minimize the number of length-n states
   that fail to reach the bounce cycle, for n from 2 up to --max-verify.
3. Report the frozen completion as RuleEntry code ready to paste into
   rules.py, plus the verification summary: convergence counts per length
   and cycle preservation over the protected range.

For every length n >= 3 the all-1's state is provably unfixable: each
window it contains also occurs in some bounce-cycle state (where the cell
holds), so any completion that preserves the cycles must leave it a fixed
point. The search therefore measures convergence over all states except
the all-1's states of length 3 and up. Length 2 is different: both windows
of [11] are specific to two-cell filaments and occur in no cycle, so [11]
is counted and must converge.

Run: python3 scripts/derive_bouncer_completion.py
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

from filaments import engine
from filaments.engine import all_states_matrix, neighborhood_keys, state_ids
from filaments.rules import bouncer_core_rule

E = 2  # window code for a missing neighbor (states are 0 and 1)
# A table is the flattened lookup table, a window a flat key into it (neighborhood_keys).
SHAPE = (2, 3, 3, 3, 3)  # lookup-table axes: current, l2, l1, r1, r2

LEFT_SIDES = [(0, 0), (0, 1), (1, 0), (1, 1), (E, 0), (E, 1), (E, E)]
RIGHT_SIDES = [(0, 0), (0, 1), (1, 0), (1, 1), (0, E), (1, E), (E, E)]


def cycle_states(n: int) -> np.ndarray:
    """The bounce cycle for length n in order: single 0 runs right, pair runs left."""
    states = np.ones((2 * (n - 1), n), dtype=np.uint8)
    runs = np.arange(n - 1)
    states[runs, runs] = 0
    pairs = np.arange(n - 2, -1, -1)
    states[n - 1 + runs, pairs] = 0
    states[n - 1 + runs, pairs + 1] = 0
    return states


def window(key: int) -> tuple[int, ...]:
    """(current, l2, l1, r1, r2) of a flat window key."""
    return tuple(int(v) for v in np.unravel_index(key, SHAPE))


def pinned_windows(max_n: int) -> dict[int, int]:
    """Window -> forced output, over all bounce cycles up to length max_n."""
    keys, outs = [], []
    for n in range(2, max_n + 1):
        states = cycle_states(n)
        keys.append(neighborhood_keys(states, 2, 2).ravel())
        outs.append(np.roll(states, -1, axis=0).ravel())
    pairs = np.unique(np.concatenate(keys).astype(np.int64) * 2 + np.concatenate(outs))
    if len(np.unique(pairs >> 1)) != len(pairs):
        raise AssertionError("cycle dynamics disagree on a window")
    return dict(zip((pairs >> 1).tolist(), (pairs & 1).tolist()))


def admissible_windows() -> list[int]:
    return [int(np.ravel_multi_index((c, *left, *right), SHAPE))
            for c in range(2) for left in LEFT_SIDES for right in RIGHT_SIDES]


@cache
def _length_setup(n: int) -> np.ndarray:
    """The bounce-cycle state ids at length n."""
    return state_ids(cycle_states(n), 2)


def nonconverging(table: np.ndarray, n: int) -> np.ndarray:
    """Ids of length-n states that never reach the bounce cycle.

    The engine's successor map of the flat table is walked onto its cycles
    (2**n steps reach a cycle from every state). The all-1's state is
    excluded for n >= 3, where it is provably frozen by the pinned cycle
    windows; at n = 2 it is fixable and counted.
    """
    final = engine._onto_cycles(engine._successor_map(table[None], 2, 2, n).ravel(), 2**n)
    ok = np.isin(final, _length_setup(n))
    if n >= 3:
        ok[-1] = True
    return np.flatnonzero(~ok)


def baseline_output(window: tuple[int, ...]) -> int:
    """Heuristic seed for a free window.

    Current 0: the right edge of a 0-string retracts (flip to 1 when the
    immediate left is 0 and the immediate right is not), which makes long
    strings drift left and drain; all other 0's wait.
    Current 1: flip to 0 when a 00 pair sits immediately right (the
    leftward-moving pair claims it) or when an isolated 0 sits immediately
    left (the rightward-moving single claims it).
    """
    c, l2, l1, r1, r2 = window
    if c == 0:
        return 1 if (l1 == 0 and r1 != 0) else 0
    if (r1, r2) == (0, 0):
        return 0
    if l1 == 0 and l2 != 0:
        return 0
    return 1


def objective(table: np.ndarray, lengths: range) -> int:
    return sum(len(nonconverging(table, n)) for n in lengths)


def core_flips() -> set[int]:
    """Admissible windows whose core output differs from the current cell."""
    core = bouncer_core_rule().lookup_table.ravel()
    return {w for w in admissible_windows() if core[w] != window(w)[0]}


def complete(protect: int = 40, max_verify: int = 12, seed: int = 0) -> np.ndarray:
    """Steps 1 and 2: the core table plus pinned and greedily repaired outputs."""
    pinned = pinned_windows(protect)
    saturated = pinned_windows(protect + 8)
    print(f"pinned windows: {len(pinned)} (saturated: {pinned == saturated})")

    table = bouncer_core_rule().lookup_table.ravel().copy()
    core_defined = core_flips()
    mandatory = 0
    for w, out in pinned.items():
        if w in core_defined and table[w] != out:
            raise AssertionError(f"core table contradicts pinned window {window(w)}: "
                                 f"{table[w]} vs {out}")
        if table[w] != out:
            table[w] = out  # cycle-demanded flip the core leaves out
            mandatory += 1

    free = [w for w in admissible_windows() if w not in pinned and w not in core_defined]
    print(f"admissible windows: {2 * len(LEFT_SIDES) * len(RIGHT_SIDES)}, "
          f"core flips: {len(core_defined)}, pinned flips outside the core: "
          f"{mandatory}, free: {len(free)}")

    for w in free:
        table[w] = baseline_output(window(w))

    lengths = range(2, max_verify + 1)
    score = objective(table, lengths)
    print(f"baseline objective (non-converging states, n in {lengths}): {score}")

    rng = np.random.default_rng(seed)
    sweep = 0
    while score > 0:
        sweep += 1
        improved = False
        order = rng.permutation(len(free))
        for idx in order:
            w = free[idx]
            table[w] ^= 1
            trial = objective(table, lengths)
            if trial < score:
                score = trial
                improved = True
            else:
                table[w] ^= 1
        print(f"sweep {sweep}: objective {score}")
        if not improved:
            print("stuck: greedy single-flip search cannot improve further")
            break
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--protect", type=int, default=40,
                        help="pin windows from cycles up to this length (default 40)")
    parser.add_argument("--max-verify", type=int, default=12,
                        help="verify convergence for all states up to this length")
    parser.add_argument("--seed", type=int, default=0, help="tie-break seed")
    args = parser.parse_args()

    table = complete(args.protect, args.max_verify, args.seed)

    score = 0
    for n in range(2, args.max_verify + 1):
        bad = nonconverging(table, n)
        score += len(bad)
        states = [" ".join(map(str, row)) for row in all_states_matrix(2, n)[bad[:8]].tolist()]
        print(f"n={n}: non-converging {len(bad)}  {states}")

    # Cycle preservation over the protected range (defense in depth; the
    # construction already guarantees it).
    preserved = True
    for n in range(2, args.protect + 1):
        states = cycle_states(n)
        if not (table[neighborhood_keys(states, 2, 2)] == np.roll(states, -1, axis=0)).all():
            preserved = False
            print(f"cycle broken at n={n}")
    print(f"cycle preserved for n in 2..{args.protect}: {preserved}")

    if score == 0:
        print("\ncompletion entries (all flips outside the core), for rules.py:")
        names = {0: "0", 1: "1", E: "EMPTY"}
        outside = sorted(set(admissible_windows()) - core_flips())
        flips = 0
        for w in outside:
            c, l2, l1, r1, r2 = window(w)
            out = int(table[w])
            if out != c:
                flips += 1
                print(f"    RuleEntry({c}, ({names[l2]}, {names[l1]}), "
                      f"({names[r1]}, {names[r2]}), {out}),")
        free = set(outside) - pinned_windows(args.protect).keys()
        holds = sum(1 for w in free if int(table[w]) == window(w)[0])
        print(f"# completion flips: {flips} "
              f"(greedy left {holds} of {len(free)} free windows on hold)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
