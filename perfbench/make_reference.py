"""Regenerate ``hunt_reference.json``, the known answer for the hunt workload.

The hunt workload times ``hunt_viable_3state`` on a seeded subset of the
49**3 sweep candidates, so its check needs the outcome of every single
candidate: whether it is interesting, and the exact matrix of each viable
one. This script gets both through the public API (one call per candidate
for the interesting flag, one full hunt for the viable rules), checks them
against the whole-space totals, and writes them out. Run it from the repo
root only when the hunt's definition changes on purpose:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import base64
import json
import os
import sys
import zlib

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from filaments import search  # noqa: E402

OUT = os.path.join(HERE, "hunt_reference.json")


def main() -> None:
    params = list(search.enumerate_sweep_params())
    interesting = np.array(
        [search.hunt_viable_3state(candidates=[p]).candidates_interesting for p in params],
        dtype=bool,
    )
    full = search.hunt_viable_3state()
    position = {p: i for i, p in enumerate(params)}
    viable = [
        [
            position[c.params],
            [str(x) for row in c.matrix for x in row],
            str(c.stationary_live),
        ]
        for c in full.viable
    ]
    if full.candidates_interesting != int(interesting.sum()):
        raise SystemExit("per-candidate interesting flags disagree with the full hunt")
    record = {
        "ns": list(full.ns),
        "candidates_total": full.candidates_total,
        "candidates_interesting": full.candidates_interesting,
        "interesting_bits": base64.b64encode(
            zlib.compress(np.packbits(interesting).tobytes(), 9)
        ).decode("ascii"),
        "viable": viable,
    }
    with open(OUT, "w") as fp:
        json.dump(record, fp)
        fp.write("\n")
    print(
        f"total {full.candidates_total} interesting {full.candidates_interesting} "
        f"viable {len(full.viable)} -> {OUT}"
    )


if __name__ == "__main__":
    main()
