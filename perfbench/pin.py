"""Rebuild pins.json: what the seed commit's solver does with each pool net.

For every net in the random-net pools this records, where bounded
forward exploration does not close, the solver's verdict ("pinned"), so
that every verdict the benchmark sees is checked against something.

It also records each net's cost in ms: the median of REPEATS passes,
each scaled to the reference host speed as ``run.py`` scales them, on
the machine that built the pins (a 2-core x86-64 box with Python 3.11).
``generate.random_nets`` stratifies on it, so every run draws the same
mix of light and heavy searches.  A net whose first solve takes
REPEAT_BELOW_MS or longer keeps that one time; one that fails within
the guard deadline is recorded as null.  Neither is ever drawn.

Pins describe the seed commit and must not be rebuilt by a change that
claims a gain.  Run from the repository root:

    python3 perfbench/pin.py            # writes perfbench/pins.json
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import generate  # noqa: E402
import run  # noqa: E402
from harness import bfs_reference  # noqa: E402

REPEATS = 5
REPEAT_BELOW_MS = 1500


def main() -> int:
    pins = {}
    for workload in generate.DRAW:
        pool = [generate.random_instance(workload, i)
                for i in range(generate.POOL_SIZE[workload])]
        first = run.Run(pool, math.inf)
        first.one_pass()
        once = [t[0] for t in first.scaled_ms("plain")]
        light = [i for i, ms in enumerate(once)
                 if i not in first.failures and ms < REPEAT_BELOW_MS]
        again = run.Run([pool[i] for i in light], math.inf)
        for _ in range(REPEATS):
            again.one_pass()
        cost = dict(zip(light, run.per_instance_ms(again.scaled_ms("plain"))))
        pinned = {str(i): first.first[i].verdict for i, inst in enumerate(pool)
                  if i not in first.failures and bfs_reference(inst) is None}
        pins[workload] = {
            "pinned": pinned,
            "cost_ms": [None if i in first.failures else round(cost.get(i, ms), 4)
                        for i, ms in enumerate(once)],
        }
        print(f"{workload}: {len(pinned)} pinned, {len(first.failures)} failed",
              file=sys.stderr)
    with open(generate.PINS_PATH, "w", encoding="utf-8") as f:
        json.dump(pins, f, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
