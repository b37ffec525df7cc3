"""Seeded instance generators for the three benchmark workloads.

Every instance is native problem text, so parsing is part of the timed
pipeline.  Nothing here imports coverlib: the inputs do not change when
the program does.

Random nets come from a fixed index space per workload.  Net ``i`` is
drawn from ``random.Random("<workload>/<i>")``, in the shape of the test
corpus generator, so a verdict or a cost measured once for index ``i``
(see ``pins.json``) holds in every run that draws ``i``.  The run seed
chooses which indices a run solves and in what order.

The two parametric families have verdicts known by hand.  Every run
asks the same questions of each family size; the run seed picks the
processes a mutex target names and the order of the questions.  The
declaration order is fixed, because it alone moves the cost of a
search by up to 1.6x.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("small-corpus", "flow-wide", "classical-families")

PINS_PATH = Path(__file__).with_name("pins.json")

# (places, transitions) bounds of the random-net shape, per workload.
SHAPES = {
    "small-corpus": ((1, 5), (1, 6)),
    "flow-wide": ((6, 12), (7, 14)),
}
POOL_SIZE = {"small-corpus": 10000, "flow-wide": 1000}

# A run ranks its pool by cost, each net's seed-commit solve time
# recorded in pins.json, cuts the ranking into consecutive groups and
# draws one net from each group.  A group holds up to a given number of
# nets, all costing at most a given ratio more than its cheapest, so a
# net of the sparse heavy tail may form a group of its own and be drawn
# by every run.  So every run carries the same mix of light and heavy
# searches, while the seed still picks nearly every net; a few heavy nets
# would otherwise decide a run's throughput.  Nets costing the cap or
# more are never drawn, so that a run makes several passes in its time.
# Per workload: (group size, cost ratio, cost cap in ms).
DRAW = {"small-corpus": (5, 1.1, None), "flow-wide": (3, 1.1, 300)}


@dataclass(frozen=True)
class Instance:
    """One coverability question: native text plus how to check it."""

    name: str
    text: str
    invariants: Tuple[str, ...]
    # Hand-known verdict, for the families.
    expected: Optional[str] = None
    # For random nets whose bounded exploration does not close: the
    # verdict solve gave at the seed commit (pins.json).
    pinned: Optional[str] = None


# A net spec: places, [(transition, {place: w} in, {place: w} out)],
# initial {place: count}, target {place: count}.
Transition = Tuple[str, Dict[str, int], Dict[str, int]]


def native_text(places: Sequence[str], transitions: Sequence[Transition],
                initial: Dict[str, int], target: Dict[str, int]) -> str:
    def arcs(keyword: str, weights: Dict[str, int]) -> List[str]:
        if not weights:
            return []
        return [keyword] + [p if w == 1 else f"{p}*{w}"
                            for p, w in weights.items()]

    lines = ["places: " + " ".join(places), "transitions:"]
    for name, ins, outs in transitions:
        lines.append(" ".join([f"{name}:"] + arcs("in", ins)
                              + arcs("out", outs) + [";"]))
    lines.append(" ".join(["init:"] + [f"{p}={c}" for p, c in initial.items()]))
    lines.append(" ".join(["target:"] + [f"{p}>={c}" for p, c in target.items()]))
    return "\n".join(lines) + "\n"


# -- random nets in the test-corpus shape ---------------------------------------

def random_net_text(workload: str, index: int) -> str:
    """Net ``index`` of ``workload``'s pool, as native text."""
    (p_lo, p_hi), (t_lo, t_hi) = SHAPES[workload]
    rng = random.Random(f"{workload}/{index}")
    places = ["p%d" % i for i in range(rng.randint(p_lo, p_hi))]
    transitions: List[Transition] = []
    for j in range(rng.randint(t_lo, t_hi)):
        ins = [p for p in places if rng.random() < 0.45]
        outs = [p for p in places if rng.random() < 0.35]
        if outs and not ins:
            # A transition with outputs but no inputs pumps forever.
            ins = [rng.choice(places)]
        transitions.append((
            "t%d" % j,
            {p: rng.randint(1, 2) for p in ins},
            {p: rng.choices((1, 2), weights=(7, 3))[0] for p in outs},
        ))
    initial = {}
    for p in places:
        c = rng.choices((0, 1, 2), weights=(4, 4, 2))[0]
        if c:
            initial[p] = c
    if not initial:
        initial[rng.choice(places)] = 1
    target = {p: rng.choices((0, 1, 2), weights=(5, 3, 2))[0] for p in places}
    if not any(target.values()):
        target[rng.choice(places)] = 1
    target = {p: c for p, c in target.items() if c}
    return native_text(places, transitions, initial, target)


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as f:
        return json.load(f)


def random_instance(workload: str, index: int,
                    pinned: Optional[str] = None) -> Instance:
    return Instance(name=f"{workload}/{index}",
                    text=random_net_text(workload, index),
                    invariants=("sign", "state"), pinned=pinned)


def cost_groups(workload: str, pins: dict) -> List[List[int]]:
    """The pool's nets under the cap, cheapest first, cut into groups."""
    size, ratio, cap = DRAW[workload]
    ranked = sorted((c, i) for i, c in enumerate(pins[workload]["cost_ms"])
                    if c is not None and (cap is None or c < cap))
    groups: List[List[int]] = []
    floor = 0.0
    for cost, index in ranked:
        if groups and len(groups[-1]) < size and cost <= floor * ratio:
            groups[-1].append(index)
        else:
            groups.append([index])
            floor = cost
    return groups


def random_nets(workload: str, seed: int, pins: dict,
                scale: float = 1.0) -> List[Instance]:
    """One net per cost group, shuffled; at a reduced ``scale``, that
    share of them."""
    rng = random.Random(seed)
    picks = [rng.choice(group) for group in cost_groups(workload, pins)]
    rng.shuffle(picks)
    picks = picks[:max(1, round(len(picks) * scale))]
    pinned = pins[workload]["pinned"]
    return [random_instance(workload, i, pinned.get(str(i))) for i in picks]


# -- parametric families with hand-known verdicts --------------------------------

def mutex(n: int, slot: int, rng: random.Random):
    """N processes cycling idle -> wait -> crit -> idle around one lock.

    Per process, idle + wait + crit = 1; and lock + (sum of crit) = 1.
    So two processes are never critical together, and the lock is never
    free while one is.  Returns the net, a target and its verdict.
    """
    places = ["lock"]
    transitions: List[Transition] = []
    for i in range(n):
        places += [f"idle{i}", f"wait{i}", f"crit{i}"]
        transitions += [
            (f"req{i}", {f"idle{i}": 1}, {f"wait{i}": 1}),
            (f"enter{i}", {f"wait{i}": 1, "lock": 1}, {f"crit{i}": 1}),
            (f"exit{i}", {f"crit{i}": 1}, {f"idle{i}": 1, "lock": 1}),
        ]
    initial = {"lock": 1, **{f"idle{i}": 1 for i in range(n)}}
    i, j, k = rng.sample(range(n), 3)
    target, verdict = [
        ({f"crit{i}": 1, f"crit{j}": 1}, "UNCOVERABLE"),
        ({"lock": 1, f"crit{i}": 1}, "UNCOVERABLE"),
        ({f"crit{i}": 1, f"wait{j}": 1, f"wait{k}": 1}, "COVERABLE"),
    ][slot % 3]
    return places, transitions, initial, target, verdict


def pipeline(k: int, n: int, slot: int, rng: random.Random):
    """K buffers of capacity N, each guarded by a count of free slots.

    Per stage, buf + free = N: a buffer never holds N + 1 items, and a
    stage never holds more than N items and free slots together.  Any
    split of a stage's N between items and free slots is reachable.
    The slot picks the stage and fill the target names, because they
    set the size of the search; ``rng`` is unused and only keeps the
    signature of ``mutex``.
    """
    places = [f"buf{s}" for s in range(k)] + [f"free{s}" for s in range(k)]
    transitions: List[Transition] = [("put", {"free0": 1}, {"buf0": 1})]
    for s in range(k - 1):
        transitions.append((f"mv{s}", {f"buf{s}": 1, f"free{s + 1}": 1},
                            {f"free{s}": 1, f"buf{s + 1}": 1}))
    transitions.append(("get", {f"buf{k - 1}": 1}, {f"free{k - 1}": 1}))
    initial = {f"free{s}": n for s in range(k)}
    s = k - 1 - (slot // 3) % k
    a = 1 + slot % n
    target, verdict = [
        ({f"buf{s}": n + 1}, "UNCOVERABLE"),
        ({f"buf{s}": a, f"free{s}": n - a + 1}, "UNCOVERABLE"),
        ({f"buf{s}": a, f"free{s}": n - a} if a < n else {f"buf{s}": n},
         "COVERABLE"),
    ][slot % 3]
    return places, transitions, initial, target, verdict


# (family, parameters, instances per run at scale 1).
FAMILY_GRID = (
    ("mutex", (3,), 12), ("mutex", (4,), 12), ("mutex", (5,), 10),
    ("mutex", (6,), 6), ("mutex", (7,), 3),
    ("pipeline", (3, 2), 10), ("pipeline", (3, 4), 10), ("pipeline", (4, 2), 10),
    ("pipeline", (4, 3), 10), ("pipeline", (4, 4), 6), ("pipeline", (5, 2), 8),
    ("pipeline", (5, 3), 4), ("pipeline", (6, 2), 4),
)
_FAMILIES = {"mutex": mutex, "pipeline": pipeline}


def classical_families(seed: int, scale: float = 1.0) -> List[Instance]:
    rng = random.Random(seed)
    out: List[Instance] = []
    for family, params, count in FAMILY_GRID:
        for slot in range(max(1, round(count * scale))):
            places, transitions, initial, target, verdict = \
                _FAMILIES[family](*params, slot, rng)
            label = "-".join(map(str, params))
            out.append(Instance(
                name=f"{family}-{label}/{slot}",
                text=native_text(places, transitions, initial, target),
                invariants=("trivial",),
                expected=verdict,
            ))
    rng.shuffle(out)
    return out


def instances(workload: str, seed: int, scale: float = 1.0) -> List[Instance]:
    """The instances one run of ``workload`` solves, in order."""
    if workload in DRAW:
        return random_nets(workload, seed, load_pins(), scale)
    if workload == "classical-families":
        return classical_families(seed, scale)
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
