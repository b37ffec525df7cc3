"""The corpora the tests ask their questions of, written once.

Every random generator takes an explicit ``random.Random`` so failures
are reproducible from the seed alone.  The distributions are tuned so a
large majority of nets close under the default exploration box: a
transition with outputs but no inputs pumps tokens forever, so such
transitions are given one input arc.  The acceptance corpus is
``random_instances(CORPUS_SEED, CORPUS_SIZE)``, solved under each of
``CONFIGS``.  The mutex and pipeline questions, with their hand-known
verdicts, are those of ``perfbench/generate.py``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import List, Tuple

from coverlib import Marking, PetriNet, Problem, parse_native

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import generate  # noqa: E402

CORPUS_SEED = 20260819
CORPUS_SIZE = 500
# The invariant configurations every corpus property is asked under.
CONFIGS = (("trivial",), ("sign",), ("state",), ("sign", "state"))

MAX_PLACES = 5
MAX_TRANSITIONS = 6
MAX_WEIGHT = 2


def random_net(rng: random.Random) -> PetriNet:
    n_places = rng.randint(1, MAX_PLACES)
    n_transitions = rng.randint(1, MAX_TRANSITIONS)
    places = ["p%d" % i for i in range(n_places)]
    transitions = ["t%d" % j for j in range(n_transitions)]
    pre_arcs = {}
    post_arcs = {}
    for t in transitions:
        ins = [p for p in places if rng.random() < 0.45]
        outs = [p for p in places if rng.random() < 0.35]
        if outs and not ins:
            ins = [rng.choice(places)]
        for p in ins:
            pre_arcs[(p, t)] = rng.randint(1, MAX_WEIGHT)
        for p in outs:
            post_arcs[(t, p)] = rng.choices((1, 2), weights=(7, 3))[0]
    initial = {}
    for p in places:
        c = rng.choices((0, 1, 2), weights=(4, 4, 2))[0]
        if c:
            initial[p] = c
    if not initial:
        initial[rng.choice(places)] = 1
    return PetriNet(places, transitions, pre_arcs, post_arcs, initial)


def random_target(rng: random.Random, net: PetriNet) -> Marking:
    counts = [rng.choices((0, 1, 2), weights=(5, 3, 2))[0] for _ in net.places]
    if not any(counts):
        counts[rng.randrange(len(counts))] = 1
    return net.marking(counts)


def random_instances(seed: int, count: int) -> List[Tuple[str, PetriNet, Marking]]:
    rng = random.Random(seed)
    out = []
    for k in range(count):
        net = random_net(rng)
        out.append(("rnd%04d" % k, net, random_target(rng, net)))
    return out


def family_question(family: str, params, slot: int) -> Tuple[Problem, str]:
    """Question ``slot`` of the ``generate`` family named ``family``
    ("mutex" or "pipeline") at ``params``, drawn with seed 1: the parsed
    problem and its hand-known verdict."""
    places, transitions, initial, target, verdict = getattr(generate, family)(
        *params, slot, random.Random(1))
    return parse_native(generate.native_text(places, transitions, initial, target)), verdict


def family_slots(family: str, params) -> range:
    """The slots the tests ask of a family size: three per mutex, and
    three per stage of a pipeline, one for each stage and verdict kind."""
    return range(3 * params[0] if family == "pipeline" else 3)
