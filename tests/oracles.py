"""Reference computations the property tests compare the package against.

Everything here recomputes results from ``net.pre``/``net.post`` directly
rather than calling the code under test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from coverlib import Invariant, Marking, PetriNet


def marked_rounds(net: PetriNet) -> List[FrozenSet[int]]:
    """Synchronous possibly-marked rounds until stable, first round included.

    Round zero is the set of initially marked places; each later round
    adds the outputs of every transition whose inputs all lie in the
    previous round.  The last entry is the least fixpoint.
    """
    current = frozenset(p for p, c in enumerate(net.initial) if c > 0)
    rounds = [current]
    while True:
        grown = set(current)
        for t in range(len(net.transitions)):
            need = net.pre[t]
            if all(w == 0 or p in current for p, w in enumerate(need)):
                grown.update(p for p, w in enumerate(net.post[t]) if w > 0)
        nxt = frozenset(grown)
        if nxt == current:
            return rounds
        rounds.append(nxt)
        current = nxt


def box(dims: int, cap: int) -> Iterator[Marking]:
    for point in itertools.product(range(cap + 1), repeat=dims):
        yield Marking(point)


def fires_over(net: PetriNet, m: Marking, t: int, target: Marking) -> bool:
    """Whether ``t`` is enabled at ``m`` and its successor covers ``target``."""
    need = net.pre[t]
    if any(c < n for c, n in zip(m, need)):
        return False
    successor = tuple(c - n + o for c, n, o in zip(m, need, net.post[t]))
    return all(s >= g for s, g in zip(successor, target))


@dataclass
class SearchRecord:
    """What the reference backward search saw, in the solver's terms."""

    verdict: str
    witness: Optional[Tuple[int, ...]]
    # (index, basis_size, candidates_generated, new_after_antichain,
    #  pruned_by_invariant, kept) per round
    stats: List[Tuple[int, ...]]
    lp_calls: int
    sign_checks: int
    bases: List[Tuple[Marking, ...]]
    backlinks: Dict[Marking, Optional[Tuple[int, Marking]]]


def _leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _add_minimal(basis: List[Marking], m: Marking) -> List[Marking]:
    # Drop m if some element lies below it, else append it and drop the
    # elements above it; the order of the survivors is kept.
    if any(_leq(x, m) for x in basis):
        return basis
    return [x for x in basis if not _leq(m, x)] + [m]


def full_backward_search(net: PetriNet, target: Marking, invariant: Invariant,
                         budget_steps: Optional[int] = None) -> SearchRecord:
    """Backward search that re-expands the whole basis every round.

    Each round takes the least predecessor of every basis element under
    every transition (transition-outer, element-inner order), keeps the
    first occurrence of each, drops those already covered, asks the
    invariant's leaves about the rest, in order up to the first that
    rejects, and merges the admitted ones.  It stops when the initial
    marking covers a basis element (first in basis order) or a round
    admits nothing.  Each leaf asked counts as one query.
    """
    leaves = invariant.leaves()
    asked = {"sign": 0, "state": 0}

    def admits(m: Marking) -> bool:
        # Every leaf up to the first that rejects m is asked, and counted.
        for leaf in leaves:
            if leaf.kind in asked:
                asked[leaf.kind] += 1
            if not leaf.member(m):
                return False
        return True

    backlinks: Dict[Marking, Optional[Tuple[int, Marking]]] = {}
    basis: List[Marking] = []
    if admits(target):
        backlinks[target] = None
        basis = [target]
    stats: List[Tuple[int, ...]] = []
    bases: List[Tuple[Marking, ...]] = []
    witness = None
    k = 0
    while True:
        bases.append(tuple(basis))
        entry = next((x for x in basis if _leq(x, net.initial)), None)
        if entry is not None:
            verdict = "COVERABLE"
            steps = []
            while backlinks[entry] is not None:
                t, entry = backlinks[entry]
                steps.append(t)
            witness = tuple(steps)
            break
        if budget_steps is not None and k >= budget_steps:
            verdict = "INCONCLUSIVE"
            break
        candidates: Dict[Marking, Tuple[int, Marking]] = {}
        for t in range(len(net.transitions)):
            for m in basis:
                c = Marking(n + max(g - o, 0) for n, o, g
                            in zip(net.pre[t], net.post[t], m))
                candidates.setdefault(c, (t, m))
        fresh = [c for c in candidates
                 if not any(_leq(x, c) for x in basis)]
        kept = [c for c in fresh if admits(c)]
        stats.append((k, len(basis), len(net.transitions) * len(basis),
                      len(fresh), len(fresh) - len(kept), len(kept)))
        if not kept:
            verdict = "UNCOVERABLE"
            break
        for c in kept:
            backlinks[c] = candidates[c]
            basis = _add_minimal(basis, c)
        k += 1
    return SearchRecord(
        verdict=verdict,
        witness=witness,
        stats=stats,
        lp_calls=asked["state"],
        sign_checks=asked["sign"],
        bases=bases,
        backlinks=backlinks,
    )
