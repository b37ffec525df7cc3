"""Bounded forward exploration, used as an independent reference check.

A breadth-first enumeration of the reachable markings inside a box
(per-place token cap) and under a node budget.  It either finds a
covering marking, proves uncoverability by exhausting the whole
reachability set strictly inside the box, or reports that a bound was
hit and the answer is unknown.  Bounds and outcomes are named tuples.
"""

from __future__ import annotations

from collections import deque, namedtuple
from enum import Enum
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from .net import Marking, MarkingLike, PetriNet
from .solver import extract_witness


class ExploreBound(namedtuple("_BoundFields", "per_place_cap node_cap",
                              defaults=(10, 200000))):
    """Limits for the exploration; both must be positive ints."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExploreBound:
        bound = super().__new__(cls, *args, **kwargs)
        for cap in bound:
            if type(cap) is not int or cap < 1:
                raise ValueError("exploration bounds must be positive integers")
        return bound

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it


class OutcomeKind(Enum):
    COVERABLE = "coverable"
    UNCOVERABLE_EXHAUSTED = "uncoverable-exhausted"
    BOUND_HIT = "bound-hit"


class OracleOutcome(NamedTuple):
    kind: OutcomeKind
    witness: Optional[Tuple[int, ...]] = None


BfsTree = Dict[Marking, Optional[Tuple[int, Marking]]]


def bfs_tree(
    net: PetriNet,
    bound: ExploreBound,
    target: Optional[Marking] = None,
) -> Tuple[BfsTree, bool, Optional[Marking]]:
    """Explore breadth-first from the initial marking.

    Returns (tree, closed, hit): ``tree`` maps each enumerated marking to
    the step that discovered it (None for the root); ``closed`` is True
    only when the whole reachability set was enumerated with every
    successor inside the box and the node budget; ``hit`` is the first
    enumerated marking covering ``target``, if one was asked for and
    found (the search stops there, leaving ``closed`` False-but-moot).
    A tuple or list ``bound`` is read through ``ExploreBound``; any other
    type raises ``ValueError``.
    """
    if type(bound) is not ExploreBound:
        if not isinstance(bound, (tuple, list)):
            raise ValueError("an exploration bound is an ExploreBound, a tuple or a list, "
                             f"not a {type(bound).__name__}")
        bound = ExploreBound(*bound)
    start = net.initial
    cap = bound.per_place_cap
    if any(c > cap for c in start):
        return {}, False, None
    tree: BfsTree = {start: None}
    if target is not None and start.covers(target):
        return tree, False, start
    complete = True
    queue = deque([start])
    nt = len(net.transitions)
    while queue:
        m = queue.popleft()
        for t in range(nt):
            succ = net.fire(m, t)
            if succ is None:
                continue
            if succ in tree:  # so it lies inside the box
                continue
            if any(c > cap for c in succ) or len(tree) >= bound.node_cap:
                complete = False
                continue
            tree[succ] = (t, m)
            if target is not None and succ.covers(target):
                return tree, False, succ
            queue.append(succ)
    return tree, complete, None


def bounded_cover(
    net: PetriNet, target: MarkingLike, bound: ExploreBound = ExploreBound()
) -> OracleOutcome:
    """Decide coverability of ``target`` by forward search, within bounds.

    UNCOVERABLE_EXHAUSTED is only reported when the reachability set was
    fully enumerated without ever generating a marking outside the box,
    so that verdict is exact.  COVERABLE comes with a shortest firing
    sequence.  Anything else is BOUND_HIT.  A ``net`` that is not a
    ``PetriNet`` raises ``ValueError``.
    """
    if not isinstance(net, PetriNet):
        raise ValueError(f"bounded_cover takes a PetriNet, not a {type(net).__name__}")
    target = net.marking(target)
    tree, closed, hit = bfs_tree(net, bound, target)
    if hit is not None:
        return OracleOutcome(OutcomeKind.COVERABLE, tuple(reversed(extract_witness(tree, hit))))
    if closed:
        return OracleOutcome(OutcomeKind.UNCOVERABLE_EXHAUSTED)
    return OracleOutcome(OutcomeKind.BOUND_HIT)


def reachable_markings(
    net: PetriNet, bound: ExploreBound = ExploreBound()
) -> Tuple[FrozenSet[Marking], bool]:
    """All markings enumerated within bounds, plus whether that is all of
    them.  A ``net`` that is not a ``PetriNet`` raises ``ValueError``."""
    if not isinstance(net, PetriNet):
        raise ValueError(f"reachable_markings takes a PetriNet, not a {type(net).__name__}")
    tree, closed, _ = bfs_tree(net, bound)
    return frozenset(tree), closed
