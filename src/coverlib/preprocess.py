"""Removal of transitions that can never fire.

A transition is dead when its least enabling marking lies outside a
sound invariant: no reachable marking can then enable it, because
invariants are downward closed and contain all reachable markings.
Dropping dead transitions changes neither the reachable markings nor
any coverability answer.

The default test uses the sign invariant; the sign fixpoint already
lists the transitions that fail it.  Those never fired in the fixpoint,
so the subnet without them has the same fixpoint and no dead
transition: it is handed that analysis instead of computing it again,
and its round, which removes nothing, needs no second fixpoint.
``use_state`` additionally tests the other transitions against the
relaxed token-flow invariant, which can remove more; only then can a
second round find new victims, and each round analyses its own net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .ingest import Problem
from .invariants import SignAnalysis, StateInvariant, sign_analysis
from .net import Marking, PetriNet


@dataclass(frozen=True)
class PruneRound:
    """One analysis/removal round: what was removed, and the empty set used."""

    removed: Tuple[str, ...]
    always_empty: Tuple[str, ...]


@dataclass(frozen=True)
class PruneReport:
    mode: str
    rounds: Tuple[PruneRound, ...]
    removed: Tuple[str, ...]
    dropped_places: Tuple[str, ...] = ()

    @property
    def removal_rounds(self) -> int:
        return sum(1 for r in self.rounds if r.removed)


def _one_round(net: PetriNet, use_state: bool) -> Tuple[PetriNet, PruneRound]:
    analysis = sign_analysis(net)
    dead = analysis.dead
    if use_state:
        state = StateInvariant(net)
        dead = [t for t in range(len(net.transitions)) if t in analysis.dead
                or not state.member(net.min_enabling_marking(t))]
    empty_names = tuple([net.places[p] for p in sorted(analysis.always_empty)])
    if not dead:
        return net, PruneRound(removed=(), always_empty=empty_names)
    gone = set(dead)
    keep = [t for t in range(len(net.transitions)) if t not in gone]
    reduced = net.restrict(range(len(net.places)), keep)
    if not use_state:
        # Only sign-dead transitions are gone, and none of them ever fired
        # in the fixpoint: the subnet's fixpoint marks the same places and
        # fires every transition the subnet has.
        reduced._sign = SignAnalysis(analysis.possibly_marked, analysis.always_empty, ())
    removed_names = tuple([net.transitions[t] for t in dead])
    return reduced, PruneRound(removed=removed_names, always_empty=empty_names)


def _prune(net: PetriNet, mode: str,
           use_state: bool) -> Tuple[PetriNet, List[str], Tuple[PruneRound, ...]]:
    if mode not in ("once", "fixpoint"):
        raise ValueError(f"mode must be 'once' or 'fixpoint', got {mode!r}")
    rounds: List[PruneRound] = []
    removed: List[str] = []
    while True:
        net, rnd = _one_round(net, use_state)
        rounds.append(rnd)
        removed.extend(rnd.removed)
        if mode == "once" or not rnd.removed:
            return net, removed, tuple(rounds)


def prune_dead_transitions(
    net: PetriNet,
    mode: str = "fixpoint",
    use_state: bool = False,
) -> Tuple[PetriNet, List[str], PruneReport]:
    """Drop transitions whose least enabling marking violates an invariant.

    ``mode`` is "once" for a single round or "fixpoint" to repeat until a
    round removes nothing (that final empty round is recorded too).
    Places are never removed here.  Returns the reduced net, the removed
    transition names in removal order, and a per-round report.
    """
    net, removed, rounds = _prune(net, mode, use_state)
    return net, removed, PruneReport(mode=mode, rounds=rounds, removed=tuple(removed))


def prune_problem(
    problem: Problem,
    mode: str = "fixpoint",
    use_state: bool = False,
    drop_places: bool = False,
) -> Tuple[Problem, PruneReport]:
    """Prune a problem's net, keeping every target meaningful.

    With ``drop_places`` the provably always-empty places that no
    surviving transition touches and that every target ignores are
    removed as well; coverability answers are unaffected since those
    places hold zero tokens in every reachable marking.  The default
    keeps all places.
    """
    net, removed, rounds = _prune(problem.net, mode, use_state)
    targets = problem.targets
    dropped: Tuple[str, ...] = ()
    if drop_places:
        analysis = sign_analysis(net)
        droppable = []
        for p in sorted(analysis.always_empty):
            touched = any(net.pre[t][p] or net.post[t][p]
                          for t in range(len(net.transitions)))
            wanted = any(m[p] for m in targets)
            if not touched and not wanted:
                droppable.append(p)
        if droppable and len(droppable) < len(net.places):
            gone = set(droppable)
            keep = [p for p in range(len(net.places)) if p not in gone]
            net = net.restrict(keep, range(len(net.transitions)))
            targets = tuple([Marking([m[p] for p in keep]) for m in targets])
            dropped = tuple([problem.net.places[p] for p in droppable])
    report = PruneReport(mode=mode, rounds=rounds, removed=tuple(removed),
                         dropped_places=dropped)
    return Problem(net=net, targets=targets, name=problem.name), report
