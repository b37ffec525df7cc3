"""Removal of transitions that can never fire.

A transition is dead when its least enabling marking lies outside a
sound invariant: no reachable marking can then enable it, because
invariants are downward closed and contain all reachable markings.
Dropping dead transitions changes neither the reachable markings nor
any coverability answer.

``prune_dead_transitions`` is the one pruning loop, and ``prune_problem``
calls it, then projects the targets and may drop places.  A round takes
the sign fixpoint, whose dead list holds the transitions failing the
sign test.  Those never fired in the fixpoint, so the subnet without
them has the same fixpoint and no dead transition: it is handed that
analysis instead of computing it again, and its round, which would
remove nothing, is recorded without being run, with the same
always-empty names.  Subnets come from ``PetriNet._keep_transitions``,
and reduced problems are built from their checked parts, unchecked.
Rounds, reports and the handed-off analysis check nothing, so they are
built with ``tuple.__new__``.
``use_state`` additionally tests the other transitions against the
relaxed token-flow invariant, which can remove more; only then can a
second round find new victims, and each round analyses its own net.
A ``PruneReport`` named tuple stores each removal once, in its round.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from .ingest import Problem
from .invariants import SignAnalysis, StateInvariant, sign_analysis
from .net import Marking, PetriNet


class PruneRound(NamedTuple):
    """One analysis/removal round: what was removed, and the empty set used."""

    removed: Tuple[str, ...]
    always_empty: Tuple[str, ...]


class PruneReport(NamedTuple):
    """The rounds of one run; ``removed`` chains theirs in round order."""

    mode: str
    rounds: Tuple[PruneRound, ...]
    dropped_places: Tuple[str, ...] = ()

    @property
    def removed(self) -> Tuple[str, ...]:
        return tuple([name for r in self.rounds for name in r.removed])

    @property
    def removal_rounds(self) -> int:
        return sum(1 for r in self.rounds if r.removed)


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
    if mode not in ("once", "fixpoint"):
        raise ValueError(f"mode must be 'once' or 'fixpoint', got {mode!r}")
    rounds: List[PruneRound] = []
    removed: List[str] = []
    while True:
        analysis = sign_analysis(net)
        dead = analysis.dead
        if use_state:
            state = StateInvariant(net)
            dead = [t for t in range(len(net.transitions)) if t in analysis.dead
                    or not state.member(net.min_enabling_marking(t))]
        empty = tuple([net.places[p] for p in sorted(analysis.always_empty)])
        names = tuple([net.transitions[t] for t in dead])
        removed += names
        rounds.append(tuple.__new__(PruneRound, (names, empty)))
        if dead:
            gone = set(dead)
            net = net._keep_transitions(
                [t for t in range(len(net.transitions)) if t not in gone])
            if not use_state:  # the sign hand-off described above, and its empty round
                net._sign = tuple.__new__(
                    SignAnalysis, (analysis.possibly_marked, analysis.always_empty, ()))
                if mode == "fixpoint":
                    rounds.append(tuple.__new__(PruneRound, ((), empty)))
        if mode == "once" or not dead or not use_state:
            break
    return net, removed, tuple.__new__(PruneReport, (mode, tuple(rounds), ()))


def prune_problem(
    problem: Problem,
    mode: str = "fixpoint",
    use_state: bool = False,
    drop_places: bool = False,
) -> Tuple[Problem, PruneReport]:
    """Prune ``problem.net`` with ``prune_dead_transitions``, keeping the targets.

    With ``drop_places`` the provably always-empty places that no
    surviving transition touches and that every target ignores are
    removed as well; coverability answers are unaffected since those
    places hold zero tokens in every reachable marking.  The default
    keeps all places.
    """
    net, _, report = prune_dead_transitions(problem.net, mode, use_state)
    targets = problem.targets
    if drop_places:
        analysis = sign_analysis(net)
        droppable = [p for p in sorted(analysis.always_empty)
                     if not any(row[p] for row in net.pre + net.post)
                     and not any(m[p] for m in targets)]
        if droppable and len(droppable) < len(net.places):
            gone = set(droppable)
            keep = [p for p in range(len(net.places)) if p not in gone]
            net = net.restrict(keep, range(len(net.transitions)))
            targets = tuple([Marking([m[p] for p in keep]) for m in targets])
            report = report._replace(dropped_places=tuple(
                [problem.net.places[p] for p in droppable]))
    return tuple.__new__(Problem, (net, targets, problem.name)), report
