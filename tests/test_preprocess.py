from __future__ import annotations

import gc
import sys

import pytest

import coverlib.invariants
import coverlib.preprocess
from coverlib import (
    Marking,
    PetriNet,
    Problem,
    PruneReport,
    emit_native,
    make_invariant,
    parse_native,
    prune_dead_transitions,
    prune_problem,
    sign_analysis,
    solve,
)
from coverlib.invariants import SignInvariant

from corpus import CORPUS_SEED, CORPUS_SIZE, random_instances
from oracles import (assert_problem_equals_checked_build, assert_pruning_keeps_verdicts,
                     checked_copy, marked_rounds)


def make_cascade_net() -> PetriNet:
    """u feeds a from b's single token; t1 wants two tokens on a, which the
    flow balance rules out; with t1 gone, c can never be marked and t2
    dies in a second round."""
    return PetriNet(
        places=["a", "b", "c", "d"],
        transitions=["u", "t1", "t2"],
        pre_arcs={("b", "u"): 1, ("a", "t1"): 2, ("c", "t2"): 1},
        post_arcs={("u", "a"): 1, ("t1", "c"): 4, ("t2", "d"): 1},
        initial={"b": 1},
    )


def test_stuck_transition_removed(stuck_net):
    reduced, removed, report = prune_dead_transitions(stuck_net)
    assert removed == ["t"]
    assert reduced.transitions == ()
    assert reduced.places == stuck_net.places  # places always survive
    assert reduced.initial == stuck_net.initial
    assert report.rounds[0].always_empty == ("p2",)
    assert report.removal_rounds == 1


def test_pump_net_unchanged(pump_net):
    from coverlib.preprocess import PruneRound

    reduced, removed, report = prune_dead_transitions(pump_net)
    assert removed == []
    assert reduced == pump_net
    assert report.rounds == (PruneRound(removed=(), always_empty=()),)


def test_zero_marked_chain_dies_in_one_round():
    net = PetriNet(
        ["p1", "p2", "p3"], ["t1", "t2"],
        pre_arcs={("p1", "t1"): 1, ("p2", "t2"): 1},
        post_arcs={("t1", "p2"): 1, ("t2", "p3"): 1},
    )
    reduced, removed, report = prune_dead_transitions(net, mode="once")
    assert removed == ["t1", "t2"]
    assert report.rounds[0].always_empty == ("p1", "p2", "p3")
    assert len(report.rounds) == 1


def test_mode_validation(pump_net, pump_problem):
    with pytest.raises(ValueError):
        prune_dead_transitions(pump_net, mode="twice")
    # An argument of the wrong type is refused by name, not by a missing attribute.
    with pytest.raises(ValueError, match="^prune_problem takes a Problem, not a PetriNet$"):
        prune_problem(pump_net)
    with pytest.raises(ValueError,
                       match="^prune_dead_transitions takes a PetriNet, not a Problem$"):
        prune_dead_transitions(pump_problem)
    with pytest.raises(ValueError, match="^emit_native takes a Problem, not a PetriNet$"):
        emit_native(pump_net)


def test_sign_only_fixpoint_stops_after_one_removal_round(stuck_net):
    # transitions that fail the sign test never fed the fixpoint, so
    # removing them cannot shrink it: one removing round, one empty round
    _, _, report = prune_dead_transitions(stuck_net, mode="fixpoint")
    assert [bool(r.removed) for r in report.rounds] == [True, False]


def test_flow_test_enables_second_round():
    net = make_cascade_net()

    plain = prune_dead_transitions(net, mode="fixpoint")
    assert plain[1] == []  # every place is possibly marked, sign sees nothing

    once, removed_once, _ = prune_dead_transitions(net, mode="once", use_state=True)
    assert removed_once == ["t1"]
    assert once.transitions == ("u", "t2")

    fix, removed_fix, report = prune_dead_transitions(
        net, mode="fixpoint", use_state=True)
    assert removed_fix == ["t1", "t2"]
    assert fix.transitions == ("u",)
    assert report.removal_rounds == 2
    assert [r.removed for r in report.rounds] == [("t1",), ("t2",), ()]
    # the second round's analysis already knew c and d stay empty
    assert report.rounds[1].always_empty == ("c", "d")
    # fixpoint result is a subset of the single-round result
    assert set(fix.transitions) <= set(once.transitions)


def test_one_sign_fixpoint_per_net(monkeypatch):
    # A fixpoint is computed when sign_analysis meets a net that has none.
    # Sign-only pruning hands each subnet the fixpoint of the net it came
    # from, so a net costs one in all; with use_state every round analyses
    # its own net.  The invariant then reuses the last round's analysis.
    computed = []
    real = coverlib.invariants.sign_analysis

    def counting(net):
        if net._sign is None:
            computed.append(net)
        return real(net)

    monkeypatch.setattr(coverlib.invariants, "sign_analysis", counting)
    monkeypatch.setattr(coverlib.preprocess, "sign_analysis", counting)
    handed = 0
    for use_state in (False, True):
        # the acceptance corpus, generated afresh so no net has an analysis yet
        for name, net, target in random_instances(CORPUS_SEED, CORPUS_SIZE):
            computed.clear()
            problem = Problem(net=net, targets=(target,), name=name)
            reduced, report = prune_problem(problem, use_state=use_state)
            make_invariant(reduced.net, ["sign", "state"])
            want = len(report.rounds) if use_state else 1
            assert len(computed) == want, (name, use_state)
            # what the reduced net carries is what a fresh copy computes
            got = reduced.net._sign
            copy = reduced.net.restrict(range(len(reduced.net.places)),
                                        range(len(reduced.net.transitions)))
            assert copy._sign is None and real(copy) == got, (name, use_state)
            handed += not use_state and report.removal_rounds
    assert handed > 100


def test_reduced_net_gets_its_own_sign_analysis():
    net = make_cascade_net()
    before = sign_analysis(net)
    problem = Problem(net=net, targets=(net.marking({"d": 1}),), name="cascade")
    reduced, _ = prune_problem(problem, use_state=True)
    analysis = sign_analysis(reduced.net)
    empty = {reduced.net.place_index("c"), reduced.net.place_index("d")}
    assert empty <= analysis.always_empty
    assert analysis.possibly_marked == marked_rounds(reduced.net)[-1]
    # the input net keeps its own result, in which c and d can be marked
    assert sign_analysis(net) is before
    assert not empty & before.always_empty


def test_survivors_pass_the_final_analysis():
    rng_instances = random_instances(seed=808, count=120)
    for name, net, _ in rng_instances:
        for use_state in (False, True):
            reduced, _, report = prune_dead_transitions(
                net, mode="fixpoint", use_state=use_state)
            member = SignInvariant(reduced).member
            for t in range(len(reduced.transitions)):
                assert member(reduced.min_enabling_marking(t))
            assert report.removal_rounds <= len(net.transitions)


def test_pruning_builds_what_restrict_builds():
    """Each reduced net is restrict's subnet on every place and the kept
    transitions, sharing the input net's rows and arc lists; a handed-off
    fixpoint equals a fresh one, and so do each round's always-empty
    names, computed again on that round's net."""
    for name, net, _ in random_instances(CORPUS_SEED, CORPUS_SIZE):
        for use_state in (False, True):
            reduced, removed, report = prune_dead_transitions(
                net, mode="fixpoint", use_state=use_state)
            keep = [t for t, n in enumerate(net.transitions) if n not in removed]
            expected = net.restrict(range(len(net.places)), keep)
            assert reduced == expected, name
            assert reduced._arcs == expected._arcs, name
            assert reduced._transition_index == expected._transition_index, name
            assert (reduced.places, reduced._place_index, reduced.initial) == (
                net.places, net._place_index, net.initial), name
            assert reduced.places is net.places and reduced.initial is net.initial
            for u, t in enumerate(keep):
                assert reduced.pre[u] is net.pre[t] and reduced.post[u] is net.post[t]
                assert reduced._arcs[u] is net._arcs[t]
            assert sign_analysis(reduced) == sign_analysis(expected), name
            current = net
            for r in report.rounds:
                fresh = current.restrict(range(len(current.places)),
                                         range(len(current.transitions)))
                empty = sorted(sign_analysis(fresh).always_empty)
                assert r.always_empty == tuple(current.places[p] for p in empty), name
                current = current.restrict(range(len(current.places)), [
                    t for t, n in enumerate(current.transitions) if n not in r.removed])
            assert current == reduced, name


def test_fixpoint_report_equals_rounds_run_one_by_one():
    """A sign-only fixpoint records its closing round without running it,
    and every fixpoint builds its report positionally: the rounds equal
    those of single rounds run on fresh copies until one removes nothing,
    each copy analysed from scratch, with and without the flow test."""
    for name, net, _ in random_instances(CORPUS_SEED, CORPUS_SIZE):
        for use_state in (False, True):
            reduced, removed, report = prune_dead_transitions(
                net, mode="fixpoint", use_state=use_state)
            rounds, current = [], net
            while not rounds or rounds[-1].removed:
                current, _, once = prune_dead_transitions(
                    checked_copy(current), mode="once", use_state=use_state)
                assert once.mode == "once" and len(once.rounds) == 1, name
                rounds += once.rounds
            assert report == PruneReport("fixpoint", tuple(rounds)), (name, use_state)
            assert report.mode == "fixpoint" and report.dropped_places == ()
            assert removed == list(report.removed) and current == reduced, name


def test_pruned_problems_equal_checked_ones():
    """prune_problem builds its problem from the checked targets, projected
    or not; the checked constructor, given the same fields, builds the same."""
    projected = 0
    for name, net, target in random_instances(CORPUS_SEED, CORPUS_SIZE):
        problem = Problem(net, (target, net.initial), name)
        for use_state in (False, True):
            for drop_places in (False, True):
                reduced, report = prune_problem(problem, use_state=use_state,
                                                drop_places=drop_places)
                projected += bool(report.dropped_places)
                assert reduced.name == name
                assert_problem_equals_checked_build(reduced, name)
    assert projected > 10


def test_verdicts_preserved_on_corpus():
    for name, net, target in random_instances(seed=809, count=120):
        verdicts = {names: solve(net, target, make_invariant(net, names)).verdict
                    for names in (("trivial",), ("sign", "state"))}
        assert_pruning_keeps_verdicts(net, target, verdicts, (False,), name)


def test_prune_problem_projects_targets(stuck_net):
    problem = Problem(
        net=stuck_net,
        targets=(Marking((2, 0)), Marking((0, 1))),
        name="stuck",
    )
    pruned, report = prune_problem(problem)
    assert pruned.net.transitions == ()
    assert pruned.targets == (Marking((2, 0)), Marking((0, 1)))
    assert report.dropped_places == ()


def test_prune_problem_can_drop_places(stuck_net):
    problem = Problem(net=stuck_net, targets=(Marking((2, 0)),), name="stuck")
    pruned, report = prune_problem(problem, drop_places=True)
    assert report.dropped_places == ("p2",)
    assert pruned.net.places == ("p1",)
    assert pruned.net.initial == Marking((1,))
    assert pruned.targets == (Marking((2,)),)


def test_drop_places_spares_target_places(stuck_net):
    problem = Problem(net=stuck_net, targets=(Marking((0, 1)),), name="stuck")
    pruned, report = prune_problem(problem, drop_places=True)
    # p2 can never be marked, but the target asks about it: keep it
    assert report.dropped_places == ()
    assert pruned.net.places == ("p1", "p2")


def test_drop_places_never_empties_the_net():
    net = PetriNet(
        ["p1", "p2"], ["t"],
        pre_arcs={("p1", "t"): 1},
        post_arcs={("t", "p2"): 1},
    )  # zero initial marking: everything is always empty
    problem = Problem(net=net, targets=(Marking((0, 0)),), name="void")
    pruned, report = prune_problem(problem, drop_places=True)
    assert report.dropped_places == ()
    assert pruned.net.places == ("p1", "p2")


def test_drop_places_preserves_verdicts():
    for name, net, target in random_instances(seed=810, count=80):
        problem = Problem(net=net, targets=(target,), name=name)
        pruned, _ = prune_problem(problem, drop_places=True)
        before = solve(net, target, make_invariant(net, ["sign", "state"]))
        after = solve(pruned.net, pruned.targets[0],
                      make_invariant(pruned.net, ["sign", "state"]))
        assert before.verdict is after.verdict, name


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="counts CPython's allocated memory blocks")
def test_parse_and_prune_passes_leave_no_blocks_behind():
    """Repeated parse + prune passes over the same texts keep the number
    of allocated blocks flat.  A tuple built from a generator or a map
    is allocated oversized and then resized, and such tuples pile up on
    CPython's tuple free lists, which only a full collection empties.
    Built from sized lists, they do not.  gc stays off, as it nearly
    does in a long search that allocates few tracked objects."""
    texts = [emit_native(Problem(net, (target,), name))
             for name, net, target in random_instances(seed=5, count=200)]

    def one_pass():
        for text in texts:
            prune_problem(parse_native(text), mode="fixpoint")

    gc.collect()
    gc.disable()
    try:
        one_pass()
        before = sys.getallocatedblocks()
        for _ in range(10):
            one_pass()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 1000, grown
