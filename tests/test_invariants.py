"""Membership structures that over-approximate the reachable markings.

The fixpoint tests recompute the possibly-marked set with the
synchronous reference loop from oracles.py and compare; the membership
tests use hand-worked values on the desk nets.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import coverlib.invariants
import coverlib.ratlp
from coverlib import (
    FeasibilityProblem,
    Marking,
    PetriNet,
    Problem,
    SignAnalysis,
    Verdict,
    bounded_cover,
    feasible,
    make_invariant,
    sign_analysis,
    solve,
)
from coverlib.invariants import (
    SignInvariant,
    StateInvariant,
    TrivialInvariant,
    check_invariant_names,
)

from corpus import random_instances, random_net
from oracles import marked_rounds
from test_acceptance import CORPUS_SEED, CORPUS_SIZE


def places(net, names):
    return frozenset(net.place_index(p) for p in names)


# -- the fixpoint -----------------------------------------------------------

def test_sign_analysis_pump(pump_net):
    r = sign_analysis(pump_net)
    assert r.possibly_marked == places(pump_net, ["p1", "p2", "p3"])
    assert r.always_empty == frozenset()


def test_sign_analysis_stuck(stuck_net):
    r = sign_analysis(stuck_net)
    assert r.possibly_marked == places(stuck_net, ["p1"])
    assert r.always_empty == places(stuck_net, ["p2"])
    member = SignInvariant(stuck_net).member
    assert member(Marking((5, 0)))
    assert not member(Marking((0, 1)))


def test_sign_analysis_all_dead():
    net = PetriNet(
        ["a", "b"], ["t"],
        pre_arcs={("a", "t"): 1},
        post_arcs={("t", "b"): 1},
    )  # zero initial marking, the guard never holds
    r = sign_analysis(net)
    assert r.possibly_marked == frozenset()
    assert r.always_empty == {0, 1}
    member = SignInvariant(net).member
    assert member(Marking((0, 0)))
    assert not member(Marking((0, 1)))


def test_sign_matches_synchronous_rounds():
    rng = random.Random(31)
    for _ in range(300):
        net = random_net(rng)
        rounds = marked_rounds(net)
        got = sign_analysis(net)
        assert got.possibly_marked == rounds[-1]
        # the chain grows strictly, so it stabilizes within |places| steps
        assert len(rounds) - 1 <= len(net.places)
        for earlier, later in zip(rounds, rounds[1:]):
            assert earlier < later


def test_sign_dead_are_the_transitions_failing_the_sign_test():
    """The transitions the fixpoint never fired are exactly those whose
    least enabling marking the sign analysis rejects."""
    dead = total = 0
    for name, net, _ in random_instances(CORPUS_SEED, CORPUS_SIZE):
        member = SignInvariant(net).member
        expected = tuple(t for t in range(len(net.transitions))
                         if not member(net.min_enabling_marking(t)))
        assert sign_analysis(net).dead == expected, name
        dead += len(expected)
        total += len(net.transitions)
    assert 0 < dead < total


def test_propagate_stays_inside_fixpoint():
    # Q is closed: a transition whose input places lie in Q has its
    # output places in Q
    rng = random.Random(32)
    for _ in range(200):
        net = random_net(rng)
        q = sign_analysis(net).possibly_marked
        for pre, post in zip(net.pre, net.post):
            if all(p in q for p, w in enumerate(pre) if w):
                assert all(p in q for p, w in enumerate(post) if w)


def test_sign_membership_closed_under_firing():
    rng = random.Random(33)
    for _ in range(200):
        net = random_net(rng)
        inv = SignInvariant(net)
        m = net.initial
        for _ in range(6):
            assert inv.member(m)
            ts = [t for t in range(len(net.transitions))
                  if net.fire(m, t) is not None]
            if not ts:
                break
            m = net.fire(m, rng.choice(ts))


# -- membership handles -----------------------------------------------------

def test_trivial_accepts_everything(pump_net):
    inv = TrivialInvariant(pump_net)
    assert inv.member(Marking((9, 9, 9)))
    assert inv.name == "trivial"


def test_state_membership_pump(pump_net):
    inv = StateInvariant(pump_net)
    assert inv.member(Marking((0, 2, 1)))
    assert not inv.member(Marking((2, 0, 0)))
    assert inv.member(pump_net.initial)


def test_state_explains_membership(pump_net):
    """An admission carries lam and a rejection a Farkas vector y."""
    inv = StateInvariant(pump_net)
    admitted, (den, nums) = inv._answer(Marking((0, 2, 1)))
    assert admitted and den > 0 and all(x >= 0 for x in nums)
    # re-substitute: initial + lam . displacement covers the marking
    for p in range(3):
        total = den * pump_net.initial[p] + sum(
            nums[t] * (pump_net.post[t][p] - pump_net.pre[t][p]) for t in range(3)
        )
        assert total >= den * Marking((0, 2, 1))[p]
    admitted, y = inv._answer(Marking((2, 0, 0)))
    assert not admitted and _refutes(pump_net, (2, 0, 0), y)


def test_state_zero_displacement_column():
    # a transition moving nothing leaves the denoted set unchanged
    base = PetriNet(["p"], [], initial={"p": 1})
    noop = PetriNet(["p"], ["t"], pre_arcs={("p", "t"): 1},
                    post_arcs={("t", "p"): 1}, initial={"p": 1})
    for m in (Marking((0,)), Marking((1,)), Marking((2,))):
        assert StateInvariant(base).member(m) == StateInvariant(noop).member(m)


def test_state_no_transitions_denotes_down_initial():
    net = PetriNet(["a", "b"], [], initial={"a": 2, "b": 1})
    inv = StateInvariant(net)
    assert inv.member(Marking((2, 1)))
    assert inv.member(Marking((0, 0)))
    assert not inv.member(Marking((2, 2)))


def test_membership_downward_closed():
    rng = random.Random(34)
    for _ in range(150):
        net = random_net(rng)
        inv = make_invariant(net, ["sign", "state"])
        m = net.marking([rng.randint(0, 3) for _ in net.places])
        if not inv.member(m):
            continue
        below = Marking(tuple(max(0, c - rng.randint(0, 1)) for c in m))
        assert inv.member(below)


def test_intersection_short_circuits(stuck_net):
    inv = make_invariant(stuck_net, ["sign", "state"])
    result = solve(stuck_net, Marking((0, 1)), inv)
    # sign already rejected the target, the LP must not have run
    assert not result.target_in_invariant
    assert (result.sign_checks, result.lp_calls) == (1, 0)
    state = inv.leaves()[1]
    assert state._tops == [] and state._bases == []
    assert inv.name == "sign,state"


def test_reused_handle_counts_as_fresh():
    """A second search on one handle is answered by the tops and bases
    the first kept, without a new LP, and counts the same queries as a
    search on a fresh handle."""
    warmed = 0
    for name, net, target in random_instances(CORPUS_SEED, 60):
        warm = make_invariant(net, ["sign", "state"])
        solve(net, target, warm)
        solved = list(warm.leaves()[1]._bases)
        again = solve(net, target, warm)
        assert warm.leaves()[1]._bases == solved, name
        assert again == solve(net, target, make_invariant(net, ["sign", "state"])), name
        warmed += bool(solved)
    assert warmed


def test_intersection_with_trivial_behaves_as_sign(stuck_net):
    both = make_invariant(stuck_net, ["trivial", "sign"])
    alone = make_invariant(stuck_net, ["sign"])
    for m in (Marking((0, 0)), Marking((3, 0)), Marking((0, 2)), Marking((1, 1))):
        assert both.member(m) == alone.member(m)


def test_make_invariant_validation(pump_net):
    with pytest.raises(ValueError):
        make_invariant(pump_net, [])
    with pytest.raises(ValueError):
        make_invariant(pump_net, ["sign", "sign"])
    with pytest.raises(ValueError):
        make_invariant(pump_net, ["magic"])
    # A bare string is refused, not read letter by letter.
    with pytest.raises(ValueError, match=r"a list such as \['sign', 'state'\]"):
        make_invariant(pump_net, "sign")
    with pytest.raises(ValueError, match=r"a list such as \['sign', 'state'\]"):
        check_invariant_names("sign,state")
    # A name that is no string, hashable or not, is an unknown one.
    for names in ([["sign"]], ["sign", {"state"}], [None], ["state", 1]):
        with pytest.raises(ValueError, match="^unknown invariant .*; pick from trivial, sign"):
            make_invariant(pump_net, names)
    single = make_invariant(pump_net, ["state"])
    assert isinstance(single, StateInvariant)
    # Each leaf is built on a PetriNet: a problem, or its rows, is none.
    problem = Problem(pump_net, (Marking((0, 2, 1)),))
    for net in (problem, pump_net.pre, None):
        for names in (["sign"], ["state"], ["trivial"], ["sign", "state"]):
            with pytest.raises(ValueError, match="^an invariant is built on a PetriNet, not a "):
                make_invariant(net, names)


def test_member_checks_domain(pump_net):
    inv = make_invariant(pump_net, ["sign", "state"])
    with pytest.raises(ValueError):
        inv.member(Marking((1, 0)))


_MARKING_ENTRIES = {
    "fire": lambda net, m: net.fire(m, 0),
    "fire_sequence": lambda net, m: net.fire_sequence(m, [0]),
    "cpre": lambda net, m: net.cpre(0, m),
    "trivial.member": lambda net, m: TrivialInvariant(net).member(m),
    "sign.member": lambda net, m: SignInvariant(net).member(m),
    "state.member": lambda net, m: StateInvariant(net).member(m),
    "state._answer": lambda net, m: StateInvariant(net)._answer(m),
    "bounded_cover": lambda net, m: bounded_cover(net, m),
    "solve": lambda net, m: solve(net, m),
    "Problem": lambda net, m: Problem(net=net, targets=(m,)).targets,
}


@pytest.mark.parametrize("bad", [(0, -1), (0, 1.5), (0, True)])
@pytest.mark.parametrize("entry", sorted(_MARKING_ENTRIES))
def test_entries_reject_non_markings(stuck_net, entry, bad):
    """Every public entry that takes a marking refuses a non-marking
    instead of answering for it."""
    with pytest.raises(ValueError, match="non-negative integers"):
        _MARKING_ENTRIES[entry](stuck_net, bad)


def test_entries_share_one_marking_boundary(stuck_net):
    """Every entry takes every spelling of a marking and answers alike,
    and refuses each fault with the same message as every other entry."""
    spellings = {
        (0, 1): [Marking((0, 1)), [0, 1], (0, 1), {"p2": 1}, {"p1": 0, "p2": 1}],
        (0, 0): [Marking((0, 0)), ()],
    }
    faults = [(0, -1), (0, 1.5), (0, True), (0, 1, 0), {"p3": 1}]
    for entry, ask in _MARKING_ENTRIES.items():
        for counts, spelled in spellings.items():
            answers = [ask(stuck_net, m) for m in spelled]
            assert answers == [answers[0]] * len(answers), (entry, counts)
    for bad in faults:
        messages = set()
        for entry, ask in _MARKING_ENTRIES.items():
            with pytest.raises(ValueError) as refused:
                ask(stuck_net, bad)
            messages.add(str(refused.value))
        assert len(messages) == 1, (bad, messages)


def _displacement(net):
    return tuple(tuple(post[p] - pre[p] for pre, post in zip(net.pre, net.post))
                 for p in range(len(net.places)))


def test_d_equals_a_validated_build():
    """D is stored without the constructor's checks; it equals the matrix
    the public ``FeasibilityProblem`` constructor builds and checks."""
    for name, net, _ in random_instances(CORPUS_SEED, CORPUS_SIZE):
        system = StateInvariant(net).system
        checked = FeasibilityProblem(_displacement(net))
        assert type(system) is FeasibilityProblem and system == checked, name
        assert type(system.a) is tuple and all(type(row) is tuple for row in system.a)
    net = PetriNet(["a", "b"], [])
    assert StateInvariant(net).system == FeasibilityProblem(((), ()))


@pytest.mark.parametrize("rows, message", [
    (((1, 2), (3,)), "ragged"),
    (((1,), (2, 3)), "ragged"),
    (((1, 2.0),), "integers"),
    (((Fraction(1, 2),),), "integers"),
    (((1, False),), "integers"),
    ((("1",),), "integers"),
])
def test_public_d_constructor_still_refuses_bad_matrices(rows, message):
    with pytest.raises(ValueError, match=message):
        FeasibilityProblem(rows)


def test_questions_decided_at_the_target_leave_d_unbuilt(pump_net, orbit_net):
    """Under sign,state a target at most the initial marking is admitted by
    lam = 0, and a target the sign test rejects never reaches the state
    handle: neither builds D.  Reading ``system`` afterwards builds the
    same D as a handle that needs it at once."""
    for net, target, verdict in ((pump_net, (1, 0, 0), Verdict.COVERABLE),
                                 (orbit_net, (0, 1, 0), Verdict.UNCOVERABLE)):
        inv = make_invariant(net, ["sign", "state"])
        state = inv.leaves()[1]
        assert solve(net, target, inv).verdict is verdict
        assert state._system is None
        assert state.system.a == _displacement(net)
        assert state._system is state.system
    busy = StateInvariant(pump_net)
    assert busy.member((0, 2, 1))
    assert busy._system is not None and busy.system.a == _displacement(pump_net)


def test_lam_zero_answers_only_what_nothing_kept_answers():
    """A query with m <= initial takes the answer of the first kept basis
    that decides it, which need not be lam = 0, and lam = 0 otherwise; the
    tops keep exactly those witnesses.  The values are those of the
    handle that asked ``feasible`` for every such query."""
    def net_of(pre, post, initial):
        names = ["p%d" % p for p in range(len(initial))]
        return PetriNet(names, ["t%d" % t for t in range(len(pre))],
                        pre_arcs={(names[p], "t%d" % t): w for t, row in enumerate(pre)
                                  for p, w in enumerate(row) if w},
                        post_arcs={("t%d" % t, names[p]): w for t, row in enumerate(post)
                                   for p, w in enumerate(row) if w},
                        initial=dict(zip(names, initial)))

    fresh = StateInvariant(net_of([[0, 1, 1], [1, 0, 0]], [[2, 2, 0], [0, 0, 0]], [1, 0, 2]))
    assert fresh._answer((0, 0, 2)) == (True, (1, [0, 0]))
    assert fresh._system is None and fresh._tops == [[None, (1, [0, 0])]]

    decided = StateInvariant(net_of([[0, 1, 1], [1, 0, 0]], [[2, 2, 0], [0, 0, 0]], [1, 0, 2]))
    assert not decided.member((3, 3, 0))
    assert len(decided._bases) == 1 and not decided._tops
    assert decided._answer((0, 0, 2)) == (True, (1, [0, 1]))
    assert [entry[1] for entry in decided._tops] == [(1, [0, 1])]

    undecided = StateInvariant(net_of(
        [[0, 2, 1, 0, 2], [2, 2, 2, 2, 0], [0, 2, 0, 1, 2]],
        [[1, 2, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 1, 1, 2]], [1, 0, 0, 0, 2]))
    assert not undecided.member((2, 3, 3, 0, 0))
    assert len(undecided._bases) == 1
    assert undecided._bases[0].decide([-1, 0, 0, 0, 0]) is None
    assert undecided._answer((0, 0, 0, 0, 2)) == (True, (1, [0, 0, 0]))
    assert len(undecided._bases) == 1
    assert [entry[1] for entry in undecided._tops] == [(1, [0, 0, 0])]


def test_empty_name_list_has_one_rule(pump_net):
    # the same message as the CLI's exit-2 diagnostic
    with pytest.raises(ValueError, match="^empty invariant list$"):
        make_invariant(pump_net, [])


def _explains(net, rows, m, lam):
    """lam >= 0 and initial + D lam >= m, re-substituted exactly."""
    return all(x >= 0 for x in lam) and all(
        i + sum(d * x for d, x in zip(row, lam)) >= c
        for i, row, c in zip(net.initial, rows, m))


def _refutes(net, m, y):
    """y >= 0, y D <= 0 and y . m > y . initial, in integers from the
    net's own rows: no lam >= 0 meets initial + D lam >= m."""
    return (len(y) == len(net.places) and all(type(v) is int and v >= 0 for v in y)
            and all(sum(v * (o - n) for v, n, o in zip(y, need, give)) <= 0
                    for need, give in zip(net.pre, net.post))
            and sum(v * c for v, c in zip(y, m)) > sum(v * i for v, i in zip(y, net.initial)))


def test_cached_answers_equal_a_fresh_lp(monkeypatch):
    """Every state query of every acceptance-corpus search, under state and
    sign,state, is asked again of a cold LP, with no start.  The handle's
    answers, from a kept top or basis or its own warm-started LP, must
    equal the cold LP's, its witnesses must re-substitute, its Farkas
    vectors must refute m from the net's rows, the same queries in
    shuffled order on a fresh handle must get the same answers with
    evidence that checks alike, tops must save LP solves, and kept bases
    must save both admitting and rejecting ones.  Each handle passes its
    one FeasibilityProblem, with a column per transition, to every LP it
    solves, and keeps no final basis twice."""
    solves = {True: 0, False: 0}
    warm = [0]
    lp = coverlib.invariants.feasible
    decide = coverlib.ratlp.Cone.decide
    kept = {True: 0, False: 0}  # kept-basis answers, by outcome
    asking = []  # the handle whose query is running
    systems = {}  # handle -> the FeasibilityProblem of its first LP

    def counted(problem, b, start=None):
        handle = asking[-1]
        assert systems.setdefault(handle, problem) is problem
        assert problem.num_vars == len(handle.net.transitions)
        result = lp(problem, b, start=start)
        solves[result[0]] += 1
        warm[0] += start is not None
        return result

    def deciding(cone, b):
        answer = decide(cone, b)
        if answer is not None:
            kept[answer[0]] += 1
        return answer

    asked = []
    answering = StateInvariant._answer

    def recorded(self, m):
        asking.append(self)
        answer = answering(self, m)
        asking.pop()
        asked.append((m, answer))
        return answer

    def checks(net, rows, m, answer):
        admitted, evidence = answer
        if admitted:
            den, nums = evidence
            return den > 0 and _explains(net, rows, m, [Fraction(v, den) for v in nums])
        return _refutes(net, m, evidence)

    monkeypatch.setattr(coverlib.invariants, "feasible", counted)
    monkeypatch.setattr(coverlib.ratlp.Cone, "decide", deciding)
    monkeypatch.setattr(StateInvariant, "_answer", recorded)
    rng = random.Random(36)
    queries = rejected = lp_admitted = lp_rejected = kept_admitted = kept_rejected = 0
    for name, net, target in random_instances(CORPUS_SEED, CORPUS_SIZE):
        rows = tuple(tuple(post[p] - pre[p] for pre, post in zip(net.pre, net.post))
                     for p in range(len(net.places)))
        system = FeasibilityProblem(rows)
        for names in (("state",), ("sign", "state")):
            del asked[:]
            before, kept_before = dict(solves), dict(kept)
            solve(net, target, make_invariant(net, names), budget_steps=500)
            lp_admitted += solves[True] - before[True]
            lp_rejected += solves[False] - before[False]
            kept_admitted += kept[True] - kept_before[True]
            kept_rejected += kept[False] - kept_before[False]
            sequence = list(asked)
            queries += len(sequence)
            for m, answer in sequence:
                bounds = tuple(c - i for c, i in zip(m, net.initial))
                ok, _, _ = feasible(system, bounds)
                assert answer[0] == ok, (name, names, m)
                assert checks(net, rows, m, answer), (name, names, m, answer)
                rejected += not ok
            rng.shuffle(sequence)
            fresh = StateInvariant(net)
            for m, answer in sequence:
                again = fresh._answer(m)
                assert again[0] == answer[0], (name, names, m)
                assert checks(net, rows, m, again), (name, names, m, again)
    # Both answers occur, and both caches hit: some rejections and some
    # admissions came from a kept basis and some admissions from a top,
    # not from the handle's own LP.  Only a basis or an LP rejects.
    assert 0 < rejected < queries
    assert lp_rejected < rejected
    assert lp_rejected + kept_rejected == rejected
    assert 0 < kept_admitted and 0 < kept_rejected
    assert 0 < warm[0] < solves[True] + solves[False]
    assert lp_admitted + kept_admitted < queries - rejected
    assert systems
    for handle in systems:
        bases = [frozenset(cone.basis) for cone in handle._bases]
        assert len(set(bases)) == len(bases)
