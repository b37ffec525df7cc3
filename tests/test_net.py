from __future__ import annotations

import random
import re

import pytest

from coverlib import Marking, PetriNet, StateInvariant, TrivialInvariant, sign_analysis

from corpus import random_instances, random_net
from oracles import box, fires_over
from test_acceptance import CORPUS_SEED, CORPUS_SIZE


def test_marking_rejects_negative_and_nonint():
    with pytest.raises(ValueError):
        Marking((1, -1))
    with pytest.raises(ValueError):
        Marking((1, 2.0))
    with pytest.raises(ValueError):
        Marking((True, 0))  # bool is an int subclass, but no token count


def test_marking_order_predicates():
    a = Marking((0, 1, 2))
    b = Marking((1, 1, 2))
    assert a.leq(b) and not b.leq(a)
    assert b.covers(a)
    assert a.leq(a) and a.covers(a)
    x, y = Marking((1, 0)), Marking((0, 1))
    assert not x.leq(y) and not y.leq(x)  # incomparable


def test_marking_domain_mismatch():
    with pytest.raises(ValueError):
        Marking((1,)).leq(Marking((1, 2)))


def test_net_construction_validation():
    with pytest.raises(ValueError):
        PetriNet([], ["t"])
    with pytest.raises(ValueError):
        PetriNet(["p", "p"], ["t"])
    with pytest.raises(ValueError):
        PetriNet(["p"], ["t", "t"])
    with pytest.raises(ValueError):
        PetriNet(["x"], ["x"])  # name used for both
    with pytest.raises(ValueError):
        PetriNet(["p"], ["t"], pre_arcs={("q", "t"): 1})
    with pytest.raises(ValueError):
        PetriNet(["p"], ["t"], pre_arcs={("p", "u"): 1})
    with pytest.raises(ValueError):
        PetriNet(["p"], ["t"], pre_arcs={("p", "t"): -1})
    with pytest.raises(ValueError, match="arc weight"):
        PetriNet(["p"], ["t"], pre_arcs={("p", "t"): True})
    with pytest.raises(ValueError, match="arc weight"):
        PetriNet(["p"], ["t"], post_arcs={("t", "p"): False})


def test_zero_weight_arcs_are_dropped():
    net = PetriNet(["p"], ["t"], pre_arcs={("p", "t"): 0}, post_arcs={("t", "p"): 0})
    assert net.pre == ((0,),)
    assert net.post == ((0,),)


def test_marking_coercion_forms(pump_net):
    assert pump_net.marking({"p2": 3}) == Marking((0, 3, 0))
    assert pump_net.marking(()) == Marking((0, 0, 0))
    assert pump_net.marking([1, 2, 3]) == Marking((1, 2, 3))
    with pytest.raises(ValueError):
        pump_net.marking((1, 2))
    with pytest.raises(ValueError):
        pump_net.marking({"nope": 1})


def test_pump_firing_semantics(pump_net):
    m0 = pump_net.initial
    assert m0 == Marking((1, 0, 0))
    t1, t2, t3 = (pump_net.transition_index(t) for t in ("t1", "t2", "t3"))
    assert pump_net.fire(m0, t1) is not None
    assert pump_net.fire(m0, t2) is None
    m1 = pump_net.fire(m0, t1)
    m2 = pump_net.fire(m1, t2)
    m3 = pump_net.fire(m2, t3)
    assert (m1, m2, m3) == (Marking((0, 1, 0)), Marking((0, 0, 2)), Marking((0, 2, 1)))
    assert pump_net.fire(m0, t2) is None
    assert pump_net.fire_sequence(m0, [t1, t2, t3]) == Marking((0, 2, 1))
    assert pump_net.fire_sequence(m0, [t2]) is None


def test_displacement_and_min_enabling(pump_net):
    # one row per place, one column per transition: post minus pre
    rows = StateInvariant(pump_net).system.a
    assert rows == ((-1, 0, 0), (1, -1, 2), (0, 2, -1))
    assert pump_net.min_enabling_marking(1) == Marking((0, 1, 0))


def test_cpre_worked_values(pump_net):
    t1, t2, t3 = 0, 1, 2
    # walking the worked target (0,2,1) backwards reaches the initial marking
    assert pump_net.cpre(t3, Marking((0, 2, 1))) == Marking((0, 0, 2))
    assert pump_net.cpre(t2, Marking((0, 0, 2))) == Marking((0, 1, 0))
    assert pump_net.cpre(t1, Marking((0, 1, 0))) == Marking((1, 0, 0))
    # consuming without producing: the needed tokens stack on the guard
    assert pump_net.cpre(t1, Marking((2, 0, 0))) == Marking((3, 0, 0))


def test_cpre_is_monotone_random():
    rng = random.Random(404)
    for _ in range(200):
        net = random_net(rng)
        t = rng.randrange(len(net.transitions))
        lo = net.marking([rng.randint(0, 3) for _ in net.places])
        hi = Marking(c + rng.randint(0, 2) for c in lo)
        assert net.cpre(t, lo).leq(net.cpre(t, hi))


def test_cpre_box_characterization_random():
    # upward closure of cpre = one-step pre-image of the target's upward
    # closure, checked pointwise on a small box
    rng = random.Random(405)
    for _ in range(150):
        net = random_net(rng)
        if len(net.places) > 3:
            continue
        t = rng.randrange(len(net.transitions))
        target = net.marking([rng.randint(0, 2) for _ in net.places])
        base = net.cpre(t, target)
        for point in box(len(net.places), 4):
            assert base.leq(point) == fires_over(net, point, t, target)


def _dense_cpre(net, t, m):
    return tuple(n + max(c - o, 0) for n, o, c in zip(net.pre[t], net.post[t], m))


def _arc_mix_net(rng):
    # Every transition is one of: no arcs at all, self-loops only, or a
    # random mix of input, output and self-loop arcs.
    places = ["p%d" % i for i in range(rng.randint(1, 7))]
    transitions = ["t%d" % j for j in range(rng.randint(1, 6))]
    pre, post = {}, {}
    for t in transitions:
        kind = rng.choice(("none", "loops", "mixed", "mixed"))
        for p in places:
            if kind == "none" or rng.random() < 0.4:
                continue
            if kind == "loops" or rng.random() < 0.3:
                pre[(p, t)] = rng.randint(1, 3)
                post[(t, p)] = rng.randint(1, 3)
            elif rng.random() < 0.5:
                pre[(p, t)] = rng.randint(1, 3)
            else:
                post[(t, p)] = rng.randint(1, 3)
    initial = {p: rng.randint(0, 2) for p in places}
    return PetriNet(places, transitions, pre, post, initial)


def test_sparse_cpre_matches_dense_formula():
    rng = random.Random(406)
    no_arcs = loops = 0
    for _ in range(300):
        net = _arc_mix_net(rng)
        for t in range(len(net.transitions)):
            no_arcs += not any(net.pre[t]) and not any(net.post[t])
            loops += any(n and o for n, o in zip(net.pre[t], net.post[t]))
            for _ in range(5):
                m = Marking(rng.randint(0, 5) for _ in net.places)
                got = net.cpre(t, m)
                assert type(got) is Marking
                assert got == _dense_cpre(net, t, m)
                # a plain sequence is validated, then treated the same
                assert net.cpre(t, list(m)) == got
    assert no_arcs and loops  # both corner cases were drawn


def test_cpre_validates_plain_sequences(pump_net):
    # place p1 has arcs under t1, place p3 has none
    for bad in ((-1, 0, 0), (0, 0, -1), (0.5, 0, 0), (0, 0, 2.0), (0, "1", 0)):
        with pytest.raises(ValueError):
            pump_net.cpre(0, bad)
    with pytest.raises(ValueError):
        pump_net.cpre(0, (0, 0))
    with pytest.raises(IndexError):
        pump_net.cpre(3, Marking((0, 0, 0)))
    with pytest.raises(IndexError):
        pump_net.cpre(True, Marking((0, 0, 0)))



def test_fast_paths_keep_every_refusal(pump_net):
    """cpre and the trivial invariant take a Marking of the net and an
    int transition as they are; anything else is read, or refused, as
    ``marking`` and the index check read or refuse it."""
    m = Marking((0, 2, 1))
    for t in range(3):
        want = pump_net.cpre(t, m)
        for form in (list(m), tuple(m), {"p2": 2, "p3": 1}):
            got = pump_net.cpre(t, form)
            assert got == want and type(got) is Marking
    for bad, counts in ((Marking((0, 2)), 2), (Marking((0, 2, 1, 0)), 4)):
        message = re.escape(f"expected 3 counts, got {counts}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            pump_net.marking(bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pump_net.cpre(0, bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pump_net.cpre(3, bad)  # the marking is read first
    for t in (True, -1, 3, 1.0):
        message = re.escape(f"transition index {t!r} is not an int in range(3)")
        with pytest.raises(IndexError, match=f"^{message}$"):
            pump_net.cpre(t, m)
    trivial = TrivialInvariant(pump_net)
    assert trivial.member(m) and trivial.member([0, 2, 1]) and trivial.member({"p1": 1})
    with pytest.raises(ValueError, match=r"^expected 3 counts, got 2$"):
        trivial.member(Marking((0, 2)))

def test_fired_successors_equal_checked_markings():
    """fire builds its successor unchecked, from a checked marking and an
    enabled transition: every count is still a non-negative int, so the
    successor equals the marking the checked constructor builds."""
    rng = random.Random(412)
    fired = 0
    for name, net, _ in random_instances(CORPUS_SEED, CORPUS_SIZE):
        m, steps = net.initial, []
        for _ in range(6):
            successors = [(t, net.fire(m, t)) for t in range(len(net.transitions))]
            enabled = [(t, s) for t, s in successors if s is not None]
            for t, s in enabled:
                assert type(s) is Marking and s == Marking(list(s)), name
                assert s == tuple(c - n + o for c, n, o in zip(m, net.pre[t], net.post[t]))
            fired += len(enabled)
            if not enabled:
                break
            t, m = rng.choice(enabled)
            steps.append(t)
        end = net.fire_sequence(list(net.initial), steps)
        assert type(end) is Marking and end == Marking(list(end)) == m, name
    assert fired > 1000


def test_restricted_net_uses_its_own_arcs():
    rng = random.Random(407)
    for _ in range(100):
        net = _arc_mix_net(rng)
        m = Marking(rng.randint(0, 5) for _ in net.places)
        for t in range(len(net.transitions)):
            net.cpre(t, m)  # fills the parent's arc lists first
        places = rng.sample(range(len(net.places)), rng.randint(1, len(net.places)))
        transitions = rng.sample(range(len(net.transitions)),
                                 rng.randint(0, len(net.transitions)))
        sub = net.restrict(places, transitions)
        sm = Marking(rng.randint(0, 5) for _ in sub.places)
        for t in range(len(sub.transitions)):
            assert sub.cpre(t, sm) == _dense_cpre(sub, t, sm)


def test_index_lookup_errors(pump_net):
    with pytest.raises(ValueError):
        pump_net.place_index("q")
    with pytest.raises(ValueError):
        pump_net.transition_index("q")
    with pytest.raises(IndexError):
        pump_net.fire(pump_net.initial, 7)


def test_structural_equality(pump_net):
    from conftest import make_pump_net

    assert pump_net == make_pump_net()
    other = PetriNet(["p1"], [], initial={"p1": 1})
    assert pump_net != other


def test_restrict_identity_is_equal(pump_net):
    whole = pump_net.restrict(range(3), range(3))
    assert whole == pump_net
    rng = random.Random(11)
    for _ in range(20):
        net = random_net(rng)
        same = net.restrict(range(len(net.places)), range(len(net.transitions)))
        assert same == net


def _built(net, places, transitions):
    """The restriction, built through the public constructor."""
    names = [net.places[p] for p in places]
    return PetriNet(
        names, [net.transitions[t] for t in transitions],
        pre_arcs={(net.places[p], net.transitions[t]): net.pre[t][p]
                  for t in transitions for p in places},
        post_arcs={(net.transitions[t], net.places[p]): net.post[t][p]
                   for t in transitions for p in places},
        initial={net.places[p]: net.initial[p] for p in places})


def test_restrict_equals_a_constructor_build():
    """A restriction over every place in order, over some of them, or
    over all of them reordered equals the constructor's net, arc lists and
    indices included, and starts without a sign analysis even when the
    parent has one."""
    rng = random.Random(412)
    for name, net, _ in random_instances(CORPUS_SEED, CORPUS_SIZE):
        sign_analysis(net)
        every = range(len(net.places))
        kept = sorted(rng.sample(every, rng.randint(1, len(net.places))))
        for places in (every, list(every), kept, rng.sample(every, len(every))):
            transitions = sorted(rng.sample(range(len(net.transitions)),
                                            rng.randint(0, len(net.transitions))))
            sub = net.restrict(places, transitions)
            built = _built(net, places, transitions)
            assert sub == built, name
            assert sub._arcs == built._arcs, name
            assert sub._place_index == built._place_index, name
            assert sub._transition_index == built._transition_index, name
            assert sub._sign is None and sign_analysis(sub) == sign_analysis(built)


def test_restrict_subset_matches_hand_built(pump_net):
    # keep p1, p2 and t1, t2: t2's arc into p3 goes with p3
    sub = pump_net.restrict([0, 1], [0, 1])
    expected = PetriNet(
        places=["p1", "p2"],
        transitions=["t1", "t2"],
        pre_arcs={("p1", "t1"): 1, ("p2", "t2"): 1},
        post_arcs={("t1", "p2"): 1},
        initial={"p1": 1},
    )
    assert sub == expected
    # reordering follows the index lists
    flipped = pump_net.restrict([2, 1], [2])
    assert flipped == PetriNet(["p3", "p2"], ["t3"],
                               pre_arcs={("p3", "t3"): 1},
                               post_arcs={("t3", "p2"): 2})


def test_restrict_rejects_bad_indices(pump_net):
    with pytest.raises(IndexError):
        pump_net.restrict([0, 3], [0])
    with pytest.raises(IndexError):
        pump_net.restrict([-1], [0])
    with pytest.raises(IndexError):
        pump_net.restrict([0], [5])
    with pytest.raises(ValueError):
        pump_net.restrict([], [0])
    with pytest.raises(ValueError):
        pump_net.restrict([0, 0], [0])
    # places and transitions take the same rule: ints only, bools excluded
    for bad in (0.0, True):
        with pytest.raises(IndexError):
            pump_net.restrict([bad], [0])
        with pytest.raises(IndexError):
            pump_net.restrict([0], [bad])
    # a restriction over every place checks its indices the same way
    for places, transitions, error in (([0, 1, 2], [5], IndexError),
                                       ([0, 1, 2], [True], IndexError),
                                       ([0, True, 2], [0], IndexError),
                                       ([0, 1, 2], [1, 1], ValueError)):
        with pytest.raises(error):
            pump_net.restrict(places, transitions)
