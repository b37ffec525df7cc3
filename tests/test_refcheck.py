from __future__ import annotations

import random

import pytest

from coverlib import (
    ExploreBound,
    Marking,
    OutcomeKind,
    bounded_cover,
    reachable_markings,
)
from coverlib.refcheck import bfs_tree

from corpus import random_instances


def test_bound_validation():
    with pytest.raises(ValueError):
        ExploreBound(per_place_cap=0)
    with pytest.raises(ValueError):
        ExploreBound(node_cap=0)
    # bool is an int subclass, but no count; a float cap is no count either
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="positive integers"):
            ExploreBound(per_place_cap=bad)
        with pytest.raises(ValueError, match="positive integers"):
            ExploreBound(node_cap=bad)


def test_plain_tuple_bound_is_read_as_explore_bound(pump_net, stuck_net):
    """Both entries read a plain tuple as the ExploreBound it equals, so
    it explores alike and bad caps get the same ValueError."""
    target = Marking((0, 2, 1))
    assert (bounded_cover(pump_net, target, (5, 1000))
            == bounded_cover(pump_net, target, ExploreBound(5, 1000)))
    assert (reachable_markings(stuck_net, (8, 1000))
            == reachable_markings(stuck_net, ExploreBound(8, 1000)))
    for bad in ((0, 1000), (5, 0), (True, 1000), (5, 2.5)):
        with pytest.raises(ValueError, match="positive integers"):
            bounded_cover(pump_net, target, bad)
        with pytest.raises(ValueError, match="positive integers"):
            reachable_markings(pump_net, bad)


def test_pump_cover_depth_three(pump_net):
    out = bounded_cover(pump_net, Marking((0, 2, 1)), ExploreBound(per_place_cap=8))
    assert out.kind is OutcomeKind.COVERABLE
    assert len(out.witness) == 3
    final = pump_net.fire_sequence(pump_net.initial, out.witness)
    assert final.covers(Marking((0, 2, 1)))


def test_stuck_net_exhausts(stuck_net):
    out = bounded_cover(stuck_net, Marking((0, 1)), ExploreBound(per_place_cap=8))
    assert out.kind is OutcomeKind.UNCOVERABLE_EXHAUSTED
    assert out.witness is None
    reach, closed = reachable_markings(stuck_net, ExploreBound(per_place_cap=8))
    assert closed and reach == {Marking((1, 0))}


def test_pump_grows_past_any_cap(pump_net):
    out = bounded_cover(pump_net, Marking((0, 9, 9)), ExploreBound(per_place_cap=4))
    assert out.kind is OutcomeKind.BOUND_HIT
    _, closed = reachable_markings(pump_net, ExploreBound(per_place_cap=2))
    assert not closed


def test_no_transitions_is_closed():
    from coverlib import PetriNet

    net = PetriNet(["p"], [], initial={"p": 2})
    reach, closed = reachable_markings(net)
    assert closed and reach == {Marking((2,))}


def test_target_covered_at_start(pump_net):
    out = bounded_cover(pump_net, Marking((1, 0, 0)))
    assert out.kind is OutcomeKind.COVERABLE and out.witness == ()


def test_node_cap_forces_bound_hit(pump_net):
    out = bounded_cover(pump_net, Marking((3, 0, 0)), ExploreBound(node_cap=2))
    assert out.kind is OutcomeKind.BOUND_HIT


def test_oversized_initial_marking_is_inconclusive():
    from coverlib import PetriNet

    net = PetriNet(["p"], [], initial={"p": 99})
    out = bounded_cover(net, Marking((1,)), ExploreBound(per_place_cap=10))
    assert out.kind is OutcomeKind.BOUND_HIT


def test_witnesses_are_shortest(pump_net):
    # breadth-first: depth of the hit equals the shortest covering path
    out = bounded_cover(pump_net, Marking((0, 1, 0)), ExploreBound(per_place_cap=8))
    assert out.kind is OutcomeKind.COVERABLE
    assert list(out.witness) == [0]  # t1 alone


def test_every_enumerated_marking_replays():
    for name, net, _ in random_instances(seed=606, count=60):
        tree, closed, _ = bfs_tree(net, ExploreBound(per_place_cap=6, node_cap=3000))
        for m, via in tree.items():
            steps = []
            node = m
            while tree[node] is not None:
                t, parent = tree[node]
                steps.append(t)
                node = parent
            steps.reverse()
            assert node == net.initial
            assert net.fire_sequence(net.initial, steps) == m
