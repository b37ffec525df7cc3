from __future__ import annotations

import random

import pytest

from coverlib import Basis, Marking, minimize


def M(*counts):
    return Marking(counts)


def test_minimize_drops_dominated():
    b = minimize([M(1, 2), M(0, 3), M(1, 3), M(2, 2), M(0, 3)])
    assert set(b) == {M(1, 2), M(0, 3)}


def test_minimize_keeps_incomparables():
    elems = [M(2, 0), M(0, 2), M(1, 1)]
    assert set(minimize(elems)) == set(elems)


def test_empty_basis_is_falsy():
    b = minimize([])
    assert not b
    assert len(b) == 0
    assert not b.contains(M(0, 0))


def test_contains_means_upward_membership():
    b = minimize([M(1, 0), M(0, 2)])
    assert b.contains(M(1, 0))
    assert b.contains(M(5, 1))
    assert b.contains(M(0, 2))
    assert not b.contains(M(0, 1))


def test_union_reminimizes():
    b = minimize([M(1, 2), M(2, 0)])
    u = b.union([M(0, 0)])
    assert set(u) == {M(0, 0)}


def test_filter_uncovered():
    b = minimize([M(1, 1)])
    fresh = b.filter_uncovered([M(2, 2), M(0, 3), M(1, 1), M(0, 1)])
    # covered candidates drop, order is preserved, no dedup here
    assert fresh == [M(0, 3), M(0, 1)]


def test_basis_constructor_rejects_non_antichain():
    with pytest.raises(ValueError):
        Basis([M(1, 1), M(1, 2)])
    with pytest.raises(ValueError):
        Basis([M(1, 1), M(1, 1, 1)])


def test_equality_ignores_order():
    assert Basis([M(1, 0), M(0, 1)]) == Basis([M(0, 1), M(1, 0)])
    assert hash(Basis([M(1, 0), M(0, 1)])) == hash(Basis([M(0, 1), M(1, 0)]))


def test_sorted_elements_are_stable_display_order():
    b = Basis([M(2, 0), M(0, 3), M(1, 1)])
    assert b.sorted_elements() == (M(0, 3), M(1, 1), M(2, 0))


def test_minimize_random_properties():
    rng = random.Random(77)
    for _ in range(300):
        pool = [
            Marking(tuple(rng.randint(0, 3) for _ in range(3)))
            for _ in range(rng.randint(0, 12))
        ]
        b = minimize(pool)
        assert b.is_antichain()
        # same upward closure: every pool element is covered and every
        # basis element came from the pool
        for m in pool:
            assert b.contains(m)
        for m in b:
            assert m in pool
        # idempotent
        assert minimize(list(b)) == b


def test_domain_mismatch_raises():
    b = minimize([M(1, 1), M(0, 3)])
    with pytest.raises(ValueError):
        b.filter_uncovered([M(2, 2), M(1, 1, 1)])
    with pytest.raises(ValueError):
        b.union([M(0, 0, 0)])
    with pytest.raises(ValueError):
        b.contains(M(5))
    with pytest.raises(ValueError):
        minimize([M(1, 0), M(0, 1, 0)])
    # a marking that would be dropped as covered is still checked
    with pytest.raises(ValueError):
        b.union([M(1, 1, 1)])


def test_token_sum_prefilter():
    b = minimize([M(0, 5), M(3, 0), M(1, 1)])
    # (0, 5) has a larger token sum than (2, 0) and is skipped; it is
    # incomparable anyway, and no other element lies below (2, 0)
    assert b.filter_uncovered([M(2, 0)]) == [M(2, 0)]
    # elements of equal token sum are compared, not skipped
    assert b.filter_uncovered([M(1, 1), M(0, 2), M(3, 0)]) == [M(0, 2)]
    assert b.contains(M(0, 5)) and not b.contains(M(0, 4))


def test_filter_uncovered_agrees_with_pairwise_leq():
    rng = random.Random(78)
    for _ in range(300):
        dims = rng.randint(1, 4)
        pool = [Marking(tuple(rng.randint(0, 4) for _ in range(dims)))
                for _ in range(rng.randint(0, 10))]
        b = minimize(pool)
        cands = [Marking(tuple(rng.randint(0, 4) for _ in range(dims)))
                 for _ in range(10)]
        expected = [m for m in cands if not any(x.leq(m) for x in pool)]
        assert b.filter_uncovered(cands) == expected
        assert [m for m in cands if not b.contains(m)] == expected
