from __future__ import annotations

import random
import subprocess
import sys

import pytest

from coverlib import Basis, Marking, minimize

from oracles import _add_minimal, _leq


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


def test_constructor_and_minimize_read_plain_sequences_as_markings():
    """A tuple or list element is read through ``Marking``, by ``union``
    too, onto an empty basis or not: the basis holds hashable, comparable
    markings, and a bad count or a domain mismatch raises ValueError, not
    an AttributeError or TypeError."""
    for build in (Basis, minimize, Basis().union, Basis([M(2, 2)]).union):
        for plain in ([(1, 0), (0, 1)], [[1, 0], [0, 1]], [M(1, 0), [0, 1]]):
            b = build(plain)
            assert all(type(m) is Marking for m in b), (build, plain)
            assert b == Basis([M(1, 0), M(0, 1)]) and hash(b) == hash(Basis([M(0, 1), M(1, 0)]))
            assert b.contains((1, 1)) and not b.contains(M(0, 0))
        for bad, message in (([(1, 0), (1,)], "domains differ"),
                             ([[1, 0], [0, 1, 0]], "domains differ"),
                             ([(1, -1)], "non-negative integers"),
                             ([(-1, 0)], "non-negative integers"),
                             ([(True, 0)], "non-negative integers"),
                             ([(0, 1), [True, 0]], "non-negative integers"),
                             ([(0.5, 0)], "non-negative integers")):
            with pytest.raises(ValueError, match=message):
                build(bad)
    assert list(minimize([[2, 2], (1, 0), [1, 1]])) == [M(1, 0)]
    with pytest.raises(ValueError, match="pairwise incomparable"):
        Basis([(1, 1), [1, 2]])


def test_basis_constructor_checks_under_optimize():
    # python -O drops assert statements and __debug__ blocks; the
    # constructor's check must not be one of them.
    code = (
        "from coverlib import Basis, Marking as M\n"
        "for bad in ([M((1, 1)), M((1, 2))], [M((1, 1)), M((1, 1, 1))]):\n"
        "    try:\n"
        "        Basis(bad)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {bad}')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


def test_place_masks_decide_coverage_not_token_sums():
    b = minimize([M(0, 5), M(3, 0), M(1, 1)])
    # at most 2 on the first place leaves (0, 5) and (1, 1), at most 0 on
    # the second leaves (3, 0): the masks share no element, so (2, 0) is
    # uncovered, though (1, 1) holds no more tokens than it in total
    assert b.filter_uncovered([M(2, 0)]) == [M(2, 0)]
    # a candidate equal to an element is covered by it
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


def _random_antichain(rng, dims):
    # Columns listed in ``zeros`` hold 0 in every element; counts are
    # small, with an occasional huge one.
    zeros = {p for p in range(dims) if rng.random() < 0.3}

    def count(p):
        if p in zeros:
            return 0
        return 10 ** 40 + rng.randint(0, 2) if rng.random() < 0.05 else rng.randint(0, 4)

    basis = []
    for _ in range(rng.choice((0, 1, rng.randint(2, 40)))):
        basis = _add_minimal(basis, Marking(count(p) for p in range(dims)))
    return basis


def _random_candidates(rng, dims, basis):
    tops = [max((x[p] for x in basis), default=0) for p in range(dims)]
    out = []
    for _ in range(rng.randint(0, 25)):
        kind = rng.random()
        if kind < 0.2 and basis:
            out.append(rng.choice(basis))  # a duplicate of an element
        elif kind < 0.35:
            # above every element's count, on one place or on all
            above = [c + 1 for c in tops]
            if rng.random() < 0.5:
                p = rng.randrange(dims)
                above = [rng.randint(0, 4) for _ in range(dims)]
                above[p] = tops[p] + rng.randint(1, 10 ** 41)
            out.append(Marking(above))
        else:
            out.append(Marking(rng.randint(0, 5) for _ in range(dims)))
    return out


def test_index_matches_pairwise_reference():
    rng = random.Random(79)
    for _ in range(600):
        dims = rng.randint(1, 6)
        ref = _random_antichain(rng, dims)
        b = minimize(ref)
        assert b.elements == tuple(ref)
        cands = _random_candidates(rng, dims, ref)
        expected = [m for m in cands if not any(_leq(x, m) for x in ref)]
        assert b.filter_uncovered(cands) == expected
        assert [m for m in cands if not b.contains(m)] == expected
        # union: survivors in their order, then the new minimal elements
        merged = ref
        for m in cands:
            merged = _add_minimal(merged, m)
        assert b.union(cands).elements == tuple(merged)
        # the same basis answers again from its kept index
        assert b.filter_uncovered(cands) == expected
        assert b.union(cands).elements == tuple(merged)
        assert b.union(cands).filter_uncovered(cands) == []


def test_domain_mismatch_raises_covered_or_not():
    b = minimize([M(1, 1), M(0, 3)])
    covered = M(2, 2, 0)   # its first two counts lie above (1, 1)
    uncovered = M(0, 0, 0)
    for m in (covered, uncovered):
        with pytest.raises(ValueError):
            b.filter_uncovered([m])
        with pytest.raises(ValueError):
            b.union([m])
        with pytest.raises(ValueError):
            b.filter_uncovered([M(5, 5), m])
        with pytest.raises(ValueError):
            b.union([M(0, 0), m])
    with pytest.raises(ValueError):
        b.union([M(1)])
    # an empty basis has no domain of its own, but the markings it
    # gains must share one
    with pytest.raises(ValueError):
        minimize([]).union([M(0, 1), M(1, 0, 0)])


def test_union_chains_match_pairwise_reference():
    """Long chains of unions, in which most elements leave again, give
    the reference's bases in order, each carrying its index, and every
    basis of the chain still answers from its own index, and grows a
    branch of its own, after the later unions copied it."""
    rng = random.Random(80)
    for _ in range(60):
        dims = rng.randint(1, 5)
        ref: list = []
        basis = minimize([])
        chain = []
        for _ in range(rng.randint(10, 40)):
            # Markings that shrink over the chain push earlier ones out.
            cap = rng.randint(0, 6)
            batch = [Marking(rng.randint(0, cap) for _ in range(dims))
                     for _ in range(rng.randint(0, 6))]
            for m in batch:
                ref = _add_minimal(ref, m)
            basis = basis.union(batch)
            assert basis.elements == tuple(ref)
            assert basis._index is not None
            chain.append((basis, tuple(ref)))
        probes = [Marking(rng.randint(0, 6) for _ in range(dims)) for _ in range(30)]
        for old, elements in chain:
            assert old.elements == elements
            expected = [m for m in probes if not any(_leq(x, m) for x in elements)]
            assert old.filter_uncovered(probes) == expected
            assert [m for m in probes if not old.contains(m)] == expected
            branch = list(elements)
            for m in probes[:8]:
                branch = _add_minimal(branch, m)
            assert old.union(probes[:8]).elements == tuple(branch)


def _index_snapshot(basis):
    # A deep copy of the index a basis carries.
    marks, live, columns, at = basis._index
    return (tuple(marks), live,
            [(p, counts[:], masks[:]) for p, counts, masks in columns],
            {p: (q, counts[:], masks[:]) for p, (q, counts, masks) in at.items()})


def _sparse(rng, dims, least):
    # A marking holding tokens on ``least`` to four of its places, at
    # least ``least`` on each, with an occasional huge count.
    counts = [0] * dims
    for p in rng.sample(range(dims), rng.randint(least, 4)):
        counts[p] = 10 ** 40 if rng.random() < 0.05 else rng.randint(least, 4)
    return Marking(counts)


def test_union_chains_on_wide_sparse_markings():
    """Markings of 15-30 places, each holding tokens on at most four:
    an insertion walks only its support, so places open their column
    mid-chain.  Every basis of the chain is the reference's, in order,
    and a union on an older basis leaves that basis's index as it was."""
    rng = random.Random(81)
    opened = 0
    for _ in range(40):
        dims = rng.randint(15, 30)
        zero = Marking([0] * dims)

        def sparse(least):
            return _sparse(rng, dims, least)

        ref: list = []
        basis = minimize([])
        chain = []
        for _ in range(rng.randint(10, 30)):
            batch = [sparse(1) for _ in range(rng.randint(0, 6))]
            for m in batch:
                ref = _add_minimal(ref, m)
            before = len(basis._indexed()[2])
            basis = basis.union(batch)
            assert basis.elements == tuple(ref)
            _, _, columns, at = basis._index
            assert len(at) == len(columns)
            assert all(at[column[0]] is column for column in columns)
            opened += bool(before) and len(columns) > before
            chain.append((basis, tuple(ref), _index_snapshot(basis)))
        # The all-zero marking lies below every marking: it covers every
        # probe and, added to any basis, is the only element left.
        probes = [sparse(0) for _ in range(20)] + [zero]
        for old, elements, snapshot in chain:
            assert _index_snapshot(old) == snapshot
            expected = [m for m in probes if not any(_leq(x, m) for x in elements)]
            assert old.filter_uncovered(probes) == expected
            branch = list(elements)
            for m in probes[:8]:
                branch = _add_minimal(branch, m)
            grown = old.union(probes[:8])
            assert grown.elements == tuple(branch)
            assert old.union([zero]).elements == (zero,)
            assert grown.union([zero]).filter_uncovered(probes) == []
            assert _index_snapshot(old) == snapshot
            assert old.filter_uncovered(probes) == expected
    assert opened


def test_constructor_and_union_build_one_index():
    """A basis made by the constructor indexes its elements through the
    insertion ``union`` uses: on dense and on wide sparse antichains, the
    two build the same index, bit for bit."""
    rng = random.Random(82)
    for _ in range(300):
        if rng.random() < 0.5:
            elements = _random_antichain(rng, rng.randint(1, 6))
        else:
            dims = rng.randint(15, 30)
            elements = []
            for _ in range(rng.randint(0, 40)):
                elements = _add_minimal(elements, _sparse(rng, dims, 1))
        built = Basis(elements)
        built._indexed()
        grown = minimize([]).union(elements)
        assert grown.elements == built.elements == tuple(elements)
        assert _index_snapshot(built) == _index_snapshot(grown)
