"""Antichain bases for upward-closed sets of markings.

An upward-closed set is represented by its finite set of minimal
elements, kept in insertion order.  Dominance queries go through a
per-place bitmask index (after Bentley's multidimensional dominance
queries and the covering sharing trees of Delzanno, Raskin and Van
Begin): bit i of a mask stands for element i.  For each place the index
holds the distinct counts of the elements on that place in increasing
order and, per count, the mask of the elements holding at most that
many tokens there.  A candidate m is covered iff the AND over all
places of the mask at m's count is nonzero.  An element lies above m
iff it holds fewer tokens than m on no place, so the elements a new
minimal element m makes redundant are the AND over places of the
complements of the masks below m's counts.  Counts are looked up by
rank, with a binary search, so a count of any size costs no more table
space than a small one.

A basis is immutable, so it builds its index lazily, once, on its
first query.  The domain of a marking is checked once, when it enters
a query, not per comparison.  ``Basis(elements)`` checks that its
elements form an antichain, ``python -O`` or not.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import le
from typing import Iterable, Iterator, List, Sequence, Tuple

from .net import Marking


def _is_antichain(elements: Sequence[Marking]) -> bool:
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            if a.leq(b) or b.leq(a):
                return False
    return True


def _insert(kept: List[Marking], m: Marking) -> List[Marking]:
    # kept is an antichain over m's domain; returns an antichain
    # representing kept + {m}.
    out: List[Marking] = []
    for x in kept:
        if all(map(le, x, m)):
            # Some x <= m already: m adds nothing.  No other element can
            # be above m, or it would be comparable with x.
            return kept
        if all(map(le, m, x)):
            continue  # m strictly below x: x is now redundant
        out.append(x)
    out.append(m)
    return out


def _minimal(new: Iterable[Marking]) -> List[Marking]:
    # The minimal markings of ``new``, in insertion order; each is checked
    # against the domain of the first element kept.
    kept: List[Marking] = []
    for m in new:
        if kept:
            kept[0]._check_domain(m)
        kept = _insert(kept, m)
    return kept


def _build_index(elements: Sequence[Marking]) -> Tuple[List[tuple], List[int]]:
    # (columns, zeros).  A column is (p, counts, masks) for a place p where
    # some element holds a token: ``counts`` are the distinct counts on p
    # in increasing order, and masks[k] holds the elements whose count on
    # p is at most counts[k - 1] (masks[0] == 0).  So the elements at most
    # c on p are masks[bisect_right(counts, c)], and those below c are
    # masks[bisect_left(counts, c)].  ``zeros`` lists the other places.
    bits = [1 << i for i in range(len(elements))]
    columns: List[tuple] = []
    zeros: List[int] = []
    for p, column in enumerate(zip(*elements)):
        if not any(column):
            zeros.append(p)
            continue
        by_count: dict = {}
        for c, b in zip(column, bits):
            by_count[c] = by_count.get(c, 0) | b
        counts = sorted(by_count)
        masks = [0]
        acc = 0
        for c in counts:
            acc |= by_count[c]
            masks.append(acc)
        columns.append((p, counts, masks))
    return columns, zeros


class Basis:
    """Minimal elements of an upward-closed set, in insertion order.

    Instances are immutable.  The private slot ``_index`` holds the
    dominance index once a query has built it; threads that race on it
    compute and write the same value.
    """

    __slots__ = ("elements", "_index")

    def __init__(self, elements: Iterable[Marking] = ()) -> None:
        elements = tuple(elements)
        # Marking.leq raises ValueError on markings of different domains.
        if not _is_antichain(elements):
            raise ValueError("basis elements must be pairwise incomparable")
        self.elements = elements
        self._index = None

    @classmethod
    def _of(cls, elements: Sequence[Marking]) -> "Basis":
        # A basis of elements known to form an antichain over one domain.
        b = cls.__new__(cls)
        b.elements = tuple(elements)
        b._index = None
        return b

    def _columns(self) -> Tuple[List[tuple], List[int]]:
        if self._index is None:
            self._index = _build_index(self.elements)
        return self._index

    def _uncovered(self, candidates: Iterable[Marking]) -> List[Marking]:
        # The candidates outside the upward closure, in order; every
        # candidate's domain is checked, covered or not.
        if not self.elements:
            return list(candidates)
        first = self.elements[0]
        columns = self._columns()[0]
        full = (1 << len(self.elements)) - 1
        out: List[Marking] = []
        for m in candidates:
            first._check_domain(m)
            # Bit i survives while element i is at most m on every place;
            # every element holds 0 on the places without a column.
            below = full
            for p, counts, masks in columns:
                below &= masks[bisect_right(counts, m[p])]
                if not below:
                    out.append(m)
                    break
        return out

    def contains(self, m: Marking) -> bool:
        """Whether ``m`` lies in the upward closure of this basis."""
        return not self.filter_uncovered((m,))

    def union(self, new: Iterable[Marking]) -> "Basis":
        """Minimal elements of (this set) union (upward closure of ``new``).

        The surviving elements keep their order, and the new minimal
        elements follow in the order given.
        """
        fresh = self._uncovered(new)
        columns, zeros = self._columns()
        full = (1 << len(self.elements)) - 1
        # Old elements above some fresh marking leave the basis.
        dead = 0
        for m in fresh:
            if any(m[p] for p in zeros):
                continue  # no element holds a token there
            above = full
            for p, counts, masks in columns:
                c = m[p]
                if c:
                    # Drop the elements holding fewer than c tokens on p.
                    above &= ~masks[bisect_left(counts, c)]
                    if not above:
                        break
            dead |= above
        old = [x for i, x in enumerate(self.elements) if not dead >> i & 1]
        return Basis._of(old + _minimal(fresh))

    def filter_uncovered(self, candidates: Iterable[Marking]) -> List[Marking]:
        """The candidates that are not already in this upward-closed set."""
        return self._uncovered(candidates)

    def is_antichain(self) -> bool:
        return _is_antichain(self.elements)

    def sorted_elements(self) -> tuple:
        # Lexicographic, for reproducible display only.
        return tuple(sorted(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Marking]:
        return iter(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __eq__(self, other: object) -> bool:
        # Bases denote sets; element order is irrelevant for equality.
        if not isinstance(other, Basis):
            return NotImplemented
        return frozenset(self.elements) == frozenset(other.elements)

    def __hash__(self) -> int:
        return hash(frozenset(self.elements))

    def __repr__(self) -> str:
        return f"Basis({list(self.sorted_elements())})"


def minimize(markings: Iterable[Marking]) -> Basis:
    """Drop every marking that lies above another one."""
    return Basis._of(_minimal(markings))
