"""Antichain bases for upward-closed sets of markings.

An upward-closed set is represented by its finite set of minimal
elements, kept in insertion order.  Dominance queries go through a
per-place bitmask index (after Bentley's multidimensional dominance
queries and the covering sharing trees of Delzanno, Raskin and Van
Begin): bit i of a mask stands for the i-th marking indexed.  For each
place where some indexed marking holds a token, the index holds the
distinct counts on that place in increasing order and, per count, the
mask of the markings holding more than that many tokens there.  A
candidate m is covered iff the AND over all places of the complement of
the mask at m's count, cut to the live bits, is nonzero; where m holds
no token that mask is the one after count 0, read without a search.
Inserting a new minimal element m walks its support, the places where
it holds a token, once: on each it first reads the mask of the markings
holding at least m's count, then adds the count and m's bit.  The AND
of the masks read is the set of elements m makes redundant, since m
lies in no mask of any other place; a place where no marking held a
token opens its column and leaves nothing redundant.  Counts are looked
up by rank, so a count of any size costs no more table space than a
small one.

The index is carried forward, not built per basis.  ``union`` copies
it and inserts the new markings one at a time, so the batch is
minimized through the index too (after Kung, Luccio and Preparata's
maxima of a set of vectors): a covered marking is dropped, the elements
above an uncovered one leave, and it takes the next bit.  Elements keep
their bits, so bit order is insertion order; an int ``live`` cuts off
the bits of the elements that left.  Only a basis made by the
constructor builds its index, on its first query, by inserting the
elements in order through the same walk.  The domain of a marking is
checked once, by its length, when it enters a query, not per
comparison.  ``Basis(elements)``, ``union``, ``minimize`` and
``contains`` read each marking that is not a ``Marking`` through
``Marking``; ``filter_uncovered`` does not.  ``Basis`` checks that its
elements form an antichain, ``python -O`` or not.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .net import Marking


def _is_antichain(elements: Sequence[Marking]) -> bool:
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            if a.leq(b) or b.leq(a):
                return False
    return True


# A column is (p, counts, masks) for a place p where some indexed marking
# holds a token: ``counts`` are the distinct counts on p in increasing
# order, counts[0] == 0, and masks[k] holds the markings with more than
# counts[k - 1] tokens on p (masks[0] is unused).  So the markings above
# c on p are masks[bisect_right(counts, c)], which is masks[1] for c == 0,
# and for c > 0 those holding at least c are masks[bisect_left(counts, c)].
# ``at`` maps each such place to its column.

def _below(columns: List[tuple], live: int, m: Marking) -> int:
    # The live markings at most m on every place.
    for p, counts, masks in columns:
        c = m[p]
        live &= ~masks[bisect_right(counts, c) if c else 1]
        if not live:
            break
    return live


def _insert(columns: List[tuple], at: Dict[int, tuple], live: int, bit: int,
            m: Marking) -> int:
    # Index m under ``bit``, which lies above the bits of every marking
    # indexed so far.  Returns ``live`` without the markings at least m
    # on every place, read on each column before m joins it, and with m.
    above = live
    for p, c in enumerate(m):
        if c:
            column = at.get(p)
            if column is None:
                at[p] = column = (p, [0], [0, 0])
                columns.append(column)
            _, counts, masks = column
            k = bisect_left(counts, c)
            above &= masks[k]
            if k == len(counts) or counts[k] != c:
                counts.insert(k, c)
                masks.insert(k + 1, masks[k])
            for i in range(1, k + 1):
                masks[i] |= bit
    return live & ~above | bit


class Basis:
    """Minimal elements of an upward-closed set, in insertion order.

    Instances are immutable.  The private slot ``_index`` holds the
    dominance index: every marking indexed, by bit, the live bits, the
    columns and each place's column.  Threads that race on its first
    build compute and write equal values.
    """

    __slots__ = ("elements", "_index")

    def __init__(self, elements: Iterable[Sequence[int]] = ()) -> None:
        elements = tuple([m if type(m) is Marking else Marking(m) for m in elements])
        # Marking.leq raises ValueError on markings of different domains.
        if not _is_antichain(elements):
            raise ValueError("basis elements must be pairwise incomparable")
        self.elements = elements
        self._index = None

    @classmethod
    def _of(cls, elements: Tuple[Marking, ...], index: tuple) -> "Basis":
        # A basis of elements known to form an antichain over one domain.
        b = cls.__new__(cls)
        b.elements = elements
        b._index = index
        return b

    def _indexed(self) -> tuple:
        if self._index is None:
            live, columns, at = 0, [], {}
            for i, m in enumerate(self.elements):
                live = _insert(columns, at, live, 1 << i, m)
            self._index = (self.elements, live, columns, at)
        return self._index

    def contains(self, m: Marking) -> bool:
        """Whether ``m`` lies in the upward closure of this basis.  An ``m``
        that is not a ``Marking`` is read through ``Marking``."""
        if type(m) is not Marking:
            m = Marking(m)
        return not self.filter_uncovered((m,))

    def union(self, new: Iterable[Sequence[int]]) -> "Basis":
        """Minimal elements of (this set) union (upward closure of ``new``).

        The surviving elements keep their order, and the new minimal
        elements follow in the order given.  An element of ``new`` that is
        not a ``Marking`` is read through ``Marking``, and the domain of
        every one is checked, covered or not.
        """
        marks, live, columns, _ = self._indexed()
        marks = list(marks)
        columns = [(p, counts[:], masks[:]) for p, counts, masks in columns]
        at = {column[0]: column for column in columns}
        first = self.elements[0] if self.elements else None
        for m in new:
            if type(m) is not Marking:
                m = Marking(m)
            if first is None:
                first = m
            if len(m) != len(first):
                first._check_domain(m)
            if not _below(columns, live, m):
                live = _insert(columns, at, live, 1 << len(marks), m)
                marks.append(m)
        if live == (1 << len(marks)) - 1:
            elements = tuple(marks)
        else:
            elements = tuple([x for x, bit in zip(marks, bin(live)[:1:-1]) if bit == "1"])
        return Basis._of(elements, (marks, live, columns, at))

    def filter_uncovered(self, candidates: Iterable[Marking]) -> List[Marking]:
        """The candidates that are not already in this upward-closed set.

        Only their domain is checked: the search passes markings it built
        itself, so a candidate is not read through ``Marking``.
        """
        if not self.elements:
            return list(candidates)
        first = self.elements[0]
        _, live, columns, _ = self._indexed()
        out: List[Marking] = []
        for m in candidates:
            if len(m) != len(first):
                first._check_domain(m)
            if not _below(columns, live, m):
                out.append(m)
        return out

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


def minimize(markings: Iterable[Sequence[int]]) -> Basis:
    """Drop every marking that lies above another one."""
    return Basis().union(markings)
