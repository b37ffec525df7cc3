"""Antichain bases for upward-closed sets of markings.

An upward-closed set is represented by its finite set of minimal
elements.  Maintenance is a plain pairwise dominance sweep over a flat
list, kept cheap: the domain is checked once per incoming marking, not
per comparison; comparisons run as ``all(map(le, ...))``; and a
membership test skips every element whose token sum exceeds the
candidate's, since x <= m implies sum(x) <= sum(m).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import le
from typing import Iterable, Iterator, List, Sequence

from .net import Marking


def _check_same_domain(elements: Sequence[Marking]) -> None:
    if elements:
        n = len(elements[0])
        for m in elements:
            if len(m) != n:
                raise ValueError("markings with different domains in one basis")


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


def _minimal(elements: Sequence[Marking], new: Iterable[Marking]) -> "Basis":
    # The basis of the antichain ``elements`` plus the markings ``new``.
    kept = list(elements)
    for m in new:
        if kept:
            kept[0]._check_domain(m)
        kept = _insert(kept, m)
    b = Basis.__new__(Basis)
    b.elements = tuple(kept)
    return b


class Basis:
    """Minimal elements of an upward-closed set, in insertion order."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[Marking] = ()) -> None:
        elements = tuple(elements)
        _check_same_domain(elements)
        if __debug__ and not _is_antichain(elements):
            raise ValueError("basis elements must be pairwise incomparable")
        self.elements = elements

    def contains(self, m: Marking) -> bool:
        """Whether ``m`` lies in the upward closure of this basis."""
        return not self.filter_uncovered((m,))

    def union(self, new: Iterable[Marking]) -> "Basis":
        """Minimal elements of (this set) union (upward closure of ``new``)."""
        return _minimal(self.elements, new)

    def filter_uncovered(self, candidates: Iterable[Marking]) -> List[Marking]:
        """The candidates that are not already in this upward-closed set."""
        if not self.elements:
            return list(candidates)
        first = self.elements[0]
        # Largest token sum first: on backward searches the elements of
        # the largest sum not above a candidate's cover it most often.
        ordered = sorted(self.elements, key=sum, reverse=True)
        neg_sums = [-sum(x) for x in ordered]
        out: List[Marking] = []
        for m in candidates:
            first._check_domain(m)
            # Skip the elements whose token sum exceeds m's.
            for x in islice(ordered, bisect_left(neg_sums, -sum(m)), None):
                if all(map(le, x, m)):
                    break
            else:
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


def minimize(markings: Iterable[Marking]) -> Basis:
    """Drop every marking that lies above another one."""
    return _minimal((), markings)
