"""Petri net data model and firing semantics.

Markings are dense vectors of token counts indexed by place position.
Place and transition names are interned to dense indices when a net is
built; every core operation works on indices and plain Python integers,
so token counts and arc weights never overflow.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union


class Ordering(Enum):
    """Outcome of a component-wise comparison of two markings."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class Marking(tuple):
    """Token counts per place, as an immutable dense vector.

    The coverability order is component-wise and partial: use ``leq``,
    ``covers`` or ``compare``.  The comparison operators inherited from
    tuple keep their lexicographic meaning and are only used as an
    arbitrary total order for stable display output.
    """

    __slots__ = ()

    def __new__(cls, counts: Iterable[int] = ()) -> "Marking":
        self = super().__new__(cls, counts)
        for c in self:
            if not isinstance(c, int) or c < 0:
                raise ValueError(
                    f"token counts must be non-negative integers, got {c!r}"
                )
        return self

    def _check_domain(self, other: Sequence[int]) -> None:
        if len(self) != len(other):
            raise ValueError(
                f"marking domains differ: {len(self)} places vs {len(other)}"
            )

    def leq(self, other: Sequence[int]) -> bool:
        """Component-wise ``self <= other``."""
        self._check_domain(other)
        return all(a <= b for a, b in zip(self, other))

    def covers(self, other: Sequence[int]) -> bool:
        """Component-wise ``self >= other``."""
        self._check_domain(other)
        return all(a >= b for a, b in zip(self, other))

    def compare(self, other: Sequence[int]) -> Ordering:
        """Four-valued component-wise comparison.

        A single pass distinguishes less/equal/greater/incomparable, which
        is what antichain maintenance needs.
        """
        self._check_domain(other)
        below = above = False
        for a, b in zip(self, other):
            if a < b:
                below = True
            elif a > b:
                above = True
            if below and above:
                return Ordering.INCOMPARABLE
        if below:
            return Ordering.LESS
        if above:
            return Ordering.GREATER
        return Ordering.EQUAL

    def __repr__(self) -> str:
        return f"Marking({tuple(self)})"


class Displacement(tuple):
    """Net token change per place caused by firing one transition."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Displacement({tuple(self)})"


MarkingLike = Union[Marking, Sequence[int], Mapping[str, int]]


class PetriNet:
    """A place/transition net with weighted arcs and an initial marking.

    ``pre[t]`` and ``post[t]`` are dense weight vectors over places:
    what transition ``t`` consumes and produces.  Instances are immutable
    after construction and safe to share between threads.
    """

    __slots__ = ("places", "transitions", "initial", "pre", "post",
                 "_place_index", "_transition_index")

    def __init__(
        self,
        places: Iterable[str],
        transitions: Iterable[str],
        pre_arcs: Optional[Mapping[tuple, int]] = None,
        post_arcs: Optional[Mapping[tuple, int]] = None,
        initial: Optional[MarkingLike] = None,
    ) -> None:
        places = tuple(places)
        transitions = tuple(transitions)
        if not places:
            raise ValueError("a net needs at least one place")
        if len(set(places)) != len(places):
            raise ValueError("duplicate place names")
        if len(set(transitions)) != len(transitions):
            raise ValueError("duplicate transition names")
        clash = set(places) & set(transitions)
        if clash:
            raise ValueError(f"names used for both a place and a transition: {sorted(clash)}")
        self.places = places
        self.transitions = transitions
        self._place_index = {p: i for i, p in enumerate(places)}
        self._transition_index = {t: j for j, t in enumerate(transitions)}

        pre = [[0] * len(places) for _ in transitions]
        post = [[0] * len(places) for _ in transitions]
        for (p, t), w in (pre_arcs or {}).items():
            self._set_arc(pre, p, t, w, "input")
        for (t, p), w in (post_arcs or {}).items():
            self._set_arc(post, p, t, w, "output")
        self.pre = tuple(tuple(row) for row in pre)
        self.post = tuple(tuple(row) for row in post)
        self.initial = self.marking(initial if initial is not None else ())

    def _set_arc(self, table: list, p: str, t: str, w: int, what: str) -> None:
        if p not in self._place_index:
            raise ValueError(f"{what} arc names unknown place: {p!r}")
        if t not in self._transition_index:
            raise ValueError(f"{what} arc names unknown transition: {t!r}")
        if not isinstance(w, int) or w < 0:
            raise ValueError(f"arc weight must be a non-negative integer, got {w!r}")
        if w:
            table[self._transition_index[t]][self._place_index[p]] = w

    # -- name/index plumbing -------------------------------------------------

    def place_index(self, name: str) -> int:
        try:
            return self._place_index[name]
        except KeyError:
            raise ValueError(f"unknown place: {name!r}") from None

    def transition_index(self, name: str) -> int:
        try:
            return self._transition_index[name]
        except KeyError:
            raise ValueError(f"unknown transition: {name!r}") from None

    def marking(self, counts: MarkingLike) -> Marking:
        """Build a marking over this net's places.

        Accepts a dense sequence, or a mapping from place name to count
        where unlisted places get zero.  An empty sequence means the zero
        marking.
        """
        if isinstance(counts, Marking) and len(counts) == len(self.places):
            return counts
        if isinstance(counts, Mapping):
            dense = [0] * len(self.places)
            for name, c in counts.items():
                dense[self.place_index(name)] = c
            return Marking(dense)
        counts = tuple(counts)
        if counts == ():
            return Marking((0,) * len(self.places))
        if len(counts) != len(self.places):
            raise ValueError(
                f"expected {len(self.places)} counts, got {len(counts)}"
            )
        return Marking(counts)

    def _check_marking(self, m: Sequence[int]) -> None:
        if len(m) != len(self.places):
            raise ValueError(
                f"marking has {len(m)} entries but the net has {len(self.places)} places"
            )

    def _check_transition(self, t: int) -> None:
        if not isinstance(t, int) or not 0 <= t < len(self.transitions):
            raise IndexError(f"transition index out of range: {t!r}")

    def restrict(self, places: Sequence[int],
                 transitions: Sequence[int]) -> "PetriNet":
        """The subnet on the given place and transition indices, in order.

        Arcs between kept nodes and the initial tokens on kept places carry
        over; everything else is dropped.
        """
        if not all(0 <= p < len(self.places) for p in places):
            raise IndexError(f"place index out of range in {list(places)}")
        for t in transitions:
            self._check_transition(t)
        return PetriNet(
            places=(self.places[p] for p in places),
            transitions=(self.transitions[t] for t in transitions),
            pre_arcs={(self.places[p], self.transitions[t]): self.pre[t][p]
                      for t in transitions for p in places if self.pre[t][p]},
            post_arcs={(self.transitions[t], self.places[p]): self.post[t][p]
                       for t in transitions for p in places if self.post[t][p]},
            initial=Marking(self.initial[p] for p in places),
        )

    # -- semantics -----------------------------------------------------------

    def enabled(self, m: Marking, t: int) -> bool:
        """Whether ``t`` can fire at ``m`` (every input arc is covered)."""
        self._check_marking(m)
        self._check_transition(t)
        need = self.pre[t]
        return all(c >= n for c, n in zip(m, need))

    def fire(self, m: Marking, t: int) -> Optional[Marking]:
        """Successor of ``m`` under ``t``, or None when ``t`` is disabled."""
        self._check_marking(m)
        self._check_transition(t)
        need = self.pre[t]
        out = self.post[t]
        for c, n in zip(m, need):
            if c < n:
                return None
        return Marking(c - n + o for c, n, o in zip(m, need, out))

    def fire_sequence(self, m: Marking, ts: Iterable[int]) -> Optional[Marking]:
        """Fire ``ts`` in order from ``m``; None on the first disabled step."""
        cur = self.marking(m)
        for t in ts:
            nxt = self.fire(cur, t)
            if nxt is None:
                return None
            cur = nxt
        return cur

    def displacement(self, t: int) -> Displacement:
        """Net token change of ``t`` per place (produced minus consumed)."""
        self._check_transition(t)
        return Displacement(o - n for n, o in zip(self.pre[t], self.post[t]))

    def min_enabling_marking(self, t: int) -> Marking:
        """The least marking at which ``t`` is enabled (its input weights)."""
        self._check_transition(t)
        return Marking(self.pre[t])

    def cpre(self, t: int, m: Marking) -> Marking:
        """Least marking from which firing ``t`` yields a marking covering ``m``.

        The upward closure of the result is exactly the set of markings
        that reach the upward closure of ``m`` in one firing of ``t``.
        """
        self._check_marking(m)
        self._check_transition(t)
        need = self.pre[t]
        out = self.post[t]
        counts = (n + (c - o if c > o else 0) for n, o, c in zip(need, out, m))
        if isinstance(m, Marking):
            # m's counts were validated when it was built, and so are
            # these: each is an arc weight plus a non-negative difference.
            return tuple.__new__(Marking, counts)
        return Marking(counts)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (self.places == other.places
                and self.transitions == other.transitions
                and self.pre == other.pre
                and self.post == other.post
                and self.initial == other.initial)

    __hash__ = None  # nets are compared structurally, not used as dict keys

    def __repr__(self) -> str:
        return (f"PetriNet({len(self.places)} places, "
                f"{len(self.transitions)} transitions)")

    def transition_names(self, ts: Iterable[int]) -> list:
        return [self.transitions[t] for t in ts]
