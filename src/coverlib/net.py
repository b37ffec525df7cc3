"""Petri net data model and firing semantics.

Markings are dense vectors of token counts indexed by place position.
Place and transition names are interned to dense indices when a net is
built; every core operation works on indices and plain Python integers,
so token counts and arc weights never overflow.  ``PetriNet.marking``
is the one conversion and check of a marking: every public entry that
takes one reads it there, the constructor's ``initial`` included.
The hot entries, like ``cpre``, take a ``Marking`` of the net's length inline.

A net is validated once, where it enters the library: the public
``PetriNet`` constructor checks names, arcs, weights and the initial
marking, the parsers check the text they read, and ``restrict`` checks
its index lists.  All three then store the net through one private build
path, ``PetriNet._checked``: it trusts its dense rows and builds the row
tuples and arc lists in one loop per transition.  The preprocessor's
subnets on every place come from ``_keep_transitions``, which shares its
parent's places, initial marking and rows, which no net ever changes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Union


class Marking(tuple):
    """Token counts per place, as an immutable dense vector.

    The coverability order is component-wise and partial: use ``leq`` or
    ``covers``.  The comparison operators inherited from tuple keep their
    lexicographic meaning and are only used as an arbitrary total order
    for stable display output.
    """

    __slots__ = ()

    def __new__(cls, counts: Iterable[int] = ()) -> "Marking":
        self = super().__new__(cls, counts)
        for c in self:
            if type(c) is not int or c < 0:  # bool is no count: see _check_index
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

    def __repr__(self) -> str:
        return f"Marking({tuple(self)})"


MarkingLike = Union[Marking, Sequence[int], Mapping[str, int]]


def _check_index(i: int, count: int, what: str) -> None:
    # bool is a subclass of int but no index: type(i), not isinstance.
    if type(i) is not int or not 0 <= i < count:
        raise IndexError(f"{what} index {i!r} is not an int in range({count})")


class PetriNet:
    """A place/transition net with weighted arcs and an initial marking.

    ``pre[t]`` and ``post[t]`` are dense weight vectors over places:
    what transition ``t`` consumes and produces.  The constructor
    validates its arguments once; ``_checked`` is the build path behind
    it, and the parsers and ``restrict`` call it directly with rows they
    have already checked.

    ``_arcs[t]``, built with the net, lists the ``(place, pre, post)``
    triples of the places where transition ``t`` has a nonzero weight,
    for ``cpre`` and the sign fixpoint.  Instances are immutable after
    construction and safe to share between threads.  The private slot
    ``_sign`` is filled lazily with the net's sign analysis, once
    ``invariants.sign_analysis`` has computed it; threads that race on
    it compute and write the same value.  A subnet starts with it empty;
    the preprocessor then hands one that only lost sign-dead transitions
    the fixpoint it already has.
    """

    __slots__ = ("places", "transitions", "initial", "pre", "post",
                 "_place_index", "_transition_index", "_sign", "_arcs")

    def __init__(
        self,
        places: Iterable[str],
        transitions: Iterable[str],
        pre_arcs: Optional[Mapping[tuple, int]] = None,
        post_arcs: Optional[Mapping[tuple, int]] = None,
        initial: Optional[MarkingLike] = None,
    ) -> None:
        for kind, names in (("place", places), ("transition", transitions)):
            if isinstance(names, str):  # it would be read letter by letter
                raise ValueError(f"{kind} names must be a list such as "
                                 f"['a', 'b'], not the string {names!r}")
        places = tuple(places)
        transitions = tuple(transitions)
        place_index = {p: i for i, p in enumerate(places)}
        transition_index = {t: j for j, t in enumerate(transitions)}
        if not places:
            raise ValueError("a net needs at least one place")
        if len(place_index) != len(places):
            raise ValueError("duplicate place names")
        if len(transition_index) != len(transitions):
            raise ValueError("duplicate transition names")
        clash = place_index.keys() & transition_index.keys()
        if clash:
            raise ValueError(f"names used for both a place and a transition: {sorted(clash)}")
        pre = [[0] * len(places) for _ in transitions]
        post = [[0] * len(places) for _ in transitions]
        for what, arcs, rows in (("input", pre_arcs, pre), ("output", post_arcs, post)):
            for (a, b), w in (arcs or {}).items():
                p, t = (a, b) if rows is pre else (b, a)
                if p not in place_index:
                    raise ValueError(f"{what} arc names unknown place: {p!r}")
                if t not in transition_index:
                    raise ValueError(f"{what} arc names unknown transition: {t!r}")
                if type(w) is not int or w < 0:
                    raise ValueError(f"arc weight must be a non-negative integer, got {w!r}")
                rows[transition_index[t]][place_index[p]] = w
        self._store(places, transitions, pre, post, [0] * len(places))
        self.initial = self.marking(() if initial is None else initial)

    @classmethod
    def _checked(cls, places: Union[Sequence[str], Dict[str, int]],
                 transitions: Sequence[str],
                 pre: Iterable[Iterable[int]], post: Iterable[Iterable[int]],
                 initial: Iterable[int]) -> "PetriNet":
        """A net from dense rows that the caller has already validated.

        The caller guarantees what the constructor checks: at least one
        place, every name distinct, and one non-negative integer per
        place in each row of ``pre`` and ``post`` and in ``initial``.
        ``places`` may be a dict from each name to its column, in column
        order, that no one changes later; the net keeps it as its index.
        One loop per transition stores its two rows as tuples (a tuple is
        kept as it is, a list copied) and builds its arc list.
        """
        net = cls.__new__(cls)
        net._store(places, transitions, pre, post, initial)
        return net

    def _store(self, places, transitions, pre, post, initial) -> None:
        self.places = tuple(places)
        self._place_index = (places if type(places) is dict
                             else {p: i for i, p in enumerate(self.places)})
        self.initial = tuple.__new__(Marking, initial)
        columns = range(len(self.places))
        needs, gives, arcs = [], [], []
        for need, give in zip(pre, post):
            need, give = tuple(need), tuple(give)
            needs.append(need)
            gives.append(give)
            arcs.append([(p, n, o) for p, n, o in zip(columns, need, give) if n or o])
        self._store_transitions(transitions, tuple(needs), tuple(gives), tuple(arcs))

    def _store_transitions(self, transitions, pre, post, arcs) -> None:
        self.transitions = tuple(transitions)
        self._transition_index = {t: j for j, t in enumerate(self.transitions)}
        self.pre, self.post, self._arcs = pre, post, arcs
        self._sign = None

    def _keep_transitions(self, transitions: Sequence[int]) -> "PetriNet":
        """The subnet on every place and on ``transitions``, indices the
        caller checked; without a sign analysis, sharing all else it can."""
        net = PetriNet.__new__(PetriNet)
        net.places, net._place_index, net.initial = (
            self.places, self._place_index, self.initial)
        net._store_transitions(
            [self.transitions[t] for t in transitions],
            tuple([self.pre[t] for t in transitions]),
            tuple([self.post[t] for t in transitions]),
            tuple([self._arcs[t] for t in transitions]))
        return net

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
        """``counts`` as a marking of this net; ValueError if it is none.

        Takes one count per place as any sequence, a mapping from place
        name to count where unlisted places get zero, or ``()`` for the
        zero marking.  A count is a non-negative ``int``, never a bool.
        """
        if isinstance(counts, Marking) and len(counts) == len(self.places):
            return counts
        n = len(self.places)
        if isinstance(counts, Mapping):
            dense = [0] * n
            for name, c in counts.items():
                dense[self.place_index(name)] = c
            return Marking(dense)
        m = Marking(counts)
        if not m:
            return Marking((0,) * n)
        if len(m) != n:
            raise ValueError(f"expected {n} counts, got {len(m)}")
        return m

    def restrict(self, places: Sequence[int],
                 transitions: Sequence[int]) -> "PetriNet":
        """The subnet on the given place and transition indices, in order.

        Arcs between kept nodes and the initial tokens on kept places carry
        over; everything else is dropped.  The subnet is built through
        ``_checked`` and starts without a stored sign analysis.
        """
        for p in places:
            _check_index(p, len(self.places), "place")
        for t in transitions:
            _check_index(t, len(self.transitions), "transition")
        if not places:
            raise ValueError("a net needs at least one place")
        if len(set(places)) != len(places) or len(set(transitions)) != len(transitions):
            raise ValueError("duplicate indices in a restriction")
        return PetriNet._checked(
            [self.places[p] for p in places],
            [self.transitions[t] for t in transitions],
            [[self.pre[t][p] for p in places] for t in transitions],
            [[self.post[t][p] for p in places] for t in transitions],
            [self.initial[p] for p in places],
        )

    # -- semantics -----------------------------------------------------------

    def fire(self, m: MarkingLike, t: int) -> Optional[Marking]:
        """Successor of ``m`` under ``t``, or None when ``t`` is disabled.

        Built unchecked: ``t`` is enabled, so every count is a non-negative int."""
        m = self.marking(m)
        _check_index(t, len(self.transitions), "transition")
        need = self.pre[t]
        for c, n in zip(m, need):
            if c < n:
                return None
        return tuple.__new__(Marking, [c - n + o for c, n, o in zip(m, need, self.post[t])])

    def fire_sequence(self, m: MarkingLike, ts: Iterable[int]) -> Optional[Marking]:
        """Fire ``ts`` in order from ``m``; None on the first disabled step."""
        cur = self.marking(m)
        for t in ts:
            nxt = self.fire(cur, t)
            if nxt is None:
                return None
            cur = nxt
        return cur

    def min_enabling_marking(self, t: int) -> Marking:
        """The least marking at which ``t`` is enabled (its input weights)."""
        _check_index(t, len(self.transitions), "transition")
        # The row was validated when the net was built.
        return tuple.__new__(Marking, self.pre[t])

    def cpre(self, t: int, m: MarkingLike) -> Marking:
        """Least marking from which firing ``t`` yields a marking covering ``m``.

        The upward closure of the result is exactly the set of markings
        that reach the upward closure of ``m`` in one firing of ``t``.
        Only the places ``t`` has arcs on differ from ``m``.  Unless ``m``
        is a ``Marking`` of this net and ``t`` an index in range, both are
        read through ``marking`` and ``_check_index``.
        """
        if (type(m) is not Marking or len(m) != len(self.places)
                or type(t) is not int or not 0 <= t < len(self._arcs)):
            m = self.marking(m)
            _check_index(t, len(self.transitions), "transition")
        counts = list(m)
        for p, n, o in self._arcs[t]:
            c = m[p]
            counts[p] = n + c - o if c > o else n
        # m's counts were validated when it was built, and so are these:
        # each is an arc weight plus a non-negative difference.
        return tuple.__new__(Marking, counts)

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
