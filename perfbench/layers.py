"""Outside-in tracing of coverlib's layers.

``Tracer.installed()`` wraps public callables of coverlib for the
duration of a ``with`` block and restores them afterwards.  Calls are
aggregated per layer into a count and a self time, the span's duration
minus the time its wrapped children took, so the per-layer times add up
to the traced work.  A few wrappers also read counts off the arguments
or the result.  The program itself is not changed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

import coverlib
import coverlib.invariants
from coverlib import (Basis, PetriNet, SignInvariant, StateInvariant,
                      TrivialInvariant)


class Tracer:
    """Per-layer call counts, self times and observed counts."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.basis_peak = 0
        # Child time of each open span, innermost last.
        self._stack: List[List[int]] = []

    def snapshot(self) -> Dict[str, int]:
        """Self time so far per layer, for spans at instance boundaries."""
        return dict(self.self_ns)

    def _wrap(self, layer: str, fn: Callable,
              observe: Optional[Callable] = None) -> Callable:
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            child = [0]
            stack.append(child)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[layer] += 1
                self_ns[layer] += elapsed - child[0]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- observers: counts read off arguments and results ----------------------

    def _parsed(self, args, result) -> None:
        text = args[0]
        self.counts["ingest.bytes"] += len(
            text.encode("utf-8") if isinstance(text, str) else text)

    def _pruned(self, args, result) -> None:
        self.counts["preprocess.transitions_removed"] += len(result[1].removed)

    def _solved(self, args, result) -> None:
        self.counts["solver.rounds"] += len(result.stats)
        self.counts["invariants.rejected"] += result.discarded_including_target
        # The target, then every candidate that survived the antichain.
        self.counts["invariants.decided"] += 1 + sum(
            s.new_after_antichain for s in result.stats)
        self.counts["verdict." + result.verdict.value] += 1

    def _filtered(self, args, result) -> None:
        self.counts["upset.candidates_tested"] += len(args[1])
        self.counts["upset.fresh"] += len(result)

    def _united(self, args, result) -> None:
        self.basis_peak = max(self.basis_peak, len(result))

    def _decided_lp(self, args, result) -> None:
        problem = args[0]
        self.counts["ratlp.cells"] += len(problem.a) * problem.num_vars
        if not result[0]:
            self.counts["ratlp.infeasible"] += 1

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layer boundaries; restore the originals on exit."""
        targets = [
            (coverlib, "parse_native", "ingest.parse", self._parsed),
            (coverlib, "prune_problem", "preprocess.prune", self._pruned),
            (coverlib, "make_invariant", "invariants.build", None),
            (coverlib, "solve", "solver", self._solved),
            (PetriNet, "cpre", "net.cpre", None),
            (PetriNet, "fire_sequence", "net.replay", None),
            (Basis, "filter_uncovered", "upset.filter", self._filtered),
            (Basis, "union", "upset.union", self._united),
            (SignInvariant, "member", "invariants.sign", None),
            (StateInvariant, "member", "invariants.state", None),
            (TrivialInvariant, "member", "invariants.trivial", None),
            # invariants.py imports feasible by name; patch that binding.
            (coverlib.invariants, "feasible", "ratlp.feasible", self._decided_lp),
        ]
        saved = []
        try:
            for owner, name, layer, observe in targets:
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original, observe))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
