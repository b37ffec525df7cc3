"""coverlib benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload small-corpus --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates plain and traced passes over the same instances
and reports the per-layer metrics.  Both check every verdict against a
reference computed outside the timed region.  A human-readable summary
goes to standard output; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-instance
times (untraced) or spans (traced) are written under ``perfbench/out``.

End-to-end times are scaled to a reference host speed: host-speed
samples (``calibrate.py``) are taken between the timed instances, each
instance's time is multiplied by the reference sample time over the mean
of the samples just before and after it, and an instance is represented
by the median of its scaled passes.  The unscaled figures are printed in
the summary.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from typing import Dict, List, Optional, Tuple

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# An instance still undecided after this long fails; it never yields a
# verdict.  solve checks its deadline once per round, so it can overshoot.
GUARD_S = 20.0
# No instance starts after this many seconds of measuring, so a run ends
# well within the three minutes it is allowed; unstarted ones fail.
HARD_STOP_S = 120.0
SETUP_SAMPLES = 25
# Longest stretch of timed work between two host-speed samples.
SPEED_EVERY_NS = 10_000_000
WARM_UP = 20

# Times ``import coverlib`` in a fresh interpreter, then takes host-speed
# samples; ``calibrate`` is imported only after coverlib, so that its
# imports do not shorten coverlib's.
SETUP_CODE = ("import sys, time; t = time.perf_counter(); "
              "sys.path.insert(0, sys.argv[1]); import coverlib; "
              "d = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
              "import calibrate; "
              "print(d, sorted(calibrate.sample_ns() for _ in range(5))[2])")


def setup_seconds() -> Tuple[float, float]:
    """Median time a fresh interpreter takes to import coverlib, scaled
    to the reference host speed, and the same unscaled."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, HERE],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        seconds, speed_ns = done.stdout.split()
        raw.append(float(seconds))
        scaled.append(float(seconds) * calibrate.REFERENCE_NS / int(speed_ns))
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """Closed-loop passes over one workload's instances, and their checks."""

    def __init__(self, instances, hard_stop: float) -> None:
        self.instances = instances
        self.hard_stop = hard_stop
        # Per instance, start and duration in ns of each plain and each
        # traced pass, one after the other.  An array, so that what the
        # run keeps grows by 16 bytes a pass and barely moves peak_rss_mb.
        self.times_ns: Dict[str, List[array]] = {
            kind: [array("q") for _ in instances] for kind in ("plain", "traced")}
        # Host-speed samples as (start, end, sample) in ns, taken before
        # and after the timed instances (see ``scaled_ms``).
        self.speed: List[Tuple[int, int, int]] = []
        self.first: List = [None] * len(instances)
        self.failures: Dict[int, str] = {}
        self.passes = 0

    def sample_speed(self) -> None:
        started = time.perf_counter_ns()
        ns = calibrate.sample_ns()
        self.speed.append((started, started + ns, ns))

    def one_pass(self, stop_at: Optional[float] = None, tracer=None,
                 spans: Optional[list] = None) -> None:
        """Solve every instance once, in order.

        After the first pass, ``stop_at`` may cut the pass short.  A
        host-speed sample is taken at the start of the pass and after
        any instance that ends ``SPEED_EVERY_NS`` or more after the last
        sample, and the last instance timed is always followed by one.
        """
        from harness import timed_solve

        times_ns = self.times_ns["plain" if tracer is None else "traced"]
        self.sample_speed()
        unsampled = False
        for i, inst in enumerate(self.instances):
            now = time.monotonic()
            if self.passes and stop_at is not None and now >= stop_at:
                break
            if now >= self.hard_stop:
                for j in range(i, len(self.instances)):
                    if self.first[j] is None:
                        self.failures[j] = "not started before the run's time limit"
                break
            before = tracer.snapshot() if tracer is not None else None
            start = time.perf_counter_ns()
            outcome, ns = timed_solve(inst, min(now + GUARD_S, self.hard_stop))
            unsampled = True
            if start + ns - self.speed[-1][1] >= SPEED_EVERY_NS:
                self.sample_speed()
                unsampled = False
            if spans is not None:
                after = tracer.snapshot()
                spans.append({
                    "instance": inst.name, "pass": self.passes,
                    "start_ns": start, "end_ns": start + ns,
                    "verdict": outcome.verdict,
                    "self_ns": {k: v - before.get(k, 0) for k, v in after.items()
                                if v != before.get(k, 0)},
                })
            times_ns[i].extend((start, ns))
            if self.first[i] is None:
                self.first[i] = outcome
                if outcome.error is not None:
                    self.failures[i] = outcome.error
            elif (outcome.verdict, outcome.witness) != (self.first[i].verdict,
                                                        self.first[i].witness):
                self.failures.setdefault(i, "verdict or witness changed between passes")
        if unsampled:
            self.sample_speed()
        self.passes += 1

    def scaled_ms(self, kind: str) -> List[List[float]]:
        """Per instance, each pass's time in ms, scaled to the reference
        host speed by the mean of the speed samples just before and just
        after it."""
        starts = [s for s, _, _ in self.speed]
        ends = [e for _, e, _ in self.speed]
        out = []
        for times in self.times_ns[kind]:
            scaled = []
            for start, ns in zip(times[::2], times[1::2]):
                before = self.speed[bisect.bisect_right(ends, start) - 1][2]
                after = self.speed[bisect.bisect_left(starts, start + ns)][2]
                scaled.append(ns / 1e6 * calibrate.REFERENCE_NS * 2 / (before + after))
            out.append(scaled)
        return out

    def check_references(self) -> Dict[str, int]:
        """Compare first-pass verdicts with references; count their sources."""
        from harness import bfs_reference

        sources = {"hand": 0, "bfs": 0, "pinned": 0}
        for i, inst in enumerate(self.instances):
            outcome = self.first[i]
            if outcome is None or i in self.failures:
                continue
            if inst.expected is not None:
                expected, source = inst.expected, "hand"
            else:
                expected, source = bfs_reference(inst), "bfs"
                if expected is None:
                    expected, source = inst.pinned, "pinned"
            if expected is None:
                self.failures[i] = "no reference verdict"
                continue
            sources[source] += 1
            if outcome.verdict != expected:
                self.failures[i] = (f"verdict {outcome.verdict}, "
                                    f"{source} reference {expected}")
        return sources


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz's method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def regularized_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b), the CDF at ``x`` of the Beta(a, b) distribution."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, the weights peaking around
    rank ``q * n``; the estimate so rests on the instances near that
    rank rather than on the one at it, whose own noise would decide a
    nearest-rank quantile.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [regularized_beta(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def per_instance_ms(scaled: List[List[float]]) -> List[float]:
    """Each instance's median pass time.

    Pass times are already scaled to the reference host speed, which
    removes most of the host's drift; the median over passes removes
    what is left of it.
    """
    return [statistics.median(t) for t in scaled if t]


def end_to_end(run: Run) -> Dict[str, float]:
    per = per_instance_ms(run.scaled_ms("plain"))
    return {
        "instance_ms_p50": quantile(per, 0.5),
        "instance_ms_p90": quantile(per, 0.9),
        # One pass over the workload at those times.
        "instances_per_s": len(per) / (sum(per) / 1e3),
    }


def layer_shares(tracers) -> Dict[str, float]:
    """Share of all traced self time spent in each module."""
    ns: Dict[str, int] = {}
    for tracer in tracers:
        for layer, v in tracer.self_ns.items():
            module = layer.split(".")[0]
            ns[module] = ns.get(module, 0) + v
    total = sum(ns.values()) or 1
    return {module: v / total for module, v in
            sorted(ns.items(), key=lambda kv: kv[1], reverse=True)}


def layer_metrics(tracer) -> Dict[str, float]:
    calls, ns, counts = tracer.calls, tracer.self_ns, tracer.counts
    lp_calls = calls["ratlp.feasible"]
    cpre_calls = calls["net.cpre"]
    per_lp = (lambda x: x / lp_calls) if lp_calls else (lambda x: 0.0)
    seconds = {
        "ratlp.feasible_s": "ratlp.feasible", "ingest.parse_s": "ingest.parse",
        "upset.filter_s": "upset.filter", "upset.union_s": "upset.union",
        "net.cpre_s": "net.cpre", "net.replay_s": "net.replay",
        "invariants.build_s": "invariants.build",
        "preprocess.prune_s": "preprocess.prune",
        "invariants.sign_s": "invariants.sign",
        "invariants.state_s": "invariants.state",
        "invariants.trivial_s": "invariants.trivial",
        "solver.self_s": "solver",
    }
    out = {name: ns[layer] / 1e9 for name, layer in seconds.items()}
    out.update({
        "ratlp.calls": lp_calls,
        "ratlp.us_per_call": per_lp(ns["ratlp.feasible"] / 1e3),
        "ratlp.cells_per_call": per_lp(counts["ratlp.cells"]),
        "ratlp.infeasible_share": per_lp(counts["ratlp.infeasible"]),
        "ingest.bytes": counts["ingest.bytes"],
        "upset.candidates_tested": counts["upset.candidates_tested"],
        "upset.basis_peak": tracer.basis_peak,
        "upset.fresh_ratio": counts["upset.fresh"] / cpre_calls if cpre_calls else 0.0,
        "net.cpre_calls": cpre_calls,
        "preprocess.transitions_removed": counts["preprocess.transitions_removed"],
        "invariants.sign_queries": calls["invariants.sign"],
        "invariants.state_queries": calls["invariants.state"],
        "invariants.trivial_queries": calls["invariants.trivial"],
        "invariants.prune_ratio": (counts["invariants.rejected"]
                                   / max(1, counts["invariants.decided"])),
        "solver.rounds": counts["solver.rounds"],
    })
    return out


def fingerprint(tracer) -> Dict[str, int]:
    """Exact counts that must repeat for the same seed and program."""
    m = layer_metrics(tracer)
    keys = ("ratlp.calls", "net.cpre_calls", "invariants.sign_queries",
            "invariants.state_queries", "invariants.trivial_queries",
            "solver.rounds", "upset.basis_peak")
    fp = {k: m[k] for k in keys}
    fp.update({k: v for k, v in sorted(tracer.counts.items())
               if k.startswith("verdict.")})
    return fp


def traced_passes(run: Run, seconds: float, spans: list) -> list:
    """Alternate plain and traced passes while another pair fits in
    ``seconds``; return one Tracer per traced pass."""
    from layers import Tracer

    tracers = []
    end = time.monotonic() + seconds
    pair_s = 0.0
    while not tracers or time.monotonic() + pair_s < end:
        started = time.monotonic()
        run.one_pass()
        tracer = Tracer()
        with tracer.installed():
            run.one_pass(tracer=tracer, spans=spans)
        tracers.append(tracer)
        pair_s = time.monotonic() - started
    return tracers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coverlib", "__init__.py")):
        print(f"error: no coverlib sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import generate
    from harness import timed_solve

    if args.workload not in generate.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick from {', '.join(generate.WORKLOADS)}")
    instances = generate.instances(args.workload, args.seed)
    setup_s, setup_raw_s = setup_seconds() if not args.trace else (None, None)
    for inst in instances[:WARM_UP]:
        timed_solve(inst, time.monotonic() + GUARD_S)

    started = time.monotonic()
    run = Run(instances, started + HARD_STOP_S)
    spans: list = []
    if args.trace:
        tracers = traced_passes(run, args.seconds, spans)
    else:
        end = started + args.seconds
        while not run.passes or time.monotonic() < end:
            run.one_pass(stop_at=end)
    measured_s = time.monotonic() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sources = run.check_references()

    problems = []
    if args.trace:
        prints = [fingerprint(t) for t in tracers]
        if any(p != prints[0] for p in prints):
            problems.append("exact counts differ between traced passes")
        # Counts repeat exactly between passes; times are the fastest pass.
        per_pass = [layer_metrics(t) for t in tracers]
        metrics = {k: min(m[k] for m in per_pass) if isinstance(v, float) else v
                   for k, v in per_pass[0].items()}
        metrics["trace.overhead_ratio"] = (
            sum(per_instance_ms(run.scaled_ms("traced")))
            / sum(per_instance_ms(run.scaled_ms("plain"))))
    else:
        metrics = end_to_end(run)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb

    attempted = len(instances)
    failed = len(run.failures)
    mode = "trace" if args.trace else "plain"
    scaled = {kind: run.scaled_ms(kind) for kind in run.times_ns}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-{mode}.json"),
              "w", encoding="utf-8") as f:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "passes": run.passes, "measured_s": measured_s,
            "instances": [
                {"name": inst.name,
                 "verdict": run.first[i].verdict if run.first[i] else None,
                 "failure": run.failures.get(i),
                 **{f"{kind}_{field}": values
                    for kind in run.times_ns if run.times_ns[kind][i]
                    for field, values in (
                        ("start_ns", list(run.times_ns[kind][i][::2])),
                        ("wall_ms", [ns / 1e6 for ns in run.times_ns[kind][i][1::2]]),
                        ("scaled_ms", scaled[kind][i]))}}
                for i, inst in enumerate(instances)],
            "speed_samples_ns": run.speed,
            "spans": spans,
        }, f)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"instances {attempted}  passes {run.passes}  "
          f"measured {measured_s:.1f} s  references {sources}")
    speed = sorted(ns for _, _, ns in run.speed)
    print(f"host speed: {len(speed)} samples, median {speed[len(speed) // 2] / 1e6:.3f} ms, "
          f"fastest {speed[0] / 1e6:.3f} ms; times are scaled to "
          f"{calibrate.REFERENCE_NS / 1e6:.3f} ms (see calibrate.py)")
    if not args.trace:
        unscaled = [statistics.median(t[1::2]) / 1e6
                    for t in run.times_ns["plain"] if t]
        print(f"unscaled: instance_ms_p50 {quantile(unscaled, 0.5):.6g}  "
              f"instance_ms_p90 {quantile(unscaled, 0.9):.6g}  "
              f"instances_per_s {len(unscaled) / (sum(unscaled) / 1e3):.6g}  "
              f"setup_s {setup_raw_s:.6g}")
    for i, why in sorted(run.failures.items())[:10]:
        print(f"FAILED {instances[i].name}: {why}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"failed_share {failed / attempted:.4f} (of {attempted} instances)")
    units = unit_table()
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")
    if args.trace:
        print("fingerprint " + json.dumps(prints[0], sort_keys=True))
        print("self time by module: " + "  ".join(
            f"{group} {share:.1%}" for group, share in layer_shares(tracers).items()))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_table() -> Dict[str, str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    raise SystemExit(main())
