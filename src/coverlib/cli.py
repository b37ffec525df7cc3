"""Command-line front end.

Subcommands: ``solve`` (backward search with invariant pruning),
``preprocess`` (dead-transition removal, emits the reduced problem),
``oracle`` (bounded forward exploration) and ``bench`` (CSV over a
directory of problem files).

``solve`` and ``bench`` share one pipeline, ``_run_instance``: every
COVERABLE witness is replayed on the unreduced input net, with or
without ``--witness``, and each run yields one record that the JSON and
CSV stats and the bench rows are all rendered from.

Exit codes: 0 coverable, 1 uncoverable, 2 usage or parse error,
3 inconclusive (step budget or timeout hit), 4 internal error (for
instance a witness that fails to replay on the input net; no verdict
is printed then), 141 when standard output is a pipe its reader closed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .ingest import ParseError, Problem, emit_native, parse_native
from .invariants import INVARIANT_KINDS, check_invariant_names, make_invariant
from .preprocess import prune_problem
from .refcheck import ExploreBound, OutcomeKind, bounded_cover
from .solver import IterationStats, SolveResult, Verdict, solve

_EXIT_BY_VERDICT = {Verdict.COVERABLE: 0, Verdict.UNCOVERABLE: 1,
                    Verdict.INCONCLUSIVE: 3}


class CliError(Exception):
    """Reported on stderr; always exits with status 2."""


def _read_input(path: str) -> Tuple[bytes, str]:
    # Standard input is read as bytes like a file, so the locale's stream
    # settings cannot let non-UTF-8 input through; the readers decode it
    # and place a bad byte by line and column.
    try:
        if path == "-":
            return sys.stdin.buffer.read(), "<stdin>"
        p = Path(path)
        return p.read_bytes(), p.stem
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load_problem(path: str, fmt: str) -> Problem:
    data, name = _read_input(path)
    if fmt == "auto":
        fmt = "mist" if path.endswith(".spec") else "native"
    try:
        if fmt == "mist":
            from .mist import parse_mist  # only .spec input reads MIST
            return parse_mist(data, name=name)
        return parse_native(data, name=name)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None


def _pick_target(problem: Problem, index: int):
    if not 0 <= index < len(problem.targets):
        raise CliError(
            f"target index {index} out of range; "
            f"the problem has {len(problem.targets)} target(s)"
        )
    return problem.targets[index]


def _parse_invariant_list(text: str) -> List[str]:
    names = [n.strip() for n in text.split(",") if n.strip()]
    try:
        return check_invariant_names(names)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _run_instance(
    problem: Problem,
    target_index: int,
    invariant_names: Sequence[str],
    preprocess_mode: str,
    budget_steps: Optional[int] = None,
    timeout: Optional[float] = None,
) -> Tuple[SolveResult, dict]:
    """The one pipeline behind ``solve`` and ``bench``: prune, build the
    invariant and search under one timer, which also starts the
    ``timeout`` clock, then replay any COVERABLE witness on the unreduced
    input net.  Returns the result and its run record.
    """
    target = _pick_target(problem, target_index)
    started = time.monotonic()
    deadline = None if timeout is None else started + timeout
    reduced, prep_doc = problem, None
    if preprocess_mode != "off":
        reduced, report = prune_problem(problem, mode=preprocess_mode)
        prep_doc = {
            "mode": report.mode,
            "rounds": len(report.rounds),
            "removed": list(report.removed),
            "dropped_places": list(report.dropped_places),
        }
    invariant = make_invariant(reduced.net, invariant_names)
    result = solve(reduced.net, reduced.targets[target_index], invariant,
                   budget_steps=budget_steps, deadline=deadline)
    wall_ms = round((time.monotonic() - started) * 1000.0, 3)

    witness = None
    if result.verdict is Verdict.COVERABLE:
        witness = reduced.net.transition_names(result.witness)
        # The names are stable under pruning; the verdict must hold on
        # the input net too.
        net = problem.net
        final = net.fire_sequence(net.initial, map(net.transition_index, witness))
        if final is None or not final.covers(target):
            raise AssertionError("witness failed to replay on the input net")
    iterations = [s._asdict() for s in result.stats]
    return result, {
        "problem": problem.name,
        "target_index": target_index,
        "invariant": result.invariant_name,
        "preprocess": prep_doc,
        "verdict": result.verdict.value,
        "target_in_invariant": result.target_in_invariant,
        "witness": witness,
        "iterations": iterations,
        "totals": {
            "iterations": len(iterations),
            "candidates_generated": sum(s.candidates_generated for s in result.stats),
            "new_after_antichain": sum(s.new_after_antichain for s in result.stats),
            "pruned_by_invariant": result.pruned_total,
            "kept": result.kept_total,
            "pruned_including_target": result.discarded_including_target,
            "lp_calls": result.lp_calls,
            "sign_checks": result.sign_checks,
            "final_basis_size": result.final_basis_size,
            "wall_ms": wall_ms,
        },
    }


def _print_stats_csv(record: dict) -> None:
    import csv
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(IterationStats._fields)
    writer.writerows(s.values() for s in record["iterations"])
    writer.writerow(())
    writer.writerow(record["totals"])
    writer.writerow(record["totals"].values())


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.budget_steps is not None and args.budget_steps < 0:
        raise CliError(f"--budget-steps must be >= 0, got {args.budget_steps}")
    problem = _load_problem(args.net, args.format)
    names = _parse_invariant_list(args.invariant)
    result, record = _run_instance(problem, args.target_index, names,
                                   args.preprocess, budget_steps=args.budget_steps)
    print(record["verdict"])
    if args.witness and record["witness"] is not None:
        print(" ".join(["witness:"] + record["witness"]))
    if args.stats == "json":
        import json
        print(json.dumps(record, indent=2))
    elif args.stats == "csv":
        _print_stats_csv(record)
    return _EXIT_BY_VERDICT[result.verdict]


def _cmd_preprocess(args: argparse.Namespace) -> int:
    if args.out != "-" and args.report != "-" and (
            Path(args.out).resolve() == Path(args.report).resolve()):
        raise CliError("--out and --report name the same file")
    problem = _load_problem(args.net, args.format)
    reduced, report = prune_problem(
        problem, mode=args.mode, use_state=args.use_state,
        drop_places=args.drop_places,
    )
    doc = {
        "mode": report.mode,
        "places_kept": list(reduced.net.places),
        "places_dropped": list(report.dropped_places),
        "transitions_removed": list(report.removed),
        "rounds": [r._asdict() for r in report.rounds],
    }
    try:
        text = emit_native(reduced)
    except ValueError as exc:
        raise CliError(f"{args.net}: {exc}") from None
    import json
    outputs = [(args.out, text, sys.stdout),
               (args.report, json.dumps(doc, indent=2) + "\n", sys.stderr)]
    # Files first, streams last, so a failed write leaves no partial result.
    written = []
    try:
        for path, text, _ in outputs:
            if path != "-":
                _write_output(path, text)
                written.append(path)
    except CliError:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise
    for path, text, stream in outputs:
        if path == "-":
            stream.write(text)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    problem = _load_problem(args.net, args.format)
    target = _pick_target(problem, args.target_index)
    try:
        bound = ExploreBound(per_place_cap=args.place_cap, node_cap=args.node_cap)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    outcome = bounded_cover(problem.net, target, bound)
    if outcome.kind is OutcomeKind.COVERABLE:
        print(f"COVERABLE depth={len(outcome.witness)}")
        if args.witness:
            print(" ".join(["witness:"] + problem.net.transition_names(outcome.witness)))
        return 0
    if outcome.kind is OutcomeKind.UNCOVERABLE_EXHAUSTED:
        print("UNCOVERABLE")
        return 1
    print("INCONCLUSIVE bound-hit")
    return 3


def _cmd_bench(args: argparse.Namespace) -> int:
    timeout = args.timeout_secs
    # nan would never expire and a negative value would expire at once.
    if timeout is not None and not (math.isfinite(timeout) and timeout >= 0):
        raise CliError(f"--timeout-secs must be a finite number >= 0, got {timeout}")
    root = Path(args.dir)
    if not root.is_dir():
        raise CliError(f"not a directory: {args.dir}")
    configs = [_parse_invariant_list(chunk)
               for chunk in args.invariants.split(";") if chunk.strip()]
    if not configs:
        raise CliError("no invariant configurations given")

    files = sorted(p for p in root.iterdir()
                   if p.suffix in (".cover", ".spec") and p.is_file())
    import csv
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["name", "invariant", "verdict", "iterations",
                     "basis_final_size", "candidates", "pruned",
                     "lp_calls", "millis"])
    failed = False
    for path in files:
        try:
            problem = _load_problem(str(path), args.format)
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True
            for names in configs:
                writer.writerow([path.stem, ",".join(names), "ERROR"]
                                + [""] * 6)
            continue
        many = len(problem.targets) > 1
        for target_index in range(len(problem.targets)):
            label = f"{problem.name}[{target_index}]" if many else problem.name
            for names in configs:
                writer.writerow(_bench_row(problem, target_index, names,
                                           label, args))
    return 2 if failed else 0


def _bench_row(problem: Problem, target_index: int, names: Sequence[str],
               label: str, args: argparse.Namespace) -> list:
    result, record = _run_instance(problem, target_index, names,
                                   args.preprocess, timeout=args.timeout_secs)
    verdict = record["verdict"]
    if result.inconclusive_reason == "deadline":
        verdict = "TIMEOUT"
    t = record["totals"]
    return [label, record["invariant"], verdict, t["iterations"],
            t["final_basis_size"], t["candidates_generated"],
            t["pruned_including_target"], t["lp_calls"], t["wall_ms"]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverlib",
        description="Petri-net coverability by invariant-pruned backward search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--net", required=True,
                       help="problem file, or - for standard input")
        p.add_argument("--format", choices=("auto", "native", "mist"),
                       default="auto",
                       help="input syntax; auto picks mist for .spec files")

    p_solve = sub.add_parser("solve", help="decide coverability backwards")
    add_common(p_solve)
    p_solve.add_argument("--target-index", type=int, default=0)
    kinds = ",".join(INVARIANT_KINDS)
    p_solve.add_argument("--invariant", default="sign,state",
                         help=f"comma list from {{{kinds}}}, "
                              "meaning their conjunction")
    p_solve.add_argument("--stats", choices=("json", "csv", "none"),
                         default="none")
    p_solve.add_argument("--witness", action="store_true",
                         help="print a replayed firing sequence when coverable")
    p_solve.add_argument("--budget-steps", type=int, default=None,
                         help="stop INCONCLUSIVE after this many search rounds")
    p_solve.set_defaults(func=_cmd_solve)

    p_prep = sub.add_parser("preprocess", help="remove dead transitions")
    add_common(p_prep)
    p_prep.add_argument("--mode", choices=("once", "fixpoint"),
                        default="fixpoint")
    p_prep.add_argument("--use-state", action="store_true",
                        help="also test enabling against the token-flow invariant")
    p_prep.add_argument("--drop-places", action="store_true",
                        help="drop always-empty places nothing references")
    p_prep.add_argument("--out", default="-",
                        help="where to write the reduced problem (default stdout)")
    p_prep.add_argument("--report", default="-",
                        help="where to write the JSON report (default stderr)")
    p_prep.set_defaults(func=_cmd_preprocess)

    p_oracle = sub.add_parser("oracle", help="bounded forward exploration")
    add_common(p_oracle)
    p_oracle.add_argument("--target-index", type=int, default=0)
    caps = ExploreBound._field_defaults
    p_oracle.add_argument("--place-cap", type=int, default=caps["per_place_cap"])
    p_oracle.add_argument("--node-cap", type=int, default=caps["node_cap"])
    p_oracle.add_argument("--witness", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_bench = sub.add_parser("bench", help="CSV benchmark over a directory")
    p_bench.add_argument("--dir", required=True)
    p_bench.add_argument("--format", choices=("auto", "native", "mist"),
                         default="auto")
    p_bench.add_argument("--invariants", default="trivial;sign,state",
                         help="semicolon-separated configurations, "
                              "each a comma list")
    p_bench.add_argument("--timeout-secs", type=float, default=None)
    p_bench.set_defaults(func=_cmd_bench)
    for p in (p_solve, p_bench):
        p.add_argument("--preprocess", choices=("once", "fixpoint", "off"),
                       default="fixpoint")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so a closed pipe is caught here, not at exit
        return status
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: flush to nowhere and exit as if killed by SIGPIPE.
        sys.stdout = open(os.devnull, "w")
        return 141
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
