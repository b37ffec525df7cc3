"""Command-line front end.

Subcommands: ``solve`` (backward search with invariant pruning),
``preprocess`` (dead-transition removal, emits the reduced problem),
``oracle`` (bounded forward exploration) and ``bench`` (CSV over a
directory of problem files).

Exit codes: 0 coverable, 1 uncoverable, 2 usage or parse error,
3 inconclusive (step budget or timeout hit), 4 internal error (for
instance a witness that fails to replay on the input net).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .ingest import ParseError, Problem, emit_native, parse_mist, parse_native
from .invariants import INVARIANT_KINDS, check_invariant_names, make_invariant
from .preprocess import prune_problem
from .refcheck import ExploreBound, OutcomeKind, bounded_cover
from .solver import SolveResult, Verdict, solve

_EXIT_BY_VERDICT = {Verdict.COVERABLE: 0, Verdict.UNCOVERABLE: 1,
                    Verdict.INCONCLUSIVE: 3}


class CliError(Exception):
    """Reported on stderr; always exits with status 2."""


def _read_input(path: str) -> Tuple[str, str]:
    # Standard input is read as bytes and decoded like a file, so the
    # locale's stream settings cannot let non-UTF-8 input through.
    try:
        if path == "-":
            data, name = sys.stdin.buffer.read(), "<stdin>"
        else:
            p = Path(path)
            data, name = p.read_bytes(), p.stem
        return data.decode("utf-8"), name
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load_problem(path: str, fmt: str) -> Problem:
    text, name = _read_input(path)
    if fmt == "auto":
        fmt = "mist" if path.endswith(".spec") else "native"
    try:
        if fmt == "mist":
            return parse_mist(text, name=name)
        return parse_native(text, name=name)
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
    if not names:
        raise CliError("empty invariant list")
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
    deadline: Optional[float] = None,
) -> Tuple[SolveResult, Problem, Optional[dict]]:
    """Shared solve pipeline: optional pruning, then the backward search."""
    target = _pick_target(problem, target_index)
    prep_doc = None
    if preprocess_mode != "off":
        problem, report = prune_problem(problem, mode=preprocess_mode)
        target = problem.targets[target_index]
        prep_doc = {
            "mode": report.mode,
            "rounds": len(report.rounds),
            "removed": list(report.removed),
            "dropped_places": list(report.dropped_places),
        }
    invariant = make_invariant(problem.net, invariant_names)
    result = solve(problem.net, target, invariant,
                   budget_steps=budget_steps, deadline=deadline)
    return result, problem, prep_doc


def _stats_doc(problem_name: str, target_index: int, result: SolveResult,
               net, prep_doc: Optional[dict], wall_ms: float) -> dict:
    witness = None
    if result.witness is not None:
        witness = [net.transitions[t] for t in result.witness]
    return {
        "problem": problem_name,
        "target_index": target_index,
        "invariant": result.invariant_name,
        "preprocess": prep_doc,
        "verdict": result.verdict.value,
        "target_in_invariant": result.target_in_invariant,
        "witness": witness,
        "iterations": [
            {
                "index": s.index,
                "basis_size": s.basis_size,
                "candidates_generated": s.candidates_generated,
                "new_after_antichain": s.new_after_antichain,
                "pruned_by_invariant": s.pruned_by_invariant,
                "kept": s.kept,
            }
            for s in result.stats
        ],
        "totals": {
            "iterations": len(result.stats),
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


def _print_stats_csv(doc: dict) -> None:
    print("index,basis_size,candidates_generated,new_after_antichain,"
          "pruned_by_invariant,kept")
    for s in doc["iterations"]:
        print(f"{s['index']},{s['basis_size']},{s['candidates_generated']},"
              f"{s['new_after_antichain']},{s['pruned_by_invariant']},{s['kept']}")
    print()
    t = doc["totals"]
    print("iterations,candidates_generated,new_after_antichain,"
          "pruned_by_invariant,kept,pruned_including_target,lp_calls,"
          "sign_checks,final_basis_size,wall_ms")
    print(f"{t['iterations']},{t['candidates_generated']},"
          f"{t['new_after_antichain']},{t['pruned_by_invariant']},{t['kept']},"
          f"{t['pruned_including_target']},{t['lp_calls']},{t['sign_checks']},"
          f"{t['final_basis_size']},{t['wall_ms']}")


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.budget_steps is not None and args.budget_steps < 0:
        raise CliError(f"--budget-steps must be >= 0, got {args.budget_steps}")
    problem = _load_problem(args.net, args.format)
    original_net = problem.net
    names = _parse_invariant_list(args.invariant)
    started = time.monotonic()
    result, reduced, prep_doc = _run_instance(
        problem, args.target_index, names, args.preprocess,
        budget_steps=args.budget_steps,
    )
    wall_ms = round((time.monotonic() - started) * 1000.0, 3)

    witness_line = None
    if args.witness and result.verdict is Verdict.COVERABLE:
        names_seq = [reduced.net.transitions[t] for t in result.witness]
        # Replay on the unreduced net: the names are stable, the verdict
        # must hold there too.  A failure is an internal error (exit 4),
        # reported before any verdict is printed.
        idx = [original_net.transition_index(n) for n in names_seq]
        final = original_net.fire_sequence(original_net.initial, idx)
        target = _pick_target(problem, args.target_index)
        if final is None or not final.covers(target):
            raise AssertionError("witness failed to replay on the input net")
        witness_line = " ".join(["witness:"] + names_seq)
    print(result.verdict.value)
    if witness_line is not None:
        print(witness_line)
    if args.stats != "none":
        doc = _stats_doc(problem.name, args.target_index, result,
                         reduced.net, prep_doc, wall_ms)
        if args.stats == "json":
            print(json.dumps(doc, indent=2))
        else:
            _print_stats_csv(doc)
    return _EXIT_BY_VERDICT[result.verdict]


def _cmd_preprocess(args: argparse.Namespace) -> int:
    problem = _load_problem(args.net, args.format)
    reduced, report = prune_problem(
        problem, mode=args.mode, use_state=args.use_state,
        drop_places=args.drop_places,
    )
    text = emit_native(reduced)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_output(args.out, text)
    doc = {
        "mode": report.mode,
        "places_kept": list(reduced.net.places),
        "places_dropped": list(report.dropped_places),
        "transitions_removed": list(report.removed),
        "rounds": [
            {"removed": list(r.removed), "always_empty": list(r.always_empty)}
            for r in report.rounds
        ],
    }
    payload = json.dumps(doc, indent=2)
    if args.report == "-":
        print(payload, file=sys.stderr)
    else:
        _write_output(args.report, payload + "\n")
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
            names = [problem.net.transitions[t] for t in outcome.witness]
            print(("witness: " + " ".join(names)) if names else "witness:")
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
    configs = []
    for chunk in args.invariants.split(";"):
        chunk = chunk.strip()
        if chunk:
            configs.append(_parse_invariant_list(chunk))
    if not configs:
        raise CliError("no invariant configurations given")

    files = sorted(p for p in root.iterdir()
                   if p.suffix in (".cover", ".spec") and p.is_file())
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
    deadline = None
    started = time.monotonic()
    if args.timeout_secs is not None:
        deadline = started + args.timeout_secs
    result, _, _ = _run_instance(problem, target_index, names,
                                 args.preprocess, deadline=deadline)
    millis = round((time.monotonic() - started) * 1000.0, 3)
    verdict = result.verdict.value
    if (result.verdict is Verdict.INCONCLUSIVE
            and result.inconclusive_reason == "deadline"):
        verdict = "TIMEOUT"
    return [label, ",".join(names), verdict, len(result.stats),
            result.final_basis_size,
            sum(s.candidates_generated for s in result.stats),
            result.discarded_including_target, result.lp_calls, millis]


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
    p_solve.add_argument("--preprocess", choices=("once", "fixpoint", "off"),
                         default="fixpoint")
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
    p_oracle.add_argument("--place-cap", type=int, default=10)
    p_oracle.add_argument("--node-cap", type=int, default=200000)
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
    p_bench.add_argument("--preprocess", choices=("once", "fixpoint", "off"),
                         default="fixpoint")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
