"""Write the golden command-line fixture ``cli_golden.json``.

The fixture holds four small problem files and, for each command line
run on them, its exit code, standard output and standard error.  The
``solve`` cases cover the three files under ``nets/``, both target
indices (the second is out of range for the one-target files), the four
invariant configurations and the three preprocess modes, each printed
three ways: the stats as JSON with the witness, the stats as CSV, and
the verdict alone.  Step budgets 0 and 1 and ``bench`` under each
preprocess mode, with a deadline and with an unreadable file, follow.
``preprocess`` runs on those three files and on ``prep/cascade.cover``
under both modes, with and without ``--use-state`` and
``--drop-places``, and ``oracle --witness`` asks both target indices of
the same four files.  Timings are masked
(see ``test_cli.golden_run``); everything else must match byte for byte.
Run from the repository root::

    PYTHONPATH=src:tests python tests/data/make_cli_golden.py \\
        > tests/data/cli_golden.json
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from conftest import PUMP_TEXT, STUCK_TEXT
from test_cli import GATE_SPEC, golden_run, write_golden_files

FILES = {
    "nets/pump.cover": PUMP_TEXT,
    "nets/stuck.cover": STUCK_TEXT,
    "nets/gate.spec": GATE_SPEC,
    "bad/latin1.cover": PUMP_TEXT + "# café\n",
    "bad/pump.cover": PUMP_TEXT,
    # test_preprocess.make_cascade_net, which the token-flow test prunes
    # in two rounds; its second target holds initially, so the oracle
    # prints an empty witness.  Kept out of nets/ so the bench rows stay.
    "prep/cascade.cover": """\
places: a b c d
transitions:
u: in b out a ;
t1: in a*2 out c*4 ;
t2: in c out d ;
init: b=1
target: d>=1
target: b>=1
""",
}
CONFIGS = ("trivial", "sign", "state", "sign,state")
MODES = ("off", "once", "fixpoint")
PRINTS = (("--stats", "json", "--witness"), ("--stats", "csv"), ())
SOLVED = ("nets/pump.cover", "nets/stuck.cover", "nets/gate.spec")
PRUNED = SOLVED + ("prep/cascade.cover",)


def argvs():
    for net in SOLVED:
        for index in ("0", "1"):
            for config in CONFIGS:
                for mode in MODES:
                    for extra in PRINTS:
                        yield ["solve", "--net", net, "--target-index", index,
                               "--invariant", config, "--preprocess", mode,
                               *extra]
    for net in SOLVED:
        for steps in ("0", "1"):
            for stats in ("csv", "json"):
                yield ["solve", "--net", net, "--budget-steps", steps,
                       "--stats", stats]
    bench = ["bench", "--dir", "nets", "--invariants", ";".join(CONFIGS)]
    for mode in MODES:
        yield bench + ["--preprocess", mode]
    yield bench + ["--timeout-secs", "0"]
    yield ["bench", "--dir", "bad", "--invariants", "trivial;sign,state"]
    for net in PRUNED:
        for mode in ("once", "fixpoint"):
            for state in ((), ("--use-state",)):
                for drop in ((), ("--drop-places",)):
                    yield ["preprocess", "--net", net, "--mode", mode,
                           *state, *drop]
    for net in PRUNED:
        for index in ("0", "1"):
            yield ["oracle", "--net", net, "--target-index", index, "--witness"]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_golden_files(Path(tmp), FILES)
        home = os.getcwd()
        os.chdir(tmp)
        try:
            cases = [golden_run(argv) for argv in argvs()]
        finally:
            os.chdir(home)
    json.dump({"files": FILES, "cases": cases}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
