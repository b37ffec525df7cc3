"""Write the golden command-line fixture ``cli_golden.json``.

The fixture holds three small problem files and, for each command line
run on them, its exit code, standard output and standard error.  The
``solve`` cases cover every file, both target indices (the second is out
of range for the one-target files), the four invariant configurations
and the three preprocess modes, each printed three ways: the stats as
JSON with the witness, the stats as CSV, and the verdict alone.  Step
budgets 0 and 1 and ``bench`` under each preprocess mode, with a
deadline and with an unreadable file, complete it.  Timings are masked
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
}
CONFIGS = ("trivial", "sign", "state", "sign,state")
MODES = ("off", "once", "fixpoint")
PRINTS = (("--stats", "json", "--witness"), ("--stats", "csv"), ())
SOLVED = ("nets/pump.cover", "nets/stuck.cover", "nets/gate.spec")


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
