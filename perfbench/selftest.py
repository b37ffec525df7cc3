"""Self-test of the benchmark's exact counts, at a reduced size.

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --record   # rewrite fingerprints.json

For each workload, two fresh interpreters each run one traced pass over
a tenth of the workload (seed 1) and print its fingerprint: the exact
counts ``ratlp.calls``, ``net.cpre_calls``, ``invariants.*_queries``,
``solver.rounds``, ``upset.basis_peak`` and the verdict tally.  The test
fails unless the two fingerprints are identical and every verdict
matches its reference.  It then names each count that differs from
``fingerprints.json``, recorded at the seed commit, so a change can say
in advance which counts it moves and show that the others did not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "fingerprints.json")
SEED = 1
SCALE = 0.1


def child(workload: str) -> None:
    import run
    sys.path.insert(0, run.SRC)
    import generate
    from layers import Tracer

    instances = generate.instances(workload, SEED, SCALE)
    one = run.Run(instances, time.monotonic() + run.HARD_STOP_S)
    tracer = Tracer()
    with tracer.installed():
        one.one_pass(tracer=tracer)
    one.check_references()
    fp = run.fingerprint(tracer)
    fp["failed"] = len(one.failures)
    print(json.dumps(fp, sort_keys=True))


def fingerprint_in_fresh_process(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", workload],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1])
        return 0
    sys.path.insert(0, HERE)
    from generate import WORKLOADS

    record = argv == ["--record"]
    baseline = {}
    if not record:
        with open(BASELINE, encoding="utf-8") as f:
            baseline = json.load(f)
    ok = True
    prints = {}
    for workload in WORKLOADS:
        first = fingerprint_in_fresh_process(workload)
        second = fingerprint_in_fresh_process(workload)
        prints[workload] = first
        if first != second:
            ok = False
            print(f"{workload}: NOT REPEATABLE {first} vs {second}")
        if first["failed"]:
            ok = False
            print(f"{workload}: {first['failed']} instances failed")
        for key, value in first.items():
            old = baseline.get(workload, {}).get(key)
            if not record and old != value:
                print(f"{workload}: {key} changed {old} -> {value}")
        print(f"{workload}: " + json.dumps(first, sort_keys=True))
    if record:
        with open(BASELINE, "w", encoding="utf-8") as f:
            json.dump(prints, f, indent=2, sort_keys=True)
            f.write("\n")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
