"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Run from the root of a scrollres checkout.  Small real CLI operations
must pass the gate; each tampered copy of their output must fail it, and
so must a repeated operation whose output differs.  Exits 1 if any gate
misbehaves, 0 when all behave (a few seconds).
"""
from __future__ import annotations

import json
import os
import random
import sys
import time

import run
from workloads import EXPORT_FILE, WORKLOADS, check_output


def _set(path, value):
    """Tamper: set doc[path...] = value."""
    def tamper(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return tamper


def _bump(text):
    return str(int(text) + 1)


CASES = [
    (["verify", "--scroll", "3,3", "--steps", "3", "--seed", "7"], [
        _set(["checks", 0, "verdict"], "fail"),
        _set(["checks"], lambda reports: reports[:-1]),
        _set(["seed"], 8),
    ]),
    (["verify", "--scroll", "3,3", "--steps", "3",
      "--checks", "complex,minimal,minors"], [
        _set(["checks", -1, "verdict"], "fail"),
        _set(["checks"], lambda reports: reports[1:]),
    ]),
    (["oracle", "--compare", "--imax", "2", "--scroll", "4", "--modulus", "101"], [
        _set(["diagonal", 2], _bump),
        _set(["ok"], False),
        _set(["modulus"], 32003),
    ]),
    (["resolve", "--scroll", "3,3", "--steps", "3", "--format", "json",
      "--out", EXPORT_FILE], [
        _set(["ranks", 2], _bump),
        _set(["steps", 1, "cols"], lambda c: c + 1),
        _set(["steps"], lambda steps: steps[:-1]),
    ]),
    (["hilbert", "--format", "json", "--scroll", "2,3"], [
        _set(["f_vector", 1], _bump),
        _set(["hilbert", "num", 1], _bump),
        _set(["hilbert", "den", 0], "-1"),
        _set(["poincare", 3], _bump),
    ]),
    (["faces", "--format", "json", "--scroll", "2,3"], [
        _set(["f_vector", 2], _bump),
    ]),
    (["betti", "--format", "json", "--max", "5", "--scroll", "2,3"], [
        _set(["betti", 4], _bump),
    ]),
]


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    failures = []
    for args, tampers in CASES:
        op = run.run_op(src, args, traced=False, timeout=60)
        if op.error is not None:
            failures.append(f"{args}: genuine output rejected: {op.error}")
            continue
        to_file = "--out" in args
        raw = run._read(os.path.join(run.WORK, EXPORT_FILE if to_file else "stdout"))
        if check_output(args, 1, raw, raw) is None:
            failures.append(f"{args}: exit code 1 accepted")
        accepted = []
        for i, tamper in enumerate(tampers):
            doc = json.loads(raw)
            tamper(doc)
            bad = json.dumps(doc).encode()
            stdout, out_file = (b"", bad) if to_file else (bad, None)
            if check_output(args, 0, stdout, out_file) is None:
                accepted.append(i)
        if accepted:
            failures.append(f"{args}: tampered outputs {accepted} accepted")
        else:
            print(f"ok: {' '.join(args)} ({len(tampers)} tampered copies rejected)")

    # a repeated operation whose output digest differs is a failed operation
    outputs = iter(["a", "b"])
    genuine = run.run_op

    def fake_run_op(src, args, traced, timeout):
        op = genuine(src, args, traced, timeout)
        op.digest = next(outputs)
        return op

    run.run_op = fake_run_op
    try:
        ops = run.run_rounds(src, [CASES[-1][0]] * 2, 0, False,
                             time.perf_counter() + 60)
    finally:
        run.run_op = genuine
    if ops[1].error is None:
        failures.append("differing output of repeated arguments accepted")
    else:
        print("ok: differing output of repeated arguments rejected")

    for name, build in WORKLOADS.items():
        if build(random.Random(5)) != build(random.Random(5)):
            failures.append(f"workload {name} is not a function of the seed")
    for failure in failures:
        print("FAIL: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
