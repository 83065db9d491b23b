"""Workload definitions and the per-operation correctness gate.

A workload maps a seed to one *round*: a fixed list of CLI argument
lists.  run.py repeats whole rounds, so every argument list runs equally
often.  The seed varies only what keeps the work of an operation the same
size: the `--seed` of the probes, the prime, and the order of blocks.

The gate recomputes every expected value from the closed forms of the
paper (the Betti numbers as a binomial sum, the f-vector, the Hilbert
series), without importing scrollres.
"""
from __future__ import annotations

import json
import random
from math import comb

EXPORT_FILE = "export.json"  # --out target, relative to the work directory


def _permuted(rng: random.Random, blocks: list[int]) -> str:
    blocks = list(blocks)
    rng.shuffle(blocks)
    return ",".join(map(str, blocks))


def probe(rng: random.Random) -> list[list[str]]:
    blocks = rng.choice(["4,5", "5,4"])
    modulus = rng.choice([31991, 32003, 32009])
    return [["verify", "--scroll", blocks, "--steps", "5",
             "--modulus", str(modulus), "--seed", str(rng.randrange(10**6))]]


def oracle(rng: random.Random) -> list[list[str]]:
    modulus = str(rng.choice([32003, 65537, 101]))
    return [["oracle", "--compare", "--imax", "4", "--scroll", s,
             "--modulus", modulus] for s in ("6", "3,3", "2,2,2")]


def exact(rng: random.Random) -> list[list[str]]:
    return [["verify", "--scroll", rng.choice(["4,5", "5,4"]), "--steps", "6",
             "--checks", "complex,minimal,minors",
             "--seed", str(rng.randrange(10**6))]]


def export(rng: random.Random) -> list[list[str]]:
    return [["resolve", "--scroll", rng.choice(["4,5", "5,4"]), "--steps", "6",
             "--format", "json", "--out", EXPORT_FILE]]


def closed_forms(rng: random.Random) -> list[list[str]]:
    # one block of size 3 among 2s: the face count depends on sum(m_i - 1),
    # which a permutation keeps, and is exponential in the block count.
    # hilbert enumerates twice, so at 13 blocks it costs about what faces
    # costs at 14, and the round's median draws on both.
    return [
        ["hilbert", "--format", "json", "--scroll", _permuted(rng, [3] + [2] * 12)],
        ["faces", "--format", "json", "--scroll", _permuted(rng, [3] + [2] * 13)],
        ["betti", "--format", "json", "--max", "10",
         "--scroll", _permuted(rng, [3] + [2] * 11)],
    ]


WORKLOADS = {
    "probe": probe,
    "oracle": oracle,
    "exact": exact,
    "export": export,
    "closed-forms": closed_forms,
}


# -- closed forms ---------------------------------------------------------

def betti_number(blocks: list[int], i: int) -> int:
    """beta_i = sum_j C(k+1, j) (n-k-1)^(i-j), j <= min(i, k+1)."""
    k, n = len(blocks), sum(blocks)
    return sum(comb(k + 1, j) * (n - k - 1) ** (i - j)
               for j in range(min(i, k + 1) + 1))


def f_vector(blocks: list[int]) -> list[int]:
    """f_{-1} = 1 and f_d = C(k, d) n - d C(k+1, d+1) for 0 <= d <= k."""
    k, n = len(blocks), sum(blocks)
    return [1] + [comb(k, d) * n - d * comb(k + 1, d + 1) for d in range(k + 1)]


def _strs(values) -> list[str]:
    return [str(v) for v in values]


# -- the gate -------------------------------------------------------------

def _opt(args: list[str], flag: str, default=None):
    return args[args.index(flag) + 1] if flag in args else default


def check_output(args: list[str], rc: int, stdout: bytes,
                 out_file: bytes | None) -> str | None:
    """None when the operation's output is right, else why it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(out_file if "--out" in args else stdout)
    except (TypeError, ValueError) as exc:
        return f"unreadable JSON output: {exc}"
    blocks = [int(b) for b in _opt(args, "--scroll").split(",")]
    check = {"verify": _check_verify, "oracle": _check_oracle,
             "resolve": _check_resolve, "hilbert": _check_hilbert,
             "faces": _check_faces, "betti": _check_betti}[args[0]]
    try:
        return check(args, blocks, doc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _check_verify(args, blocks, doc):
    reports = doc["checks"]
    bad = [r["name"] for r in reports if r["verdict"] != "pass"]
    if bad:
        return f"verdicts not pass: {bad[:5]}"
    if doc["seed"] != int(_opt(args, "--seed", 0)):
        return "seed not echoed"
    wanted = _opt(args, "--checks", "complex,minimal,exact,minors").split(",")
    steps, n = int(_opt(args, "--steps", 4)), sum(blocks)
    expect = {"complex": 1, "minimal": 1, "exact": steps - 1,
              "minors": (n + 1) * n}  # phi0..phi2 + staircases 2..n-1, per x_i
    names = [r["name"] for r in reports]
    for check in wanted:
        prefix = {"exact": "exact@", "minors": "minor:"}.get(check, check)
        got = sum(1 for name in names if name.startswith(prefix))
        if got != expect[check]:
            return f"{got} {check} reports, expected {expect[check]}"
    if len(names) != sum(expect[c] for c in wanted):
        return f"{len(names)} reports in total"
    return None


def _check_oracle(args, blocks, doc):
    imax = int(_opt(args, "--imax"))
    want = _strs(betti_number(blocks, i) for i in range(imax + 1))
    if doc["diagonal"] != want:
        return f"diagonal {doc['diagonal']} != binomial sum {want}"
    if doc["modulus"] != int(_opt(args, "--modulus")):
        return "wrong modulus"
    if not doc["ok"] or doc["mismatches"]:
        return f"oracle mismatches: {doc['mismatches'][:3]}"
    return None


def _check_resolve(args, blocks, doc):
    steps = int(_opt(args, "--steps"))
    want = _strs(betti_number(blocks, i) for i in range(steps + 1))
    if doc["ranks"] != want:
        return f"ranks {doc['ranks']} != binomial sum {want}"
    mats = doc["steps"]
    if len(mats) != steps:
        return f"{len(mats)} steps, expected {steps}"
    for i, (a, b) in enumerate(zip(mats, mats[1:]), start=1):
        if a["cols"] != b["rows"]:
            return f"steps {i} and {i + 1} do not chain"
    for i, mat in enumerate(mats):
        if (str(mat["rows"]), str(mat["cols"])) != (want[i], want[i + 1]):
            return f"step {i + 1} is {mat['rows']}x{mat['cols']}"
    return None


def _check_faces(args, blocks, doc):
    want = _strs(f_vector(blocks))
    if doc["f_vector"] != want:
        return f"f-vector {doc['f_vector']} != closed form {want}"
    return None


def _check_hilbert(args, blocks, doc):
    k, n = len(blocks), sum(blocks)
    terms = int(_opt(args, "--terms", 8))
    betti = _strs(betti_number(blocks, i) for i in range(terms + 1))
    checks = [
        ("f_vector", doc["f_vector"], _strs(f_vector(blocks))),
        ("numerator", doc["hilbert"]["num"], _strs([1, n - k - 1])),
        ("denominator", doc["hilbert"]["den"],
         _strs((-1) ** j * comb(k + 1, j) for j in range(k + 2))),
        # the Poincare series of the residue field is sum_i beta_i t^i
        ("poincare", doc["poincare"], betti),
        ("betti", doc["betti"], betti),
    ]
    for what, got, want in checks:
        if got != want:
            return f"{what} {got} != closed form {want}"
    return None


def _check_betti(args, blocks, doc):
    want = _strs(betti_number(blocks, i) for i in range(int(_opt(args, "--max")) + 1))
    if doc["betti"] != want or doc["blocks"] != blocks:
        return f"betti {doc['betti']} != binomial sum {want}"
    return None
