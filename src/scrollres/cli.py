"""Command-line front end.

Subcommands mirror the library: betti, hilbert, faces, resolve, verify,
oracle.  JSON output is deterministic for a fixed (argv, seed): keys are
sorted and mathematical values are emitted as decimal strings so that no
consumer has to assume a native integer width.  Exit codes: 0 success /
all checks pass, 1 check failure, 2 usage error (including inputs too
large to compute in memory and an --out path that cannot be written).

Block sizes are what every formula consumes, so --scroll takes the
comma-separated block sizes m_i; the classical label of the variety is
S(m_1 - 1, ..., m_k - 1), i.e. --scroll 3,3 is the scroll S(2,2).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

# the package registers these four lazily: through the module objects,
# betti, hilbert and faces run without loading them, or numpy
from . import checks, linalg, oracle, resolution
from .scrolls import FAULT_KINDS, ScrollSpec, build_scroll
from .series import betti, face_numbers, hilbert_coefficients, series_json

USAGE_ERROR = 2
# the largest --max and --terms: at 10**6, cold on a 2-core Xeon VM, betti
# and hilbert take 1.0-4.0 s and 94-254 MB, and both grow linearly
MAX_INDEX = 10**6

# the checks `verify` runs, each a function of the resolution and the
# arguments giving its JSON reports; the first four are the default
VERIFY = {
    "complex": lambda res, a: [checks.check_complex(res).to_json_obj()],
    "minimal": lambda res, a: [checks.check_minimality(res).to_json_obj()],
    "exact": lambda res, a: [checks.check_exactness(res, i, a.modulus, a.trials,
                                                    a.seed).to_json_obj()
                             for i in range(1, len(res.steps))],
    "minors": lambda res, a: checks.minor_reports(a.scroll, a.seed),
    "ranks": lambda res, a: [rep.to_json_obj() for rep in checks.check_phi_ranks(
        a.scroll, 3, a.modulus, a.trials, a.seed)],
    "groebner": lambda res, a: [checks.groebner_consistency(a.scroll, 4).to_json_obj()],
}
CHECKS = tuple(VERIFY)


def _scroll_arg(text: str) -> ScrollSpec:
    try:
        blocks = [int(part) for part in text.split(",")]
        return build_scroll(blocks)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad scroll {text!r}: {exc}") from None


def _count_arg(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _dump(obj, out_path: str | None) -> None:
    """Write obj to out_path, or to stdout without one.

    A callable is a writer that streams to the file it is given, as
    Resolution.write_json does, so a large resolution is never held as
    one string; a str is written as it is; any other object is small and
    goes through json.dumps before the file is opened.
    """
    if callable(obj):
        write = obj
    else:
        text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, indent=2) + "\n"

        def write(fh):
            fh.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _printable_betti(spec: ScrollSpec, i: int, option: str) -> None:
    """Refuse an index whose Betti number is too long to print.

    Python caps int-to-decimal conversion at sys.get_int_max_str_digits()
    digits, where it has that cap (0 means none).  The Betti numbers grow
    with i, so beta_i bounds every number printed up to i.  beta_i is at
    least q**i for q = n - k - 1, so an index whose q**i has a digit to
    spare over the cap is refused without computing beta_i, an integer
    of about i * log10(q) digits.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    q = spec.n - spec.k - 1
    if limit and ((q > 1 and i * math.log10(q) > limit + 1) or betti(spec, i) >= 10**limit):
        raise ValueError(f"{option} {i}: beta_{i} has more than {limit} digits, "
                         "the integer-to-string limit of this Python")


def _bounded_index(args, i: int, option: str, digits: bool) -> None:
    """Refuse an index above MAX_INDEX; with digits, first one whose beta_i is too long."""
    if digits:
        _printable_betti(args.scroll, i, option)
    if i > MAX_INDEX:
        raise ValueError(f"resource guard: {option} {i} requested, "
                         f"above the supported {MAX_INDEX}")


def _emit(args, key: str, values) -> None:
    """Write the values on one line, or in JSON as decimal strings under key."""
    if args.format == "json":
        _dump({"blocks": list(args.scroll.blocks), key: [str(v) for v in values]}, args.out)
    else:
        _dump(" ".join(str(v) for v in values) + "\n", args.out)


def cmd_betti(args) -> int:
    _bounded_index(args, args.max, "--max", True)
    _emit(args, "betti", [betti(args.scroll, i) for i in range(args.max + 1)])
    return 0


def cmd_hilbert(args) -> int:
    _bounded_index(args, args.terms, "--terms", args.format == "json")
    if args.format == "json":
        _dump(series_json(args.scroll, args.terms), args.out)
    else:
        _emit(args, "hilbert", hilbert_coefficients(args.scroll, args.terms).coefficients)
    return 0


def cmd_faces(args) -> int:
    _emit(args, "f_vector", face_numbers(args.scroll).counts)
    return 0


def cmd_resolve(args) -> int:
    res = resolution.field_resolution(args.scroll, args.steps)
    _dump(res.write_text if args.format == "text" else res.write_json, args.out)
    return 0


def cmd_verify(args) -> int:
    wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in wanted:
        if c not in VERIFY:
            raise ValueError(f"unknown check {c!r}; choose from {sorted(CHECKS)}")
    if not wanted or len(set(wanted)) < len(wanted):
        raise ValueError(f"--checks must name each check once, got {args.checks!r}")
    linalg.require_prime_modulus(args.modulus, 3)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if "groebner" in wanted:
        checks.require_groebner_size(args.scroll)
    if "exact" in wanted and args.steps < 2:
        raise ValueError("--checks exact needs --steps of at least 2: exactness "
                         f"at step i uses steps i and i+1, got {args.steps}")
    res = resolution.field_resolution(args.scroll, args.steps)
    if args.inject_fault:
        res = checks.inject_fault(res, args.inject_fault)
    reports = [rep for c in wanted for rep in VERIFY[c](res, args)]
    ok = all(r["verdict"] == "pass" for r in reports)
    _dump({"spec": str(args.scroll), "seed": args.seed, "checks": reports}, args.out)
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    if args.compare:
        rep = oracle.compare_with_formula(args.scroll, args.imax, args.modulus)
        table = rep.pop("table")
        out = dict(rep)
        out["diagonal"] = [str(v) for v in out["diagonal"]]
        out["expected"] = [str(v) for v in out["expected"]]
        out["mismatches"] = [
            {k: (v if k in ("i", "j") else str(v)) for k, v in m.items()}
            for m in out["mismatches"]
        ]
        out["betti_table"] = table.to_json_obj()
        _dump(out, args.out)
        return 0 if rep["ok"] else 1
    table = oracle.betti_oracle(args.scroll, args.imax, args.modulus)
    _dump(table.to_json_obj(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scrollres",
        description=(
            "Betti numbers, Hilbert/Poincare series and explicit minimal "
            "free resolutions of the residue field over rational normal "
            "scrolls.  --scroll takes block sizes: --scroll 3,3 is the "
            "scroll S(2,2)."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, formats=("text", "json")):
        sp.add_argument("--scroll", type=_scroll_arg, required=True,
                        help="comma-separated block sizes, e.g. 3,3")
        sp.add_argument("--format", choices=formats, default=formats[0],
                        help=f"output format (default: {formats[0]})")
        sp.add_argument("--out", default=None, help="write output to this path")

    sp = sub.add_parser("betti", help="Betti numbers of the residue field")
    common(sp)
    sp.add_argument("--max", type=_count_arg, default=6, help="largest index (default 6)")
    sp.set_defaults(func=cmd_betti)

    sp = sub.add_parser("hilbert", help="Hilbert series coefficients")
    common(sp)
    sp.add_argument("--terms", type=_count_arg, default=8,
                    help="series truncation order (default 8)")
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("faces", help="f-vector of the initial complex")
    common(sp)
    sp.set_defaults(func=cmd_faces)

    sp = sub.add_parser("resolve", help="build the field resolution (k=2)")
    common(sp, ("json", "text"))
    sp.add_argument("--steps", type=int, default=4, help="number of differentials")
    sp.set_defaults(func=cmd_resolve)

    sp = sub.add_parser("verify", help="run certification checks (k=2)")
    common(sp, ("json",))
    sp.add_argument("--steps", type=int, default=4)
    sp.add_argument("--checks", default=",".join(CHECKS[:4]),
                    help=f"comma list: {','.join(CHECKS)}")
    sp.add_argument("--modulus", type=int, default=32003)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--inject-fault", choices=FAULT_KINDS, default=None,
                    help=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="finite-field Betti recomputation")
    common(sp, ("json",))
    sp.add_argument("--imax", type=int, default=3)
    sp.add_argument("--modulus", type=int, default=32003)
    sp.add_argument("--compare", action="store_true",
                    help="compare against the closed-form Betti numbers")
    sp.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code) if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop quietly, and point
        # stdout at /dev/null so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, TypeError, MemoryError, OSError) as exc:
        # OSError: an --out path that cannot be opened or written
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
