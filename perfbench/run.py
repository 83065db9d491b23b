"""scrollres benchmark: cold CLI operations from one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a scrollres checkout.  Every operation is one
`scrollres` CLI invocation in a fresh child process (perfbench/child.py),
so the package's caches start empty, as a user pays for them.  The next
operation starts only after the previous one has finished.  Whole rounds
of the workload's argument lists repeat while the next one fits in S
seconds.

Every output is checked against closed forms (workloads.check_output),
and operations that repeat the same arguments must give byte-identical
output.  The last line of standard output is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A traced run times one untraced round first, so the tracing overhead is
reported beside the layers.  Timings are normalised by calibrate(), a
fixed kernel timed between operations, so that the host's drifting speed
cancels out.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from workloads import EXPORT_FILE, WORKLOADS, check_output

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
MEM_CAP_MB = 3072  # address-space cap of each child, in MiB
CAL_KEYS = 200_000  # size of the calibration kernel's dict
# calibrate()'s median on the 2-core Xeon VM the benchmark was defined on;
# normalised timings are in seconds of that machine at that speed
CAL_REF_S = 0.30
SETUP_REPEATS = 9
RUN_LIMIT_S = 160  # no operation starts, or keeps running, past this
# children always read and write __pycache__, as an installed package does,
# so timings do not depend on PYTHONDONTWRITEBYTECODE in the caller's shell
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


@dataclass
class Op:
    """One finished CLI invocation."""
    args: list[str]
    traced: bool
    wall_s: float
    cpu_s: float  # child user + sys
    rss_mb: float  # child ru_maxrss
    error: str | None  # why the operation failed, None when it passed
    digest: str  # SHA-256 of stdout and the output file
    out_bytes: int
    trace: dict | None
    cal_s: float = CAL_REF_S  # calibrate() around the operation

    @property
    def wall_norm_s(self) -> float:
        return self.wall_s * CAL_REF_S / self.cal_s

    @property
    def cpu_norm_s(self) -> float:
        return self.cpu_s * CAL_REF_S / self.cal_s


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child, killing it at the timeout; returns (exit code, rusage)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_op(src: str, args: list[str], traced: bool, timeout: float) -> Op:
    """Run one operation in a fresh child and gate its output."""
    os.makedirs(WORK, exist_ok=True)
    paths = {k: os.path.join(WORK, k) for k in ("stdout", "stderr", "trace.json",
                                                EXPORT_FILE)}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    mode = paths["trace.json"] if traced else "-"
    cmd = [sys.executable, CHILD, src, str(MEM_CAP_MB), mode, "--", *args]
    with open(paths["stdout"], "wb") as out, open(paths["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=WORK,
                                env=CHILD_ENV)
        try:
            rc, usage = _wait(proc, timeout)
        finally:
            if proc.returncode is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    stdout = _read(paths["stdout"]) or b""
    out_file = _read(paths[EXPORT_FILE]) if "--out" in args else None
    error = check_output(args, rc, stdout, out_file)
    if error and rc != 0:
        tail = (_read(paths["stderr"]) or b"").decode(errors="replace").strip()
        error += f": {tail.splitlines()[-1] if tail else 'no stderr'}"
    trace = None
    if traced and rc == 0:
        trace = json.loads(_read(paths["trace.json"]))
    digest = hashlib.sha256(stdout + b"\0" + (out_file or b"")).hexdigest()
    return Op(args, traced, wall, usage.ru_utime + usage.ru_stime,
              usage.ru_maxrss / 1024, error, digest,
              len(stdout) + len(out_file or b""), trace)


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python kernel: the machine's current speed.

    On a shared host the speed of identical work drifts by tens of
    percent over seconds and minutes.  The kernel builds and probes a
    dict of int tuples, as the ring arithmetic does, and its time tracks
    the operations' (correlation 0.65 to 0.8 per `exact` or `export`
    operation), so timings
    divided by it move with the program, not with the host.  It is the
    benchmark's own code: no change to scrollres can move it.
    """
    t0 = time.process_time()
    table: dict[tuple, int] = {}
    for i in range(CAL_KEYS):
        key = (i % 97, i % 89, i % 83, i // 1000)  # all distinct
        table[key] = table.get(key, 0) + i
    keys = list(table)
    total = 0
    for j in range(len(keys)):
        total += table[keys[j * 7919 % len(keys)]]
    return time.process_time() - t0


def measure_setup(src: str) -> tuple[float, float]:
    """Interpreter start plus `import scrollres`, after one warm-up import.

    Returns the median of SETUP_REPEATS timings as measured and scaled
    by calibrate() like the operations' timings.
    """
    env = dict(CHILD_ENV, PYTHONPATH=src)
    samples = []
    subprocess.run([sys.executable, "-c", "import scrollres.cli"], cwd=WORK, env=env,
                   check=True)
    cal_before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import scrollres"], cwd=WORK, env=env,
                       check=True)
        samples.append(time.perf_counter() - t0)
    cal = (cal_before + calibrate()) / 2
    setup = statistics.median(samples)
    return setup, setup * CAL_REF_S / cal


def run_rounds(src, argvs, seconds, trace, deadline) -> list[Op]:
    """Closed loop of whole rounds; with tracing, round 0 is the untraced base.

    A further round starts only while it still fits in `seconds`, judged
    by the last round, so a run ends by `seconds` (or after its first
    round) and the number of rounds does not flip between runs when a
    round takes about half of `seconds`.
    """
    ops: list[Op] = []
    first_digest: dict[tuple, str] = {}
    start = time.perf_counter()
    rounds = 0
    cal_before = calibrate()
    while True:
        traced = trace and rounds > 0
        round_start = time.perf_counter()
        for args in argvs:
            left = deadline - time.perf_counter()
            if left <= 0:
                return ops
            op = run_op(src, args, traced, left)
            cal_after = calibrate()
            op.cal_s = (cal_before + cal_after) / 2
            cal_before = cal_after
            if op.error is None:
                seen = first_digest.setdefault(tuple(args), op.digest)
                if seen != op.digest:
                    op.error = "output differs from an earlier run of the same arguments"
            ops.append(op)
        rounds += 1
        now = time.perf_counter()
        if trace and rounds < 2:
            continue
        if now - start + (now - round_start) > seconds:
            return ops


def kind_geomean(ops: list[Op], field: str) -> float:
    """Geometric mean over argument lists of each one's median `field`.

    With one argument list this is the plain median.  With several, a
    change to any one kind of operation moves it by its share, whatever
    the others cost; the median of the mixed run would stay on one kind.
    """
    by_args: dict[tuple, list[float]] = {}
    for op in ops:
        by_args.setdefault(tuple(op.args), []).append(getattr(op, field))
    logs = [math.log(statistics.median(v)) for v in by_args.values()]
    return math.exp(sum(logs) / len(logs))


def tail_latency(walls: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, with its value."""
    n = len(walls)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(walls)[n - 11]


# -- per-layer metrics from the traced operations ------------------------

def _span_sum(ops, name, field):
    return sum(op.trace["stats"][name][field] for op in ops)


def _caller_sum(ops, prefix, caller):
    return sum(v for op in ops for k, v in op.trace["by_caller"].items()
               if k.startswith(prefix) and k.endswith("@" + caller))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced: list[Op], base: list[Op]) -> dict:
    n = len(traced)
    out: dict = {}

    def per_op(metric, unit, span, field):
        out[metric] = (_span_sum(traced, span, field) / n, unit)

    for span in ("linalg.rank_modp", "linalg.nullspace_modp", "resolution.eval_modp",
                 "resolution.matmul", "oracle.graded_basis", "series.face_numbers",
                 "checks.probe_rank", "ring.nf_monomial", "ring.element"):
        per_op(f"{span}.calls", "count", span, "calls")
    for span in ("linalg.rank_modp", "linalg.nullspace_modp", "resolution.eval_modp",
                 "resolution.matmul", "resolution.field_resolution",
                 "resolution.to_json", "cli.serialize", "cli.main",
                 "checks.check_exactness", "checks.check_complex",
                 "checks.check_minimality", "checks.minor_certificate",
                 "oracle.betti_oracle", "oracle.graded_basis",
                 "series.face_numbers", "series.hilbert_series"):
        per_op(f"{span}.self_s", "s", span, "self_s")
    per_op("linalg.rank_modp.cells", "count", "linalg.rank_modp", "cells")
    per_op("linalg.nullspace_modp.cells", "count", "linalg.nullspace_modp", "cells")
    per_op("resolution.eval_modp.bytes", "B", "resolution.eval_modp", "bytes")
    per_op("resolution.matmul.nnz_in", "count", "resolution.matmul", "nnz_in")
    per_op("resolution.field_resolution.nnz", "count",
           "resolution.field_resolution", "nnz")
    per_op("checks.probe_rank.probes_run", "count", "checks.probe_rank", "probes_run")
    out["linalg.rank_modp.max_cells"] = (
        max(op.trace["stats"]["linalg.rank_modp"]["max_cells"] for op in traced),
        "count")
    out["linalg.rank_modp.rank_ratio"] = (_ratio(
        _span_sum(traced, "linalg.rank_modp", "rank_sum"),
        _span_sum(traced, "linalg.rank_modp", "rank_bound_sum")), "ratio")
    out["resolution.eval_modp.nnz_ratio"] = (_ratio(
        _span_sum(traced, "resolution.eval_modp", "nnz"),
        _span_sum(traced, "resolution.eval_modp", "cells")), "ratio")
    out["ring.nf_monomial.distinct_ratio"] = (_ratio(
        _span_sum(traced, "ring.nf_monomial", "distinct"),
        _span_sum(traced, "ring.nf_monomial", "calls")), "ratio")
    for caller in ("checks", "oracle"):
        out[f"linalg.under_{caller}.self_s"] = (
            _caller_sum(traced, "linalg.", caller) / n, "s")
    out["cli.output.bytes"] = (sum(op.out_bytes for op in traced) / n, "B")
    out["trace.overhead_s"] = (
        kind_geomean(traced, "wall_norm_s") - kind_geomean(base, "wall_norm_s"),
        "s")
    return out


def print_trace_table(traced: list[Op]) -> None:
    """Self time per span, largest first, and the per-command call counts."""
    n = len(traced)
    names = traced[0].trace["stats"]
    rows = sorted(((_span_sum(traced, s, "self_s") / n, s) for s in names
                   if "self_s" in names[s]), reverse=True)
    rows = [row for row in rows if row[0] > 0]
    print(f"# self time per operation over {n} traced operations")
    for self_s, span in rows:
        print(f"#   {span:32s} {self_s:9.4f} s")
    print(f"# largest self time: {rows[0][1]}")
    by_cmd: dict[str, list[Op]] = {}
    for op in traced:
        by_cmd.setdefault(op.args[0], []).append(op)
    for cmd, group in sorted(by_cmd.items()):
        calls = {s: _span_sum(group, s, "calls") / len(group) for s in names}
        shown = ", ".join(f"{s}={c:g}" for s, c in sorted(calls.items()) if c)
        print(f"# calls per {cmd} operation: {shown}")


# -- environment record ---------------------------------------------------

def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.decode().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(git, ref))
    if direct is not None:
        return direct.decode().strip()
    for line in (_read(os.path.join(git, "packed-refs")) or b"").decode().splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown (unresolved ref)"


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or b"").decode(errors="replace").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(root: str, src: str, opts) -> dict:
    out = subprocess.run([sys.executable, CHILD, src, str(MEM_CAP_MB), "--env"],
                         cwd=WORK, env=CHILD_ENV, capture_output=True, text=True,
                         check=True)
    return {
        "python": platform.python_version(),
        **json.loads(out.stdout),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "client": "closed loop, 1 client, one child process at a time",
        "child_mem_cap_mb": MEM_CAP_MB,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    # a terminated run unwinds, so run_op can stop and reap its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "scrollres", "cli.py")):
        print(f"error: no scrollres sources under {src}; run from the root "
              "of a scrollres checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    env = environment(root, src, opts)
    print(json.dumps({"environment": env}, sort_keys=True))
    setup_raw, setup = measure_setup(src)
    argvs = WORKLOADS[opts.workload](random.Random(opts.seed))
    for args in argvs:
        print("# op: scrollres " + " ".join(args))
    ops = run_rounds(src, argvs, opts.seconds, bool(opts.trace),
                     started + RUN_LIMIT_S)

    for i, op in enumerate(ops):
        print(f"# op {i} {op.args[0]}{' traced' if op.traced else ''}: "
              f"{op.wall_s:.3f} s wall, {op.cpu_s:.3f} s cpu, {op.rss_mb:.1f} MB, "
              f"calibrate() {op.cal_s:.3f} s"
              + (f", FAILED: {op.error}" if op.error else ""))
    failed = [op for op in ops if op.error]
    if opts.trace:
        untraced = [op for op in ops if not op.traced]
        traced = [op for op in ops if op.traced and op.trace is not None]
        if not traced or not untraced:
            print("error: no traced operation completed", file=sys.stderr)
            return 1
        print_trace_table(traced)
        metrics = layer_metrics(traced, untraced)
    else:
        # printed, not bounded: see "Metrics" in perfbench/README.md
        tail = tail_latency([op.wall_s for op in ops])
        tail_text = (f"p{tail[0]:.1f} = {tail[1]:.4f} s" if tail
                     else "n/a (needs at least 11 samples)")
        print(f"# latency_tail_s: {tail_text}, n = {len(ops)}")
        print(f"# ops_per_s: {len(ops) / sum(op.wall_s for op in ops):.6g} 1/s")
        print(f"# latency_p50_s: {kind_geomean(ops, 'wall_s'):.6g} s, "
              f"cpu_p50_s: {kind_geomean(ops, 'cpu_s'):.6g} s, "
              f"setup_s: {setup_raw:.6g} s, as measured; "
              f"calibrate(): {statistics.median(op.cal_s for op in ops):.6g} s")
        metrics = {
            "latency_p50_norm_s": (kind_geomean(ops, "wall_norm_s"), "s"),
            "cpu_p50_norm_s": (kind_geomean(ops, "cpu_norm_s"), "s"),
            "peak_rss_mb": (max(op.rss_mb for op in ops), "MB"),
            "setup_s": (setup, "s"),
            "success_ratio": ((len(ops) - len(failed)) / len(ops), "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"# {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
