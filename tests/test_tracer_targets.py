"""The benchmark tracer's wrapped names must exist in the package.

`perfbench/tracer.py` wraps functions and methods by name at install
time, so a rename in scrollres would crash a traced benchmark run.  The
tracer is loaded by path because perfbench is not a package.
"""
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import scrollres.cli  # noqa: F401  (the tracer wraps names in the CLI too)

ROOT = os.path.join(os.path.dirname(__file__), "..")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
MEM_MB = "3072"  # the address-space cap perfbench/run.py gives each child


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracer = load_tracer()
    targets = [(m, a) for m, a, _, _ in tracer.SPANS]
    targets += [(m, a) for m, a, _, _ in tracer.COUNTERS]
    assert targets
    for module, attr in targets:
        assert callable(tracer._lookup(sys.modules[f"scrollres.{module}"], attr)), \
            (module, attr)


@pytest.mark.parametrize("argv, span", [
    (["betti", "--scroll", "3,3"], "cli.serialize"),
    (["verify", "--scroll", "3,3", "--steps", "3", "--checks", "complex"],
     "checks.check_complex"),
])
def test_traced_cli_run(tmp_path, argv, span):
    """The tracer installs over the lazily loaded modules and sees their calls."""
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, CHILD, os.path.join(ROOT, "src"), MEM_MB, str(trace), "--", *argv],
        capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(trace.read_text())["stats"]
    assert stats["cli.main"]["calls"] == 1
    assert stats[span]["calls"] == 1
