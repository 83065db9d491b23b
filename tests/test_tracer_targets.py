"""The benchmark tracer's wrapped names must exist in the package.

`perfbench/tracer.py` wraps functions and methods by name at install
time, so a rename in scrollres would crash a traced benchmark run.  The
tracer is loaded by path because perfbench is not a package.
"""
import importlib.util
import os
import sys

import scrollres.cli  # noqa: F401  (the tracer wraps names in the CLI too)

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


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
