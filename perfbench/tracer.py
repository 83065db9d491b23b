"""Outside-in per-layer tracing of one scrollres CLI invocation.

The tracer never edits the package: after `import scrollres` it replaces
the named functions and methods with wrappers, in every scrollres module
namespace that holds them and on the classes that own them.  Two kinds of
wrapper exist:

* spans time a call and keep a stack, so each span's self time is its
  duration minus the time of the spans it encloses; helpers that are not
  wrapped count toward the enclosing span's self time;
* counters only count calls.  They sit on the ring's normal-form and
  element hot paths, which run ~10^5 times per operation, where a span
  would cost more than the work it measures.

Each span also records the layer of its nearest enclosing span from
another module, so linalg time can be split between `checks` and
`oracle`.  Per-span hooks add work counts (matrix cells, nnz, ranks).
"""
from __future__ import annotations

import sys
import time


def _shape_cells(a) -> int:
    rows, cols = a.shape
    return rows * cols


def _on_rank(st, args, result):
    rows, cols = args[0].shape
    cells = rows * cols
    st["cells"] += cells
    st["max_cells"] = max(st["max_cells"], cells)
    st["rank_sum"] += result
    st["rank_bound_sum"] += min(rows, cols)


def _on_nullspace(st, args, result):
    st["cells"] += _shape_cells(args[0])


def _on_eval(st, args, result):
    mat = args[0]
    cells = _shape_cells(result)
    st["cells"] += cells
    st["bytes"] += cells * 8  # computed from the shape: float64 entries
    st["nnz"] += len(mat.entries)


def _on_matmul(st, args, result):
    # the d∘d products of a correct complex are all zero, so the work is
    # measured by the stored entries of the two factors
    st["nnz_in"] += len(args[0].entries) + len(args[1].entries)


def _on_field_resolution(st, args, result):
    st["nnz"] += sum(len(step.entries) for step in result.steps)


def _on_probe(st, args, result):
    st["probes_run"] += result.probes_run


# (module, attribute, span name, exit hook); classes are named "Class.attr".
SPANS = [
    ("cli", "main", "cli.main", None),
    ("cli", "_dump", "cli.serialize", None),
    ("linalg", "rank_modp", "linalg.rank_modp", _on_rank),
    ("linalg", "nullspace_modp", "linalg.nullspace_modp", _on_nullspace),
    ("resolution", "SparseMatrixR.eval_modp", "resolution.eval_modp", _on_eval),
    ("resolution", "SparseMatrixR.__matmul__", "resolution.matmul", _on_matmul),
    ("resolution", "field_resolution", "resolution.field_resolution",
     _on_field_resolution),
    ("resolution", "Resolution.to_json_obj", "resolution.to_json", None),
    ("checks", "probe_rank", "checks.probe_rank", _on_probe),
    ("checks", "check_exactness", "checks.check_exactness", None),
    ("checks", "check_complex", "checks.check_complex", None),
    ("checks", "check_minimality", "checks.check_minimality", None),
    ("checks", "minor_certificate", "checks.minor_certificate", None),
    ("oracle", "betti_oracle", "oracle.betti_oracle", None),
    ("oracle", "graded_basis", "oracle.graded_basis", None),
    ("series", "face_numbers", "series.face_numbers", None),
    ("series", "hilbert_series", "series.hilbert_series", None),
]

# (module, attribute, counter name, record distinct first arguments)
COUNTERS = [
    ("ring", "ScrollRing.nf_monomial", "ring.nf_monomial", True),
    ("ring", "ScrollRing.element", "ring.element", False),
]

EXTRA_FIELDS = ("cells", "max_cells", "rank_sum", "rank_bound_sum", "bytes",
                "nnz", "nnz_in", "probes_run")


class Tracer:
    """Span stack and per-name totals for one process."""

    def __init__(self):
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.stats: dict[str, dict] = {}
        self.by_caller: dict[str, float] = {}  # "name@layer" -> self seconds
        self._distinct: dict[str, set] = {}

    def span(self, name: str, fn, hook=None):
        st = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        for f in EXTRA_FIELDS:
            st.setdefault(f, 0)
        layer = name.split(".")[0]
        stack, by_caller, clock = self.stack, self.by_caller, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[1]
                st["calls"] += 1
                st["self_s"] += own
                if stack:
                    stack[-1][1] += dt
                caller = "none"
                for outer in reversed(stack):
                    if not outer[0].startswith(layer + "."):
                        caller = outer[0].split(".")[0]
                        break
                key = f"{name}@{caller}"
                by_caller[key] = by_caller.get(key, 0.0) + own
            if hook is not None:
                hook(st, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn, distinct: bool):
        st = self.stats.setdefault(name, {"calls": 0, "distinct": 0})
        if distinct:
            seen = self._distinct.setdefault(name, set())

            def wrapper(obj, key, *args, **kwargs):
                st["calls"] += 1
                seen.add(key)
                return fn(obj, key, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                st["calls"] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        for name, seen in self._distinct.items():
            self.stats[name]["distinct"] = len(seen)
        return {"stats": self.stats, "by_caller": self.by_caller}


def install(tracer: Tracer) -> None:
    """Wrap every SPANS and COUNTERS target in the loaded scrollres."""
    import scrollres.cli  # noqa: F401  (the package __init__ skips the CLI)

    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("scrollres.")}
    replace: dict[int, tuple] = {}
    targets = [(m, a, tracer.span(n, _lookup(modules[m], a), h))
               for m, a, n, h in SPANS]
    targets += [(m, a, tracer.counter(n, _lookup(modules[m], a), d))
                for m, a, n, d in COUNTERS]
    for mod_name, attr, wrapper in targets:
        if "." in attr:  # a method: patch the owning class once
            cls_name, meth = attr.split(".")
            setattr(getattr(modules[mod_name], cls_name), meth, wrapper)
        else:
            orig = getattr(modules[mod_name], attr)
            replace[id(orig)] = (orig, wrapper)
    # functions are bound by name wherever they were imported with `from`
    for mod in [sys.modules["scrollres"], *modules.values()]:
        for key, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])


def _lookup(module, attr: str):
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj
