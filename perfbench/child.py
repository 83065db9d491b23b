"""One cold scrollres CLI invocation, run in a fresh process by run.py.

    python3 perfbench/child.py SRC MEM_MB TRACE_PATH -- CLI_ARGS...
    python3 perfbench/child.py SRC MEM_MB --env

The address-space cap (MEM_MB MiB) is set here, in the child only, before
numpy is imported, so an allocation beyond it raises MemoryError and the
operation fails instead of the machine running out of memory.  TRACE_PATH
"-" runs the CLI untraced, exactly as `python -m scrollres.cli` would;
any other value installs the tracer and writes its totals there as JSON.
`--env` prints the numerical-library versions for the results record.
"""
from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys


def blas_record() -> dict:
    """numpy version, its BLAS build and the BLAS thread count."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    threads = None
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def main(argv: list[str]) -> int:
    src, mem_mb, mode = argv[0], int(argv[1]), argv[2]
    cap = mem_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, src)
    if mode == "--env":
        print(json.dumps(blas_record()))
        return 0
    cli_args = argv[argv.index("--") + 1:]
    import scrollres.cli

    if mode == "-":
        return scrollres.cli.main(cli_args)
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    rc = scrollres.cli.main(cli_args)
    with open(mode, "w") as fh:
        json.dump(tracer.snapshot(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
