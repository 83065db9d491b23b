"""What `import scrollres` runs, and what the package exports.

The closed forms (betti, hilbert, faces) live in the layer `import
scrollres` runs; ring, linalg, resolution, checks and oracle run on first
use, and no subcommand loads numpy or dataclasses.  Which modules a
process has loaded is only visible from a fresh interpreter, so those
tests run one.
"""
import json
import os
import subprocess
import sys
import types

import pytest

import scrollres

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

# sorted(scrollres.__all__) before its numpy layers were made lazy
PUBLIC = [
    "BettiTable", "Binomial", "CheckReport", "Element", "FaceVector", "IntSeries",
    "MinorCertificate", "RankReport", "RationalForm", "Resolution", "ScrollRing",
    "ScrollSpec", "SparseMatrixR", "VarIndex", "adegree", "alpha", "betti",
    "betti_oracle", "betti_tail", "build_scroll", "check_complex", "check_exactness",
    "check_minimality", "check_phi_ranks", "checks", "compare_with_formula",
    "delta_facets", "direct_sum", "face_numbers", "field_resolution",
    "groebner_consistency", "hilbert_coefficients", "hilbert_series",
    "initial_ideal_generators", "inject_fault", "is_standard", "koszul_defect",
    "linalg", "minor_certificate", "minor_generators", "multiplication_map",
    "normal_form", "oracle", "phi", "phi0", "phi1", "phi2", "poincare_coeffs",
    "probe_rank", "resolution", "resolution_of", "ring", "ring_for",
    "scroll_matrix", "scrolls", "series", "staircase", "standard_monomials",
    "toric_matrix", "u_block", "v_block",
]

# runs each argv through the CLI in a fresh interpreter and reports the
# exit codes and which of the watched modules ran; a lazy module that has
# not run is still a _LazyModule.  run_fresh adds the stderr
PROBE = """
import contextlib, io, json, sys, types
import scrollres, scrollres.cli
watched = ("dataclasses", "fractions", "numpy", "scrollres.ring")
def loaded():
    return [m for m in watched if type(sys.modules.get(m)) is types.ModuleType]
assert loaded() == [], f"import scrollres.cli ran {loaded()}"
lazy = ["scrollres." + m for m in ("ring", "linalg", "resolution", "checks", "oracle")]
assert all(m in sys.modules for m in lazy), "a lazy module is not registered"
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [scrollres.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"rcs": rcs, "loaded": loaded()}))
"""
# what every subcommand beyond the closed forms loads: the ring, whose
# coefficients may be Fractions
RING = ["fractions", "scrollres.ring"]


def run_fresh(argvs):
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {**json.loads(proc.stdout), "stderr": proc.stderr}


def test_closed_forms_load_no_numpy():
    argvs = [[cmd, "--scroll", "3,3", "--format", fmt]
             for cmd in ("betti", "hilbert", "faces") for fmt in ("text", "json")]
    assert run_fresh(argvs) == {"rcs": [0] * len(argvs), "loaded": [], "stderr": ""}


@pytest.mark.parametrize("argv, loaded", [
    (["betti", "--scroll", "3,3"], []),
    (["hilbert", "--scroll", "3,3", "--format", "json"], []),
    (["faces", "--scroll", "2,2,2"], []),
    (["resolve", "--scroll", "3,3", "--steps", "2"], RING),
    (["verify", "--scroll", "3,3", "--steps", "3"], RING),
    (["oracle", "--scroll", "3,3", "--imax", "2"], RING),
], ids=["betti", "hilbert", "faces", "resolve", "verify", "oracle"])
def test_each_subcommand_loads_no_dataclasses(argv, loaded):
    """Alone in its interpreter, no subcommand loads dataclasses, and the
    closed forms load neither the ring nor fractions."""
    assert run_fresh([argv]) == {"rcs": [0], "loaded": loaded, "stderr": ""}


def test_ring_only_checks_load_no_numpy():
    """verify's checks without F_p work, a planted fault and a refused modulus."""
    verify = ["verify", "--scroll", "3,3", "--steps", "3"]
    argvs = [verify + ["--checks", "complex,minimal,minors"],
             verify + ["--checks", "groebner"],
             verify + ["--inject-fault", "unit_insert", "--checks", "complex,minimal"],
             verify + ["--checks", "complex", "--modulus", "4"]]
    assert run_fresh(argvs) == {
        "rcs": [0, 0, 1, 2], "loaded": RING,
        "stderr": "error: modulus 4 is not a prime p with 3 <= p < 2**26\n"}


@pytest.mark.parametrize("argv", [
    ["resolve", "--scroll", "3,3", "--steps", "2"],
    ["verify", "--scroll", "3,3", "--steps", "3", "--checks", "exact"],
    ["oracle", "--scroll", "3,3", "--imax", "2"],
    ["verify", "--scroll", "3,3", "--steps", "3", "--checks", "ranks"],
])
def test_finite_field_subcommands_load_numpy(argv):
    """Whether each F_p subcommand, alone in its interpreter, loads numpy:
    none does, the resolve writer included."""
    assert run_fresh([argv]) == {"rcs": [0], "loaded": RING, "stderr": ""}


def test_finite_field_subcommands_load_no_numpy(tmp_path):
    """The oracle, the rank probes and the resolve writer, to stdout and
    to --out in both formats, run on the standard library."""
    resolve = ["resolve", "--scroll", "3,3", "--steps", "2"]
    out = {fmt: tmp_path / f"res.{fmt}" for fmt in ("json", "text")}
    argvs = [resolve,
             resolve + ["--format", "text"],
             resolve + ["--out", str(out["json"])],
             resolve + ["--format", "text", "--out", str(out["text"])],
             ["oracle", "--scroll", "3,3", "--imax", "2"],
             ["oracle", "--compare", "--scroll", "2,2,2", "--imax", "3"],
             ["verify", "--scroll", "3,3", "--steps", "3", "--checks", "exact"],
             ["verify", "--scroll", "3,3", "--steps", "3", "--checks", "ranks"]]
    assert run_fresh(argvs) == {"rcs": [0] * len(argvs), "loaded": RING, "stderr": ""}
    assert json.loads(out["json"].read_text())["ranks"] == ["1", "6", "21"]
    assert out["text"].read_text().startswith("# step 1: 1 x 6\n")


def test_public_api_is_unchanged():
    assert sorted(scrollres.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(scrollres))
    for name in PUBLIC:
        obj = getattr(scrollres, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"scrollres.{name}"], name
        else:
            assert obj.__module__.startswith("scrollres."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from scrollres import *", namespace)
    assert all(namespace[name] is getattr(scrollres, name) for name in PUBLIC)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(scrollres, "no_such_name")
