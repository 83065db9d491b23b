"""Betti numbers and explicit minimal free resolutions over rational normal scrolls.

`import scrollres` runs only the closed-form layer: `scrolls`, `ring` and
`series`.  `linalg`, `resolution`, `checks` and `oracle` are registered in
`sys.modules` as lazy modules that run on their first attribute access,
and the names re-exported from them are served on demand, so the closed
forms start without them.  Every module runs on the standard library:
no subcommand loads numpy.
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader
from importlib.util import find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec

from .scrolls import Binomial, ScrollSpec, VarIndex, build_scroll, minor_generators, scroll_matrix, toric_matrix
from .ring import Element, ScrollRing, adegree, is_standard, normal_form, ring_for, standard_monomials
from .series import (FaceVector, IntSeries, RationalForm, betti, betti_tail,
                     delta_facets, face_numbers, hilbert_coefficients,
                     hilbert_series, initial_ideal_generators, koszul_defect,
                     poincare_coeffs)


def _lazy_module(name: str):
    """Register scrollres.<name> in sys.modules without running it yet."""
    spec = _find_spec(f"{__name__}.{name}")
    spec.loader = _LazyLoader(spec.loader)
    module = _module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


linalg = _lazy_module("linalg")
resolution = _lazy_module("resolution")
checks = _lazy_module("checks")
oracle = _lazy_module("oracle")

_LAZY_EXPORTS = {
    resolution: ("Resolution", "SparseMatrixR", "alpha", "direct_sum",
                 "field_resolution", "phi", "phi0", "phi1", "phi2",
                 "resolution_of", "staircase", "u_block", "v_block"),
    checks: ("CheckReport", "MinorCertificate", "RankReport", "check_complex",
             "check_exactness", "check_minimality", "check_phi_ranks",
             "groebner_consistency", "inject_fault", "minor_certificate",
             "probe_rank"),
    oracle: ("BettiTable", "betti_oracle", "compare_with_formula",
             "multiplication_map"),
}
_ORIGIN = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def __getattr__(name: str):
    # looked up afresh on every access, so the package always hands out
    # what its defining module holds now
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__():
    return sorted([*globals(), *_ORIGIN])


__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_ORIGIN))
