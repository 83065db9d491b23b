"""Betti numbers and explicit minimal free resolutions over rational normal scrolls."""

from .scrolls import Binomial, ScrollSpec, VarIndex, build_scroll, minor_generators, scroll_matrix, toric_matrix
from .ring import Element, ScrollRing, adegree, is_standard, normal_form, ring_for, standard_monomials
from .series import (FaceVector, IntSeries, RationalForm, betti, betti_tail,
                     delta_facets, face_numbers, hilbert_coefficients,
                     hilbert_series, initial_ideal_generators, koszul_defect,
                     poincare_coeffs)
from .resolution import (Resolution, SparseMatrixR, alpha, direct_sum,
                         field_resolution, phi, phi0, phi1, phi2,
                         resolution_of, staircase, u_block, v_block)
from .checks import (CheckReport, MinorCertificate, RankReport, check_complex,
                     check_exactness, check_minimality, check_phi_ranks,
                     groebner_consistency, inject_fault, minor_certificate,
                     probe_rank)
from .oracle import BettiTable, betti_oracle, compare_with_formula, multiplication_map

__all__ = [name for name in dir() if not name.startswith("_")]
