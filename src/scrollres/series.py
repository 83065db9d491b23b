"""Face counts, Hilbert series, Poincare series and Betti numbers.

The lex initial ideal of the scroll ideal is squarefree and quadratic,
so the quotient degenerates to the face ring of a flag simplicial
complex of dimension k with sum(m_i - 1) facets.  Its f-vector gives
the Hilbert series; because the ring is Koszul, inverting the Hilbert
series at -t gives the Poincare series of the residue field, whose
coefficients are the Betti numbers

    beta_i = sum_{j=0..i} C(k+1, j) * (n-k-1)**(i-j).

The convenience tail form (n-k-1)**(r-1) * (n-k)**(k+1) for beta_{k+r}
is exposed only for r >= 1: at r = 0 it disagrees with the sum above
(which is the one that matches series inversion and the finite-field
oracle), see README.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from ._record import Frozen
from .scrolls import Monomial, ScrollSpec


class FaceVector(Frozen):
    """Face counts f_{-1}, f_0, ..., f_k."""
    __slots__ = ("counts",)

    def __init__(self, counts: tuple[int, ...]):
        object.__setattr__(self, "counts", counts)

    def f(self, d: int) -> int:
        """Number of d-dimensional faces; d ranges over -1..k."""
        if d < -1:
            raise ValueError("dimension must be >= -1")
        if d + 1 >= len(self.counts):
            return 0
        return self.counts[d + 1]


class RationalForm(Frozen):
    """numerator / denominator, coefficients ascending in t."""
    __slots__ = ("num", "den")

    def __init__(self, num: tuple[int, ...], den: tuple[int, ...]):
        if not den or den[0] not in (1, -1):
            raise ValueError("denominator must have a unit constant term")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def series(self, order: int) -> "IntSeries":
        if order < 0:
            raise ValueError("order must be non-negative")
        return IntSeries(tuple(_series_divide(self.num, self.den, order)), order)


class IntSeries(Frozen):
    """Truncated integer power series c_0..c_N (exact, arbitrary size)."""
    __slots__ = ("coefficients", "order")

    def __init__(self, coefficients: tuple[int, ...], order: int):
        if len(coefficients) != order + 1:
            raise ValueError("coefficient count does not match the order")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "order", order)

    def __getitem__(self, i: int) -> int:
        return self.coefficients[i]


def _series_divide(num: tuple[int, ...], den: tuple[int, ...],
                   order: int) -> list[int]:
    """num / den through t**order; den[0] is +-1, so it is its own inverse.

    Each coefficient subtracts only the denominator's own terms, so the
    cost is O(order * len(den)).
    """
    out: list[int] = []
    for i in range(order + 1):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc * den[0])
    return out


def _binomial_power(c: int, e: int) -> list[int]:
    """(1 + c*t)**e as a coefficient list."""
    return [comb(e, j) * c**j for j in range(e + 1)]


def initial_ideal_generators(spec: ScrollSpec) -> list[Monomial]:
    """Squarefree quadratic generators of the lex initial ideal.

    Within a block: x_{i,j} x_{i,l} for |j - l| >= 2.  Across blocks
    i < r: x_{i,j} x_{r,s} with j below the block top and s above the
    block bottom.  These are exactly the lead terms of the minors.
    """
    n = spec.n
    out = set()
    for i, size in enumerate(spec.blocks, start=1):
        for j in range(1, size + 1):
            for l in range(j + 2, size + 1):
                e = [0] * n
                e[spec.var(i, j).flat - 1] += 1
                e[spec.var(i, l).flat - 1] += 1
                out.add(tuple(e))
    for i in range(1, spec.k + 1):
        for r in range(i + 1, spec.k + 1):
            for j in range(1, spec.blocks[i - 1]):
                for s in range(2, spec.blocks[r - 1] + 1):
                    e = [0] * n
                    e[spec.var(i, j).flat - 1] += 1
                    e[spec.var(r, s).flat - 1] += 1
                    out.add(tuple(e))
    return sorted(out, reverse=True)


def delta_facets(spec: ScrollSpec) -> list[tuple[tuple[int, int], ...]]:
    """Facets of the associated complex, as (block, pos) vertex tuples.

    Facet (i, j): the top vertex of every earlier block, the adjacent
    pair (i,j), (i,j+1), and the bottom vertex of every later block.
    There are sum(m_i - 1) facets, each with k+1 vertices.
    """
    out = []
    for i in range(1, spec.k + 1):
        for j in range(1, spec.blocks[i - 1]):
            verts = [(r, spec.blocks[r - 1]) for r in range(1, i)]
            verts += [(i, j), (i, j + 1)]
            verts += [(r, 1) for r in range(i + 1, spec.k + 1)]
            out.append(tuple(verts))
    return out


def _face_numbers_enumerated(spec: ScrollSpec) -> FaceVector:
    faces: set[frozenset] = set()
    for facet in delta_facets(spec):
        fs = frozenset(facet)
        for size in range(len(fs) + 1):
            for sub in combinations(sorted(fs), size):
                faces.add(frozenset(sub))
    counts = [0] * (spec.k + 2)
    for f in faces:
        counts[len(f)] += 1
    return FaceVector(tuple(counts))


def _face_numbers_formula(spec: ScrollSpec) -> FaceVector:
    k, n = spec.k, spec.n
    # d = -1 gives the empty face; the formula extends to it as 1
    counts = [1] + [comb(k, d) * n - d * comb(k + 1, d + 1) for d in range(k + 1)]
    return FaceVector(tuple(counts))


def face_numbers(spec: ScrollSpec) -> FaceVector:
    """f-vector of the complex, by the closed formula.

    The enumeration over the facets, exponential in k, is the reference
    the tests compare it against.
    """
    return _face_numbers_formula(spec)


def hilbert_series(spec: ScrollSpec) -> RationalForm:
    """Hilbert series (1 + (n-k-1) t) / (1-t)**(k+1).

    The tests recompute the numerator from the enumerated f-vector via the
    face-ring formula sum_d f_{d-1} t**d (1-t)**(k+1-d).
    """
    k, n = spec.k, spec.n
    return RationalForm((1, n - k - 1), tuple(_binomial_power(-1, k + 1)))


def hilbert_coefficients(spec: ScrollSpec, order: int) -> IntSeries:
    return hilbert_series(spec).series(order)


def poincare_coeffs(spec: ScrollSpec, order: int) -> IntSeries:
    """(1+t)**(k+1) / (1 - (n-k-1) t) by exact truncated series division."""
    k, n = spec.k, spec.n
    return RationalForm(tuple(_binomial_power(1, k + 1)),
                        (1, -(n - k - 1))).series(order)


def betti(spec: ScrollSpec, i: int) -> int:
    """i-th Betti number of the residue field: the closed binomial sum."""
    if i < 0:
        raise ValueError("homological index must be non-negative")
    k, n = spec.k, spec.n
    q = n - k - 1
    return sum(comb(k + 1, j) * q ** (i - j) for j in range(min(i, k + 1) + 1))


def betti_tail(spec: ScrollSpec, r: int) -> int:
    """beta_{k+r} in product form, valid for r >= 1 only."""
    if r < 1:
        raise ValueError("the product form holds for r >= 1 only; use betti()")
    k, n = spec.k, spec.n
    return (n - k - 1) ** (r - 1) * (n - k) ** (k + 1)


def koszul_defect(spec: ScrollSpec, order: int) -> list[int]:
    """Coefficients of Hilb(-t) * Poincare(t) - 1 through t**order (all 0)."""
    h = hilbert_coefficients(spec, order)
    p = poincare_coeffs(spec, order)
    out = []
    for i in range(order + 1):
        acc = sum((-1) ** j * h[j] * p[i - j] for j in range(i + 1))
        out.append(acc - (1 if i == 0 else 0))
    return out


def series_json(spec: ScrollSpec, order: int) -> dict:
    """Machine-readable summary; large integers as decimal strings.

    The Poincare coefficients are the Betti numbers, so "poincare" and
    "betti" share one formatted list.
    """
    fv = face_numbers(spec)
    hs = hilbert_series(spec)
    bettis = [str(c) for c in poincare_coeffs(spec, order).coefficients]
    return {
        "f_vector": [str(c) for c in fv.counts],
        "hilbert": {
            "num": [str(c) for c in hs.num],
            "den": [str(c) for c in hs.den],
        },
        "poincare": bettis,
        "betti": bettis,
    }
