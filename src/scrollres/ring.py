"""Exact arithmetic in the coordinate ring of a scroll.

The ring is the polynomial ring modulo the 2x2 minors of the scroll
matrix.  Those minors form a Groebner basis for the pure lex order with
x_1 > x_2 > ... > x_n.  The ideal they generate is toric, so two
monomials are equal in the ring exactly when they have the same
multidegree (the grading matrix applied to the exponents), and each
multidegree holds exactly one standard monomial.  `nf_monomial` reads
that monomial off the multidegree, and the normal form of a polynomial
is its termwise normal form with coefficients collected, so a ring is
built from its grading alone and builds no minor.  Which monomials are
standard is still decided by the minors' lead terms, taken from
`minor_generators` the first time they are asked for, so the `groebner`
check tests the basis itself; `standard_monomials` builds each degree
from the one below by a single extension.  `nf_monomial_randomized`
rewrites with the minors as an independent reference for `nf_monomial`.

Coefficients are exact Python ints or Fractions.  F_p is reached only
through `Element.eval_modp`, which evaluates an element at a point.

A ring makes every `Element` through its palette, so it holds one object
per value: `ring.palette[e.code] is e`, and equal values made on the same
ring are the same object.  The palette grows only with the distinct
values made on that ring, and `ring_for` shares one ring per scroll with
the whole process, so a consumer reads the codes a matrix holds, never
the whole palette, and a long product is made as one Element
(`ScrollRing.product`), not as a chain of `*` that would keep each
partial product.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .scrolls import (Monomial, ScrollSpec, _mono_from_pairs, format_monomial,
                      minor_generators, toric_matrix)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


class ScrollRing:
    """Normal forms, standard monomials and elements of one scroll's ring.

    The ring is built from its grading alone: normal forms come from
    multidegrees.  The minors are only reached on demand, through
    `minor_generators`: their lead terms, as per-variable partner sets,
    decide which monomials are standard, and as rewrite rules they give
    the reference normal form of `nf_monomial_randomized`.
    """

    def __init__(self, spec: ScrollSpec):
        self.spec = spec
        self.n = spec.n
        self._acols = tuple(zip(*toric_matrix(spec)))
        self._unit = (0,) * self.n
        self.palette: list[Element] = []  # code -> the ring's one Element of that value
        self._codes: dict[frozenset, int] = {}  # the value's terms -> its code
        self._negations: dict[int, Element] = {}  # code -> the negated value

    # -- monomial level -------------------------------------------------

    @cached_property
    def _partners(self) -> tuple[int, ...]:
        """Bit v of entry u is set iff x_u * x_v is the lead term of a minor."""
        adj = [0] * self.n
        for g in minor_generators(self.spec):
            a, b = (i for i, e in enumerate(g.plus) if e)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return tuple(adj)

    def is_standard(self, mono: Monomial) -> bool:
        """True iff no leading term of a minor divides the monomial."""
        held = [i for i, e in enumerate(mono) if e]
        mask = sum(1 << i for i in held)
        return not any(self._partners[i] & mask for i in held)

    def nf_monomial(self, mono: Monomial) -> Monomial:
        """The unique standard monomial equal to `mono` in the ring.

        It is read off the multidegree (d_1, ..., d_k, w).  Blocks are
        filled left to right, each taking as much of the weight w still
        to place as it can: all of it on its last variable while the
        remaining weight allows, then one block split over two adjacent
        variables, then the rest on their first variable.  That support
        lies in a facet of `series.delta_facets`, so it is standard.
        """
        *degs, w = self.adegree(mono)
        out = [0] * self.n
        start = 0
        for m, d in zip(self.spec.blocks, degs):
            if d:
                spent = min(w, d * (m - 1))
                q, b = divmod(spent, d)
                out[start + q] = d - b
                if b:
                    out[start + q + 1] = b
                w -= spent
            start += m
        return tuple(out)

    def nf_monomial_randomized(self, mono: Monomial, rng) -> Monomial:
        """Normal form by rewriting with the minors, in a random order.

        Each step replaces a lead term of a minor dividing the monomial
        by the minor's other term, picked at random among those that
        apply.  Tests use it as a reference independent of the
        multidegree formula in `nf_monomial`.
        """
        rules = [(tuple(i for i, e in enumerate(g.plus) if e), g)
                 for g in minor_generators(self.spec)]
        cur = mono
        while True:
            applicable = [g for (a, b), g in rules if cur[a] and cur[b]]
            if not applicable:
                return cur
            g = applicable[rng.randrange(len(applicable))]
            cur = tuple(c - x + y for c, x, y in zip(cur, g.plus, g.minus))

    def adegree(self, mono: Monomial) -> tuple[int, ...]:
        """Multidegree: the grading matrix applied to the exponent vector."""
        out = [0] * (self.spec.k + 1)
        for i, e in enumerate(mono):
            if e:
                col = self._acols[i]
                for j in range(len(out)):
                    out[j] += e * col[j]
        return tuple(out)

    # -- standard monomial enumeration ----------------------------------

    def standard_monomials(self, d: int) -> list[Monomial]:
        """All standard monomials of total degree d, lex-descending.

        A standard monomial of degree d is x_v times one of degree d-1,
        where x_v is its first variable.  So each monomial of degree d-1
        is extended by every variable up to its first that is no lead-term
        partner of a variable it holds; grouping the results by that
        variable, in increasing order, keeps them lex-descending.
        """
        if d < 0:
            raise ValueError("degree must be non-negative")
        # (monomial, its first variable (the last for 1), the partners of its variables)
        level = [(self._unit, self.n - 1, 0)]
        for _ in range(d):
            by_first = [[] for _ in range(self.n)]
            for mono, first, banned in level:
                free = ((2 << first) - 1) & ~banned
                while free:
                    v = (free & -free).bit_length() - 1
                    free &= free - 1
                    by_first[v].append((mono[:v] + (mono[v] + 1,) + mono[v + 1:], v,
                                        banned | self._partners[v]))
            level = [t for group in by_first for t in group]
        return [mono for mono, _, _ in level]

    # -- element factory -------------------------------------------------

    def _value(self, terms: dict) -> "Element":
        """The ring's one Element with these {standard monomial: nonzero coeff} terms."""
        key = frozenset(terms.items())
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self.palette)
            self.palette.append(Element(self, terms, code))
        return self.palette[code]

    def element(self, raw: dict) -> "Element":
        """Normal form of an arbitrary monomial->coefficient mapping."""
        return self._value(self._normal(raw.items()))

    def product(self, factors, c=1) -> "Element":
        """c times the product of factors, made as one Element.

        The partial products stay {monomial: coeff} dicts, so, unlike a
        chain of `*`, they never enter the palette.
        """
        terms = self._normal([(self._unit, c)])
        for f in factors:
            terms = self._normal((mono_mul(a, b), x * y)
                                 for a, x in terms.items() for b, y in f.terms.items())
        return self._value(terms)

    def _normal(self, pairs) -> dict:
        """{standard monomial: nonzero coeff} of the sum of (monomial, coeff) pairs."""
        terms: dict[Monomial, object] = {}
        for mono, c in pairs:
            if not c:
                continue
            m = self.nf_monomial(tuple(mono))
            acc = terms.get(m, 0) + c
            if acc:
                terms[m] = acc
            elif m in terms:
                del terms[m]
        for m, c in terms.items():
            if isinstance(c, Fraction) and c.denominator == 1:
                terms[m] = int(c)
        return terms

    def zero(self) -> "Element":
        return self._value({})

    def one(self) -> "Element":
        return self._value({self._unit: 1})

    @lru_cache(maxsize=None)
    def var_elem(self, flat: int, sign: int = 1) -> "Element":
        """+-x_flat as a ring element (flat is 1-based)."""
        e = [0] * self.n
        e[flat - 1] = 1
        return self._value({tuple(e): sign})

    def monomial_elem(self, pairs, sign: int = 1) -> "Element":
        """Signed monomial from (flat index, exponent) pairs."""
        return self.element({_mono_from_pairs(self.n, pairs): sign})


class Element:
    """A ring element stored in normal form: standard monomials -> coeffs.

    Only its ring makes one (`ScrollRing._value`), one object per value
    per ring, and `code` is its index in `ring.palette`.  `terms` is a
    read-only view, because every caller of that value shares the object.
    """

    __slots__ = ("ring", "terms", "code")

    def __init__(self, ring: ScrollRing, terms: dict, code: int):
        self.ring = ring
        self.terms = MappingProxyType(terms)
        self.code = code

    def _check(self, other: "Element") -> None:
        if self.ring.spec != other.ring.spec:
            raise ValueError("elements from different rings")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree (of the largest term); -1 for the zero element."""
        return max((mono_degree(m) for m in self.terms), default=-1)

    def adegree(self) -> tuple[int, ...]:
        """Multidegree, defined only for multihomogeneous elements."""
        degs = {self.ring.adegree(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("element is not multihomogeneous")
        return degs.pop()

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m, 0) + c
            if acc:
                terms[m] = acc
            elif m in terms:
                del terms[m]
        return self.ring._value(terms)

    def __neg__(self) -> "Element":
        """-self, kept by code on the ring, so each value is negated once per ring."""
        negations = self.ring._negations
        if self.code not in negations:
            negations[self.code] = self.ring._value({m: -c for m, c in self.terms.items()})
        return negations[self.code]

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scalar_mul(self, c) -> "Element":
        return self.ring.product((self,), c)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        self._check(other)
        return self.ring.product((self, other))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.ring.spec == other.ring.spec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.spec, tuple(sorted(self.terms.items()))))

    def eval_modp(self, values: list[int], p: int) -> int:
        """Evaluate at x_i = values[i-1] over F_p.

        A Fraction coefficient whose denominator p divides has no image in
        F_p, so it is refused rather than sent to 0.
        """
        total = 0
        for m, c in self.terms.items():
            v = 1
            for i, e in enumerate(m):
                if e:
                    v = v * pow(values[i], e, p) % p
            if isinstance(c, Fraction):
                if c.denominator % p == 0:
                    raise ValueError(f"coefficient {c} has no image mod {p}: "
                                     f"{p} divides its denominator")
                cv = c.numerator % p * pow(c.denominator % p, p - 2, p) % p
            else:
                cv = int(c) % p
            total = (total + cv * v) % p
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            mono = format_monomial(m)
            if c < 0:
                sign, mag = "-", -c
            else:
                sign, mag = "+", c
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__


@lru_cache(maxsize=None)
def ring_for(spec: ScrollSpec) -> ScrollRing:
    return ScrollRing(spec)


# -- scroll-level convenience wrappers ----------------------------------

def is_standard(mono: Monomial, spec: ScrollSpec) -> bool:
    return ring_for(spec).is_standard(tuple(mono))


def normal_form(raw: dict, spec: ScrollSpec) -> Element:
    return ring_for(spec).element(raw)


def standard_monomials(spec: ScrollSpec, d: int) -> list[Monomial]:
    return ring_for(spec).standard_monomials(d)


def adegree(mono: Monomial, spec: ScrollSpec) -> tuple[int, ...]:
    return ring_for(spec).adegree(tuple(mono))
