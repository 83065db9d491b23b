"""Independent recomputation of graded Betti numbers over a finite field.

This is the anti-circularity check for the whole package: no resolution
formulas are consulted.  The minimal free resolution of the residue
field is rebuilt degree by degree from scratch -- multiplication maps on
standard-monomial bases, kernels of the previous differential, minimal
generator extraction -- and the generator counts are the graded Betti
numbers beta_{i,j}.

Because every monomial has a single standard monomial as normal form,
multiplication by a variable is a 0/1 matrix in the graded bases.  At
homological step i only internal degrees i-1 .. i+2 are materialised:
new generators can only appear there when the earlier window entries
vanished, and each window entry is asserted rather than assumed.  The
identities used are

  beta_{i,j} = dim ker(d_{i-1})_j - rank (d_i)_j        for j = i+1, i+2
  beta_{i,i} = dim ker(d_{i-1})_i
  beta_{i,i-1} = dim ker(d_{i-1})_{i-1}

where d_i is assembled from a kernel basis in degree i, so its image in
degrees i+1 and i+2 is exactly the submodule generated by that kernel
(degree i+2 additionally uses that beta_{i,i+1} = 0; a nonzero value
there is reported as a linearity failure in its own right).

Each differential is the previous kernel basis as F_p coordinates, and
each degree matrix is reduced once: the kernel of (d_i)_{i+1} is d_{i+1}
and gives rank (d_i)_{i+1}; an empty kernel makes all later entries 0.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat

from ._record import Record
from .linalg import Entries, nullspace_modp, rank_modp
from .primes import require_prime_modulus
from .ring import ring_for
from .scrolls import ScrollSpec
from .series import betti

_MAX_N = 7
_MAX_IMAX = 5


class BettiTable(Record):
    """Graded Betti numbers computed over F_modulus, homological index <= imax."""
    __slots__ = ("modulus", "entries", "imax")

    def __init__(self, modulus: int, entries: dict | None = None, imax: int = 0):
        self.modulus = modulus
        self.entries = {} if entries is None else entries  # (i, j) -> int
        self.imax = imax

    def get(self, i: int, j: int) -> int | None:
        return self.entries.get((i, j))

    def diagonal(self) -> list[int]:
        return [self.entries.get((i, i), 0) for i in range(self.imax + 1)]

    def to_json_obj(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "modulus": self.modulus,
            "entries": [
                {"i": i, "j": j, "value": str(v)} for (i, j), v in items
            ],
        }


@lru_cache(maxsize=None)
def graded_basis(spec: ScrollSpec, d: int) -> tuple:
    """Standard monomials of total degree d, lex-descending."""
    return tuple(ring_for(spec).standard_monomials(d))


@lru_cache(maxsize=None)
def _mult_table(spec: ScrollSpec, var: int, d: int) -> tuple[int, ...]:
    """Row index in basis d+1 of x_var * (each basis-d monomial)."""
    ring = ring_for(spec)
    src = graded_basis(spec, d)
    dst = {m: i for i, m in enumerate(graded_basis(spec, d + 1))}
    out = []
    for mono in src:
        e = list(mono)
        e[var - 1] += 1
        out.append(dst[ring.nf_monomial(tuple(e))])
    return tuple(out)


def multiplication_map(spec: ScrollSpec, var: int, d: int) -> Entries:
    """Multiplication by x_var from degree d to d+1, over any field, as `Entries`.

    Column c, the c-th monomial of degree d, holds one 1, in the row of
    x_var times it.  The oracle itself reads `_mult_table`; this form is
    for inspection and tests.
    """
    if not 1 <= var <= spec.n:
        raise ValueError(f"variable index {var} out of range")
    if d < 0:
        raise ValueError("degree must be non-negative")
    rows = _mult_table(spec, var, d)
    shape = (len(graded_basis(spec, d + 1)), len(rows))
    return Entries(shape, list(rows), list(range(len(rows))), [1] * len(rows))


def _degree_matrix(spec: ScrollSpec, d: Entries, a: int) -> Entries:
    """Degree piece of a differential whose entries are linear forms.

    `d` holds the differential as coordinates, in the layout of the
    kernel basis it was taken from: the coefficient of x_{v+1} in the
    (g, h) entry sits at row g*n + v, column h.  The returned matrix maps
    (h, mu in R_a) to (g, normal form of x*mu in R_{a+1}), one entry per
    entry of `d` and mu, in that order, as lists.
    """
    n = spec.n
    rb = len(graded_basis(spec, a + 1))
    ra = len(graded_basis(spec, a))
    tables = [_mult_table(spec, v + 1, a) for v in range(n)]
    # the rows of d's row g*n + v: g*rb + tables[v], once per row d holds
    shifted = {}
    for r in set(d.rows):
        g, v = divmod(r, n)
        shifted[r] = list(map((g * rb).__add__, tables[v]))
    spans = [range(h * ra, (h + 1) * ra) for h in range(d.shape[1])]
    rows = list(chain.from_iterable(map(shifted.__getitem__, d.rows)))
    cols = list(chain.from_iterable(map(spans.__getitem__, d.cols)))
    vals = list(chain.from_iterable(map(repeat, d.vals, repeat(ra))))
    return Entries((d.shape[0] // n * rb, d.shape[1] * ra), rows, cols, vals)


def betti_oracle(spec: ScrollSpec, imax: int, modulus: int) -> BettiTable:
    """Graded Betti numbers of the residue field over F_modulus.

    Entries are stored for the window j in {i-1, i, i+1, i+2} at each
    homological step i <= imax, plus beta_{0,0} = 1.
    """
    require_prime_modulus(modulus)
    if spec.n > _MAX_N or imax > _MAX_IMAX:
        raise ValueError(
            f"resource guard: oracle supports n <= {_MAX_N}, imax <= {_MAX_IMAX}"
        )
    if imax < 1:
        raise ValueError("imax must be at least 1")
    p = modulus
    n = spec.n
    # the augmentation kernel starts in degree 1
    table = BettiTable(p, {(0, 0): 1, (1, 0): 0}, imax)
    # step 1 starts from d_0, the augmentation: ker(d_0)_j = R_j for j >= 1,
    # so over its one generator the degree-1 kernel basis is the identity
    kernel = Entries((n, n), range(n), range(n), [1] * n)
    # ker(d_{i-1}) in degrees i+1 and i+2
    near, far = len(graded_basis(spec, 2)), len(graded_basis(spec, 3))
    for i in range(1, imax + 1):
        if i > 1:
            # degree i-1: columns of d_{i-1} there are the kernel basis itself
            m = _degree_matrix(spec, d, 0)
            table.entries[(i, i - 1)] = m.shape[1] - rank_modp(m, p)
            m = _degree_matrix(spec, d, 3)
            far = m.shape[1] - rank_modp(m, p)
        # degree i: the kernel's columns are the fresh minimal generators,
        # and the kernel is d_i
        d = kernel
        table.entries[(i, i)] = d.shape[1]
        m = _degree_matrix(spec, d, 1)
        if i < imax:  # ker(d_i)_{i+1} is the next step's kernel
            kernel = nullspace_modp(m, p)
            rank = m.shape[1] - kernel.shape[1]
        else:
            rank = rank_modp(m, p)
        table.entries[(i, i + 1)] = near - rank
        m = _degree_matrix(spec, d, 2)
        rank = rank_modp(m, p)
        table.entries[(i, i + 2)] = far - rank
        near = m.shape[1] - rank  # ker(d_i)_{i+2}
    return table


def compare_with_formula(spec: ScrollSpec, imax: int, modulus: int) -> dict:
    """Oracle table vs the closed-form Betti numbers; any mismatch reported."""
    table = betti_oracle(spec, imax, modulus)
    mismatches = []
    for i in range(imax + 1):
        want = betti(spec, i)
        got = table.get(i, i)
        if got != want:
            mismatches.append({"i": i, "j": i, "oracle": got, "formula": want})
    for (i, j), v in sorted(table.entries.items()):
        if i != j and v != 0:
            mismatches.append({"i": i, "j": j, "oracle": v, "formula": 0})
    return {
        "spec": str(spec),
        "modulus": modulus,
        "imax": imax,
        "ok": not mismatches,
        "mismatches": mismatches,
        "diagonal": table.diagonal(),
        "expected": [betti(spec, i) for i in range(imax + 1)],
        "table": table,
    }
