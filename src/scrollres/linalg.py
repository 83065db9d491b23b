"""Exact linear algebra over a prime field F_p.

`rank_modp` and `nullspace_modp` are the entry points.  `Entries`, coordinate
lists whose values add up at a repeated coordinate, is the one matrix
format they take and the one `nullspace_modp` returns.  The matrices
this package builds are sparse and block-diagonal up to a permutation,
so both split the entries into the connected components of the
row-column graph, build a dense block for each component only, and
reduce it with `rref_modp`, the one elimination loop.  No array of the
whole matrix or of the whole kernel basis is allocated.

The same few blocks repeat many times along the diagonal, so within one
call each distinct component is built and reduced once.  Components are
compared by their local entries (shape, row and column indices, values,
all as exact bytes): equal entries give an equal block, and a repeat
whose entries come in another order is merely reduced again.  Nothing
is kept between calls.

Blocks are float64 arrays holding exact integers.  Reduction keeps
signed residues in [-p/2, p/2]; scaling a pivot row by an inverse in
[1, p) stays below p**2 / 2, and an elimination update adds at most
p**2 / 4 to a residue.  So every intermediate stays below p**2 / 2
whatever the matrix size, which is exact in float64 (and in
`reduce_mod`) for p < MAX_MODULUS = 2**26.  Larger moduli are refused.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

MAX_MODULUS = 2**26
# the most cells a dense block may have: under a 3 GiB address-space cap,
# phi2's 1406 x 52022 block on blocks (20,20) (73.1 M cells) reduces at
# 2.0 GB peak RSS, and a 16-row block of 75 M cells whose first pivot
# fills every row reduces too; phi2's 1722 x 70602 on (22,22) runs out
MAX_BLOCK_CELLS = 75 * 10**6


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def require_exact_modulus(p: int) -> None:
    """Refuse a modulus outside [2, MAX_MODULUS).

    Callers run this before `is_prime`, whose trial division takes time
    proportional to the square root of the modulus.
    """
    if not 2 <= p < MAX_MODULUS:
        raise ValueError(
            f"modulus {p} is outside 2 <= p < 2**26, the range where "
            "float64 elimination over F_p is exact"
        )


def reduce_mod(a: np.ndarray, p: int) -> np.ndarray:
    """In-place signed residue of a mod p, exact, for float64 integer arrays.

    Rounds a/p to the nearest integer k and subtracts k*p, leaving values
    in [-p/2, p/2].  For odd p and |a| < 2**52 this is exact: a/p is never
    within float error of a half-integer (that would need 2*(a mod p) = p),
    and both k*p and the subtraction are exact in float64.  Mask- and
    branch-free, so it is fast on small slices too (~30x faster than '%').
    """
    q = np.multiply(a, 1.0 / p, dtype=np.float64)
    np.rint(q, out=q)
    q *= p
    a -= q
    return a


def rref_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p; returns (R, pivot_columns)."""
    A = np.array(a, dtype=np.float64)
    m, n = A.shape
    reduce_mod(A, p)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        # rows r.. vanish left of c, so the pivot row does and only
        # columns c.. change
        row = A[r, c:] * pow(int(A[r, c]), p - 2, p)
        reduce_mod(row, p)
        A[r, c:] = row
        col = A[:, c].copy()
        col[r] = 0.0
        nzr = np.flatnonzero(col)
        if nzr.size:
            sub = A[nzr, c:]  # fancy indexing copies; write back explicitly
            sub -= np.outer(col[nzr], row)
            reduce_mod(sub, p)
            A[nzr, c:] = sub
        pivots.append(c)
        r += 1
    return A, pivots


class Entries(NamedTuple):
    """A sparse matrix as coordinate lists; values at a repeated
    coordinate add up."""
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _blocks(a: Entries, p: int):
    """(cs, ri, ci, vals, shape) for each connected component.

    Rows and columns are the nodes and every entry is an edge.
    Union-find on whole arrays: each root is hooked to the smallest root
    it shares an edge with, then labels jump to their roots, until every
    edge joins equal labels.  A component's block has `shape`, over its
    rows and its columns `cs`, both ascending; its entries sit at local
    rows `ri` and local columns `ci`.  Rows and columns without entries
    belong to no component.  An entry that is 0 mod p only merges two
    components, which is still sound.  Moduli outside [2, MAX_MODULUS)
    are refused here, for both entry points.
    """
    require_exact_modulus(p)
    m = a.shape[0]
    u, v = a.rows, a.cols + m
    label = np.arange(m + a.shape[1])
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            break
        lo = np.minimum(lu, lv)
        np.minimum.at(label, lu, lo)
        np.minimum.at(label, lv, lo)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    order = np.argsort(lu, kind="stable")
    for e in np.split(order, np.flatnonzero(np.diff(lu[order])) + 1):
        rs, ri = np.unique(a.rows[e], return_inverse=True)
        cs, ci = np.unique(a.cols[e], return_inverse=True)
        yield cs, ri, ci, a.vals[e], (rs.size, cs.size)


def _reduced(a: Entries, p: int, reduce):
    """(cs, reduce(block)) for each connected component.

    A component whose shape and local entries equal, byte for byte, those
    of one already seen in this call reuses its result; only a new one
    gets a dense block.  A block of more than MAX_BLOCK_CELLS cells is
    refused before it is allocated.
    """
    seen = {}
    for cs, ri, ci, vals, shape in _blocks(a, p):
        key = (shape, ri.tobytes(), ci.tobytes(), vals.tobytes())
        if key not in seen:
            if shape[0] * shape[1] > MAX_BLOCK_CELLS:
                raise ValueError(f"resource guard: a {shape[0]}x{shape[1]} F_p block "
                                 f"has more than the supported {MAX_BLOCK_CELLS} cells")
            block = np.zeros(shape)
            np.add.at(block, (ri, ci), vals)
            seen[key] = reduce(block)
        yield cs, seen[key]


def rank_modp(a: Entries, p: int) -> int:
    """Rank over F_p: the sum of the ranks of the connected components."""
    return sum(len(pivots) for _, pivots in
               _reduced(a, p, lambda b: rref_modp(b, p)[1]))


def nullspace_modp(a: Entries, p: int) -> Entries:
    """Basis of the right kernel over F_p, as an n x nullity `Entries`.

    One column per non-pivot column c of the reduced row echelon form, in
    increasing c: 1 at c, minus column c of R at the pivot positions, and
    nothing elsewhere.  Columns without entries give unit vectors.  Each
    coordinate appears once, in row-major order, valued in [1, p) (float64).
    """
    n = a.shape[1]
    free = np.ones(n, dtype=bool)
    parts = []  # (rows, free columns, values) of each component's entries
    for cs, (R, pivots) in _reduced(a, p, lambda b: rref_modp(b, p)):
        free[cs[pivots]] = False
        f = np.flatnonzero(free[cs])
        block = np.mod(-R[:len(pivots), f], p)
        r, c = np.nonzero(block)
        parts.append((cs[pivots][r], cs[f][c], block[r, c]))
    fc = np.flatnonzero(free)
    rows, cols, vals = (np.concatenate(x) for x in zip((fc, fc, np.ones(fc.size)), *parts))
    order = np.lexsort((cols, rows))
    slot = np.cumsum(free) - 1  # basis column of each free column
    return Entries((n, fc.size), rows[order], slot[cols[order]], vals[order])
