"""Exact linear algebra over a prime field F_p.

`rank_modp` and `nullspace_modp` are the entry points.  `Entries`, coordinate
lists of integer values that add up at a repeated coordinate, is the one
matrix format they take and the one `nullspace_modp` returns.  The matrices
this package builds are sparse and block-diagonal up to a permutation,
so both split the entries into the connected components of the
row-column graph and reduce each component with `_eliminate`, the one
elimination loop.  No array of the whole matrix or of the whole kernel
basis is allocated, and no dense array of a component either.

`_eliminate` works on the component's entries: each row is a dict of
Python-int residues, columns are taken in increasing order, and the
pivot of a column is the shortest live row that holds it.  The blocks
the CLI builds are sparse and stay sparse under elimination, so work
and memory follow the entries and their fill-in, not the cells; a dense
block costs more than a dense-array elimination would.  `rank_modp`
stops at the echelon form; `nullspace_modp` goes on to the reduced row
echelon form, which is unique, so its kernel basis does not depend on
the pivot order.

The same few blocks repeat many times along the diagonal, so within one
call each distinct component is reduced once.  Components are compared
by their shape and their local entries (row, column and residue mod p,
as exact bytes): equal entries give an equal result, values that are
equal mod p count as equal, and a repeat whose entries come in another
order is merely reduced again.  The memo keeps only what the caller uses, a
rank or a kernel's local entries, and nothing is kept between calls.

`require_prime_modulus` is the one modulus rule, for every entry point:
a prime p with 2 <= p < MAX_MODULUS = 2**26.  It is defined in the
numpy-free `primes`.
Residues are int64 from `SparseMatrixR.eval_modp` to the kernel basis,
and Python ints inside the elimination, which is exact for any modulus;
the bound keeps the documented range.

The one resource bound is MAX_HELD_ENTRIES.  It refuses a component of
more entries before it is reduced, an elimination whose fill-in takes
it past the bound, and, through `require_held_entries`, a ring matrix
of more entries before it is evaluated (`SparseMatrixR.eval_modp`).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .primes import require_prime_modulus

# the most entries one elimination may hold at once, input and fill-in,
# each a dict slot and a Python int, and the most a ring matrix may have
# when it is evaluated mod p.  Under a 3 GiB address-space cap, a
# 7-row component whose first pivot fills every other row (peak 7,999,993
# entries; `fill_component(7, 615384)` in tests/test_linalg.py) reduces
# at 1.9 GB peak RSS for a rank and 2.1 GB for a kernel, and 4 M rows of
# two entries over 10 columns (8 M entries) at 2.4 GB; at a 10 M peak the
# kernel reached 2.75 GB
MAX_HELD_ENTRIES = 8 * 10**6


class Entries(NamedTuple):
    """A sparse matrix as coordinate lists of integer values; values at a
    repeated coordinate add up."""
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _blocks(a: Entries, p: int):
    """(cs, shape, entries) for each connected component.

    Rows and columns are the nodes and every entry is an edge.
    Union-find on whole arrays: each root is hooked to the smallest root
    it shares an edge with, then labels jump to their roots, until every
    edge joins equal labels.  A component's block has `shape`, over its
    rows and its columns `cs`, both ascending.  `entries` is its slice of
    one int64 array of all entries, sorted by component once: a row
    (local row, local column, value mod p) per entry, in the given order
    within the component.  Rows and columns without entries belong to no
    component.  An entry that is 0 mod p only merges two components,
    which is still sound.  The local indices of all components come from
    one pass over the rows and one over the columns (`_local`).  A
    modulus that `require_prime_modulus` refuses is refused here, for
    both entry points.
    """
    require_prime_modulus(p)
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
    local_row, _, nr = _local(label[:m], a.rows)
    local_col, cs, nc = _local(label[m:], a.cols)
    order = np.argsort(lu, kind="stable")
    entries = np.empty((order.size, 3), dtype=np.int64)
    entries[:, 0] = local_row[a.rows[order]]
    entries[:, 1] = local_col[a.cols[order]]
    entries[:, 2] = np.mod(a.vals[order], p)
    ends = np.append(np.flatnonzero(np.diff(lu[order])) + 1, order.size).tolist()
    e0 = c0 = 0
    for e1, r, c in zip(ends, nr, nc):
        yield cs[c0:c0 + c], (r, c), entries[e0:e1]
        e0, c0 = e1, c0 + c


def _local(label, index):
    """np.unique(index[e], return_inverse=True) for the entries e of every
    component at once.

    `label` holds the component of each row (or column), and `index` the
    row (or column) of each entry.  Returns, per row, its rank among the
    rows with entries in its component; the rows with entries, by
    component in increasing label and ascending within one; and how many
    of them each component has.
    """
    used = np.zeros(label.size, dtype=bool)
    used[index] = True
    nodes = np.flatnonzero(used)
    lab = label[nodes]
    o = np.argsort(lab, kind="stable")
    nodes = nodes[o]
    first = np.flatnonzero(np.diff(lab[o], prepend=-1))
    counts = np.diff(np.append(first, nodes.size))
    local = np.empty(label.size, dtype=np.intp)
    local[nodes] = np.arange(nodes.size) - np.repeat(first, counts)
    return local, nodes, counts.tolist()


def require_held_entries(held: int, shape, verb: str = "eliminating") -> None:
    """Refuse `held` entries of a `shape` matrix above MAX_HELD_ENTRIES."""
    if held > MAX_HELD_ENTRIES:
        raise ValueError(f"resource guard: {verb} a {shape[0]}x{shape[1]} F_p block "
                         f"holds more than the supported {MAX_HELD_ENTRIES} entries")


def _eliminate(shape, entries, p: int, jordan: bool):
    """Sparse elimination of one component over F_p.

    The block of `shape` has `entries`, rows (local row, local column,
    residue) as `_blocks` gives them, read with one `tolist`.  Each row is
    a dict {column: residue} of Python ints: entries at one coordinate are
    added up mod p and zeros dropped.  Columns are taken in increasing
    order; the pivot of a column is the shortest live row that holds it,
    and it clears that column in the other live rows, with no
    back-substitution.  Rank-only, the result is the number of pivots.

    With `jordan`, each pivot row is scaled to 1 at its pivot, and then,
    from the last pivot to the first, cleared at every later pivot column
    by the rows already reduced.  That is the unique reduced row echelon
    form R, and the result is (pivots, rows, cols, vals): the pivot
    columns, ascending, and minus R mod p at each pivot row's free
    columns, as (pivot column, free column, value in [1, p)), all local.

    Holding more than MAX_HELD_ENTRIES entries at once is refused.
    """
    m, n = shape
    rows = [{} for _ in range(m)]
    # holders[c] lists the rows that have held column c; a row may be
    # listed under c twice, after it lost c to cancellation and regained it
    holders = [[] for _ in range(n)]
    flat = iter(entries.ravel().tolist())
    for r, c, v in zip(flat, flat, flat):
        row = rows[r]
        if c in row:
            row[c] = (row[c] + v) % p
        else:
            row[c] = v
            holders[c].append(r)
    for r, row in enumerate(rows):
        if 0 in row.values():
            rows[r] = {c: v for c, v in row.items() if v}
    held = sum(map(len, rows))
    done: dict = {}  # a row that became a pivot holds no column any more
    pivots = {}  # pivot column -> its row scaled to 1 there (Gauss-Jordan)
    rank = 0
    for j in range(n):
        hs = [r for r in holders[j] if j in rows[r]]
        holders[j] = None
        if not hs:
            continue
        piv = min(hs, key=lambda r: len(rows[r]))
        prow = rows[piv]
        rows[piv] = done
        rank += 1
        inv = pow(prow[j], -1, p)
        tail = [(c, (p - v) * inv % p) for c, v in prow.items() if c != j]
        for r in hs:
            row = rows[r]
            if j not in row:  # the pivot row, or a row listed twice
                continue
            f = row.pop(j)
            k = len(row)
            for c, v in tail:
                x = row.get(c)
                if x is None:
                    row[c] = f * v % p
                    holders[c].append(r)
                else:
                    x = (x + f * v) % p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
            held += len(row) - k - 1
            require_held_entries(held, shape)
        if jordan:
            pivots[j] = {c: v * inv % p for c, v in prow.items()}
        else:
            held -= len(prow)
    if not jordan:
        return rank
    for j in sorted(pivots, reverse=True):
        row = pivots[j]
        k = len(row)
        for c in [c for c in row if c != j and c in pivots]:
            f = row.pop(c)
            for c2, v in pivots[c].items():
                if c2 != c:
                    x = (row.get(c2, 0) - f * v) % p
                    if x:
                        row[c2] = x
                    else:
                        del row[c2]
        held += len(row) - k
        require_held_entries(held, shape)
    pc = sorted(pivots)
    counts, fc, fv = [], [], []
    for j in pc:
        row = pivots.pop(j)
        del row[j]
        counts.append(len(row))
        fc += row
        fv += row.values()
    pc = np.array(pc, dtype=np.intp)
    return (pc, np.repeat(pc, counts), np.array(fc, dtype=np.intp),
            p - np.array(fv, dtype=np.int64))


def _reduced(a: Entries, p: int, jordan: bool):
    """(cs, _eliminate(...)) for each connected component.

    A component whose shape and local entries, residues included, equal
    byte for byte those of one already seen in this call reuses its
    result, which is all the memo keeps: a rank, or a kernel's local
    entries.  A component of more than MAX_HELD_ENTRIES entries is refused
    before its key is copied out of it.
    """
    seen = {}
    for cs, shape, entries in _blocks(a, p):
        require_held_entries(len(entries), shape)
        key = (shape, entries.tobytes())
        if key not in seen:
            seen[key] = _eliminate(shape, entries, p, jordan)
        yield cs, seen[key]


def rank_modp(a: Entries, p: int) -> int:
    """Rank over F_p: the sum of the ranks of the connected components."""
    return sum(rank for _, rank in _reduced(a, p, False))


def nullspace_modp(a: Entries, p: int) -> Entries:
    """Basis of the right kernel over F_p, as an n x nullity `Entries`.

    One column per non-pivot column c of the reduced row echelon form, in
    increasing c: 1 at c, minus column c of R at the pivot positions, and
    nothing elsewhere.  Columns without entries give unit vectors.  Each
    coordinate appears once, in row-major order, valued in [1, p) (int64).
    """
    n = a.shape[1]
    free = np.ones(n, dtype=bool)
    parts = []  # (rows, free columns, values) of each component's entries
    for cs, (pivots, r, c, v) in _reduced(a, p, True):
        free[cs[pivots]] = False
        parts.append((cs[r], cs[c], v))
    fc = np.flatnonzero(free)
    rows, cols, vals = (np.concatenate(x) for x in zip((fc, fc, np.ones_like(fc)), *parts))
    order = np.lexsort((cols, rows))
    slot = np.cumsum(free) - 1  # basis column of each free column
    return Entries((n, fc.size), rows[order], slot[cols[order]], vals[order])
