"""Exact linear algebra over a prime field F_p.

`rank_modp` and `nullspace_modp` are the entry points.  `Entries`,
coordinate sequences of integer values that add up at a repeated
coordinate, is the one matrix format they take and the one
`nullspace_modp` returns.  The matrices this package builds are sparse
and block-diagonal up to a permutation, so both split the entries into
the connected components of the row-column graph and reduce each
component with `_eliminate`, the one elimination loop.  No dense array
of the whole matrix, of the whole kernel basis or of a component is
allocated.

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
as the exact bytes of an array('q')): equal entries give an equal
result, values that are equal mod p count as equal, and a repeat whose
entries come in another order is merely reduced again.  The memo keeps
only what the caller uses, a rank or a kernel's local entries, and
nothing is kept between calls.

`require_prime_modulus` is the one modulus rule, for every entry point:
a prime p with 2 <= p < MAX_MODULUS = 2**26, from `primes`.  The module
runs on the standard library alone.  It reads lists, `array('q')` and
numpy arrays alike, integral floats included, and works on Python ints,
which is exact for any modulus; the bound keeps the documented range.
Its outputs, the kernel basis and `SparseMatrixR.eval_modp`'s images,
are `array('q')`, 8 bytes an entry.

The one resource bound is MAX_HELD_ENTRIES.  It refuses a component of
more entries before it is reduced, an elimination whose fill-in takes
it past the bound, and, through `require_held_entries`, a ring matrix
of more entries before it is evaluated (`SparseMatrixR.eval_modp`).
"""
from __future__ import annotations

from array import array
from itertools import accumulate, islice, repeat
from typing import NamedTuple, Sequence

from .primes import require_prime_modulus

# the most entries one elimination may hold at once, input and fill-in,
# each a dict slot and a Python int, and the most a ring matrix may have
# when it is evaluated mod p.  Under a 3 GiB address-space cap on a 2-core
# Xeon VM, inputs as array('q'): a 7-row component whose first pivot
# fills every other row (peak 7,999,993 entries; `fill_component(7,
# 615384)` in tests/test_linalg.py) reduces at 1.66 GB peak RSS for a
# rank and 1.83 GB for a kernel, 4 M rows of two entries over 10 columns
# (8 M entries) at 1.91 GB for either, and that component with 3.69 M
# single entries beside it (8 M entries) at 2.58 GB for a rank
MAX_HELD_ENTRIES = 8 * 10**6


class Entries(NamedTuple):
    """A sparse matrix as coordinate sequences of integer values (lists,
    `array('q')`, numpy arrays); values at a repeated coordinate add up."""
    shape: tuple[int, int]
    rows: Sequence[int]
    cols: Sequence[int]
    vals: Sequence[int]


def _blocks(a: Entries, p: int):
    """(cs, shape, triples) for each connected component, by smallest row.

    Rows and columns are the nodes and every entry is an edge.  A column
    joins the component of the first row that holds it, and a later row
    that holds it merges the two rows' components, the smaller member
    list into the larger.  A component's block has `shape`, over its rows
    and its columns `cs` (an array('q')), both ascending.  `triples` is a
    flat list of (local row, local column, int(value) % p), one per entry
    in the given order.  Rows and columns without entries belong to no
    component.  An entry that is 0 mod p only merges two components,
    which is still sound.  A modulus that `require_prime_modulus` refuses
    is refused here, for both entry points.
    """
    require_prime_modulus(p)
    m, n = a.shape
    comp = list(range(m))  # row -> its component, named by one of its rows
    members = {}  # component -> its rows, if it has two or more
    first = [-1] * n  # column -> the first row that holds it
    for r, c in zip(a.rows, a.cols):
        s = first[c]
        if s < 0:
            first[c] = r
            continue
        x, y = comp[r], comp[s]
        if x != y:
            mx = members.pop(x, None) or [x]
            my = members.pop(y, None) or [y]
            if len(mx) < len(my):
                x, mx, my = y, my, mx
            for v in my:
                comp[v] = x
            mx += my
            members[x] = mx
    # name each component after its smallest row, and number its rows
    row_local = [0] * m
    heights = {}  # component -> its number of rows, if two or more
    for rs in members.values():
        rs.sort()
        heights[rs[0]] = len(rs)
        for i, r in enumerate(rs):
            comp[r] = rs[0]
            row_local[r] = i
    cols_of = [None] * m  # component -> its columns, ascending
    local = [0] * n  # column -> its index among its component's
    for c, s in enumerate(first):
        if s >= 0:
            cs = cols_of[comp[s]]
            if cs is None:
                cs = cols_of[comp[s]] = array("q")
            local[c] = len(cs)
            cs.append(c)
    parts = [None if cs is None else [] for cs in cols_of]
    part = list(map(parts.__getitem__, comp))  # row -> its component's triples
    for r, c, v in zip(a.rows, a.cols, map(int, a.vals)):
        part[r] += (row_local[r], local[c], v % p)
    del comp, members, first, row_local, local, part  # not held while the blocks are reduced
    for k, cs in enumerate(cols_of):
        if cs is not None:
            yield cs, (heights.get(k, 1), len(cs)), parts[k]
            cols_of[k] = parts[k] = None


def require_held_entries(held: int, shape, verb: str = "eliminating") -> None:
    """Refuse `held` entries of a `shape` matrix above MAX_HELD_ENTRIES."""
    if held > MAX_HELD_ENTRIES:
        raise ValueError(f"resource guard: {verb} a {shape[0]}x{shape[1]} F_p block "
                         f"holds more than the supported {MAX_HELD_ENTRIES} entries")


def _eliminate(shape, triples, p: int, jordan: bool):
    """Sparse elimination of one component over F_p.

    The block of `shape` has the flat local `triples` that `_blocks`
    gives it.  Each row is a dict {column: residue} of Python ints:
    entries at one coordinate are added up mod p and zeros dropped.
    Columns are taken in increasing order; the pivot of a column is the
    shortest live row that holds it, and it clears that column in the
    other live rows, with no back-substitution.  Rank-only, the result is
    the number of pivots.

    With `jordan`, each pivot row is scaled to 1 at its pivot, and then,
    from the last pivot to the first, cleared at every later pivot column
    by the rows already reduced.  That is the unique reduced row echelon
    form R, and the result is (pivots, ends, cols, vals): the pivot
    columns, ascending, and for the k-th of them, from ends[k-1] (0 for
    the first) to ends[k] in cols and vals, its row's free columns,
    ascending, and minus R mod p there, in [1, p); all local, with cols
    and vals array('q').

    Holding more than MAX_HELD_ENTRIES entries at once is refused.
    """
    m, n = shape
    rows = [{} for _ in range(m)]
    # holders[c] lists the rows that have held column c; a row may be
    # listed under c twice, after it lost c to cancellation and regained it
    holders = [[] for _ in range(n)]
    flat = iter(triples)
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
    ends, fc, fv = [], array("q"), array("q")
    for j in pc:
        row = pivots.pop(j)
        del row[j]
        free = sorted(row)
        fc.extend(free)
        fv.extend(map(p.__sub__, map(row.__getitem__, free)))
        ends.append(len(fc))
    return pc, ends, fc, fv


def _reduced(a: Entries, p: int, jordan: bool):
    """(cs, _eliminate(...)) for each connected component.

    A component whose shape and local triples, residues included, equal
    byte for byte those of one already seen in this call reuses its
    result, which is all the memo keeps: a rank, or a kernel's local
    entries.  A component of more than MAX_HELD_ENTRIES entries is refused
    before its key is copied out of it.
    """
    seen = {}
    for cs, shape, triples in _blocks(a, p):
        require_held_entries(len(triples) // 3, shape)
        key = (shape, array("q", triples).tobytes())
        if key not in seen:
            seen[key] = _eliminate(shape, triples, p, jordan)
        yield cs, seen[key]


def rank_modp(a: Entries, p: int) -> int:
    """Rank over F_p: the sum of the ranks of the connected components."""
    return sum(rank for _, rank in _reduced(a, p, False))


def nullspace_modp(a: Entries, p: int) -> Entries:
    """Basis of the right kernel over F_p, as an n x nullity `Entries`.

    One column per non-pivot column c of the reduced row echelon form, in
    increasing c: 1 at c, minus column c of R at the pivot positions, and
    nothing elsewhere.  Columns without entries give unit vectors.  Each
    coordinate appears once, in row-major order, valued in [1, p); rows,
    cols and vals are array('q').

    The entries come out in order without a sort of them: the row of a
    free column holds its unit entry alone, a run of free rows takes a
    run of basis columns (`slot`), and only the pivot rows are sorted,
    each holding its free columns in ascending order already.
    """
    n = a.shape[1]
    free = bytearray(b"\x01") * n
    pivot_rows = []  # (pivot column, its range in cols and vals, cols, vals, cs)
    for cs, (pivots, ends, fc, fv) in _reduced(a, p, True):
        for j, lo, hi in zip(pivots, [0, *ends], ends):
            free[cs[j]] = 0
            pivot_rows.append((cs[j], lo, hi, fc, fv, cs))
    pivot_rows.sort()
    # the basis column of each free column
    slot = array("q", islice(accumulate(free, initial=-1), 1, None))
    rows, cols, vals = array("q"), array("q"), array("q")

    def units(lo: int, hi: int) -> None:
        """The unit entries of the free columns lo..hi-1, all free."""
        if lo < hi:
            rows.extend(range(lo, hi))
            cols.extend(range(slot[lo], slot[lo] + hi - lo))
            vals.extend(repeat(1, hi - lo))
    after = 0  # the rows before it are written
    for g, lo, hi, fc, fv, cs in pivot_rows:
        units(after, g)
        rows.extend(repeat(g, hi - lo))
        cols.extend(map(slot.__getitem__, map(cs.__getitem__, fc[lo:hi])))
        vals.extend(fv[lo:hi])
        after = g + 1
    units(after, n)
    return Entries((n, free.count(1)), rows, cols, vals)
