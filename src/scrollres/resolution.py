"""Differential constructors and the mapping-cone resolution for 2-scrolls.

Everything here is specific to k = 2.  Writing m, p for the block sizes
(m + p = n), the building blocks are:

  phi0        2 x (n-2), the scroll matrix with rows swapped and signed
  staircase   d x (d-1)(n-2), d-1 copies of phi0 overlapping by one row
  phi1        (n-2) x (n-2)(n-3), three column bands
  phi2        (n-2)(n-3) x (n-2)(n-3)^2, three row bands
  phi_i       block-diagonal recursion for i >= 3

The free resolutions of the ideals I1 = (x_1..x_m), I2 = (x_{m+1}..x_n)
and J = I1 n I2 are assembled from these, and the resolution of the
residue field is the mapping cone of the chain map alpha that lifts the
inclusion J -> I1 (+) I2, shifted by the augmentation.

Storage.  A matrix is either a leaf, whose entries are a dict
{(row, col): Element}, or a grid: row block starts, column block starts
and a {(i, j): block} dict, each block filling its cell and shared, not
copied (`_grid`).  phi_i for i >= 2, alpha_i for i >= 1, the ideal steps
and the cone steps are grids over shared nodes (the cached phi and
-phi matrices, the u/v blocks, the scalar identities), so a differential
is a tree with few distinct nodes although its entries grow like
(n-3)^i.  phi0, phi1 and the staircases are leaves.  The layout follows
the mapping cone: a direct sum is a diagonal grid, phi_i (i >= 3) is the
direct sum of its three runs of copies, phi2's column bands are phi3's
runs, and cone step i >= 3 is the 2 x 2 grid
[I1 (+) I2 copies | alpha_{i-2}; 0 | -J copies].  alpha_i (i >= 1) is
a direct sum of scalar identities s * I on phi_i's rows, built by phi's
own recursion (`_phi`): the direct sum of the runs over i-1, i-2 and
i-1, down to one leaf per row band of phi_i for i <= 2.  So, from phi2
and cone step 3 on, the column blocks of one differential are the row
blocks of the next, at every level down to phi1.  A grid's
`entries` is a read-only view that lists entries in block order; the
consumers on the CLI's paths (the product, `eval_modp`, the writer,
minimality) visit each distinct node once per call instead: `_arrays`
gives a node's coordinate and value arrays, concatenated from its
blocks' with their offsets.

Products.  `A @ B` is block multiplication: where both factors are grids
and A's column starts are B's row starts, block (i, k) of the product is
the sum over j of A[i, j] @ B[j, k], computed the same way, once per
distinct list of (left, right) pairs.  phi_i @ phi_{i+1} so comes down
to products at the phi1 @ phi2 level, and so does each cone coupling
phi_j (s * I) + (s * I)(-phi_j).  A leaf or blocks that do not line up
give one join of the pairs' entries (`_ProductRun.join`), a plain loop:
the right factor's entries are bucketed by row, and each contribution
adds the terms of its value pair's product, multiplied once, to its
position's sums.  The memos of node products and value-pair
products live in one `_ProductRun`: each `@` makes its own, and
`check_complex` holds one for the whole check, so a pair of the shared
nodes that recurs from step to step is multiplied once.  Only products
of cached nodes (marked by `_shared`) are kept; a step's own grids never
recur.  The couplings of step i with step i+1 are then memo hits from
the step before, as phi_j @ phi_{j+1} is, and on every 2-block scroll a
check of any length makes the same joins, all in its first five
products (the largest on (4,5) holds 686 entries over both factors).

Writing.  `write_json` and `write_text` stream one step at a time.  A
step's entries come as position keys and entry codes, gathered from its
cached nodes and fresh leaves (`_keyed`) and sorted once.  Each entry is
written as three pieces: a row piece and a column numeral, formatted once
per row and per distinct column of a chunk, and an entry piece, formatted
once per distinct Element; numpy gathers them for one join per chunk
(`_entry_writer`).  One write keeps the cached leaves' arrays and each
Element's piece for all its steps, so blocks (2,2) pay for them once.
`to_json_obj` and `to_text_lines` share none of this: they format each
entry of `items_sorted()` on its own, and the writer's output must equal
theirs byte for byte.

Column offsets of the single-row u/v blocks inside phi2's central band
are not forced by the block shapes alone; this implementation pins the
u stack to the left edge and the v stack to the right edge of the band,
the unique placement for which phi1 @ phi2 vanishes (checked for every
block pair exercised by the test suite).
"""
from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import accumulate, chain
from types import MappingProxyType

import numpy as np

from .linalg import Entries, require_held_entries
from .scrolls import ScrollSpec, scroll_matrix
from .ring import Element, ScrollRing, ring_for
from .series import betti

# (4,5) at step 8, rank 2,667,168: `resolve --out` peaks near 240 MB and
# `verify` near 560 MB, each in under 10 s; `verify --checks
# complex,minimal,minors` materialises no step and takes 0.4 s at 33 MB.
# Step 7 (rank 444,528) peaks near 80 MB.  Step 9 has 6x the rank and
# would need ~6x the memory.
MAX_FREE_RANK = 3 * 10**6
# the rank guard cannot bound blocks (2,2), where beta_i = 8 for every
# i >= 3; every other scroll stops by step 19.  This bounds the output:
# `check_complex` on (2,2) makes the same 13 joins at any length.  At 5000
# steps, cold on a 2-core Xeon VM: `resolve --out` 1.0 s at 42 MB peak RSS,
# writing 7.0 MB, and `verify --checks complex,minimal` 0.9 s at 43 MB;
# both grow linearly in the steps.
MAX_STEPS = 5000


class SparseMatrixR:
    """A matrix over the scroll ring: a leaf {(row, col): Element}, or a grid.

    Indices are 0-based.  Zero elements are never stored; duplicate
    positions are rejected at construction.  A grid (`blocks` is a
    {(i, j): matrix} dict, block (i, j) starting at row_starts[i],
    col_starts[j]) has a read-only `entries` view; a leaf's `blocks` is
    None.  The cached constructors (`phi0`, `phi1`, `phi2`, `phi`,
    `alpha`) hand out read-only entries, down to every leaf, and mark
    each node they hold `cached`; `copy()` gives a writable leaf.
    """

    __slots__ = ("ring", "rows", "cols", "entries", "row_starts", "col_starts", "blocks",
                 "cached")

    def __init__(self, ring: ScrollRing, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.row_starts = self.col_starts = self.blocks = None
        self.cached = False  # set by `_shared`: the node lives, read-only, as long as its cache
        self.entries: dict[tuple[int, int], Element] = {}
        if entries:
            for (r, c), e in (entries.items() if isinstance(entries, Mapping) else entries):
                self.set(r, c, e)

    def set(self, r: int, c: int, e: Element) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        if (r, c) in self.entries:
            raise ValueError(f"duplicate entry at ({r},{c})")
        if not e.is_zero():
            self.entries[(r, c)] = e

    def get(self, r: int, c: int) -> Element:
        return self.entries.get((r, c), self.ring.zero())

    def items_sorted(self):
        return sorted(self.entries.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrixR)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __matmul__(self, other: "SparseMatrixR") -> "SparseMatrixR":
        """The exact product, by block multiplication where the grids line up.

        See the module docstring; the result equals the join of the two
        materialised matrices entry for entry.  Each call has its own
        memos; `check_complex` shares one `_ProductRun` across a check.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return _ProductRun().product(((self, other),))

    def __neg__(self) -> "SparseMatrixR":
        """-self, sharing structure: each distinct node is negated once."""
        def leaf(m):
            return _leaf(m.ring, m.rows, m.cols,
                         {pos: _negated(e) for pos, e in m.entries.items()})

        def node(m, parts):
            return _grid(m.ring, _sizes(m.row_starts, m.rows), _sizes(m.col_starts, m.cols),
                         dict(zip(m.blocks, parts)))
        return _per_node(self, leaf, node, {})

    def first(self, pred) -> tuple[int, int, Element] | None:
        """(row, col, entry) of the first entry in iteration order with pred(entry).

        Each distinct node is searched once; None if no entry matches.
        """
        def leaf(m):
            return next(((r, c, e) for (r, c), e in m.entries.items() if pred(e)), None)

        def node(m, hits):
            return next(((m.row_starts[i] + hit[0], m.col_starts[j] + hit[1], hit[2])
                         for (i, j), hit in zip(m.blocks, hits) if hit), None)
        return _per_node(self, leaf, node, {})

    def require_evaluable(self) -> None:
        """Refuse a matrix of more than MAX_HELD_ENTRIES entries; visits
        each distinct node once and builds no array."""
        require_held_entries(len(self.entries), (self.rows, self.cols), "evaluating")

    def eval_modp(self, values: list[int], p: int) -> Entries:
        """The entries' images at x_i = values[i-1] mod p, one per entry.

        Each distinct node is visited, and each `Element` object
        evaluated, once.  A matrix of more than MAX_HELD_ENTRIES entries
        is refused first (`require_evaluable`).
        """
        self.require_evaluable()
        rows, cols, vals = _arrays(self, lambda e: e.eval_modp(values, p), {})
        return Entries((self.rows, self.cols), rows, cols, vals)

    def to_json_obj(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[r, c, str(e)] for (r, c), e in self.items_sorted()]}

    def to_text_lines(self) -> list[str]:
        return [f"{r} {c} {e}" for (r, c), e in self.items_sorted()]

    def copy(self) -> "SparseMatrixR":
        out = SparseMatrixR(self.ring, self.rows, self.cols)
        out.entries = dict(self.entries.items())
        return out


class _GridView(Mapping):
    """The read-only {(row, col): Element} view of a grid.

    Iteration walks the blocks in order, so entries come in the order a
    copy of every block into one dict would give; `len` and lookups
    visit no entry.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat: SparseMatrixR):
        self._mat = mat

    def __len__(self) -> int:
        return _per_node(self._mat, lambda m: len(m.entries), lambda m, sizes: sum(sizes), {})

    def __iter__(self):
        return (pos for pos, _ in _walk(self._mat, 0, 0))

    def __getitem__(self, key):
        mat, (r, c) = self._mat, key
        if not (0 <= r < mat.rows and 0 <= c < mat.cols):
            raise KeyError(key)
        while mat.blocks is not None:  # blocks fill their cells: (r, c) stays inside
            i, j = bisect_right(mat.row_starts, r) - 1, bisect_right(mat.col_starts, c) - 1
            if (i, j) not in mat.blocks:
                raise KeyError(key)
            mat, r, c = mat.blocks[i, j], r - mat.row_starts[i], c - mat.col_starts[j]
        try:
            return mat.entries[(r, c)]
        except KeyError:
            raise KeyError(key) from None

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return _walk(self._mapping._mat, 0, 0)


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return (e for _, e in _walk(self._mapping._mat, 0, 0))


def _walk(mat: SparseMatrixR, r0: int, c0: int):
    """((row, col), entry) for each entry of mat offset by (r0, c0), in block order."""
    if mat.blocks is None:
        for (r, c), e in mat.entries.items():
            yield (r0 + r, c0 + c), e
    else:
        for (i, j), part in mat.blocks.items():
            yield from _walk(part, r0 + mat.row_starts[i], c0 + mat.col_starts[j])


def _per_node(mat: SparseMatrixR, leaf, node, memo: dict, cached: dict | None = None):
    """leaf(mat) for a leaf, else node(mat, [the result for each block]).

    Each distinct node is visited once per memo.  With `cached` given,
    the results of cached leaves go there instead, to outlive memo: a
    leaf's result is made entry by entry, a grid's only from its blocks'.
    """
    table = cached if cached is not None and mat.cached and mat.blocks is None else memo
    key = id(mat)
    if key not in table:
        table[key] = leaf(mat) if mat.blocks is None else node(
            mat, [_per_node(part, leaf, node, memo, cached) for part in mat.blocks.values()])
    return table[key]


def _arrays(mat: SparseMatrixR, fn, memo: dict, cached: dict | None = None,
            images: dict | None = None):
    """(rows, cols, fn(entry)) intp arrays of mat's entries, in iteration order.

    fn runs once per distinct Element object per images memo (one per
    call if none is given); a grid concatenates its blocks' arrays, each
    distinct node's built once per memo and `cached` (see `_per_node`).
    """
    images = {} if images is None else images

    def image(e):
        key = id(e)
        if key not in images:
            images[key] = fn(e)
        return images[key]

    def leaf(m):
        flat = np.fromiter(chain.from_iterable(m.entries), np.intp, 2 * len(m.entries))
        rows, cols = flat.reshape(-1, 2).T
        return rows, cols, np.array([image(e) for e in m.entries.values()], dtype=np.intp)

    def node(m, parts):
        offsets = [(m.row_starts[i], m.col_starts[j]) for i, j in m.blocks]
        return (np.concatenate([r + r0 for (r0, _), (r, _, _) in zip(offsets, parts)]),
                np.concatenate([c + c0 for (_, c0), (_, c, _) in zip(offsets, parts)]),
                np.concatenate([v for _, _, v in parts]))
    return _per_node(mat, leaf, node, memo, cached)


class _ProductRun:
    """The memos of one `@` or one check: value ids, value-pair and node products.

    Equal entry values share one id (`intern`), so each distinct pair of
    values is multiplied and normal-formed once per run (`expansion`).
    The node products are keyed by object ids and keep pairs of cached
    nodes only: those live as long as their caches and recur from step
    to step, while a step's own grids, and their products, are not
    looked up again.  A check makes a few small joins on every 2-block
    scroll, so the joins are loops over Python lists, not numpy.
    """

    def __init__(self):
        self.value_ids: dict[frozenset, int] = {}
        self.values: list[Element] = []
        self.expansions: dict[tuple[int, int], tuple] = {}
        self.products: dict[tuple, SparseMatrixR] = {}

    def intern(self, e: Element) -> int:
        key = frozenset(e.terms.items())
        if key not in self.value_ids:
            self.value_ids[key] = len(self.values)
            self.values.append(e)
        return self.value_ids[key]

    def product(self, terms: tuple) -> SparseMatrixR:
        """The sum of lhs @ rhs over the (lhs, rhs) pairs in terms; once per run if all are cached.

        Where every pair is two grids, the left factors on one row grid,
        the right factors on one column grid and each left factor's column
        starts the right one's row starts, block (i, k) is the product of
        the pairs (lhs[i, j], rhs[j, k]); empty blocks are left out.
        Otherwise the pairs are joined.
        """
        key = tuple((id(lhs), id(rhs)) for lhs, rhs in terms)
        if key in self.products:
            return self.products[key]
        a, b = terms[0]
        if all(lhs.blocks is not None and rhs.blocks is not None
               and lhs.row_starts == a.row_starts and rhs.col_starts == b.col_starts
               and lhs.col_starts == rhs.row_starts for lhs, rhs in terms):
            cells: dict[tuple[int, int], list] = {}
            for lhs, rhs in terms:
                for (i, j), left in lhs.blocks.items():
                    for (j2, k), right in rhs.blocks.items():
                        if j == j2:
                            cells.setdefault((i, k), []).append((left, right))
            blocks = {cell: self.product(tuple(pairs)) for cell, pairs in cells.items()}
            blocks = {cell: part for cell, part in blocks.items()
                      if part.blocks is not None or part.entries}
            out = _grid(a.ring, _sizes(a.row_starts, a.rows), _sizes(b.col_starts, b.cols),
                        blocks) if blocks else SparseMatrixR(a.ring, a.rows, b.cols)
        else:
            out = self.join(a.rows, b.cols, terms)
        if all(lhs.cached and rhs.cached for lhs, rhs in terms):
            self.products[key] = out
        return out

    def join(self, n_rows: int, n_cols: int, terms: list) -> SparseMatrixR:
        """The leaf sum of lhs @ rhs over (lhs, rhs) in terms, by a loop over value ids.

        Entries get value ids, the right factor's entries are bucketed by
        row, and each contribution (row, col, left value, right value)
        adds the terms of its value pair's product to its position's
        {monomial: coeff} sums.  The products hold standard monomials
        only, so `ring.element` of a nonzero sum just drops its zero
        coefficients and turns whole Fractions into ints.
        """
        sums: dict[tuple[int, int], dict] = {}
        for lhs, rhs in terms:
            a_row, a_mid, a_val = (x.tolist() for x in _arrays(lhs, self.intern, {}))
            b_mid, b_col, b_val = (x.tolist() for x in _arrays(rhs, self.intern, {}))
            by_mid: dict[int, list] = {}
            for mid, col, right in zip(b_mid, b_col, b_val):
                by_mid.setdefault(mid, []).append((col, right))
            for row, mid, left in zip(a_row, a_mid, a_val):
                for col, right in by_mid.get(mid, ()):
                    acc = sums.setdefault((row, col), {})
                    for mono, coeff in self.expansion(left, right):
                        acc[mono] = acc.get(mono, 0) + coeff
        ring = terms[0][0].ring
        return _leaf(ring, n_rows, n_cols,
                     {pos: ring.element(acc) for pos, acc in sums.items() if any(acc.values())})

    def expansion(self, i: int, j: int) -> tuple:
        """The (monomial, coeff) terms of values[i] * values[j], multiplied once."""
        if (i, j) not in self.expansions:
            self.expansions[(i, j)] = tuple((self.values[i] * self.values[j]).terms.items())
        return self.expansions[(i, j)]


# (separator, row piece, entry piece) of each output format.  An entry is
# its row piece % row, its column numeral and its entry piece % text, and
# entries are separator-joined, so the separator opens every row piece.
# JSON gives the five lines json.dumps(indent=2) gives a [row, col,
# "entry"] list inside a differential's "entries".
_JSON_PIECES = (",", ",\n        [\n          %d,\n          ", ",\n          %s\n        ]")
_TEXT_PIECES = ("", "%d ", " %s\n")
_WRITE_CHUNK = 1 << 16  # entries per join and fh.write


def _entry_writer(pieces: tuple, text):
    """write(fh, step): write step's entries in (row, col) order as pieces; return their number.

    Each entry is three pieces.  Its entry piece is formatted, from
    text(entry), once per distinct Element object, and each cached leaf's
    arrays are built once, over all the steps one writer writes.  Rows
    come sorted, so a chunk covers a range of rows: each row piece of the
    range and each distinct column numeral of the chunk is formatted once,
    and numpy gathers the pieces for one join per chunk.
    """
    sep, row, entry = pieces
    cached, codes, texts = {}, {}, []  # leaf arrays, {id(Element): code}, code -> entry piece

    def code(e) -> int:
        texts.append(entry % text(e))
        return len(texts) - 1

    def write(fh, step: SparseMatrixR) -> int:
        keys, ids = _keyed(step, code, cached, codes)
        order = np.argsort(keys)
        pieces = np.array(texts, dtype=object)
        for lo in range(0, order.size, _WRITE_CHUNK):
            fh.write(joined(keys, ids, pieces, order[lo:lo + _WRITE_CHUNK], step.cols, lo == 0))
        return order.size

    def joined(keys, ids, pieces, at, width: int, first: bool) -> str:
        """The entries at positions `at` of keys and ids; the first of a step has no separator."""
        r, c = np.divmod(keys[at], width)
        r0, c0 = int(r[0]), int(c.min())
        seen = np.zeros(int(c.max()) - c0 + 1, dtype=bool)
        seen[c - c0] = True
        heads = [row % i for i in range(r0, int(r[-1]) + 1)]
        numerals = list(map(str, (np.flatnonzero(seen) + c0).tolist()))
        # each entry's row piece, numeral and entry piece in the table of all three
        index = np.empty((at.size, 3), dtype=np.intp)
        index[:, 0] = r + (pieces.size - r0)
        index[:, 1] = (np.cumsum(seen) + (pieces.size + len(heads) - 1))[c - c0]
        index[:, 2] = ids[at]
        table = np.concatenate([pieces, np.array(heads + numerals, dtype=object)])
        out = table[index.ravel()].tolist()
        if first:
            out[0] = out[0][len(sep):]
        return "".join(out)
    return write


def _keyed(mat: SparseMatrixR, fn, cached: dict, images: dict) -> tuple[np.ndarray, np.ndarray]:
    """Position keys row * mat.cols + col and intp codes fn(entry) of mat's entries, unordered.

    mat's own grids are walked, not concatenated: each cached node and
    fresh leaf below them gives its arrays (`_arrays`, with the memos
    `cached` and `images`), and these go straight into the result.
    """
    if mat.rows * mat.cols > np.iinfo(np.intp).max:
        raise OverflowError(f"a {mat.rows}x{mat.cols} matrix has more positions than intp holds")
    memo: dict = {}
    parts = [(_arrays(node, fn, memo, cached, images), r0 * mat.cols + c0)
             for node, r0, c0 in _cached_parts(mat, 0, 0)]
    keys = np.empty(sum(vals.size for (_, _, vals), _ in parts), np.intp)
    at = 0
    for (rows, cols, vals), shift in parts:
        out = keys[at:at + vals.size]
        np.multiply(rows, mat.cols, out=out)
        out += cols + shift
        at += vals.size
    return keys, np.concatenate([vals for (_, _, vals), _ in parts] or [np.empty(0, np.intp)])


def _cached_parts(mat: SparseMatrixR, r0: int, c0: int):
    """(node, row offset, column offset) of each cached node and fresh leaf that makes up mat.

    Only fresh grids are walked into, so a cached node's blocks are not.
    """
    if mat.cached or mat.blocks is None:
        yield mat, r0, c0
    else:
        for (i, j), part in mat.blocks.items():
            yield from _cached_parts(part, r0 + mat.row_starts[i], c0 + mat.col_starts[j])


@lru_cache(maxsize=None)
def _negated(e: Element) -> Element:
    """-e, one object per distinct value, so negated entries share it."""
    return -e


def _shared(build):
    """Cache a matrix constructor; the matrix it hands out, and each of its nodes, is read-only.

    Every node of the matrix is marked `cached`, so memos keyed by node
    ids may keep it beyond one step or one product.
    """
    def freeze(m, parts=None):
        m.cached = True
        if type(m.entries) is dict:
            m.entries = MappingProxyType(m.entries)

    @lru_cache(maxsize=None)
    @wraps(build)
    def cached(*args):
        out = build(*args)
        _per_node(out, freeze, freeze, {})
        return out
    return cached


def _leaf(ring: ScrollRing, rows: int, cols: int, entries: dict) -> SparseMatrixR:
    """A leaf holding the given {(row, col): nonzero Element} dict itself."""
    out = SparseMatrixR(ring, rows, cols)
    out.entries = entries
    return out


def _grid(ring: ScrollRing, heights: list[int], widths: list[int], blocks: dict) -> SparseMatrixR:
    """The matrix with blocks[(i, j)] in the cell of row band i and column band j.

    Band i is heights[i] rows high, band j widths[j] columns wide; bands
    are non-empty.  Each block must fill its cell, and is shared, not
    copied; a cell without a block is zero.  A grid of one cell that
    holds a block is that block.
    """
    if min(heights) < 1 or min(widths) < 1:
        raise ValueError(f"empty band in a {heights} x {widths} grid")
    for (i, j), block in blocks.items():
        if not (0 <= i < len(heights) and 0 <= j < len(widths)) \
                or (block.rows, block.cols) != (heights[i], widths[j]):
            raise ValueError(f"a {block.rows}x{block.cols} block does not fill cell ({i}, {j}) "
                             f"of a {heights} x {widths} grid")
    if len(heights) == len(widths) == len(blocks) == 1:
        return blocks[0, 0]
    out = SparseMatrixR(ring, sum(heights), sum(widths))
    out.row_starts = tuple(accumulate(heights[:-1], initial=0))
    out.col_starts = tuple(accumulate(widths[:-1], initial=0))
    out.blocks = blocks
    out.entries = _GridView(out)
    return out


def _sizes(starts: tuple, end: int) -> list[int]:
    """The band sizes of a grid from its band starts and its size."""
    return [b - a for a, b in zip(starts, (*starts[1:], end))]


def _stairs(block: SparseMatrixR, d: int, r0: int = 0, c0: int = 0) -> dict:
    """Entries of a d-row staircase at (r0, c0): d-1 copies of a 2-row block, each one row down."""
    return {(r0 + b + r, c0 + b * block.cols + c): e
            for b in range(d - 1) for (r, c), e in block.entries.items()}


def _row(ring: ScrollRing, elems: list[Element]) -> SparseMatrixR:
    """The 1 x len(elems) matrix of the given entries."""
    return _leaf(ring, 1, len(elems), {(0, c): e for c, e in enumerate(elems)})


def direct_sum(mats: list[SparseMatrixR]) -> SparseMatrixR:
    """The block-diagonal matrix of mats, first one top left; mats must be non-empty.

    The sum of one matrix is that matrix (`_grid`): for blocks (2,2)
    phi_i is phi_{i-2}, and nesting it would make trees as deep as the
    resolution.
    """
    if not mats:
        raise ValueError("direct sum of nothing")
    return _grid(mats[0].ring, [m.rows for m in mats], [m.cols for m in mats],
                 {(k, k): m for k, m in enumerate(mats)})


def _require_two_blocks(spec: ScrollSpec) -> None:
    if spec.k != 2:
        raise ValueError(
            "resolution matrices are only defined for 2-block scrolls"
        )


@_shared
def phi0(spec: ScrollSpec) -> SparseMatrixR:
    """2 x (n-2): the scroll matrix's bottom row over minus its top row."""
    _require_two_blocks(spec)
    ring = ring_for(spec)
    out = {}
    for c, (top, bottom) in enumerate(zip(*scroll_matrix(spec))):
        out[(0, c)] = ring.var_elem(bottom.flat, 1)
        out[(1, c)] = ring.var_elem(top.flat, -1)
    return _leaf(ring, 2, spec.n - 2, out)


def staircase(spec: ScrollSpec, d: int) -> SparseMatrixR:
    """d x (d-1)(n-2): phi0 block b in rows b, b+1, columns b(n-2)..; needs d >= 2."""
    _require_two_blocks(spec)
    if d < 2:
        raise ValueError("staircase needs at least two rows")
    return _leaf(ring_for(spec), d, (d - 1) * (spec.n - 2), _stairs(phi0(spec), d))


@_shared
def phi1(spec: ScrollSpec) -> SparseMatrixR:
    """(n-2) x (n-2)(n-3) in three column bands.

    Left: staircase of height m-1 in the top m-1 rows.  Middle (n-2 wide):
    x_{m+1} times an identity on the top rows, the tail x_{m+2}..x_n in
    row m-1, then -(x_1..x_{m-1}), -x_m down the remaining diagonal.
    Right: staircase of height p-1 in the bottom p-1 rows.
    """
    _require_two_blocks(spec)
    ring = ring_for(spec)
    m, p, n = spec.m, spec.p, spec.n
    w = n - 2
    f0 = phi0(spec)
    out = {**_stairs(f0, m - 1), **_stairs(f0, p - 1, m - 1, (m - 1) * w)}
    c0 = (m - 2) * w  # the middle band's first column
    for r in range(m - 1):
        out[(r, c0 + r)] = ring.var_elem(m + 1, 1)
    for l in range(1, p):
        out[(m - 2, c0 + m - 2 + l)] = ring.var_elem(m + 1 + l, 1)
    for c in range(1, m):
        out[(m - 1, c0 + c - 1)] = ring.var_elem(c, -1)
    for r in range(1, p):
        out[(m - 2 + r, c0 + m - 2 + r)] = ring.var_elem(m, -1)
    return _leaf(ring, w, w * (n - 3), out)


def u_block(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """(m-2)(n-2) x (n-2), zero except the scroll-matrix top row at row i(n-2)+m."""
    _require_two_blocks(spec)
    m, n = spec.m, spec.n
    if not 0 <= i <= m - 3:
        raise ValueError(f"u block index {i} out of range 0..{m - 3}")
    ring = ring_for(spec)
    top, _ = scroll_matrix(spec)
    row = i * (n - 2) + m - 1  # 0-based
    return _leaf(ring, (m - 2) * (n - 2), n - 2,
                 {(row, c): ring.var_elem(v.flat, 1) for c, v in enumerate(top)})


def v_block(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """(p-2)(n-2) x (n-2), minus the scroll-matrix bottom row at row i(n-2)+m-1."""
    _require_two_blocks(spec)
    m, p, n = spec.m, spec.p, spec.n
    if not 0 <= i <= p - 3:
        raise ValueError(f"v block index {i} out of range 0..{p - 3}")
    ring = ring_for(spec)
    _, bottom = scroll_matrix(spec)
    row = i * (n - 2) + m - 2  # 0-based
    return _leaf(ring, (p - 2) * (n - 2), n - 2,
                 {(row, c): ring.var_elem(v.flat, -1) for c, v in enumerate(bottom)})


@_shared
def phi2(spec: ScrollSpec) -> SparseMatrixR:
    """(n-2)(n-3) x (n-2)(n-3)^2 in three row bands.

    Top band: m-2 diagonal copies of phi1 over the left columns, with the
    u blocks stacked left-aligned in the central (n-2)(n-3) columns.
    Middle band: minus the height-(n-2) staircase on the central columns.
    Bottom band: the v blocks right-aligned in the central columns, then
    p-2 diagonal copies of phi1 over the right columns.  The column bands
    (left, central, right; an empty one left out) are phi3's row bands,
    and the u/v blocks sit in n-3 columns of width n-2, phi1's rows.
    """
    _require_two_blocks(spec)
    m, p, n = spec.m, spec.p, spec.n
    ring = ring_for(spec)
    w = n - 2
    f1 = phi1(spec)
    heights = [h for h in ((m - 2) * w, w, (p - 2) * w) if h]
    t = int(m > 2)  # the index of the middle band
    blocks = {}
    if m > 2:
        blocks[0, 0] = direct_sum([f1] * (m - 2))
        blocks[0, 1] = _grid(ring, [(m - 2) * w], [w] * (n - 3),
                             {(0, b): u_block(spec, b) for b in range(m - 2)})
    blocks[t, t] = -staircase(spec, w)
    if p > 2:
        blocks[t + 1, t] = _grid(ring, [(p - 2) * w], [w] * (n - 3),
                                 {(0, m - 1 + b): v_block(spec, b) for b in range(p - 2)})
        blocks[t + 1, t + 1] = direct_sum([f1] * (p - 2))
    return _grid(ring, heights, [h * (n - 3) for h in heights], blocks)


def phi(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """phi_i; for i >= 3 the direct sum phi_{i-1}^(m-2) + phi_{i-2}^(n-3) + phi_{i-1}^(p-2).

    Each non-empty run of copies is one block, so phi_i's column bands
    are phi_{i+1}'s row bands.
    """
    _require_two_blocks(spec)
    if i < 0:
        raise ValueError("phi index must be non-negative")
    return _phi(spec, i, 1)


@_shared
def _phi(spec: ScrollSpec, i: int, scale) -> SparseMatrixR:
    """scale * phi_i for scale 1 or -1; for scale (flat, sign), sign * x_flat * I on phi_i's rows.

    For i >= 3 each is the direct sum of its runs over i-1, i-2 and i-1,
    built from the cached matrices of the same scale; for i <= 2 the
    identity is one leaf per row band of phi_i.
    """
    if i <= 2:
        base = (phi0, phi1, phi2)[i](spec)
        if not isinstance(scale, tuple):
            return base if scale > 0 else -base
        ring = ring_for(spec)
        e = ring.var_elem(*scale)
        bands = _sizes(base.row_starts, base.rows) if base.blocks else [base.rows]
        return direct_sum([_leaf(ring, h, h, {(r, r): e for r in range(h)}) for h in bands])
    m, p, n = spec.m, spec.p, spec.n
    runs = [[_phi(spec, i - 1, scale)] * (m - 2), [_phi(spec, i - 2, scale)] * (n - 3),
            [_phi(spec, i - 1, scale)] * (p - 2)]
    return direct_sum([direct_sum(run) for run in runs if run])


@_shared
def alpha(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """Chain map lifting the inclusion of J into I1 (+) I2.

    alpha_0 is the n x (n-1) two-band matrix; for i >= 1 alpha_i is the
    diagonal x_{m+1} / -x_m square matrix split by the I1/I2 summands,
    stored as m-1 and then p-1 scalar identities laid out as phi_i's rows
    (`_phi`), so its blocks line up with the phi copies of both
    neighbouring steps at every level.  For blocks (2,2) every phi_i has
    its two rows in one band, and every alpha_i (i >= 1) is alpha_1.
    """
    _require_two_blocks(spec)
    ring = ring_for(spec)
    m, p, n = spec.m, spec.p, spec.n
    if i < 0:
        raise ValueError("alpha index must be non-negative")
    if i == 0:
        out = {(r, r): ring.var_elem(m + 1, 1) for r in range(m)}
        for l in range(1, p):
            out[(m - 1, m - 1 + l)] = ring.var_elem(m + 1 + l, 1)
        for c in range(1, m + 1):
            out[(m, c - 1)] = ring.var_elem(c, -1)
        for r in range(2, p + 1):
            out[(m + r - 1, m + r - 2)] = ring.var_elem(m, -1)
        return _leaf(ring, n, n - 1, out)
    if spec.blocks == (2, 2) and i > 1:
        return alpha(spec, 1)
    return direct_sum([_phi(spec, i, (m + 1, 1))] * (m - 1) + [_phi(spec, i, (m, -1))] * (p - 1))


@dataclass
class Resolution:
    """A chain of differentials with their free-module ranks."""
    spec: ScrollSpec
    target: str  # "field", "J", "I1" or "I2"
    steps: list[SparseMatrixR]
    ranks: list[int]
    provenance: list[str] = field(default_factory=list)

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            if a.cols != b.rows:
                raise ValueError(
                    f"steps do not chain: {a.rows}x{a.cols} then {b.rows}x{b.cols}"
                )

    def to_json_obj(self) -> dict:
        return {**self._summary(), "steps": [s.to_json_obj() for s in self.steps]}

    def _summary(self) -> dict:
        """The JSON document without its steps."""
        return {
            "spec": {"blocks": list(self.spec.blocks)},
            "target": self.target,
            "ranks": [str(r) for r in self.ranks],
            "provenance": list(self.provenance),
        }

    def write_json(self, fh) -> None:
        """Write json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n".

        The summary goes through json around an empty "steps" list, which
        the differentials then fill one at a time, without a tree.
        """
        doc = json.dumps({**self._summary(), "steps": []}, sort_keys=True, indent=2)
        head, _, tail = doc.partition('"steps": []')
        fh.write(head + '"steps": [')
        write_entries = _entry_writer(_JSON_PIECES, lambda e: json.dumps(str(e)))
        for k, step in enumerate(self.steps):
            fh.write(("," if k else "") + '\n    {\n      "cols": %d,\n      "entries": [' % step.cols)
            written = write_entries(fh, step)
            fh.write(("\n      ]" if written else "]") + ',\n      "rows": %d\n    }' % step.rows)
        fh.write(("\n  ]" if self.steps else "]") + tail + "\n")

    def write_text(self, fh) -> None:
        """Write each step as "# step i: rows x cols" then one "row col entry" line per entry."""
        if not self.steps:
            fh.write("\n")
        write_entries = _entry_writer(_TEXT_PIECES, str)
        for idx, step in enumerate(self.steps, start=1):
            fh.write(f"# step {idx}: {step.rows} x {step.cols}\n")
            write_entries(fh, step)


def _ideal_step(spec: ScrollSpec, target: str, i: int) -> tuple[SparseMatrixR, int, str]:
    """Differential i of the resolution of J, I1 or I2 as (block, copies, label).

    The differential is `copies` copies of `block` down the diagonal.
    With size the number of generators (n-1 for J, m for I1, p for I2),
    step 0 is the generator row, step 1 is staircase(size), and step
    i >= 2 is phi_{i-1} repeated size-1 times.
    """
    ring = ring_for(spec)
    m, p, n = spec.m, spec.p, spec.n
    sizes = {"J": n - 1, "I1": m, "I2": p}
    if target not in sizes:
        raise ValueError(f"unknown resolution target {target!r}")
    size = sizes[target]
    if i >= 2:
        return phi(spec, i - 1), size - 1, f"phi{i - 1}^+{size - 1}"
    if i == 1:
        return staircase(spec, size), 1, f"staircase({size})"
    if target == "J":
        gens = [ring.monomial_elem([(j, 1), (m + 1, 1)]) for j in range(1, m + 1)]
        gens += [ring.monomial_elem([(m, 1), (m + 1 + l, 1)]) for l in range(1, p)]
        return _row(ring, gens), 1, "skew-diagonal generators"
    first, label = (1, "first-block variables") if target == "I1" \
        else (m + 1, "second-block variables")
    return _row(ring, [ring.var_elem(j, 1) for j in range(first, first + size)]), 1, label


def resolution_of(spec: ScrollSpec, target: str, steps: int) -> Resolution:
    """Free resolution of J, I1 or I2, differentials 0..steps."""
    _require_two_blocks(spec)
    if steps < 1:
        raise ValueError("need at least one step beyond the generators")
    mats, prov = [], []
    for i in range(steps + 1):
        block, copies, label = _ideal_step(spec, target, i)
        mats.append(direct_sum([block] * copies))
        prov.append(label)
    ranks = [mats[0].rows] + [s.cols for s in mats]
    return Resolution(spec, target, mats, ranks, prov)


def _cone_step(spec: ScrollSpec, i: int) -> tuple[SparseMatrixR, str]:
    """Differential i of the field resolution (i >= 1).

    Step 1 is the row of variables.  Step i >= 2 is the cone
    [I1 step i-1 (+) I2 step i-1 | alpha_{i-2}; 0 | -(J step i-2)], a grid
    of three blocks: the I1 and I2 copies as one direct sum, alpha_{i-2} to
    its right and, from i = 3 on, the negated J block repeated below alpha:
    step 3's staircase negated once, from i = 4 on the cached -phi_{i-3}.
    """
    ring = ring_for(spec)
    if i == 1:
        return _row(ring, [ring.var_elem(j, 1) for j in range(1, spec.n + 1)]), "variables"
    b1, k1, l1 = _ideal_step(spec, "I1", i - 1)
    b2, k2, l2 = _ideal_step(spec, "I2", i - 1)
    a = alpha(spec, i - 2)
    top = direct_sum([b1] * k1 + [b2] * k2)
    label = f"[{l1} + {l2} | alpha{i - 2}"
    if i == 2:
        return _grid(ring, [top.rows], [top.cols, a.cols], {(0, 0): top, (0, 1): a}), label + "]"
    bj, kj, lj = _ideal_step(spec, "J", i - 2)
    low = direct_sum([-bj if i == 3 else _phi(spec, i - 3, -1)] * kj)
    return (_grid(ring, [top.rows, low.rows], [top.cols, a.cols],
                  {(0, 0): top, (0, 1): a, (1, 1): low}),
            f"{label}; 0 | -{lj}]")


def field_resolution(spec: ScrollSpec, steps: int) -> Resolution:
    """Minimal free resolution of the residue field, differentials 1..steps.

    Step ranks are checked against the closed-form Betti numbers.  There
    may be at most MAX_STEPS steps, and the last free module may have rank
    at most MAX_FREE_RANK.
    """
    _require_two_blocks(spec)
    if steps < 1:
        raise ValueError("need at least one step")
    if steps > MAX_STEPS:
        raise ValueError(f"resource guard: {steps} steps requested, above the supported {MAX_STEPS}")
    top = betti(spec, steps)
    if top > MAX_FREE_RANK:
        raise ValueError(
            f"resource guard: the free module at step {steps} has rank {top}, "
            f"above the supported {MAX_FREE_RANK}"
        )
    mats, prov = [], []
    for i in range(1, steps + 1):
        mat, label = _cone_step(spec, i)
        mats.append(mat)
        prov.append(label)
    ranks = [1] + [s.cols for s in mats]
    for i, r in enumerate(ranks):
        expect = betti(spec, i)
        if r != expect:
            raise AssertionError(
                f"free module rank {r} at step {i} differs from Betti number {expect}"
            )
    return Resolution(spec, "field", mats, ranks, prov)
