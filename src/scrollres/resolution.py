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
{(row, col): Element}, or piece-stored: a tuple of non-overlapping
(row offset, col offset, matrix) pieces, built by `_assemble` without
copying an entry.  phi_i for i >= 1, the staircases, alpha_i for i >= 1,
the ideal steps and the cone steps are piece-stored over shared nodes
(the cached phi matrices, phi0, the u/v blocks, scalar identities), so a
differential is a tree with few distinct nodes although its entries
grow like (n-3)^i.  A piece-stored matrix's `entries` is a read-only
view that lists entries in piece order; the consumers on the CLI's paths
(the product, `eval_modp`, the writer, minimality) visit each distinct
node once per call instead: `_arrays` gives a node's coordinate and value
arrays, concatenated from its pieces' with their offsets.

Products.  `A @ B` pairs pieces whose inner intervals (columns of A's
piece, rows of B's) are equal, descending into piece-stored pieces where
two intervals overlap otherwise, and multiplies each distinct pair of
nodes once, recursively: phi_i @ phi_{i+1} comes down to products at the
phi1 @ phi2 level.  Pairs that land on the same rectangle are summed by
one join per distinct list of pairs.  Where a leaf would have to be cut,
or two result rectangles overlap in part, the pair of nodes falls back
to the join of their materialised entries (`_ProductRun.join`).

Column offsets of the single-row u/v blocks inside phi2's central band
are not forced by the block shapes alone; this implementation pins the
u stack to the left edge and the v stack to the right edge of the band,
the unique placement for which phi1 @ phi2 vanishes (checked for every
block pair exercised by the test suite).
"""
from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import chain
from types import MappingProxyType

import numpy as np

from .linalg import Entries
from .scrolls import ScrollSpec
from .ring import Element, ScrollRing, ring_for
from .series import betti

# (4,5) at step 8, rank 2,667,168: `resolve --out` peaks near 800 MB and
# `verify` near 570 MB, each in under 10 s; step 7 (rank 444,528) peaks near
# 160 MB.  Step 9 has 6x the rank and would need ~6x the memory.
MAX_FREE_RANK = 3 * 10**6


class SparseMatrixR:
    """A matrix over the scroll ring: a leaf {(row, col): Element}, or pieces.

    Indices are 0-based.  Zero elements are never stored; duplicate
    positions are rejected at construction.  A piece-stored matrix
    (`pieces` is a tuple of (row offset, col offset, matrix)) has a
    read-only `entries` view.  The cached constructors (`phi0`, `phi1`,
    `phi2`, `phi`, `alpha`) hand out read-only entries; `copy()` gives a
    writable leaf.
    """

    __slots__ = ("ring", "rows", "cols", "entries", "pieces")

    def __init__(self, ring: ScrollRing, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.pieces = None
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
        """The exact product, from the distinct products of aligned pieces.

        See the module docstring; the result equals the join of the two
        materialised matrices entry for entry.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return _ProductRun().product(self, other)

    def __neg__(self) -> "SparseMatrixR":
        """-self, sharing structure: each distinct node is negated once."""
        def leaf(m):
            return _leaf(m.ring, m.rows, m.cols,
                         {pos: _negated(e) for pos, e in m.entries.items()})

        def node(m, parts):
            return _assemble(m.ring, m.rows, m.cols,
                             [(r0, c0, part) for (r0, c0, _), part in zip(m.pieces, parts)])
        return _per_node(self, leaf, node, {})

    def first(self, pred) -> tuple[int, int, Element] | None:
        """(row, col, entry) of the first entry in iteration order with pred(entry).

        Each distinct node is searched once; None if no entry matches.
        """
        def leaf(m):
            return next(((r, c, e) for (r, c), e in m.entries.items() if pred(e)), None)

        def node(m, hits):
            return next(((r0 + hit[0], c0 + hit[1], hit[2])
                         for (r0, c0, _), hit in zip(m.pieces, hits) if hit), None)
        return _per_node(self, leaf, node, {})

    def eval_modp(self, values: list[int], p: int) -> Entries:
        """The entries' images at x_i = values[i-1] mod p, one per entry.

        Each distinct node is visited, and each `Element` object
        evaluated, once.
        """
        rows, cols, vals = _arrays(self, lambda e: e.eval_modp(values, p), np.float64, {})
        return Entries((self.rows, self.cols), rows, cols, vals)

    def _formatted(self, fn=str) -> tuple[list[int], list[int], list[str]]:
        """Rows, columns and fn(entry) in (row, col) order.

        One lexsort orders the coordinates; fn runs once per distinct
        Element object, so shared entries are formatted once.
        """
        rows, cols, texts = _arrays(self, fn, object, {})
        order = np.lexsort((cols, rows))
        return rows[order].tolist(), cols[order].tolist(), texts[order].tolist()

    def to_json_obj(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(t) for t in zip(*self._formatted())],
        }

    def to_text_lines(self) -> list[str]:
        return [f"{r} {c} {t}" for r, c, t in zip(*self._formatted())]

    def copy(self) -> "SparseMatrixR":
        out = SparseMatrixR(self.ring, self.rows, self.cols)
        out.entries = dict(self.entries.items())
        return out


class _PieceView(Mapping):
    """The read-only {(row, col): Element} view of a piece-stored matrix.

    Iteration walks the pieces in order, so entries come in the order a
    copy of every piece into one dict would give; `len` and lookups
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
        while mat.pieces is not None:
            for r0, c0, part in mat.pieces:
                if r0 <= r < r0 + part.rows and c0 <= c < c0 + part.cols:
                    mat, r, c = part, r - r0, c - c0
                    break
            else:
                raise KeyError(key)
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
    """((row, col), entry) for each entry of mat offset by (r0, c0), in piece order."""
    if mat.pieces is None:
        for (r, c), e in mat.entries.items():
            yield (r0 + r, c0 + c), e
    else:
        for pr, pc, part in mat.pieces:
            yield from _walk(part, r0 + pr, c0 + pc)


def _per_node(mat: SparseMatrixR, leaf, node, memo: dict):
    """leaf(mat) for a leaf, else node(mat, [the result for each piece]).

    Each distinct node is visited once per memo.
    """
    key = id(mat)
    if key not in memo:
        memo[key] = leaf(mat) if mat.pieces is None else \
            node(mat, [_per_node(part, leaf, node, memo) for _, _, part in mat.pieces])
    return memo[key]


def _arrays(mat: SparseMatrixR, fn, dtype, memo: dict):
    """(rows, cols, fn(entry)) arrays of mat's entries, in iteration order.

    fn runs once per distinct Element object; a piece-stored node
    concatenates its pieces' arrays, each distinct node's built once per memo.
    """
    images: dict[int, object] = {}

    def image(e):
        key = id(e)
        if key not in images:
            images[key] = fn(e)
        return images[key]

    def leaf(m):
        flat = np.fromiter(chain.from_iterable(m.entries), np.intp, 2 * len(m.entries))
        rows, cols = flat.reshape(-1, 2).T
        return rows, cols, np.array([image(e) for e in m.entries.values()], dtype=dtype)

    def node(m, parts):
        return (np.concatenate([r + r0 for (r0, _, _), (r, _, _) in zip(m.pieces, parts)]),
                np.concatenate([c + c0 for (_, c0, _), (_, c, _) in zip(m.pieces, parts)]),
                np.concatenate([v for _, _, v in parts]))
    return _per_node(mat, leaf, node, memo)


# a pair of nodes with fewer entries between them is joined whole: below
# this, the fixed numpy cost of a join per piece pair exceeds the one join
# (check_complex on (2,2) to step 3000, ~60 entries a step, takes ~1.8 s
# with it and ~4 s without)
_TILE_MIN_ENTRIES = 1000


class _ProductRun:
    """The memos of one `@`: value ids, node arrays, value-pair products, node products."""

    def __init__(self):
        self.value_ids: dict[frozenset, int] = {}
        self.values: list[Element] = []
        self.monomials: dict[tuple, int] = {}
        self.node_arrays: dict = {}
        self.expansions: dict[tuple[int, int], tuple[list, list]] = {}
        self.products: dict[tuple, tuple] = {}

    def intern(self, e: Element) -> int:
        key = frozenset(e.terms.items())
        if key not in self.value_ids:
            self.value_ids[key] = len(self.values)
            self.values.append(e)
        return self.value_ids[key]

    def product(self, a: SparseMatrixR, b: SparseMatrixR) -> SparseMatrixR:
        """a @ b, once per distinct (a, b) pair of objects."""
        key = (id(a), id(b))
        if key not in self.products:
            out = self.tiled(a, b)
            if out is None:
                out = self.join(a.rows, b.cols, [(a, b)])
            self.products[key] = ((a, b), out)  # holding a, b keeps their ids unique
        return self.products[key][1]

    def tiled(self, a: SparseMatrixR, b: SparseMatrixR) -> SparseMatrixR | None:
        """a @ b from the products of its aligned pieces; None if they do not align.

        Each result rectangle gets the product of its one pair of pieces,
        or one join over its several pairs; rectangles must be equal or
        disjoint.  Empty products are left out.
        """
        if a.pieces is None or b.pieces is None:
            return None  # a leaf spans the whole inner range: nothing to pair
        if len(a.entries) + len(b.entries) < _TILE_MIN_ENTRIES:
            return None
        aligned = _aligned(list(a.pieces), list(b.pieces))
        if aligned is None:
            return None
        left, right, pairs = aligned
        groups: dict[tuple, list] = {}
        for i, j in pairs:
            r0, _, lhs = left[i]
            _, c0, rhs = right[j]
            groups.setdefault((r0, c0, lhs.rows, rhs.cols), []).append((lhs, rhs))
        if len(groups) > 1:
            r0, c0, h, w = np.array(list(groups)).T
            meet = (np.maximum.outer(r0, r0) < np.minimum.outer(r0 + h, r0 + h)) \
                & (np.maximum.outer(c0, c0) < np.minimum.outer(c0 + w, c0 + w))
            if np.count_nonzero(meet) > np.count_nonzero(h * w):
                return None  # two rectangles overlap in part
        pieces = []
        for (r0, c0, h, w), terms in groups.items():
            if len(terms) == 1:
                part = self.product(*terms[0])
            else:
                key = tuple((id(lhs), id(rhs)) for lhs, rhs in terms)
                if key not in self.products:
                    self.products[key] = (terms, self.join(h, w, terms))
                part = self.products[key][1]
            if part.pieces is not None or part.entries:
                pieces.append((r0, c0, part))
        if not pieces:
            return SparseMatrixR(a.ring, a.rows, b.cols)
        return _assemble(a.ring, a.rows, b.cols, pieces)

    def join(self, n_rows: int, n_cols: int, terms: list) -> SparseMatrixR:
        """The leaf sum of lhs @ rhs over (lhs, rhs) in terms, by a join on value ids.

        Entries get value ids, a join on the inner index lists every
        contribution (row, col, left value, right value), and the normal
        form of each distinct value pair is expanded into its terms and
        summed per (row, col, monomial).  The sums run over an object
        array, so int and Fraction coefficients stay exact, and need no
        second normal form: normal form is linear on standard monomials.
        """
        found = []
        for lhs, rhs in terms:
            a_row, a_mid, a_val = _arrays(lhs, self.intern, np.intp, self.node_arrays)
            b_mid, b_col, b_val = _arrays(rhs, self.intern, np.intp, self.node_arrays)
            by_mid = np.argsort(b_mid, kind="stable")
            b_mid, b_col, b_val = b_mid[by_mid], b_col[by_mid], b_val[by_mid]
            lo = np.searchsorted(b_mid, a_mid, side="left")
            width = np.searchsorted(b_mid, a_mid, side="right") - lo
            left = np.repeat(np.arange(a_mid.size), width)
            right = _ranges(lo, width)
            found.append((a_row[left], b_col[right], a_val[left], b_val[right]))
        a_row, b_col, a_val, b_val = (np.concatenate(f) for f in zip(*found))
        nv = len(self.values)
        pairs, pair_of = np.unique(a_val * nv + b_val, return_inverse=True)

        term_mono, term_coeff = [], []
        term_start = np.zeros(pairs.size + 1, dtype=np.intp)
        for j, pair in enumerate(pairs.tolist()):
            monos, coeffs = self.expansion(*divmod(pair, nv))
            term_mono += monos
            term_coeff += coeffs
            term_start[j + 1] = len(term_mono)

        n_terms = np.diff(term_start)[pair_of]
        term = _ranges(term_start[:-1][pair_of], n_terms)
        rows = np.repeat(a_row, n_terms)
        cols = np.repeat(b_col, n_terms)
        mono = np.array(term_mono, dtype=np.intp)[term]
        coeff = np.array(term_coeff, dtype=object)[term]
        order = np.lexsort((mono, cols, rows))
        rows, cols, mono, coeff = rows[order], cols[order], mono[order], coeff[order]
        new = np.ones(rows.size, dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]) | (mono[1:] != mono[:-1])
        first = np.flatnonzero(new)
        sums = np.add.reduceat(coeff, first)
        nonzero = np.flatnonzero(sums != 0)

        by_mono = list(self.monomials)
        raw: dict[tuple[int, int], dict] = {}
        for r, c, m, total in zip(rows[first[nonzero]].tolist(), cols[first[nonzero]].tolist(),
                                  mono[first[nonzero]].tolist(), sums[nonzero]):
            if isinstance(total, Fraction) and total.denominator == 1:
                total = int(total)
            raw.setdefault((r, c), {})[by_mono[m]] = total
        ring = terms[0][0].ring
        return _leaf(ring, n_rows, n_cols, {pos: Element(ring, t) for pos, t in raw.items()})

    def expansion(self, i: int, j: int) -> tuple[list, list]:
        """Monomial ids and coefficients of values[i] * values[j], multiplied once."""
        if (i, j) not in self.expansions:
            prod = self.values[i] * self.values[j]
            self.expansions[(i, j)] = (
                [self.monomials.setdefault(m, len(self.monomials)) for m in prod.terms],
                list(prod.terms.values()))
        return self.expansions[(i, j)]


def _aligned(left: list, right: list):
    """(left, right, pairs) once inner intervals are equal or disjoint, else None.

    left and right are (row offset, col offset, node) pieces; the inner
    interval is a left piece's columns and a right piece's rows.  Where
    two intervals overlap but differ, the larger piece-stored one of the
    two is replaced by its own pieces; two leaves that overlap so give
    None.  pairs lists the (left, right) indices of equal intervals.
    """
    while True:
        a_lo = np.array([c0 for _, c0, _ in left], dtype=np.intp)
        a_hi = a_lo + [m.cols for _, _, m in left]
        b_lo = np.array([r0 for r0, _, _ in right], dtype=np.intp)
        b_hi = b_lo + [m.rows for _, _, m in right]
        meet = np.maximum.outer(a_lo, b_lo) < np.minimum.outer(a_hi, b_hi)
        same = (a_lo[:, None] == b_lo) & (a_hi[:, None] == b_hi)
        clash = np.nonzero(meet & ~same)
        if not clash[0].size:
            return left, right, zip(*np.nonzero(meet))
        split_left, split_right = set(), set()
        for i, j in zip(*clash):
            lhs, rhs = left[i][2], right[j][2]
            if rhs.pieces is not None and (lhs.pieces is None or rhs.rows >= lhs.cols):
                split_right.add(j)
            elif lhs.pieces is not None:
                split_left.add(i)
            else:
                return None
        left, right = _split(left, split_left), _split(right, split_right)


def _split(pieces: list, which: set) -> list:
    """pieces with each one whose index is in which replaced by its own pieces."""
    out = []
    for k, (r0, c0, mat) in enumerate(pieces):
        if k in which:
            out += [(r0 + pr, c0 + pc, part) for pr, pc, part in mat.pieces]
        else:
            out.append((r0, c0, mat))
    return out


# the five lines json.dumps(indent=2) gives a [row, col, "entry"] list
# inside a differential's "entries"
_JSON_ENTRY = "\n        [\n          %d,\n          %d,\n          %s\n        ]"
_WRITE_CHUNK = 1 << 16  # entries formatted per write


def _write_entries(fh, template: str, sep: str, fields) -> None:
    """template % entry for each entry of (rows, cols, texts), sep-joined, in chunks."""
    rows, cols, texts = fields
    for lo in range(0, len(rows), _WRITE_CHUNK):
        hi = lo + _WRITE_CHUNK
        fh.write((sep if lo else "") + sep.join(
            map(template.__mod__, zip(rows[lo:hi], cols[lo:hi], texts[lo:hi]))))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) + np.repeat(starts - (ends - counts), counts)


@lru_cache(maxsize=None)
def _negated(e: Element) -> Element:
    """-e, one object per distinct value, so negated entries share it."""
    return -e


def _shared(build):
    """Cache a matrix constructor; the matrix it hands out is read-only."""
    @lru_cache(maxsize=None)
    @wraps(build)
    def cached(*args):
        out = build(*args)
        if type(out.entries) is dict:
            out.entries = MappingProxyType(out.entries)
        return out
    return cached


def _leaf(ring: ScrollRing, rows: int, cols: int, entries: dict) -> SparseMatrixR:
    """A leaf holding the given {(row, col): nonzero Element} dict itself."""
    out = SparseMatrixR(ring, rows, cols)
    out.entries = entries
    return out


def _assemble(ring: ScrollRing, rows: int, cols: int, pieces) -> SparseMatrixR:
    """A rows x cols matrix stored as its (row offset, col offset, matrix) pieces.

    The pieces are shared, not copied; they must not overlap.
    """
    out = SparseMatrixR(ring, rows, cols)
    out.pieces = tuple(pieces)
    out.entries = _PieceView(out)
    return out


def _diagonal(mats, r0: int = 0, c0: int = 0):
    """(row offset, col offset, matrix) for mats laid corner to corner from (r0, c0)."""
    for mat in mats:
        yield r0, c0, mat
        r0 += mat.rows
        c0 += mat.cols


def _stairs(block: SparseMatrixR, d: int, r0: int = 0, c0: int = 0) -> list:
    """Pieces of a d-row staircase: d-1 copies of a 2-row block, each one row down."""
    return [(r0 + b, c0 + b * block.cols, block) for b in range(d - 1)]


def _row(ring: ScrollRing, elems: list[Element]) -> SparseMatrixR:
    """The 1 x len(elems) matrix of the given entries."""
    return _leaf(ring, 1, len(elems), {(0, c): e for c, e in enumerate(elems)})


def direct_sum(mats: list[SparseMatrixR]) -> SparseMatrixR:
    """The block-diagonal matrix of mats, first one top left; mats must be non-empty.

    The sum of one matrix is that matrix: for blocks (2,2) phi_i is
    phi_{i-2}, and nesting it would make trees as deep as the resolution.
    """
    if not mats:
        raise ValueError("direct sum of nothing")
    if len(mats) == 1:
        return mats[0]
    return _assemble(mats[0].ring, sum(m.rows for m in mats), sum(m.cols for m in mats),
                     _diagonal(mats))


def _require_two_blocks(spec: ScrollSpec) -> None:
    if spec.k != 2:
        raise ValueError(
            "resolution matrices are only defined for 2-block scrolls"
        )


def _phi0_columns(spec: ScrollSpec) -> list[tuple[int, int]]:
    """(top, bottom) flat variable indices per column of phi0 (1-based)."""
    m, n = spec.m, spec.n
    cols = [(j + 1, j) for j in range(1, m)]           # (x_{j+1}, -x_j)
    cols += [(j + 1, j) for j in range(m + 1, n)]      # (x_{j+1}, -x_j), 2nd block
    return cols


@_shared
def phi0(spec: ScrollSpec) -> SparseMatrixR:
    """2 x (n-2): second row of the scroll matrix over minus its first."""
    _require_two_blocks(spec)
    ring = ring_for(spec)
    out = SparseMatrixR(ring, 2, spec.n - 2)
    for c, (top, bot) in enumerate(_phi0_columns(spec)):
        out.entries[(0, c)] = ring.var_elem(top, 1)
        out.entries[(1, c)] = ring.var_elem(bot, -1)
    return out


def staircase(spec: ScrollSpec, d: int) -> SparseMatrixR:
    """d x (d-1)(n-2): phi0 block b in rows b, b+1, columns b(n-2)..; needs d >= 2."""
    _require_two_blocks(spec)
    if d < 2:
        raise ValueError("staircase needs at least two rows")
    return _assemble(ring_for(spec), d, (d - 1) * (spec.n - 2), _stairs(phi0(spec), d))


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
    band = {}
    for r in range(m - 1):
        band[(r, r)] = ring.var_elem(m + 1, 1)
    for l in range(1, p):
        band[(m - 2, m - 2 + l)] = ring.var_elem(m + 1 + l, 1)
    for c in range(1, m):
        band[(m - 1, c - 1)] = ring.var_elem(c, -1)
    for r in range(1, p):
        band[(m - 2 + r, m - 2 + r)] = ring.var_elem(m, -1)
    return _assemble(ring, w, w * (n - 3),
                     _stairs(f0, m - 1) + _stairs(f0, p - 1, m - 1, (m - 1) * w)
                     + [(0, (m - 2) * w, _leaf(ring, w, w, MappingProxyType(band)))])


def u_block(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """(m-2)(n-2) x (n-2), zero except the scroll-matrix top row at row i(n-2)+m."""
    _require_two_blocks(spec)
    m, n = spec.m, spec.n
    if not 0 <= i <= m - 3:
        raise ValueError(f"u block index {i} out of range 0..{m - 3}")
    ring = ring_for(spec)
    out = SparseMatrixR(ring, (m - 2) * (n - 2), n - 2)
    row = i * (n - 2) + m - 1  # 0-based
    tops = [j for j in range(1, m)] + [j for j in range(m + 1, n)]
    for c, flat in enumerate(tops):
        out.entries[(row, c)] = ring.var_elem(flat, 1)
    return out


def v_block(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """(p-2)(n-2) x (n-2), minus the scroll-matrix bottom row at row i(n-2)+m-1."""
    _require_two_blocks(spec)
    m, p, n = spec.m, spec.p, spec.n
    if not 0 <= i <= p - 3:
        raise ValueError(f"v block index {i} out of range 0..{p - 3}")
    ring = ring_for(spec)
    out = SparseMatrixR(ring, (p - 2) * (n - 2), n - 2)
    row = i * (n - 2) + m - 2  # 0-based
    bottoms = [j for j in range(2, m + 1)] + [j for j in range(m + 2, n + 1)]
    for c, flat in enumerate(bottoms):
        out.entries[(row, c)] = ring.var_elem(flat, -1)
    return out


@_shared
def phi2(spec: ScrollSpec) -> SparseMatrixR:
    """(n-2)(n-3) x (n-2)(n-3)^2 in three row bands.

    Top band: m-2 diagonal copies of phi1 over the left columns, with the
    u blocks stacked left-aligned in the central (n-2)(n-3) columns.
    Middle band: minus the height-(n-2) staircase on the central columns.
    Bottom band: the v blocks right-aligned in the central columns, then
    p-2 diagonal copies of phi1 over the right columns.
    """
    _require_two_blocks(spec)
    m, p, n = spec.m, spec.p, spec.n
    w = n - 2
    f1 = phi1(spec)
    mid_c0 = (m - 2) * w * (n - 3)          # first central column
    bot_r0 = (m - 1) * w
    pieces = [
        *_diagonal([f1] * (m - 2)),
        *((0, mid_c0 + b * w, u_block(spec, b)) for b in range(m - 2)),
        *_stairs(-phi0(spec), n - 2, (m - 2) * w, mid_c0),
        *((bot_r0, mid_c0 + (m - 1 + b) * w, v_block(spec, b)) for b in range(p - 2)),
        *_diagonal([f1] * (p - 2), bot_r0, (m - 1) * w * (n - 3)),
    ]
    return _assemble(ring_for(spec), w * (n - 3), w * (n - 3) ** 2, pieces)


@_shared
def phi(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """phi_i; for i >= 3 the direct sum phi_{i-1}^(m-2) + phi_{i-2}^(n-3) + phi_{i-1}^(p-2)."""
    _require_two_blocks(spec)
    if i < 0:
        raise ValueError("phi index must be non-negative")
    if i == 0:
        return phi0(spec)
    if i == 1:
        return phi1(spec)
    if i == 2:
        return phi2(spec)
    m, p, n = spec.m, spec.p, spec.n
    parts = [phi(spec, i - 1)] * (m - 2) + [phi(spec, i - 2)] * (n - 3) \
        + [phi(spec, i - 1)] * (p - 2)
    return direct_sum(parts)


@_shared
def alpha(spec: ScrollSpec, i: int) -> SparseMatrixR:
    """Chain map lifting the inclusion of J into I1 (+) I2.

    alpha_0 is the n x (n-1) two-band matrix; for i >= 1 alpha_i is the
    diagonal x_{m+1} / -x_m square matrix split by the I1/I2 summands,
    stored as m-1 and then p-1 scalar identities the size of phi_i's rows,
    so its tiles line up with the phi copies of both neighbouring steps.
    """
    _require_two_blocks(spec)
    ring = ring_for(spec)
    m, p, n = spec.m, spec.p, spec.n
    if i < 0:
        raise ValueError("alpha index must be non-negative")
    if i == 0:
        out = SparseMatrixR(ring, n, n - 1)
        for r in range(m):
            out.entries[(r, r)] = ring.var_elem(m + 1, 1)
        for l in range(1, p):
            out.entries[(m - 1, m - 1 + l)] = ring.var_elem(m + 1 + l, 1)
        for c in range(1, m + 1):
            out.entries[(m, c - 1)] = ring.var_elem(c, -1)
        for r in range(2, p + 1):
            out.entries[(m + r - 1, m + r - 2)] = ring.var_elem(m, -1)
        return out
    w = (n - 2) * (n - 3) ** (i - 1)  # the rows of phi_i
    return direct_sum([_scalar_identity(spec, m + 1, 1, w)] * (m - 1)
                      + [_scalar_identity(spec, m, -1, w)] * (p - 1))


@_shared
def _scalar_identity(spec: ScrollSpec, flat: int, sign: int, size: int) -> SparseMatrixR:
    """sign * x_flat times the size x size identity."""
    ring = ring_for(spec)
    e = ring.var_elem(flat, sign)
    return _leaf(ring, size, size, {(r, r): e for r in range(size)})


@dataclass
class Resolution:
    """A chain of differentials with their free-module ranks."""
    spec: ScrollSpec
    target: str  # "field", "maximal ideal", "J", "I1" or "I2"
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
        import json  # here, not at the top: `import scrollres` does not load json

        doc = json.dumps({**self._summary(), "steps": []}, sort_keys=True, indent=2)
        head, _, tail = doc.partition('"steps": []')
        fh.write(head + '"steps": [')
        for k, step in enumerate(self.steps):
            fh.write(("," if k else "") + '\n    {\n      "cols": %d,\n      "entries": [' % step.cols)
            _write_entries(fh, _JSON_ENTRY, ",", step._formatted(lambda e: json.dumps(str(e))))
            fh.write(("\n      ]" if step.entries else "]") + ',\n      "rows": %d\n    }' % step.rows)
        fh.write(("\n  ]" if self.steps else "]") + tail + "\n")

    def write_text(self, fh) -> None:
        """Write each step as "# step i: rows x cols" then one "row col entry" line per entry."""
        if not self.steps:
            fh.write("\n")
        for idx, step in enumerate(self.steps, start=1):
            fh.write(f"# step {idx}: {step.rows} x {step.cols}\n")
            _write_entries(fh, "%d %d %s\n", "", step._formatted())


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
    """Differential i of the field resolution (i >= 1), assembled in one pass.

    Step 1 is the row of variables.  Step i >= 2 is the cone
    [I1 step i-1 (+) I2 step i-1 | alpha_{i-2}; 0 | -(J step i-2)]: the
    I1 and I2 blocks down the diagonal, alpha_{i-2} to their right and,
    from i = 3 on, the J block negated once and repeated below alpha.
    """
    ring = ring_for(spec)
    if i == 1:
        return _row(ring, [ring.var_elem(j, 1) for j in range(1, spec.n + 1)]), "variables"
    b1, k1, l1 = _ideal_step(spec, "I1", i - 1)
    b2, k2, l2 = _ideal_step(spec, "I2", i - 1)
    a = alpha(spec, i - 2)
    rows = k1 * b1.rows + k2 * b2.rows
    cols = k1 * b1.cols + k2 * b2.cols
    pieces = [*_diagonal([b1] * k1 + [b2] * k2), (0, cols, a)]
    label = f"[{l1} + {l2} | alpha{i - 2}"
    if i == 2:
        return _assemble(ring, rows, cols + a.cols, pieces), label + "]"
    bj, kj, lj = _ideal_step(spec, "J", i - 2)
    pieces += _diagonal([-bj] * kj, rows, cols)
    return (_assemble(ring, rows + kj * bj.rows, cols + a.cols, pieces),
            f"{label}; 0 | -{lj}]")


def field_resolution(spec: ScrollSpec, steps: int) -> Resolution:
    """Minimal free resolution of the residue field, differentials 1..steps.

    Step ranks are checked against the closed-form Betti numbers.  The
    last free module may have rank at most MAX_FREE_RANK.
    """
    _require_two_blocks(spec)
    if steps < 1:
        raise ValueError("need at least one step")
    top = betti(spec, steps)
    if top > MAX_FREE_RANK:
        raise ValueError(
            f"resource guard: the free module at step {steps} has rank {top}, "
            "above the supported 3 * 10**6"
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
